// stream-powerlaw: the generated graph goes through the HPBH binary format
// (write_binary_file in a generator child process, then a MappedHypergraph
// over the file here); each measured cycle is one stream_partition
// placement plus two restream_refine passes.

#include <cstdio>
#include <iostream>

#include "hyperpart/obs/telemetry.hpp"
#include "hyperpart/stream/binary_format.hpp"
#include "hyperpart/stream/restream_refiner.hpp"
#include "hyperpart/stream/stream_partitioner.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr hp::NodeId kStreamNodes = 1000000;
constexpr int kRestreamPasses = 2;
/// Set-up repetitions per run; setup_s is their median.
constexpr int kStreamSetupReps = 3;

/// Read every section of the mapping once so its pages are resident.
std::uint64_t touch(const hp::stream::MappedHypergraph& g) {
  std::uint64_t sum = 0;
  for (hp::EdgeId e = 0; e < g.num_edges(); ++e) {
    for (const hp::NodeId v : g.pins(e)) sum += v;
  }
  for (hp::NodeId v = 0; v < g.num_nodes(); ++v) {
    sum += g.incident_edges(v).size() + static_cast<std::uint64_t>(
                                            g.node_weight(v));
  }
  return sum;
}

}  // namespace

void run_stream(const Options& opt, Report& rep) {
  const std::string spec = "powerlaw:zipf";
  const std::string path = opt.workdir + "/stream.hpb";

  // --- Set-up: a child process generates the instance and writes HPBH;
  // this process maps the file and touches the mapping. It never holds
  // the graph in memory, so peak_rss_mb is the mmap stream stack's own.
  std::optional<hp::stream::MappedHypergraph> mapped;
  std::vector<double> setup, generate, write, map;
  GeneratedFile file;
  std::uint64_t touched = 0, hash = 0;
  for (int rep_i = 0; rep_i < kStreamSetupReps; ++rep_i) {
    mapped.reset();
    const double t0 = now_s();
    file = generate_in_child(opt, spec, kStreamNodes, opt.seed, path);
    const double t1 = now_s();
    warm_thread_pool(opt.threads);
    mapped.emplace(path);
    const std::uint64_t sum = touch(*mapped);
    const double t2 = now_s();
    setup.push_back(t2 - t0);
    generate.push_back(file.generate_s);
    write.push_back(file.write_s);
    map.push_back(t2 - t1);
    rep.op(mapped->num_nodes() == file.n && mapped->num_edges() == file.m &&
               mapped->num_pins() == file.pins,
           "mapped HPBH sizes differ from the generated graph");
    if (rep_i > 0) {
      rep.op(sum == touched && file.hash == hash,
             "generation is not deterministic");
    }
    touched = sum;
    hash = file.hash;
  }
  const hp::PartId k = file.k;
  const double eps = file.eps;
  const hp::stream::MappedHypergraph& g = *mapped;
  const auto balance = hp::BalanceConstraint::for_total_weight(
      g.total_node_weight(), k, eps, /*relaxed=*/true);
  hp::stream::StreamConfig scfg;
  hp::stream::RestreamConfig rcfg;
  rcfg.max_passes = kRestreamPasses;
  rcfg.threads = opt.threads;
  std::cout << "# " << spec << " seed=" << opt.seed << " n=" << g.num_nodes()
            << " m=" << g.num_edges() << " pins=" << g.num_pins()
            << " k=" << k << " threads=" << opt.threads << "\n";

  std::vector<double> times, cpu, place, restream;
  std::optional<std::uint64_t> first_hash;
  hp::Weight cost = 0;
  double proposed = 0.0, applied = 0.0;
  // The traced run makes three cycles: an untraced warm-up, one with the
  // hp::obs tracer on, and an untraced baseline for the tracing overhead.
  const double start = now_s();
  do {
    hp::obs::set_enabled(opt.trace && times.size() == 1);
    const double c0 = cpu_s();
    const double t0 = now_s();
    auto streamed = hp::stream::stream_partition(g, balance, scfg);
    const double t1 = now_s();
    if (!streamed) {
      times.push_back(t1 - t0);
      cpu.push_back(cpu_s() - c0);
      rep.op(false, "stream_partition returned no partition");
      continue;
    }
    hp::Partition p = streamed->partition;
    const auto rr = hp::stream::restream_refine(g, p, balance, rcfg);
    const double t2 = now_s();
    times.push_back(t2 - t0);
    cpu.push_back(cpu_s() - c0);
    place.push_back(t1 - t0);
    restream.push_back(t2 - t1);
    proposed = static_cast<double>(rr.moves_proposed);
    applied = static_cast<double>(rr.moves_applied);

    std::string problem = partition_problem(
        g, streamed->partition.raw(), k, balance.capacity(),
        streamed->offline_cost);
    if (!problem.empty()) {
      problem = "placement: " + problem;
    } else {
      problem = partition_problem(g, p.raw(), k, balance.capacity(), rr.cost);
      if (!problem.empty()) problem = "restream: " + problem;
    }
    const std::uint64_t h = partition_hash(p.raw());
    if (problem.empty() && first_hash && h != *first_hash) {
      problem = "repeated stream cycles differ";
    }
    if (rep.op(problem.empty(), "stream-powerlaw " + problem) && !first_hash) {
      first_hash = h;
      cost = rr.cost;
    }
  } while (opt.trace ? times.size() < 3 : now_s() - start < opt.seconds);
  hp::obs::set_enabled(false);
  std::remove(path.c_str());

  if (!opt.trace) {
    rep.metric("setup_s", median(setup), "s");
    rep.metric("partition_s", median(cpu), "s");
    rep.metric("cost", static_cast<double>(cost), "count");
    rep.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    rep.metric("cycles_per_s", 1.0 / median(cpu), "1/s");
    std::cout << "# stream cycles=" << times.size() << ", wall/cpu s:";
    for (std::size_t j = 0; j < times.size(); ++j) {
      std::cout << " " << times[j] << "/" << cpu[j];
    }
    std::cout << "\n";
    return;
  }

  // Layer times come from the benchmark's own spans around the two public
  // calls of the traced cycle.
  const double place_ms = place.size() > 1 ? place[1] * 1e3 : 0.0;
  const double restream_ms = restream.size() > 1 ? restream[1] * 1e3 : 0.0;
  const double cycle_ms = times[1] * 1e3;
  rep.metric("workload.generate_ms", median(generate) * 1e3, "ms");
  rep.metric("stream.write_hpb_ms", median(write) * 1e3, "ms");
  rep.metric("stream.map_ms", median(map) * 1e3, "ms");
  rep.metric("stream.place_ms", place_ms, "ms");
  rep.metric("stream.restream_ms", restream_ms, "ms");
  rep.metric("stream.restream_accept_ratio",
             proposed > 0 ? applied / proposed : 0.0, "ratio");
  rep.metric("trace.coverage_ratio", (place_ms + restream_ms) / cycle_ms,
             "ratio");
  print_layer_table(std::cout, "traced stream cycle",
                    {{"workload.generate", median(generate) * 1e3,
                      median(generate) * 1e3, 1},
                     {"stream.write_hpb", median(write) * 1e3,
                      median(write) * 1e3, 1},
                     {"stream.map", median(map) * 1e3, median(map) * 1e3, 1},
                     {"stream.place", place_ms, place_ms,
                      static_cast<double>(g.num_nodes())},
                     {"stream.restream", restream_ms, restream_ms, applied}});
  std::cout << "# coverage: " << 100.0 * (place_ms + restream_ms) / cycle_ms
            << "% of the traced cycle; tracing overhead "
            << (times[1] - times[2]) * 1e3 << " ms\n"
            << "# cost " << cost << " partition hash "
            << (first_hash ? *first_hash : 0) << "\n";
}

}  // namespace perfbench
