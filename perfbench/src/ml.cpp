// ml-netlist / ml-powerlaw: repeated multilevel_partition calls on a pool
// of generated instances.
//
// The traced run makes an untraced warm-up call, then one with the hp::obs
// tracer on, then untraced pairs of multilevel_partition_cached calls: with
// an empty hierarchy, and again with the filled one. The second call of a
// pair skips coarsening, so the difference of their medians is coarsening
// time. All partitions must be bit-identical.

#include <cstdio>
#include <iostream>

#include "hyperpart/core/connectivity_tracker.hpp"
#include "hyperpart/obs/telemetry.hpp"
#include "hyperpart/stream/binary_format.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace json = hp::obs::json;

namespace {

constexpr hp::NodeId kMlNodes = 30000;
/// Instances per run: partition time and cost vary between instances of
/// one family, so a run averages over a small seeded pool. Each instance is
/// partitioned at least once; more instances average that variation away
/// at no extra measuring time.
constexpr std::uint64_t kMlInstances = 8;
constexpr int kMlSetupReps = 3;
/// Fresh/reuse call pairs of the traced run's coarsening.ms.
constexpr int kCoarseningPairs = 5;

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

std::optional<hp::Partition> timed_multilevel(
    const hp::Hypergraph& g, const hp::BalanceConstraint& balance,
    const hp::MultilevelConfig& cfg, hp::MultilevelHierarchy* hierarchy,
    Report& rep, double* seconds, double* cpu_seconds) {
  std::optional<hp::Partition> p;
  const double c0 = cpu_s();
  const double t0 = now_s();
  const auto stop = [&] {
    *seconds = now_s() - t0;
    if (cpu_seconds) *cpu_seconds = cpu_s() - c0;
  };
  try {
    p = hierarchy ? hp::multilevel_partition_cached(g, balance, cfg, hierarchy)
                  : hp::multilevel_partition(g, balance, cfg);
  } catch (const std::exception& e) {
    stop();
    rep.op(false, std::string("multilevel_partition threw: ") + e.what());
    return std::nullopt;
  }
  stop();
  std::string problem;
  if (!p) {
    problem = "no partition returned";
  } else if (!p->complete()) {
    problem = "partition incomplete";
  } else {
    const hp::ConnectivityTracker tracker(g, *p, cfg.fm.threads);
    problem = partition_problem(g, p->raw(), balance.k(), balance.capacity(),
                                tracker.connectivity_cost());
  }
  if (!rep.op(problem.empty(), "multilevel_partition: " + problem)) {
    return std::nullopt;
  }
  return p;
}

void run_ml(const Options& opt, const std::string& spec_text, Report& rep) {
  // --- Set-up: a child process generates each instance of the pool and
  // writes it to HPBH; this process maps each file into a Hypergraph (as
  // hyperpartd's load does), starts the thread pool and touches every
  // graph. The generator's memory stays in the child, so peak_rss_mb is
  // the pool's graphs plus the partitioner's working memory.
  std::vector<hp::Hypergraph> pool;
  std::vector<GeneratedFile> files(kMlInstances);
  std::vector<double> setup, generate, write, load;
  std::uint64_t content = 0;
  for (int rep_i = 0; rep_i < kMlSetupReps; ++rep_i) {
    pool.clear();
    const double t0 = now_s();
    double gen_s = 0.0, write_s = 0.0, load_s = 0.0;
    for (std::uint64_t i = 0; i < kMlInstances; ++i) {
      const std::string path =
          opt.workdir + "/ml" + std::to_string(i) + ".hpb";
      files[i] = generate_in_child(opt, spec_text, kMlNodes,
                                   opt.seed * kMlInstances + i, path);
      gen_s += files[i].generate_s;
      write_s += files[i].write_s;
      const double l0 = now_s();
      pool.push_back(hp::stream::MappedHypergraph(path).materialize());
      load_s += now_s() - l0;
      std::remove(path.c_str());
    }
    warm_thread_pool(opt.threads);
    std::uint64_t h = 0;
    for (std::uint64_t i = 0; i < kMlInstances; ++i) {
      const std::uint64_t ch = pool[i].content_hash();
      rep.op(ch == files[i].hash,
             "loaded HPBH differs from the generated graph");
      h = h * 31 + ch;
    }
    setup.push_back(now_s() - t0);
    generate.push_back(gen_s);
    write.push_back(write_s);
    load.push_back(load_s);
    if (rep_i > 0) rep.op(h == content, "generation is not deterministic");
    content = h;
  }
  std::vector<hp::BalanceConstraint> balance;
  for (std::uint64_t i = 0; i < kMlInstances; ++i) {
    const hp::Hypergraph& g = pool[i];
    balance.push_back(hp::BalanceConstraint::for_graph(
        g, files[i].k, files[i].eps, /*relaxed=*/true));
    std::cout << "# " << spec_text << " n=" << g.num_nodes()
              << " m=" << g.num_edges() << " pins=" << g.num_pins()
              << " k=" << files[i].k << " threads=" << opt.threads << "\n";
  }
  hp::MultilevelConfig cfg;
  cfg.fm.threads = opt.threads;

  if (!opt.trace) {
    // One untimed warm-up call: the process's first calls pay first-touch
    // page faults for the partitioner's working memory, which later calls
    // reuse, and would otherwise be charged to whichever instance ran
    // first. Then round-robin over the pool until the time is up and every
    // instance has been partitioned; per-instance medians, averaged over
    // the pool. peak_rss_mb is read after the first pass over the pool:
    // how many calls fit in the time varies, and with them the heap's
    // fragmentation, so a later high-water mark would vary from run to run.
    double warmup = 0.0;
    (void)timed_multilevel(pool[0], balance[0], cfg, nullptr, rep,
                           &warmup);
    std::vector<std::vector<double>> times(pool.size());
    std::vector<std::optional<std::uint64_t>> first_hash(pool.size());
    std::vector<hp::Weight> cost(pool.size(), 0);
    std::vector<double> wall, cpu;
    double rss = 0.0;
    const double start = now_s();
    for (std::size_t i = 0;
         now_s() - start < opt.seconds || times.back().empty();
         i = (i + 1) % pool.size()) {
      const hp::Hypergraph& g = pool[i];
      double secs = 0.0, cpu_secs = 0.0;
      const auto p =
          timed_multilevel(g, balance[i], cfg, nullptr, rep, &secs, &cpu_secs);
      times[i].push_back(cpu_secs);
      wall.push_back(secs);
      cpu.push_back(cpu_secs);
      if (wall.size() == pool.size()) rss = peak_rss_mb();
      if (!p) continue;
      const std::uint64_t h = partition_hash(p->raw());
      if (!first_hash[i]) {
        first_hash[i] = h;
        cost[i] = hp::cost_of(g, *p, hp::CostMetric::kConnectivity);
      } else {
        rep.op(h == *first_hash[i], "repeated multilevel calls differ");
      }
    }
    double partition_s = 0.0, mean_cost = 0.0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      partition_s += median(times[i]) / static_cast<double>(pool.size());
      mean_cost += static_cast<double>(cost[i]) /
                   static_cast<double>(pool.size());
    }
    rep.metric("setup_s", median(setup), "s");
    rep.metric("partition_s", partition_s, "s");
    rep.metric("cost", mean_cost, "count");
    rep.metric("peak_rss_mb", rss, "MiB");
    rep.metric("cycles_per_s", 1.0 / partition_s, "1/s");
    std::cout << "# partition calls=" << wall.size() << ", wall/cpu s:";
    for (std::size_t j = 0; j < wall.size(); ++j) {
      std::cout << " " << wall[j] << "/" << cpu[j];
    }
    std::cout << "\n";
    return;
  }

  const hp::Hypergraph& g = pool.front();
  const hp::BalanceConstraint& b = balance.front();
  // --- Traced run. The first untraced call warms the process up.
  double warmup = 0.0;
  const auto p0 = timed_multilevel(g, b, cfg, nullptr, rep, &warmup);

  hp::obs::reset();
  hp::obs::set_enabled(true);
  hp::MultilevelHierarchy hier;
  double traced = 0.0;
  const auto p1 = timed_multilevel(g, b, cfg, &hier, rep, &traced);
  const json::Value trace = hp::obs::to_json();
  const auto counter = [](const char* name) {
    return static_cast<double>(hp::obs::counter(name));
  };
  const double levels = counter("multilevel.levels");
  const double coarsest =
      static_cast<double>(hp::obs::gauge("multilevel.coarsest_nodes"));
  const double proposals = counter("coarsen.proposals");
  const double conflicts = counter("coarsen.conflicts");
  const double merged = counter("coarsen.merged");
  const double moves = counter("fm.moves_applied");
  const double rolled_back = counter("fm.moves_rolled_back");
  const double sync_moved = counter("fm.sync_moved");
  const double sync_conflicted = counter("fm.sync_conflicted");
  hp::obs::set_enabled(false);
  hp::obs::reset();
  if (p0 && p1) {
    rep.op(partition_hash(p0->raw()) == partition_hash(p1->raw()),
           "traced partition differs from the untraced one");
  }

  // Untraced pairs: a call with an empty hierarchy, then one that reuses
  // the filled hierarchy and so skips coarsening. On ml-powerlaw
  // coarsening is a few percent of a call, less than the call-to-call
  // jitter of initial partitioning, so the difference takes medians over
  // several pairs. The fresh calls are also the tracing-overhead baseline.
  std::vector<double> fresh, reuse;
  for (int i = 0; i < kCoarseningPairs; ++i) {
    hp::MultilevelHierarchy h;
    double f = 0.0, r = 0.0;
    const auto pf = timed_multilevel(g, b, cfg, &h, rep, &f);
    const auto pr = timed_multilevel(g, b, cfg, &h, rep, &r);
    fresh.push_back(f);
    reuse.push_back(r);
    if (p1 && pf && pr) {
      rep.op(partition_hash(pf->raw()) == partition_hash(p1->raw()) &&
                 partition_hash(pr->raw()) == partition_hash(p1->raw()),
             "hierarchy-reuse partition differs from the fresh one");
    }
  }
  const double coarsening_ms = (median(fresh) - median(reuse)) * 1e3;
  const double untraced_ms = median(fresh) * 1e3;

  double tracker_ms = 0.0;
  if (p1) {
    const double t0 = now_s();
    const hp::ConnectivityTracker tracker(g, *p1, opt.threads);
    tracker_ms = (now_s() - t0) * 1e3;
  }

  const json::Value* ml = span_child(trace, "multilevel");
  const json::Value empty{json::Object{}};
  const json::Value& root = ml ? *ml : empty;
  const double coarsen_ms = span_sum(root, "coarsen[");
  const double round_ms = span_sum(root, "coarsen[", "round[");
  const double dedup_ms = span_sum(root, "coarsen[", "dedup");
  const double contract_ms = span_sum(root, "coarsen[", "contract");
  const json::Value* initial = span_child(root, "initial");
  const double initial_ms = span_ms(initial);
  const double initial_fm_ms = initial ? span_ms(span_child(*initial, "fm"))
                                       : 0.0;
  const double refine_ms = span_sum(root, "uncoarsen[");
  const double refine_fm_ms = span_sum(root, "uncoarsen[", "fm");
  const double ml_ms = span_ms(ml);
  const double traced_ms = traced * 1e3;

  rep.metric("workload.generate_ms", median(generate) * 1e3, "ms");
  rep.metric("stream.write_hpb_ms", median(write) * 1e3, "ms");
  rep.metric("stream.map_ms", median(load) * 1e3, "ms");
  rep.metric("coarsening.ms", coarsening_ms, "ms");
  rep.metric("coarsening.round_ms", round_ms, "ms");
  rep.metric("coarsening.dedup_ms", dedup_ms, "ms");
  rep.metric("coarsening.levels", levels, "count");
  rep.metric("coarsening.coarsest_nodes", coarsest, "count");
  rep.metric("coarsening.proposals", proposals, "count");
  rep.metric("coarsening.conflicts", conflicts, "count");
  rep.metric("coarsening.merge_ratio", ratio(merged, proposals), "ratio");
  rep.metric("initial.ms", initial_ms, "ms");
  rep.metric("initial.fm_ms", initial_fm_ms, "ms");
  rep.metric("refine.ms", refine_ms, "ms");
  rep.metric("refine.moves_applied", moves, "count");
  rep.metric("refine.rollback_ratio", ratio(rolled_back, moves + rolled_back),
             "ratio");
  rep.metric("refine.sync_conflict_ratio",
             ratio(sync_conflicted, sync_moved + sync_conflicted), "ratio");
  rep.metric("tracker.build_ms", tracker_ms, "ms");
  rep.metric("trace.coverage_ratio",
             ratio(coarsen_ms + initial_ms + refine_ms, traced_ms), "ratio");

  print_layer_table(
      std::cout, "traced multilevel call (" + spec_text + ")",
      {{"multilevel", ml_ms, ml_ms - coarsen_ms - initial_ms - refine_ms, 1},
       {"coarsening", coarsen_ms,
        coarsen_ms - round_ms - dedup_ms - contract_ms, levels},
       {"coarsening.round", round_ms, round_ms, proposals},
       {"coarsening.dedup", dedup_ms, dedup_ms, levels},
       {"coarsening.contract", contract_ms, contract_ms, levels},
       {"initial", initial_ms, initial_ms - initial_fm_ms, 1},
       {"initial.fm", initial_fm_ms, initial_fm_ms, 1},
       {"refine", refine_ms, refine_ms - refine_fm_ms, levels},
       {"refine.fm", refine_fm_ms, refine_fm_ms, moves},
       {"tracker.build", tracker_ms, tracker_ms, 1}});
  std::cout << "# coarsening by hierarchy reuse: " << coarsening_ms
            << " ms (median of " << kCoarseningPairs << " pairs: fresh "
            << untraced_ms << " ms, reuse " << median(reuse) * 1e3
            << " ms)\n"
            << "# coverage: " << 100.0 * ratio(coarsen_ms + initial_ms +
                                                    refine_ms,
                                                traced_ms)
            << "% of the traced call; tracing overhead "
            << traced_ms - untraced_ms << " ms\n";
  if (p1) {
    std::cout << "# cost " << hp::cost_of(g, *p1, hp::CostMetric::kConnectivity)
              << " partition hash " << partition_hash(p1->raw()) << "\n";
  }
}

}  // namespace perfbench
