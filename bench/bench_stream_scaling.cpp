// Streaming-partitioner scaling: quality, wall time, and peak RSS of the
// one-pass streaming placer (and its re-streaming refinement) against the
// in-memory greedy and multilevel partitioners on the same instances.
//
// Peak RSS (VmHWM) is a monotone per-process high-water mark, so each
// algorithm runs in its own forked child (re-exec of this binary with
// --child); the parent only generates the instance, writes the binary
// file, and collects the children's result files. The streaming children
// never materialize the hypergraph — they work off the mmap'd file — which
// is exactly the footprint gap this bench measures.
//
// Smoke mode runs a small n=20k instance (CI-friendly); the full sweep
// runs n in {250k, 1M, 2M} (greedy stops at 250k and multilevel at 1M) and
// enforces the RSS/cost acceptance gate at n = 1M.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "hyperpart/algo/greedy.hpp"
#include "hyperpart/algo/multilevel.hpp"
#include "hyperpart/core/metrics.hpp"
#include "hyperpart/io/generators.hpp"
#include "hyperpart/stream/binary_format.hpp"
#include "hyperpart/stream/restream_refiner.hpp"
#include "hyperpart/stream/stream_partitioner.hpp"
#include "hyperpart/util/subprocess.hpp"
#include "hyperpart/util/timer.hpp"

#include "bench_util.hpp"

namespace {

using namespace hp;

constexpr PartId kParts = 8;
constexpr double kEps = 0.1;
constexpr int kRestreamPasses = 2;

struct Row {
  NodeId n;
  EdgeId m;
  std::uint64_t pins;
  PartId k;
  std::string algo;
  Weight cost;
  double ms;
  std::uint64_t rss_kb;
};

/// Child mode: run one algorithm on the binary file and report
/// "cost=<C> ms=<T> rss_kb=<R>" to the result file. Runs in its own
/// process so VmHWM attributes to this algorithm alone.
int run_child(const std::string& algo, const std::string& bin_path, PartId k,
              double eps, int restream_passes,
              const std::string& result_path) {
  Weight cost_out = 0;
  Timer timer;
  if (algo == "stream" || algo == "restream") {
    stream::MappedHypergraph mapped(bin_path);
    const auto balance = BalanceConstraint::for_total_weight(
        mapped.total_node_weight(), k, eps, true);
    stream::StreamConfig scfg;
    const auto streamed = stream::stream_partition(mapped, balance, scfg);
    if (!streamed) return 1;
    cost_out = streamed->offline_cost;
    if (algo == "restream") {
      stream::RestreamConfig rcfg;
      rcfg.max_passes = restream_passes;
      Partition p = streamed->partition;
      const auto refined = stream::restream_refine(mapped, p, balance, rcfg);
      cost_out = refined.cost;
    }
  } else {
    // In-memory baselines: materialize, then drop the file's pages so the
    // footprint is the in-memory algorithm's own, as in a non-mmap run.
    stream::MappedHypergraph mapped(bin_path);
    const Hypergraph g = mapped.materialize();
    mapped.drop_resident_pages();
    const auto balance = BalanceConstraint::for_graph(g, k, eps, true);
    std::optional<Partition> p;
    if (algo == "greedy") {
      p = greedy_growing_partition(g, balance, CostMetric::kConnectivity, 7);
    } else if (algo == "multilevel") {
      MultilevelConfig cfg;
      p = multilevel_partition(g, balance, cfg);
    } else {
      return 2;
    }
    if (!p) return 1;
    cost_out = cost(g, *p, CostMetric::kConnectivity);
  }
  const double ms = timer.millis();

  std::ofstream out(result_path);
  out << "cost=" << cost_out << " ms=" << ms
      << " rss_kb=" << hp::bench::peak_rss_bytes() / 1024 << "\n";
  return out ? 0 : 1;
}

/// Fork + re-exec this binary in --child mode and parse the result file.
[[nodiscard]] bool run_algo(const std::string& algo,
                            const std::string& bin_path, Row& row) {
  const std::string result_path = bin_path + "." + algo + ".result";
  const auto status = hp::subprocess::run(
      "/proc/self/exe",
      {"--child", algo, bin_path, std::to_string(kParts),
       std::to_string(kEps), std::to_string(kRestreamPasses), result_path});
  if (!status.ok()) {
    std::cerr << "child for algo " << algo << " failed\n";
    return false;
  }

  std::ifstream in(result_path);
  std::string token;
  bool have_cost = false, have_ms = false, have_rss = false;
  while (in >> token) {
    if (token.rfind("cost=", 0) == 0) {
      row.cost = std::stoll(token.substr(5));
      have_cost = true;
    } else if (token.rfind("ms=", 0) == 0) {
      row.ms = std::stod(token.substr(3));
      have_ms = true;
    } else if (token.rfind("rss_kb=", 0) == 0) {
      row.rss_kb = std::stoull(token.substr(7));
      have_rss = true;
    }
  }
  std::remove(result_path.c_str());
  row.algo = algo;
  return have_cost && have_ms && have_rss;
}

}  // namespace

HP_BENCH_CASE(scaling_sweep,
              "Streaming vs in-memory partitioners: per-algorithm cost, "
              "wall time, and forked-child peak RSS; full mode gates n=1M") {
  std::vector<NodeId> sizes{250000, 1000000, 2000000};
  if (ctx.smoke()) sizes = {20000};

  bench::banner("Streaming partitioner scaling (k=8, connectivity)");
  auto table = ctx.table({{"n", "n"},
                          {"m", "m"},
                          {"pins", "pins"},
                          {"k", "k"},
                          {"algo", "algo"},
                          {"cost", "cost"},
                          {"wall_ms", "ms"},
                          {"peak_rss_kb", "peak RSS kB"}});
  std::vector<Row> rows;

  for (const NodeId n : sizes) {
    // Same instance family as the refinement bench: m = n edges of size
    // 2..8, ρ ≈ 5n pins.
    const EdgeId m = n;
    const std::string bin_path =
        "stream_bench_" + std::to_string(n) + ".hpb";
    std::uint64_t pins = 0;
    {
      const Hypergraph g = random_hypergraph(n, m, 2, 8, 12345 + n);
      pins = g.num_pins();
      hp::stream::write_binary_file(bin_path, g);
    }  // the parent frees the instance before any child runs

    // Caps on the in-memory baselines. Greedy growing costs O(k·n + n log n)
    // plus the pins its picks touch, but it stops at 250k so the full sweep
    // keeps the same rows as earlier runs. Multilevel is hopeless at n = 2M
    // on one core and stops at 1M.
    std::vector<std::string> algos{"stream", "restream"};
    if (n <= 250000) algos.push_back("greedy");
    if (n <= 1000000) algos.push_back("multilevel");

    Weight stream_cost = -1;
    for (const std::string& algo : algos) {
      Row row{};
      row.n = n;
      row.m = m;
      row.pins = pins;
      row.k = kParts;
      if (!ctx.check(run_algo(algo, bin_path, row),
                     algo + " child succeeds at n=" + std::to_string(n))) {
        continue;
      }
      if (algo == "stream") stream_cost = row.cost;
      if (algo == "restream" && stream_cost >= 0) {
        ctx.check(row.cost <= stream_cost,
                  "restream never worsens the one-pass cost at n=" +
                      std::to_string(n));
      }
      table.row(row.n, row.m, row.pins, static_cast<unsigned>(row.k),
                row.algo, row.cost, row.ms, row.rss_kb);
      rows.push_back(row);
    }
    std::remove(bin_path.c_str());
  }
  table.print();

  // Acceptance gate at n = 1M, k = 8: streaming + re-stream must finish
  // within 25% of multilevel's peak RSS and 2.5× its cost (full mode only
  // — the n = 1M rows are absent in smoke).
  const Row* restream = nullptr;
  const Row* multilevel = nullptr;
  for (const Row& r : rows) {
    if (r.n != 1000000) continue;
    if (r.algo == "restream") restream = &r;
    if (r.algo == "multilevel") multilevel = &r;
  }
  if (restream && multilevel) {
    const double rss_ratio =
        double(restream->rss_kb) / double(multilevel->rss_kb);
    const double cost_ratio =
        double(restream->cost) / double(multilevel->cost);
    const bool pass = rss_ratio < 0.25 && cost_ratio <= 2.5;
    ctx.check(pass, "acceptance gate at n=1M k=8: RSS ratio < 0.25 and "
                    "cost ratio <= 2.5");
    std::cout << "n=1M k=8: restream RSS " << restream->rss_kb / 1024
              << " MB vs multilevel " << multilevel->rss_kb / 1024
              << " MB (ratio " << rss_ratio << "), cost ratio " << cost_ratio
              << " — " << (pass ? "PASS" : "FAIL") << "\n";
  }
}

int main(int argc, char** argv) {
  // The --child protocol must bypass the harness: children are re-execs of
  // this binary doing exactly one algorithm run for RSS attribution.
  if (argc >= 2 && std::strcmp(argv[1], "--child") == 0) {
    if (argc != 8) return 2;
    return run_child(argv[2], argv[3],
                     static_cast<hp::PartId>(std::stoul(argv[4])),
                     std::stod(argv[5]), std::stoi(argv[6]), argv[7]);
  }
  return hp::bench::bench_main(argc, argv, "stream_scaling");
}
