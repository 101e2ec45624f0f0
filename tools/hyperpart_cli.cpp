// Command-line partitioner for hMETIS and binary (.hpb) hypergraph files,
// and for generated catalogue workloads.
//
//   hyperpart_cli <graph.hgr|graph.hpb> [options]
//   hyperpart_cli --workload fam:preset[@scale] [--workload-nodes N]
//                 [options]
//   options: [--k K] [--eps E] [--metric cut|conn]
//            [--algo multilevel|rb|greedy|random|bnb|stream] [--seed S]
//            [--threads T] [--restream N] [--buffer B]
//            [--hier B1xB2[:G1]] [--out partition.txt]
//            [--convert out.hpb] [--write-hgr out.hgr]
//
// The input format is sniffed from the file's magic bytes, so .hpb files
// produced by --convert load zero-copy via mmap regardless of extension.
// `--workload` generates an application-shaped instance from the seeded
// catalogue (src/workload) instead of reading a file; `--seed` doubles as
// the generator seed, `--workload-nodes` overrides the preset's size, and
// `--write-hgr` dumps the instance as hMETIS text and exits (how the fuzz
// seed corpus instances were produced). An unknown family or preset is a
// usage error: one-line `error:` + usage, exit 2.
// `--algo stream` runs the one-pass streaming placer over the binary file
// (an hMETIS input is first converted to `<input>.hpb`; a workload is
// written to a temporary .hpb); `--restream N` follows it with N buffered
// re-streaming refinement passes. Prints the cost under both metrics and
// the part weights; with --hier, also evaluates the hierarchical cost
// (Definition 7.1) after an optimal hierarchy assignment. With --out,
// writes one part id per line.

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>

#include "hyperpart/algo/branch_and_bound.hpp"
#include "hyperpart/algo/greedy.hpp"
#include "hyperpart/algo/multilevel.hpp"
#include "hyperpart/algo/recursive_bisection.hpp"
#include "hyperpart/core/metrics.hpp"
#include "hyperpart/hier/two_step.hpp"
#include "hyperpart/io/hmetis_io.hpp"
#include "hyperpart/obs/telemetry.hpp"
#include "hyperpart/stream/binary_format.hpp"
#include "hyperpart/stream/restream_refiner.hpp"
#include "hyperpart/stream/stream_partitioner.hpp"
#include "hyperpart/util/overflow.hpp"
#include "hyperpart/util/parse.hpp"
#include "hyperpart/util/timer.hpp"
#include "hyperpart/workload/workload.hpp"

namespace {

[[noreturn]] void usage() {
  std::cerr
      << "usage: hyperpart_cli <graph.hgr|graph.hpb> [--k K] [--eps E]\n"
         "         [--metric cut|conn] "
         "[--algo multilevel|rb|greedy|random|bnb|stream]\n"
         "         [--seed S] [--threads T] [--restream N] [--buffer B]\n"
         "         [--hier B1xB2[:G1]] [--out partition.txt] "
         "[--convert out.hpb]\n"
         "         [--write-hgr out.hgr] [--telemetry t.json]\n"
         "       hyperpart_cli --workload fam:preset[@scale] "
         "[--workload-nodes N] [options]\n"
         "workloads: spmv:{banded,blockdiag,rmat} netlist:{rent,flat}\n"
         "           dataflow:{mlp,conv,attention} powerlaw:{zipf,hubs_last}\n";
  std::exit(2);
}

/// Checked flag parsing: one-line diagnostic + usage (exit 2) instead of an
/// uncaught std::invalid_argument from bare std::stoul.
[[noreturn]] void bad_flag(const std::string& flag, const std::string& token,
                           const char* expected) {
  std::cerr << "error: invalid value '" << token << "' for " << flag << " ("
            << expected << ")\n";
  usage();
}

std::uint64_t flag_u64(const std::string& flag, const std::string& token,
                       std::uint64_t min_value, std::uint64_t max_value,
                       const char* expected) {
  const auto v = hp::parse_u64(token, min_value, max_value);
  if (!v) bad_flag(flag, token, expected);
  return *v;
}

double flag_f64(const std::string& flag, const std::string& token,
                double min_value, double max_value, const char* expected) {
  const auto v = hp::parse_f64(token, min_value, max_value);
  if (!v) bad_flag(flag, token, expected);
  return *v;
}

/// Writes the telemetry session to `path` on scope exit (normal returns of
/// main and run_stream both pass through it).
struct TelemetryFlush {
  std::string path;
  ~TelemetryFlush() {
    if (path.empty()) return;
    if (hp::obs::write_json(path)) {
      std::cout << "telemetry written to " << path << "\n";
    } else {
      std::cerr << "error: cannot write telemetry to " << path << "\n";
    }
  }
};

void write_partition(const std::string& out_path, const hp::Partition& p,
                     hp::NodeId n) {
  std::ofstream out(out_path);
  for (hp::NodeId v = 0; v < n; ++v) out << p[v] << '\n';
  std::cout << "partition written to " << out_path << "\n";
}

/// Streaming pipeline: map the binary file (converting hMETIS first if
/// needed), one-pass place, optionally re-stream, report.
int run_stream(const std::string& path, hp::PartId k, double eps,
               hp::CostMetric metric, std::uint64_t seed, hp::NodeId buffer,
               int restream_passes,
               const std::optional<std::string>& out_path) {
  std::string bin_path = path;
  if (!hp::stream::is_binary_file(path)) {
    bin_path = path + ".hpb";
    try {
      hp::stream::convert_hmetis_file(path, bin_path);
    } catch (const std::exception& e) {
      // A usage error, not a runtime failure: the input is neither of the
      // two formats --algo stream accepts. Diagnose here instead of letting
      // the mmap reader fail later on a half-written conversion.
      std::cerr << "error: --algo stream needs a binary .hpb or hMETIS text "
                   "input; "
                << path << " is neither (" << e.what() << ")\n";
      usage();
    }
    std::cout << "converted " << path << " -> " << bin_path << "\n";
  }
  hp::stream::MappedHypergraph mapped(bin_path);
  std::cout << mapped.summary() << "\n";

  const auto balance = hp::BalanceConstraint::for_total_weight(
      mapped.total_node_weight(), k, eps, /*relaxed=*/true);

  hp::stream::StreamConfig scfg;
  scfg.metric = metric;
  scfg.seed = seed;
  if (buffer > 0) scfg.buffer_size = buffer;

  hp::Timer timer;
  auto streamed = hp::stream::stream_partition(mapped, balance, scfg);
  if (!streamed) {
    std::cerr << "no feasible partition found\n";
    return 1;
  }
  std::cout << "one-pass cost    = " << streamed->offline_cost << "\n";
  if (restream_passes > 0) {
    hp::stream::RestreamConfig rcfg;
    rcfg.metric = metric;
    rcfg.max_passes = restream_passes;
    const auto refined =
        hp::stream::restream_refine(mapped, streamed->partition, balance, rcfg);
    std::cout << "re-stream        = " << refined.passes_run << " passes, "
              << refined.moves_applied << "/" << refined.moves_proposed
              << " moves applied\n";
  }
  const double ms = timer.millis();

  const hp::Partition& partition = streamed->partition;
  std::cout << "algorithm        = stream";
  if (restream_passes > 0) std::cout << "+restream(" << restream_passes << ")";
  std::cout << " (" << ms << " ms)\n";
  std::cout << "cut-net cost     = "
            << hp::cost_of(mapped, partition, hp::CostMetric::kCutNet) << "\n";
  std::cout << "connectivity     = "
            << hp::cost_of(mapped, partition, hp::CostMetric::kConnectivity)
            << "\n";
  std::vector<hp::Weight> pw(k, 0);
  for (hp::NodeId v = 0; v < mapped.num_nodes(); ++v) {
    pw[partition[v]] = hp::sat_add(pw[partition[v]], mapped.node_weight(v));
  }
  std::cout << "part weights     =";
  for (const hp::Weight w : pw) std::cout << ' ' << w;
  std::cout << "\nbalanced         = "
            << (balance.satisfied(pw) ? "yes" : "no") << "\n";
  if (out_path) write_partition(*out_path, partition, mapped.num_nodes());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  std::optional<std::string> path;
  std::optional<std::string> workload_text;
  hp::NodeId workload_nodes = 0;
  std::optional<std::string> write_hgr_path;
  hp::PartId k = 2;
  bool k_set = false;
  double eps = 0.05;
  bool eps_set = false;
  hp::CostMetric metric = hp::CostMetric::kConnectivity;
  std::string algo = "multilevel";
  std::uint64_t seed = 1;
  unsigned threads = 1;
  int restream_passes = 0;
  hp::NodeId buffer = 0;
  std::optional<std::string> out_path;
  std::optional<std::string> convert_path;
  std::optional<hp::HierTopology> hier;
  TelemetryFlush telemetry;

  constexpr std::uint64_t kMaxPart = std::numeric_limits<hp::PartId>::max();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "error: " << arg << " expects a value\n";
        usage();
      }
      return argv[++i];
    };
    if (arg.rfind("--", 0) != 0) {
      if (path) {
        std::cerr << "error: more than one input file ('" << *path << "', '"
                  << arg << "')\n";
        usage();
      }
      path = arg;
    } else if (arg == "--workload") {
      workload_text = value();
    } else if (arg == "--workload-nodes") {
      workload_nodes = static_cast<hp::NodeId>(
          flag_u64(arg, value(), 1, kMaxPart, "integer >= 1"));
    } else if (arg == "--write-hgr") {
      write_hgr_path = value();
    } else if (arg == "--k") {
      k = static_cast<hp::PartId>(
          flag_u64(arg, value(), 2, kMaxPart, "integer >= 2"));
      k_set = true;
    } else if (arg == "--eps") {
      eps = flag_f64(arg, value(), 0.0, 1e9, "finite number >= 0");
      eps_set = true;
    } else if (arg == "--metric") {
      const std::string m = value();
      if (m == "cut") {
        metric = hp::CostMetric::kCutNet;
      } else if (m == "conn") {
        metric = hp::CostMetric::kConnectivity;
      } else {
        bad_flag(arg, m, "cut or conn");
      }
    } else if (arg == "--algo") {
      algo = value();
    } else if (arg == "--seed") {
      seed = flag_u64(arg, value(), 0, UINT64_MAX, "unsigned integer");
    } else if (arg == "--threads") {
      // 0 = hardware concurrency. The partition is identical for every
      // thread count (deterministic parallel engine); threads only change
      // wall-clock time.
      threads = static_cast<unsigned>(
          flag_u64(arg, value(), 0, 1024, "integer in [0, 1024]"));
    } else if (arg == "--restream") {
      restream_passes = static_cast<int>(
          flag_u64(arg, value(), 0, INT32_MAX, "integer >= 0"));
    } else if (arg == "--buffer") {
      buffer = static_cast<hp::NodeId>(
          flag_u64(arg, value(), 1, kMaxPart, "integer >= 1"));
    } else if (arg == "--out") {
      out_path = value();
    } else if (arg == "--convert") {
      convert_path = value();
    } else if (arg == "--telemetry") {
      telemetry.path = value();
    } else if (arg == "--hier") {
      const std::string spec = value();
      const auto x = spec.find('x');
      if (x == std::string::npos) {
        bad_flag(arg, spec, "B1xB2[:G1], e.g. 4x2:4");
      }
      const auto colon = spec.find(':');
      const std::uint64_t b1 = flag_u64(arg, spec.substr(0, x), 1, kMaxPart,
                                        "B1 must be an integer >= 1");
      const std::uint64_t b2 =
          flag_u64(arg, spec.substr(x + 1, colon - x - 1), 1, kMaxPart,
                   "B2 must be an integer >= 1");
      const double g1 = colon == std::string::npos
                            ? 4.0
                            : flag_f64(arg, spec.substr(colon + 1), 0.0, 1e9,
                                       "G1 must be a finite number >= 0");
      if (b1 * b2 < 2 || b1 * b2 > kMaxPart) {
        bad_flag(arg, spec, "B1*B2 must be in [2, 2^32)");
      }
      hier = hp::HierTopology{{static_cast<hp::PartId>(b1),
                               static_cast<hp::PartId>(b2)},
                              {g1, 1.0}};
      k = static_cast<hp::PartId>(b1 * b2);
    } else {
      std::cerr << "error: unknown flag '" << arg << "'\n";
      usage();
    }
  }
  if (path && workload_text) {
    std::cerr << "error: give either an input file or --workload, not both\n";
    usage();
  }
  if (!path && !workload_text) {
    std::cerr << "error: no input file and no --workload\n";
    usage();
  }
  if (!telemetry.path.empty()) {
    hp::obs::reset();
    hp::obs::set_enabled(true);
  }

  // Generate the workload up front: its suggested (k, ε) become the
  // defaults, and every downstream mode (partition, stream, convert,
  // write-hgr) consumes the same graph.
  std::optional<hp::workload::Workload> workload;
  if (workload_text) {
    try {
      auto spec = hp::workload::parse_spec(*workload_text);
      spec.seed = seed;
      spec.threads = threads;
      if (workload_nodes > 0) spec.target_nodes = workload_nodes;
      workload = hp::workload::generate(spec);
    } catch (const std::invalid_argument& e) {
      std::cerr << "error: " << e.what() << "\n";
      usage();
    }
    if (!k_set) k = workload->suggested_k;
    if (!eps_set) eps = workload->suggested_eps;
    std::cout << "workload         = " << workload->name << "\n";
  }

  if (write_hgr_path) {
    try {
      const hp::Hypergraph g = workload
                                   ? std::move(workload->graph)
                                   : hp::stream::read_hypergraph_file(*path);
      hp::write_hmetis_file(*write_hgr_path, g);
      std::cout << g.summary() << "\n"
                << "hgr written to " << *write_hgr_path << "\n";
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
    return 0;
  }

  if (convert_path) {
    try {
      if (workload) {
        hp::stream::write_binary_file(*convert_path, workload->graph);
      } else {
        if (hp::stream::is_binary_file(*path)) {
          std::cerr << "error: " << *path << " is already binary\n";
          return 1;
        }
        hp::stream::convert_hmetis_file(*path, *convert_path);
      }
      const hp::stream::MappedHypergraph mapped(*convert_path);
      std::cout << mapped.summary() << "\n"
                << "binary written to " << *convert_path << "\n";
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
    return 0;
  }

  if (algo == "stream") {
    try {
      std::string stream_path;
      if (workload) {
        stream_path = (std::filesystem::temp_directory_path() /
                       ("hyperpart_cli_" + std::to_string(getpid()) + ".hpb"))
                          .string();
        hp::stream::write_binary_file(stream_path, workload->graph);
        std::cout << "workload written to " << stream_path << "\n";
      } else {
        stream_path = *path;
      }
      return run_stream(stream_path, k, eps, metric, seed, buffer,
                        restream_passes, out_path);
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }

  hp::Hypergraph graph;
  try {
    graph = workload ? std::move(workload->graph)
                     : hp::stream::read_hypergraph_file(*path);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  std::cout << graph.summary() << "\n";

  const auto balance =
      hp::BalanceConstraint::for_graph(graph, k, eps, /*relaxed=*/true);
  hp::MultilevelConfig cfg;
  cfg.metric = metric;
  cfg.seed = seed;
  cfg.fm.threads = threads;

  hp::Timer timer;
  std::optional<hp::Partition> partition;
  if (algo == "multilevel") {
    partition = hp::multilevel_partition(graph, balance, cfg);
  } else if (algo == "rb") {
    partition = hp::recursive_bisection(graph, k, eps, cfg);
  } else if (algo == "greedy") {
    partition = hp::greedy_growing_partition(graph, balance, metric, seed);
  } else if (algo == "random") {
    partition = hp::random_balanced_partition(graph, balance, seed);
  } else if (algo == "bnb") {
    hp::BnbOptions opts;
    opts.metric = metric;
    const auto res = hp::branch_and_bound_partition(graph, balance, opts);
    if (res) {
      partition = res->partition;
      std::cout << (res->proven_optimal ? "proven optimal"
                                        : "search budget exhausted")
                << " after " << res->nodes_explored << " nodes\n";
    }
  } else {
    std::cerr << "error: unknown algorithm '" << algo << "'\n";
    usage();
  }
  const double ms = timer.millis();

  if (!partition) {
    std::cerr << "no feasible partition found\n";
    return 1;
  }
  std::cout << "algorithm        = " << algo << " (" << ms << " ms)\n";
  std::cout << "cut-net cost     = "
            << hp::cost(graph, *partition, hp::CostMetric::kCutNet) << "\n";
  std::cout << "connectivity     = "
            << hp::cost(graph, *partition, hp::CostMetric::kConnectivity)
            << "\n";
  std::cout << "part weights     =";
  for (const hp::Weight w : partition->part_weights(graph)) {
    std::cout << ' ' << w;
  }
  std::cout << "\nbalanced         = "
            << (balance.satisfied(graph, *partition) ? "yes" : "no") << "\n";

  if (hier) {
    const hp::TwoStepResult assigned =
        hp::assign_optimally(graph, *partition, *hier);
    std::cout << "hierarchical cost (after optimal assignment) = "
              << assigned.hierarchical_cost << "\n";
  }
  if (out_path) write_partition(*out_path, *partition, graph.num_nodes());
  return 0;
}
