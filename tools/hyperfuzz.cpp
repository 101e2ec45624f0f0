// Differential fuzzing driver: the standing correctness gate for every
// solver stack in this repo.
//
//   hyperfuzz [--seed S] [--runs N] [--max-nodes N] [--max-edges M]
//             [--families f1,f2,...] [--exact-limit N] [--threads T]
//             [--out-dir DIR] [--max-failures F] [--inject-bug gain]
//             [--no-anneal] [--no-stream] [--no-incremental]
//             [--structural-rounds N] [--quiet]
//   hyperfuzz --replay file.hgr|file.hpb [--k K] [--eps E]
//             [--metric cut|conn] [--seed S] [--inject-bug gain]
//
// Fuzz mode generates one seeded instance per run (families: random,
// skewed, hyperdag, grid, spes, degenerate, plus the workload-catalogue
// legs spmv, netlist, dataflow, powerlaw) and runs the full differential
// oracle on it — every heuristic, the streaming round trip, and on small
// instances the three exact solvers — checking the cross-solver invariants
// documented in fuzz/oracle.hpp. A failing instance is ddmin-shrunk to a
// minimal repro and dumped into --out-dir as an hMETIS file plus the exact
// replay invocation; the exit code is the number of failing runs (capped).
//
// Replay mode re-runs the oracle on a dumped (or corpus) file, so every CI
// artifact reproduces with a single command. --inject-bug seeds a
// deliberate gain-rule fault inside the oracle's own prediction — the
// self-test proving the harness catches and shrinks real bugs.

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "hyperpart/fuzz/instance_gen.hpp"
#include "hyperpart/fuzz/oracle.hpp"
#include "hyperpart/fuzz/shrinker.hpp"
#include "hyperpart/obs/telemetry.hpp"
#include "hyperpart/stream/binary_format.hpp"
#include "hyperpart/util/parse.hpp"
#include "hyperpart/util/rng.hpp"
#include "hyperpart/util/timer.hpp"

namespace {

[[noreturn]] void usage() {
  std::cerr
      << "usage: hyperfuzz [--seed S] [--runs N] [--max-nodes N] "
         "[--max-edges M]\n"
         "         [--families f1,f2,...] [--exact-limit N] [--threads T]\n"
         "         [--out-dir DIR] [--max-failures F] [--inject-bug gain]\n"
         "         [--no-anneal] [--no-stream] [--no-incremental]\n"
         "         [--structural-rounds N] [--quiet] [--telemetry t.json]\n"
         "       hyperfuzz --replay file.hgr|file.hpb [--k K] [--eps E]\n"
         "         [--metric cut|conn] [--seed S] [--inject-bug gain]\n"
         "families: random skewed hyperdag grid spes degenerate\n"
         "          spmv netlist dataflow powerlaw\n";
  std::exit(2);
}

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

std::vector<hp::fuzz::Family> parse_families(const std::string& csv) {
  std::vector<hp::fuzz::Family> out;
  std::istringstream is(csv);
  std::string name;
  while (std::getline(is, name, ',')) {
    if (!name.empty()) out.push_back(hp::fuzz::family_from_string(name));
  }
  return out;
}

int replay(const std::string& path, hp::PartId k, double eps,
           hp::CostMetric metric, std::uint64_t seed,
           const hp::fuzz::OracleOptions& oopts) {
  hp::fuzz::FuzzInstance inst;
  inst.graph = hp::stream::read_hypergraph_file(path);
  inst.k = k;
  inst.epsilon = eps;
  inst.metric = metric;
  inst.seed = seed;
  inst.family = "replay";

  const auto report = hp::fuzz::run_oracle(inst, oopts);
  std::cout << hp::fuzz::describe(inst) << "\n" << report.to_string() << "\n";
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  std::uint64_t runs = 1000;
  hp::fuzz::GenOptions gen;
  hp::fuzz::OracleOptions oopts;
  std::string out_dir = "hyperfuzz-repros";
  std::string replay_path;
  std::string telemetry_path;
  int max_failures = 5;
  bool quiet = false;
  hp::PartId replay_k = 2;
  double replay_eps = 0.1;
  hp::CostMetric replay_metric = hp::CostMetric::kConnectivity;

  constexpr std::uint64_t kMaxId = UINT32_MAX;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "error: " << arg << " expects a value\n";
        usage();
      }
      return argv[++i];
    };
    if (arg == "--seed") {
      seed = flag_u64(arg, value(), 0, UINT64_MAX, "unsigned integer");
    } else if (arg == "--runs") {
      runs = flag_u64(arg, value(), 0, UINT64_MAX, "unsigned integer");
    } else if (arg == "--max-nodes") {
      gen.max_nodes = static_cast<hp::NodeId>(
          flag_u64(arg, value(), 1, kMaxId, "integer >= 1"));
    } else if (arg == "--max-edges") {
      gen.max_edges = static_cast<hp::EdgeId>(
          flag_u64(arg, value(), 1, kMaxId, "integer >= 1"));
    } else if (arg == "--families") {
      gen.families = parse_families(value());
    } else if (arg == "--exact-limit") {
      oopts.exact_node_limit = static_cast<hp::NodeId>(
          flag_u64(arg, value(), 0, kMaxId, "integer >= 0"));
    } else if (arg == "--threads") {
      oopts.alt_threads = static_cast<unsigned>(
          flag_u64(arg, value(), 1, 1024, "integer in [1, 1024]"));
    } else if (arg == "--out-dir") {
      out_dir = value();
    } else if (arg == "--max-failures") {
      max_failures = static_cast<int>(
          flag_u64(arg, value(), 1, INT32_MAX, "integer >= 1"));
    } else if (arg == "--inject-bug") {
      const std::string bug = value();
      if (bug != "gain") bad_flag(arg, bug, "gain");
      oopts.fault = hp::fuzz::FaultInjection::kGainRule;
    } else if (arg == "--no-anneal") {
      oopts.run_annealing = false;
    } else if (arg == "--no-stream") {
      oopts.run_stream = false;
    } else if (arg == "--no-incremental") {
      oopts.run_incremental = false;
    } else if (arg == "--structural-rounds") {
      oopts.structural_rounds = static_cast<int>(
          flag_u64(arg, value(), 0, 1024, "integer in [0, 1024]"));
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--telemetry") {
      telemetry_path = value();
    } else if (arg == "--replay") {
      replay_path = value();
    } else if (arg == "--k") {
      replay_k = static_cast<hp::PartId>(
          flag_u64(arg, value(), 2, kMaxId, "integer >= 2"));
    } else if (arg == "--eps") {
      const std::string tok = value();
      const auto e = hp::parse_f64(tok, 0.0, 1e9);
      if (!e) bad_flag(arg, tok, "finite number >= 0");
      replay_eps = *e;
    } else if (arg == "--metric") {
      const std::string m = value();
      if (m == "cut") {
        replay_metric = hp::CostMetric::kCutNet;
      } else if (m == "conn") {
        replay_metric = hp::CostMetric::kConnectivity;
      } else {
        bad_flag(arg, m, "cut or conn");
      }
    } else {
      std::cerr << "error: unknown flag '" << arg << "'\n";
      usage();
    }
  }

  if (!telemetry_path.empty()) {
    hp::obs::reset();
    hp::obs::set_enabled(true);
  }
  const auto flush_telemetry = [&] {
    if (telemetry_path.empty()) return;
    if (hp::obs::write_json(telemetry_path)) {
      std::cout << "telemetry written to " << telemetry_path << "\n";
    } else {
      std::cerr << "error: cannot write telemetry to " << telemetry_path
                << "\n";
    }
  };

  if (!replay_path.empty()) {
    const int rc = replay(replay_path, replay_k, replay_eps, replay_metric,
                          seed, oopts);
    flush_telemetry();
    return rc;
  }

  hp::Timer timer;
  std::map<std::string, std::uint64_t> per_family;
  int failures = 0;
  std::uint64_t state = seed;
  for (std::uint64_t i = 0; i < runs; ++i) {
    const std::uint64_t run_seed = hp::splitmix64(state);
    hp::fuzz::FuzzInstance inst;
    try {
      inst = hp::fuzz::generate_instance(run_seed, gen);
    } catch (const std::exception& e) {
      // A generator crash is a harness bug; report it as a failure but
      // keep fuzzing — later runs are independent.
      ++failures;
      std::cout << "FAIL generate_instance(seed=" << run_seed
                << ") threw: " << e.what() << "\n";
      if (failures >= max_failures) break;
      continue;
    }
    ++per_family[inst.family];
    const auto report = hp::fuzz::run_oracle(inst, oopts);
    if (!quiet && runs >= 200 && (i + 1) % (runs / 10) == 0) {
      std::cout << "progress " << (i + 1) << "/" << runs << " ("
                << failures << " failures)\n";
    }
    if (report.ok()) continue;

    ++failures;
    std::cout << "FAIL " << hp::fuzz::describe(inst) << "\n"
              << report.to_string();

    hp::fuzz::ShrinkOptions sopts;
    sopts.oracle = oopts;
    const auto shrunk = hp::fuzz::shrink_instance(inst, sopts);
    const std::string stem = "repro_seed" + std::to_string(run_seed);
    const std::string extra =
        oopts.fault == hp::fuzz::FaultInjection::kGainRule ? "--inject-bug gain"
                                                           : "";
    const std::string hgr =
        hp::fuzz::dump_repro(shrunk.instance, out_dir, stem, extra);
    std::cout << "shrunk to " << hp::fuzz::describe(shrunk.instance) << " ["
              << shrunk.violated_invariant << "] after "
              << shrunk.oracle_runs << " oracle runs\n"
              << "repro: " << hgr << " (replay line in " << out_dir << "/"
              << stem << ".cmd)\n";
    if (failures >= max_failures) {
      std::cout << "stopping after " << failures << " failures\n";
      break;
    }
  }

  std::cout << "hyperfuzz: " << runs << " runs, " << failures
            << " failure(s) in " << timer.millis() << " ms\n";
  for (const auto& [family, count] : per_family) {
    std::cout << "  " << family << ": " << count << "\n";
  }
  flush_telemetry();
  return failures == 0 ? 0 : 1;
}
