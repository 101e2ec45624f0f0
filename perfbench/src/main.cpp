// perfbench — one run of one benchmark workload.
//
//   perfbench --workload ml-netlist|ml-powerlaw|stream-powerlaw|svc-churn
//             --seed N --seconds S --trace 0|1 --workdir DIR
//             [--daemon PATH/hyperpartd]
//   perfbench --generate FAMILY:PRESET --nodes N --seed N --threads T
//             --out FILE.hpb
//
// Generates the workload's instance from the seed, sets it up, measures for
// S seconds and prints human-readable "# " lines followed by one JSON result
// line: {correct, attempted, failed, metrics}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer metrics and a layer table.
// perfbench/run.py builds this binary and is the intended entry point.
//
// The --generate form is the instance generator the workloads run as a
// child process: it writes one instance to FILE.hpb and prints its sizes,
// content hash and timings on one line.

#include <algorithm>
#include <iostream>
#include <string>
#include <thread>

#include "hyperpart/util/parse.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "error: " << why << "\n"
            << "usage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--daemon PATH]\n"
               "       perfbench --generate FAMILY:PRESET --nodes N --seed N "
               "--threads T --out FILE\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  opt.self = argv[0];
  std::string generate, out;
  hp::NodeId generate_nodes = 0;
  unsigned generate_threads = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(arg + " expects a value");
    const std::string value = argv[++i];
    if (arg == "--workload") {
      opt.workload = value;
    } else if (arg == "--seed") {
      const auto v = hp::parse_u64(value, 0, ~0ULL);
      if (!v) usage("bad --seed " + value);
      opt.seed = *v;
    } else if (arg == "--seconds") {
      const auto v = hp::parse_u64(value, 1, 3600);
      if (!v) usage("bad --seconds " + value);
      opt.seconds = static_cast<double>(*v);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opt.trace = value == "1";
    } else if (arg == "--daemon") {
      opt.daemon = value;
    } else if (arg == "--workdir") {
      opt.workdir = value;
    } else if (arg == "--nodes") {
      const auto v = hp::parse_u64(value, 1, 1u << 30);
      if (!v) usage("bad --nodes " + value);
      generate_nodes = static_cast<hp::NodeId>(*v);
    } else if (arg == "--generate") {
      generate = value;
    } else if (arg == "--threads") {
      const auto v = hp::parse_u64(value, 1, 1024);
      if (!v) usage("bad --threads " + value);
      generate_threads = static_cast<unsigned>(*v);
    } else if (arg == "--out") {
      out = value;
    } else {
      usage("unknown flag " + arg);
    }
  }
  if (!generate.empty()) {
    if (out.empty() || generate_nodes == 0) {
      usage("--generate needs --out and --nodes");
    }
    try {
      return perfbench::generate_main(generate, generate_nodes, opt.seed,
                                      generate_threads, out);
    } catch (const std::exception& e) {
      std::cerr << "error: --generate " << generate << ": " << e.what()
                << "\n";
      return 1;
    }
  }
  if (opt.workdir.empty()) usage("--workdir is required");
  // min(4, nproc) compute threads; svc-churn leaves one core to its two
  // client threads so the load generator does not take the daemon's.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  opt.threads = opt.workload == "svc-churn" ? std::clamp(hw - 1, 1u, 3u)
                                            : std::min(hw, 4u);

  perfbench::Report rep;
  try {
    if (opt.workload == "ml-netlist") {
      perfbench::run_ml(opt, "netlist:rent", rep);
    } else if (opt.workload == "ml-powerlaw") {
      perfbench::run_ml(opt, "powerlaw:zipf", rep);
    } else if (opt.workload == "stream-powerlaw") {
      perfbench::run_stream(opt, rep);
    } else if (opt.workload == "svc-churn") {
      if (opt.daemon.empty()) usage("svc-churn needs --daemon");
      perfbench::run_svc(opt, rep);
    } else {
      usage("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    // Set-up failures leave no metrics to report: no result line.
    std::cerr << "error: " << opt.workload << ": " << e.what() << "\n";
    return 1;
  }
  std::cout << rep.result_line() << std::endl;
  return 0;
}
