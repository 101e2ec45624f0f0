#pragma once
// The benchmark's workloads, plus the per-operation checks they share with
// the self-tests.
//
//   ml-netlist       multilevel_partition on netlist:rent (n≈30k)
//   ml-powerlaw      multilevel_partition on powerlaw:zipf (n≈30k)
//   stream-powerlaw  HPBH write + mmap, stream_partition + 2 restream passes
//                    on powerlaw:zipf (n≈1M)
//   svc-churn        hyperpartd child process serving spmv:rmat (n≈200k):
//                    closed-loop update→repartition→evaluate writer beside
//                    an open-loop evaluate reader
//
// Each run_* sets up several times (setup_s is the median), measures for
// Options::seconds, and records metrics into the Report: the end-to-end set
// untraced, the per-layer set with Options::trace. partition_s and
// cycles_per_s are CPU time of the process under test, summed over its
// threads (perfbench/README.md says why). In ml-* and stream-powerlaw a
// cycle is one partition, so cycles_per_s is 1 / partition_s; in svc-churn
// it is writer cycles (update → repartition → pinned evaluate) per second
// of the daemon's CPU time.

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "hyperpart/algo/multilevel.hpp"
#include "hyperpart/core/balance.hpp"
#include "hyperpart/core/hypergraph.hpp"
#include "hyperpart/obs/json.hpp"

namespace perfbench {

void run_ml(const Options& opt, const std::string& spec, Report& rep);
void run_stream(const Options& opt, Report& rep);
void run_svc(const Options& opt, Report& rep);

/// One multilevel call as the ml workloads issue it: its wall time into
/// *seconds and, when `cpu_seconds` is set, this process's CPU time into
/// it; counted in `rep`, and checked (a partition exists, it is complete
/// and balanced, and a ConnectivityTracker's cost equals cost_of). Returns
/// the partition only when every check passed. A non-null `hierarchy` goes
/// to multilevel_partition_cached.
std::optional<hp::Partition> timed_multilevel(
    const hp::Hypergraph& g, const hp::BalanceConstraint& balance,
    const hp::MultilevelConfig& cfg, hp::MultilevelHierarchy* hierarchy,
    Report& rep, double* seconds, double* cpu_seconds = nullptr);

/// Counts one daemon frame in `rep`: failed when there was no response or
/// it says ok:false. Returns the response when it is ok.
std::optional<hp::obs::json::Value> checked_frame(
    std::optional<hp::obs::json::Value> response, const std::string& op,
    Report& rep);

class Daemon;  // a hyperpartd child process

/// A hyperpartd child process with one client connection and a graph
/// loaded.
struct Served {
  std::unique_ptr<Daemon> daemon;
  int fd = -1;
  std::string graph;       ///< the daemon's id of the loaded graph
  std::uint64_t hash = 0;  ///< content hash the load reported
  double load_s = 0.0;     ///< round trip of the load frame

  Served();
  Served(const Served&) = delete;
  Served& operator=(const Served&) = delete;
  ~Served();  ///< closes fd; a daemon not stopped is killed
  /// Shut the daemon down over fd; true on a clean exit.
  bool stop();
};

/// Start `opt.daemon`, connect to it and load `path`. Each step is counted
/// in `rep`; when one fails, returns null and leaves no daemon running.
std::unique_ptr<Served> start_and_load(const Options& opt,
                                       const std::string& socket,
                                       const std::string& path, Report& rep);

/// The benchmark's own copy of the served graph, kept in step with every
/// update it sends: pin lists (a removed net keeps an empty list and weight
/// 0, as the daemon tombstones it) and node weights.
struct Mirror {
  hp::NodeId n = 0;
  std::vector<std::vector<hp::NodeId>> nets;
  std::vector<std::uint8_t> removed;
  std::vector<hp::Weight> node_weights;

  static Mirror of(const hp::Hypergraph& g);
  /// Independent from_edges rebuild of the mirrored state.
  [[nodiscard]] hp::Hypergraph rebuild() const;
};

/// Final-state check of svc-churn: the rebuilt mirror's content hash must
/// equal `served_hash`, and the partition in `evaluate` (an evaluate
/// response with include_parts) must be complete, balanced on the mirror,
/// and cost what the response reports. Returns "" when all hold.
[[nodiscard]] std::string final_state_problem(
    const Mirror& mirror, std::uint64_t served_hash,
    const hp::obs::json::Value& evaluate, hp::PartId k, double epsilon);

}  // namespace perfbench
