#pragma once
// Shared pieces of the repository benchmark: run options, the run report
// (operation accounting plus named metrics), sample statistics, output
// checks, and the traced run's layer table.
//
// Every workload counts each operation it issues (a partition call, a
// socket frame, a final-state verification) in Report::op. An operation
// whose result is missing, refused or fails a check counts as failed; it
// never aborts the run, so a defect shows up as `failed > 0` next to the
// metrics instead of as a crash.

#include <sys/types.h>

#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "hyperpart/core/hypergraph.hpp"
#include "hyperpart/core/metrics.hpp"
#include "hyperpart/core/partition.hpp"
#include "hyperpart/obs/json.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string self;     ///< this program, run again as the instance generator
  std::string daemon;   ///< hyperpartd executable (svc-churn)
  std::string workdir;  ///< directory for HPBH files and the daemon socket
  unsigned threads = 1;  ///< compute threads of every partitioner call
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  /// Count one operation. A false `ok` counts it failed and logs `what`
  /// to stderr. Returns ok.
  bool op(bool ok, const std::string& what);

  /// Record (or overwrite) a named metric.
  void metric(const std::string& name, double value, const std::string& unit);

  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<Metric>& metrics() const noexcept {
    return metrics_;
  }

  /// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
  /// on one line; correct means no operation failed.
  [[nodiscard]] std::string result_line() const;

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

/// Seconds on the steady clock.
[[nodiscard]] double now_s();

/// CPU seconds (user + system, all threads) of process `pid` (0 = this
/// process), or NaN when its clock cannot be read. The kernel does not
/// charge a task for time the hypervisor steals from its vCPU, so on a
/// shared host this is steadier than the steady clock.
[[nodiscard]] double cpu_s(pid_t pid = 0);

[[nodiscard]] double median(std::vector<double> v);

/// The tail of a latency sample: the highest percentile that still has at
/// least ten samples beyond it, with that percentile and the sample count.
/// Fewer than eleven samples give the maximum and percentile 100.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail tail(std::vector<double> v);

/// FNV-1a over the assignment; equal hashes = identical partitions.
[[nodiscard]] std::uint64_t partition_hash(std::span<const hp::PartId> parts);

/// Peak resident set (VmHWM) of `pid` (0 = this process) in MiB, or 0
/// where /proc is unavailable.
[[nodiscard]] double peak_rss_mb(pid_t pid = 0);

/// Start the persistent thread pool with `threads` executors.
void warm_thread_pool(unsigned threads);

/// An instance that a child process generated and wrote to an HPBH file,
/// so the generator's memory never counts in the peak RSS of the process
/// that partitions it.
struct GeneratedFile {
  hp::NodeId n = 0;
  hp::EdgeId m = 0;
  std::uint64_t pins = 0;
  hp::PartId k = 0;    ///< the workload's suggested k
  double eps = 0.0;    ///< and epsilon
  std::uint64_t hash = 0;  ///< content hash of the generated graph
  double generate_s = 0.0;  ///< as timed in the child
  double write_s = 0.0;
};

/// Run `opt.self --generate spec ...` to write `path`. Throws when the
/// child fails: without an instance there is nothing to measure.
[[nodiscard]] GeneratedFile generate_in_child(const Options& opt,
                                              const std::string& spec,
                                              hp::NodeId nodes,
                                              std::uint64_t seed,
                                              const std::string& path);

/// The child's side: generate, write `path`, print the GeneratedFile as
/// one line. Returns the exit code.
int generate_main(const std::string& spec, hp::NodeId nodes,
                  std::uint64_t seed, unsigned threads,
                  const std::string& path);

/// Output check of one partition against the graph it partitions: every
/// node assigned to a part below k, every part within `capacity`, and a
/// cost_of recomputation equal to `reported_cost`. Returns "" when all
/// hold, else what failed. G is hp::Hypergraph or a MappedHypergraph.
template <class G>
[[nodiscard]] std::string partition_problem(const G& g,
                                            std::span<const hp::PartId> parts,
                                            hp::PartId k, hp::Weight capacity,
                                            hp::Weight reported_cost) {
  if (parts.size() != g.num_nodes()) return "partition size != node count";
  std::vector<hp::Weight> load(k, 0);
  for (hp::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (parts[v] >= k) return "node " + std::to_string(v) + " unassigned";
    load[parts[v]] += g.node_weight(v);
  }
  for (hp::PartId q = 0; q < k; ++q) {
    if (load[q] > capacity) {
      return "part " + std::to_string(q) + " weight " +
             std::to_string(load[q]) + " > capacity " +
             std::to_string(capacity);
    }
  }
  const hp::Partition p(std::vector<hp::PartId>(parts.begin(), parts.end()),
                        k);
  const hp::Weight recomputed =
      hp::cost_of(g, p, hp::CostMetric::kConnectivity);
  if (recomputed != reported_cost) {
    return "reported cost " + std::to_string(reported_cost) +
           " != recomputed " + std::to_string(recomputed);
  }
  return "";
}

// --- Telemetry export helpers (hp::obs::to_json layout) -------------------

/// The direct child span of `node` (or of the export root) named `name`.
[[nodiscard]] const hp::obs::json::Value* span_child(
    const hp::obs::json::Value& node, const std::string& name);

/// Sum of `ms` over the direct children of `node` whose name starts with
/// `prefix`; with a non-empty `grandchild`, sums instead their children
/// whose name starts with `grandchild`.
[[nodiscard]] double span_sum(const hp::obs::json::Value& node,
                              const std::string& prefix,
                              const std::string& grandchild = "");

[[nodiscard]] double span_ms(const hp::obs::json::Value* node);

// --- Traced-run table -----------------------------------------------------

struct LayerRow {
  std::string layer;
  double ms = 0.0;       ///< total time inside the layer's spans
  double self_ms = 0.0;  ///< minus the time of its child spans
  double count = 0.0;    ///< calls, or the layer's work counter
};

void print_layer_table(std::ostream& out, const std::string& title,
                       const std::vector<LayerRow>& rows);

}  // namespace perfbench
