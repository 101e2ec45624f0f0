#pragma once
// Buffered re-streaming refinement over an mmap'd binary hypergraph.
//
// Revisits the node stream in fixed-size chunks (the "resident window") and
// improves the partition with exact-gain local moves, without ever holding
// the full graph — or a full m×k pin-count table — in memory. Each chunk is
// lifted into a small in-memory sub-hypergraph on which PR 1's
// ConnectivityTracker supplies the gain rules:
//
//   * window nodes keep their pins among each other;
//   * pins outside the window are collapsed, per (edge, part), into at most
//     two zero-weight ghost pins. The gain formulas only ever distinguish
//     pin counts 0 / 1 / ≥2 per part (see connectivity_tracker.hpp), so the
//     min(count, 2) collapse leaves every window-node gain — and every gain
//     after any sequence of window-node moves — exactly equal to its value
//     on the full hypergraph.
//
// Chunks are proposed in parallel waves on the persistent thread pool
// against the frozen global assignment, then committed sequentially: each
// proposed move's gain is recomputed against the live global state (a scan
// of the mover's incident pins through the mapping) and applied only if
// still strictly improving and balance-feasible. Every applied move
// therefore strictly decreases the true cost, stale proposals are dropped,
// and the result is deterministic for every thread count (waves have a
// fixed width independent of the worker count).

#include <cstdint>

#include "hyperpart/core/balance.hpp"
#include "hyperpart/core/metrics.hpp"
#include "hyperpart/core/partition.hpp"
#include "hyperpart/stream/binary_format.hpp"

namespace hp::stream {

struct RestreamConfig {
  CostMetric metric = CostMetric::kConnectivity;
  /// Full re-streaming passes over the node sequence.
  int max_passes = 1;
  /// Nodes resident per chunk; memory per in-flight chunk is
  /// O(chunk_size · avg_degree · avg_edge_size). Each chunk gets up to three
  /// greedy sweeps over its window before its proposals are emitted.
  NodeId chunk_size = 1u << 16;
  /// Thread cap for the proposal waves (0 = default_threads()).
  unsigned threads = 0;
};

struct RestreamResult {
  int passes_run = 0;
  std::uint64_t moves_proposed = 0;
  std::uint64_t moves_applied = 0;
  /// Exact cost under cfg.metric, recomputed offline after the last pass.
  Weight cost = 0;
};

/// Refine the complete partition p in place. p must be balanced on entry
/// and stays balanced throughout.
RestreamResult restream_refine(const MappedHypergraph& g, Partition& p,
                               const BalanceConstraint& balance,
                               const RestreamConfig& cfg = {});

}  // namespace hp::stream
