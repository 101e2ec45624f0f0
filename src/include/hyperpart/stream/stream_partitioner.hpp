#pragma once
// One-pass streaming partitioner over an mmap'd binary hypergraph.
//
// Nodes are placed in arrival (id) order, each exactly once, using only
// O(m + n + k) working memory beyond the read-only mapping: a 64-bit
// part-presence sketch per hyperedge, the partial assignment, and the k
// running part weights. The placement score for node v and part q is the
// fractional greedy rule used by streaming (hyper)graph partitioners in the
// FENNEL line of work, with α = 1 and γ = 2:
//
//   score(v, q) = benefit(v, q) − α · (degw(v) + 1) · (W_q / C)^γ
//
// where benefit(v, q) = Σ_{e ∋ v} w(e) · [q present in e's sketch] is the
// connectivity the placement avoids creating, W_q is part q's current
// weight, C the balance capacity (hard-enforced: overfull parts are never
// candidates), and the α/γ penalty trades cut quality against filling parts
// evenly. For k ≤ 64 the sketch holds one exact presence bit per part, so
// the incrementally tracked cost equals an offline recomputation exactly;
// for k > 64 parts share bits (q mod 64) and the tracked figure becomes a
// lower bound, while the reported offline cost stays exact.
//
// A small reorder buffer (configurable) batches arrivals and places
// high-degree nodes in a batch first — they carry the most placement signal
// — without ever revisiting a placed node; buffer_size = 1 is pure arrival
// order.

#include <cstdint>
#include <optional>
#include <vector>

#include "hyperpart/core/balance.hpp"
#include "hyperpart/core/metrics.hpp"
#include "hyperpart/core/partition.hpp"
#include "hyperpart/stream/binary_format.hpp"

namespace hp::stream {

struct StreamConfig {
  CostMetric metric = CostMetric::kConnectivity;
  /// Arrivals per reorder buffer; within a buffer, nodes are placed in
  /// descending degree order. 1 = strict arrival order.
  NodeId buffer_size = 1024;
  /// Breaks exact score ties deterministically.
  std::uint64_t seed = 1;
};

struct StreamResult {
  Partition partition;
  /// Cost tracked incrementally from the sketches during the pass (exact
  /// for k ≤ 64 under cfg.metric, else a lower bound).
  Weight streamed_cost = 0;
  /// Exact cost recomputed offline over the mapping after the pass.
  Weight offline_cost = 0;
  std::vector<Weight> part_weights;
};

/// Place every node of g into balance.k() parts in one pass. Returns
/// nullopt when some node fits no part under the hard capacity (only
/// possible with skewed node weights or capacities below W/k).
[[nodiscard]] std::optional<StreamResult> stream_partition(
    const MappedHypergraph& g, const BalanceConstraint& balance,
    const StreamConfig& cfg = {});

}  // namespace hp::stream
