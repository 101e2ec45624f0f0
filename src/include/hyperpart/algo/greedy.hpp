#pragma once
// Initial partitioning heuristics.
//
// Random balanced assignment and greedy hypergraph growing (the standard
// initial-partitioning step of multilevel partitioners [28, 45]): grow one
// part at a time from a random seed node, always absorbing the node with
// the best cut gain, until the part reaches its target weight.

#include <optional>

#include "hyperpart/core/balance.hpp"
#include "hyperpart/core/metrics.hpp"
#include "hyperpart/core/partition.hpp"

namespace hp {

/// Random assignment respecting the capacity: shuffled nodes go to the
/// lightest part that still has room. Returns nullopt when the capacity is
/// infeasible for the node weights (first-fit failure).
[[nodiscard]] std::optional<Partition> random_balanced_partition(
    const Hypergraph& g, const BalanceConstraint& balance,
    std::uint64_t seed);

/// Greedy hypergraph growing into k parts. Parts are grown to weight about
/// W/k each; the balance capacity is enforced throughout. Returns nullopt
/// when no feasible assignment is found. Runs in O(k·n + n log n) plus
/// O(log n) per pin its picks touch (DESIGN.md, "Greedy growing").
[[nodiscard]] std::optional<Partition> greedy_growing_partition(
    const Hypergraph& g, const BalanceConstraint& balance, CostMetric metric,
    std::uint64_t seed);

}  // namespace hp
