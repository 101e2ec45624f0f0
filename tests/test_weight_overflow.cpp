// Regression tests for Weight accumulation on adversarial inputs: weights
// near INT64_MAX must saturate instead of wrapping (signed-overflow UB).
// Before the sat_add/sat_mul audit, cost_of and part_weights computed
// e.g. INT64_MAX + INT64_MAX, which UBSan flags and which flips the sign
// of every downstream comparison.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "hyperpart/algo/annealing.hpp"
#include "hyperpart/algo/branch_and_bound.hpp"
#include "hyperpart/algo/brute_force.hpp"
#include "hyperpart/algo/greedy.hpp"
#include "hyperpart/algo/incremental.hpp"
#include "hyperpart/core/balance.hpp"
#include "hyperpart/core/connectivity_tracker.hpp"
#include "hyperpart/core/hypergraph.hpp"
#include "hyperpart/core/metrics.hpp"
#include "hyperpart/core/partition.hpp"
#include "hyperpart/util/overflow.hpp"

namespace hp {
namespace {

constexpr Weight kMax = std::numeric_limits<Weight>::max();
constexpr Weight kMin = std::numeric_limits<Weight>::min();

TEST(SaturatingArithmetic, ClampsInsteadOfWrapping) {
  EXPECT_EQ(sat_add(kMax, Weight{1}), kMax);
  EXPECT_EQ(sat_add(kMax, kMax), kMax);
  EXPECT_EQ(sat_add(kMin, Weight{-1}), kMin);
  EXPECT_EQ(sat_add(Weight{2}, Weight{3}), 5);

  EXPECT_EQ(sat_mul(kMax, Weight{2}), kMax);
  EXPECT_EQ(sat_mul(kMax, Weight{-2}), kMin);
  EXPECT_EQ(sat_mul(kMin, Weight{-1}), kMax);
  EXPECT_EQ(sat_mul(Weight{6}, Weight{7}), 42);

  EXPECT_EQ(sat_sub(kMin, Weight{1}), kMin);
  EXPECT_EQ(sat_sub(kMax, Weight{-1}), kMax);
  EXPECT_EQ(sat_sub(Weight{5}, Weight{3}), 2);
}

/// Two max-weight edges, both cut: the naive sum is 2·INT64_MAX.
TEST(WeightOverflow, CutNetCostSaturates) {
  Hypergraph g = Hypergraph::from_edges(4, {{0, 1}, {2, 3}});
  g.set_edge_weights({kMax, kMax});
  Partition p(4, 2);
  p.assign(0, 0);
  p.assign(1, 1);
  p.assign(2, 0);
  p.assign(3, 1);
  EXPECT_EQ(cost(g, p, CostMetric::kCutNet), kMax);
}

/// One max-weight edge with λ = 3: w·(λ−1) = 2·INT64_MAX in the naive form.
TEST(WeightOverflow, ConnectivityCostSaturates) {
  Hypergraph g = Hypergraph::from_edges(3, {{0, 1, 2}});
  g.set_edge_weights({kMax});
  Partition p(3, 3);
  p.assign(0, 0);
  p.assign(1, 1);
  p.assign(2, 2);
  EXPECT_EQ(cost(g, p, CostMetric::kConnectivity), kMax);
}

TEST(WeightOverflow, TotalNodeWeightSaturates) {
  Hypergraph g = Hypergraph::from_edges(2, {{0, 1}});
  g.set_node_weights({kMax, kMax});
  EXPECT_EQ(g.total_node_weight(), kMax);
}

TEST(WeightOverflow, PartWeightsSaturate) {
  Hypergraph g = Hypergraph::from_edges(2, {{0, 1}});
  g.set_node_weights({kMax, kMax});
  Partition p(2, 2);
  p.assign(0, 0);
  p.assign(1, 0);
  const auto pw = p.part_weights(g);
  EXPECT_EQ(pw[0], kMax);
  EXPECT_EQ(pw[1], 0);
}

/// A huge epsilon pushes (1+ε)·total/k past INT64_MAX; the threshold must
/// clamp to the Weight range instead of hitting a float→int overflow cast.
TEST(WeightOverflow, BalanceThresholdClampsToWeightRange) {
  const auto b = BalanceConstraint::for_total_weight(kMax, 1, 1e9, true);
  EXPECT_EQ(b.capacity(), kMax);
  const auto tight = BalanceConstraint::for_total_weight(kMax, 2, 0.0, false);
  EXPECT_LE(tight.capacity(), kMax);
  EXPECT_GE(tight.capacity(), kMax / 2 - 1);
}

/// End to end: the balance check on an overweight max-weight partition must
/// report infeasibility (saturated sums stay on the correct side of the
/// comparison) rather than wrapping negative and passing.
TEST(WeightOverflow, SaturatedSumsKeepBalanceChecksDirectional) {
  Hypergraph g = Hypergraph::from_edges(3, {{0, 1, 2}});
  g.set_node_weights({kMax, kMax, 1});
  Partition p(3, 2);
  p.assign(0, 0);
  p.assign(1, 0);
  p.assign(2, 1);
  const auto b = BalanceConstraint::with_capacity(2, kMax / 2, 0.0);
  EXPECT_FALSE(b.satisfied(g, p));
}

/// Rebalancing may not admit a move whose target weight only looks small
/// because the sum wrapped: kMax + 20 wraps to kMin + 19, under any
/// capacity. The max-weight node fits nowhere, so rebalancing must fail.
TEST(WeightOverflow, RebalanceCapacityCheckSaturates) {
  Hypergraph g = Hypergraph::from_edges(2, {{0, 1}});
  g.set_node_weights({kMax, 20});
  Partition p(2, 2);
  p.assign(0, 0);
  p.assign(1, 1);
  ConnectivityTracker tracker(g, p);
  const auto b = BalanceConstraint::with_capacity(2, 10, 0.0);
  EXPECT_FALSE(
      rebalance_with_tracker(g, tracker, b, CostMetric::kConnectivity, 1));
  EXPECT_EQ(tracker.part_of(0), 0u);
  EXPECT_EQ(tracker.part_of(1), 1u);
}

/// Annealing starts balanced with one near-max node per part; moving either
/// onto the other would uncut the edge, but their sum wraps negative and
/// must not pass for a part weight within capacity.
TEST(WeightOverflow, AnnealingCapacityCheckSaturates) {
  Hypergraph g = Hypergraph::from_edges(2, {{0, 1}});
  g.set_node_weights({kMax - 5, kMax - 5});
  const auto b = BalanceConstraint::with_capacity(2, kMax - 1, 0.0);
  AnnealingConfig cfg;
  cfg.temperature_steps = 2;
  const auto p = annealing_partition(g, b, cfg);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(b.satisfied(g, *p));
  EXPECT_NE((*p)[0], (*p)[1]);
}

/// Three nodes just above kMax/2 into two parts: any two of them overflow
/// a part, so no balanced partition exists. Greedy growing fills part 0
/// with one node and leaves two for its leftover loop, which must refuse
/// instead of letting the wrapped load of part 1 pass the capacity check.
TEST(WeightOverflow, GreedyGrowingLeftoverCapacityCheckSaturates) {
  Hypergraph g = Hypergraph::from_edges(3, {{0, 1}, {1, 2}});
  const Weight w = kMax / 2 + 100;
  g.set_node_weights({w, w, w});
  const auto b = BalanceConstraint::with_capacity(2, kMax - 10, 0.0);
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const auto p =
        greedy_growing_partition(g, b, CostMetric::kConnectivity, seed);
    EXPECT_FALSE(p.has_value()) << "seed " << seed;
  }
}

/// Nodes 0 and 1 together overflow a part, so every balanced partition
/// cuts edge {0, 1}; the optimum {0} | {1, 2} costs 1. Exact solvers that
/// let the wrapped load through report the infeasible all-in-one-part
/// partition at cost 0.
Hypergraph near_max_pair() {
  Hypergraph g = Hypergraph::from_edges(3, {{0, 1}, {1, 2}});
  g.set_node_weights({kMax - 10, kMax - 10, 5});
  return g;
}

TEST(WeightOverflow, BruteForceCapacityCheckSaturates) {
  const Hypergraph g = near_max_pair();
  const auto b = BalanceConstraint::with_capacity(2, kMax - 5, 0.0);
  const auto res = brute_force_partition(g, b);
  ASSERT_TRUE(res.has_value());
  EXPECT_TRUE(b.satisfied(g, res->partition));
  EXPECT_EQ(res->cost, 1);
}

TEST(WeightOverflow, BranchAndBoundCapacityCheckSaturates) {
  const Hypergraph g = near_max_pair();
  const auto b = BalanceConstraint::with_capacity(2, kMax - 5, 0.0);
  const auto res = branch_and_bound_partition(g, b);
  ASSERT_TRUE(res.has_value());
  EXPECT_TRUE(b.satisfied(g, res->partition));
  EXPECT_EQ(res->cost, 1);
}

}  // namespace
}  // namespace hp
