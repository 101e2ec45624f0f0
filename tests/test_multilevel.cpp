#include "hyperpart/algo/multilevel.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "hyperpart/algo/coarsening.hpp"
#include "hyperpart/algo/greedy.hpp"
#include "hyperpart/algo/recursive_bisection.hpp"
#include "hyperpart/io/generators.hpp"

namespace hp {
namespace {

TEST(Coarsening, PreservesTotalWeight) {
  const Hypergraph g = random_hypergraph(60, 90, 2, 5, 1);
  const CoarseLevel level = coarsen_once(g, 10, 42);
  EXPECT_LT(level.graph.num_nodes(), g.num_nodes());
  EXPECT_EQ(level.graph.total_node_weight(), g.total_node_weight());
  EXPECT_TRUE(level.graph.validate());
}

TEST(Coarsening, RespectsClusterWeightCap) {
  Hypergraph g = random_hypergraph(30, 50, 2, 4, 2);
  g.set_node_weights(std::vector<Weight>(30, 3));
  const CoarseLevel level = coarsen_once(g, 6, 7);
  for (NodeId v = 0; v < level.graph.num_nodes(); ++v) {
    EXPECT_LE(level.graph.node_weight(v), 6);
  }
}

TEST(Coarsening, ProjectionPreservesCost) {
  // A coarse partition and its fine projection cut the same edges with the
  // same λ (merged edge weights account for duplicates).
  const Hypergraph g = random_hypergraph(40, 60, 2, 5, 3);
  const CoarseLevel level = coarsen_once(g, 8, 9);
  const auto balance = BalanceConstraint::for_graph(level.graph, 3, 0.3, true);
  const auto coarse = random_balanced_partition(level.graph, balance, 5);
  ASSERT_TRUE(coarse.has_value());
  const Partition fine = project_partition(*coarse, level.fine_to_coarse);
  EXPECT_EQ(cost(level.graph, *coarse, CostMetric::kConnectivity),
            cost(g, fine, CostMetric::kConnectivity));
}

TEST(Multilevel, ProducesBalancedPartitions) {
  const Hypergraph g = random_hypergraph(200, 300, 2, 6, 4);
  for (PartId k : {2u, 4u}) {
    const auto balance = BalanceConstraint::for_graph(g, k, 0.05, true);
    const auto p = multilevel_partition(g, balance, {});
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(p->complete());
    EXPECT_TRUE(balance.satisfied(g, *p));
  }
}

TEST(Multilevel, BeatsRandomOnAverage) {
  const Hypergraph g = spmv_hypergraph(30, 30, 200, 6);
  const auto balance = BalanceConstraint::for_graph(g, 4, 0.1, true);
  const auto ml = multilevel_partition(g, balance, {});
  const auto rnd = random_balanced_partition(g, balance, 77);
  ASSERT_TRUE(ml && rnd);
  EXPECT_LT(cost(g, *ml, CostMetric::kConnectivity),
            cost(g, *rnd, CostMetric::kConnectivity));
}

TEST(Multilevel, DeterministicForSeed) {
  const Hypergraph g = random_hypergraph(80, 120, 2, 5, 8);
  const auto balance = BalanceConstraint::for_graph(g, 2, 0.1, true);
  MultilevelConfig cfg;
  cfg.seed = 9;
  const auto a = multilevel_partition(g, balance, cfg);
  const auto b = multilevel_partition(g, balance, cfg);
  ASSERT_TRUE(a && b);
  EXPECT_EQ(cost(g, *a, CostMetric::kConnectivity),
            cost(g, *b, CostMetric::kConnectivity));
}

TEST(RecursivePartition, LeafNumberingAndBalance) {
  const Hypergraph g = random_hypergraph(96, 150, 2, 5, 10);
  const auto p = recursive_partition(g, {2, 3}, 0.2, {});
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->k(), 6u);
  EXPECT_TRUE(p->complete());
  // Each of the 6 leaves non-empty and roughly n/6; the per-level relaxed
  // caps compound: ceil(1.2·ceil(1.2·96/2)/3) = 24.
  const auto w = p->part_weights(g);
  for (const Weight x : w) {
    EXPECT_GT(x, 0);
    EXPECT_LE(x, 24);
  }
}

TEST(RecursiveBisection, PowerOfTwoOnly) {
  const Hypergraph g = random_hypergraph(32, 40, 2, 4, 11);
  EXPECT_THROW(recursive_bisection(g, 3, 0.1, {}), std::invalid_argument);
  const auto p = recursive_bisection(g, 4, 0.2, {});
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->k(), 4u);
}

TEST(Vcycle, NeverIncreasesCostAndStaysBalanced) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Hypergraph g = random_hypergraph(150, 220, 2, 5, seed + 500);
    const auto balance = BalanceConstraint::for_graph(g, 3, 0.1, true);
    auto p = random_balanced_partition(g, balance, seed);
    ASSERT_TRUE(p.has_value());
    const Weight before = cost(g, *p, CostMetric::kConnectivity);
    MultilevelConfig cfg;
    cfg.seed = seed;
    const Weight after = vcycle_refine(g, *p, balance, cfg, 2);
    EXPECT_LE(after, before);
    EXPECT_EQ(after, cost(g, *p, CostMetric::kConnectivity));
    EXPECT_TRUE(balance.satisfied(g, *p));
  }
}

TEST(Vcycle, ImprovesOverPlainFmOnStructuredInstance) {
  const Hypergraph g = spmv_hypergraph(40, 40, 500, 3);
  const auto balance = BalanceConstraint::for_graph(g, 4, 0.1, true);
  auto p = random_balanced_partition(g, balance, 9);
  ASSERT_TRUE(p.has_value());
  MultilevelConfig cfg;
  cfg.seed = 1;
  const Weight after = vcycle_refine(g, *p, balance, cfg, 3);
  // Not a strict guarantee, but on this structured instance V-cycles find
  // much more than single-level moves from a random start.
  EXPECT_LT(after, cost(g, *random_balanced_partition(g, balance, 9),
                        CostMetric::kConnectivity));
}

TEST(Vcycle, PartitionAwareCoarseningKeepsParts) {
  const Hypergraph g = random_hypergraph(60, 90, 2, 4, 11);
  std::vector<PartId> assign(60);
  for (NodeId v = 0; v < 60; ++v) assign[v] = v % 2;
  const Partition p(std::move(assign), 2);
  const CoarseLevel level = coarsen_once(g, 10, 5, &p);
  // Every cluster must be monochromatic under p.
  std::vector<PartId> cluster_part(level.graph.num_nodes(), kInvalidPart);
  for (NodeId v = 0; v < 60; ++v) {
    auto& q = cluster_part[level.fine_to_coarse[v]];
    if (q == kInvalidPart) {
      q = p[v];
    } else {
      EXPECT_EQ(q, p[v]) << "cluster mixes parts";
    }
  }
}

}  // namespace
}  // namespace hp
