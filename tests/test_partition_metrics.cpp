#include "hyperpart/core/metrics.hpp"

#include <gtest/gtest.h>

#include "hyperpart/core/partition.hpp"

namespace hp {
namespace {

Hypergraph example() {
  return Hypergraph::from_edges(6, {{0, 1, 2}, {2, 3, 4}, {4, 5}, {0, 5}});
}

TEST(Metrics, LambdaCountsIntersectedParts) {
  const Hypergraph g = example();
  Partition p({0, 0, 1, 1, 2, 2}, 3);
  EXPECT_EQ(lambda(g, p, 0), 2u);  // {0,1,2}: parts 0,1
  EXPECT_EQ(lambda(g, p, 1), 2u);  // {2,3,4}: parts 1,2
  EXPECT_EQ(lambda(g, p, 2), 1u);  // {4,5}: part 2
  EXPECT_EQ(lambda(g, p, 3), 2u);  // {0,5}: parts 0,2
}

TEST(Metrics, CutNetAndConnectivity) {
  const Hypergraph g = example();
  Partition p({0, 0, 1, 1, 2, 2}, 3);
  EXPECT_EQ(cost(g, p, CostMetric::kCutNet), 3);
  EXPECT_EQ(cost(g, p, CostMetric::kConnectivity), 3);
  Partition q({0, 1, 2, 0, 1, 2}, 3);
  EXPECT_EQ(lambda(g, q, 0), 3u);
  EXPECT_EQ(cost(g, q, CostMetric::kCutNet), 4);
  EXPECT_EQ(cost(g, q, CostMetric::kConnectivity), 2 + 2 + 1 + 1);
}

TEST(Metrics, MetricsCoincideForTwoParts) {
  const Hypergraph g = example();
  Partition p({0, 1, 0, 1, 0, 1}, 2);
  EXPECT_EQ(cost(g, p, CostMetric::kCutNet),
            cost(g, p, CostMetric::kConnectivity));
}

TEST(Metrics, EdgeWeightsScaleCosts) {
  Hypergraph g = example();
  g.set_edge_weights({3, 1, 1, 1});
  Partition p({0, 0, 1, 1, 1, 1}, 2);
  // Edge 0 cut (w=3), edge 3 cut (w=1).
  EXPECT_EQ(cost(g, p, CostMetric::kCutNet), 4);
}

TEST(Metrics, CutEdgesLists) {
  const Hypergraph g = example();
  Partition p({0, 0, 0, 1, 1, 1}, 2);
  const auto cut = cut_edges(g, p);
  ASSERT_EQ(cut.size(), 2u);
  EXPECT_EQ(cut[0], 1u);
  EXPECT_EQ(cut[1], 3u);
}

TEST(Metrics, UnassignedPinsIgnored) {
  const Hypergraph g = example();
  Partition p(6, 2);
  p.assign(0, 0);
  p.assign(1, 0);
  EXPECT_EQ(lambda(g, p, 0), 1u);
  EXPECT_FALSE(p.complete());
}

TEST(Partition, PartWeightsAndNonempty) {
  const Hypergraph g = example();
  Partition p({0, 0, 1, 1, 1, 0}, 3);
  const auto w = p.part_weights(g);
  EXPECT_EQ(w[0], 3);
  EXPECT_EQ(w[1], 3);
  EXPECT_EQ(w[2], 0);
  EXPECT_EQ(p.num_nonempty_parts(), 2u);
}

TEST(Partition, PrefixRestriction) {
  Partition p({0, 1, 0, 1, 1, 0}, 2);
  const Partition q = p.prefix(3);
  EXPECT_EQ(q.num_nodes(), 3u);
  EXPECT_EQ(q[2], 0u);
}

TEST(Metrics, WideEdgeManyParts) {
  // Exercise the >64-distinct-parts overflow path of lambda().
  const NodeId n = 100;
  std::vector<NodeId> all(n);
  for (NodeId v = 0; v < n; ++v) all[v] = v;
  const Hypergraph g = Hypergraph::from_edges(n, {all});
  std::vector<PartId> parts(n);
  for (NodeId v = 0; v < n; ++v) parts[v] = v % 80;
  Partition p(std::move(parts), 80);
  EXPECT_EQ(lambda(g, p, 0), 80u);
  EXPECT_EQ(cost(g, p, CostMetric::kConnectivity), 79);
}

}  // namespace
}  // namespace hp
