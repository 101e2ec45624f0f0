#include <gtest/gtest.h>

#include "hyperpart/algo/fm_refiner.hpp"
#include "hyperpart/algo/greedy.hpp"
#include "hyperpart/core/builder.hpp"
#include "hyperpart/io/generators.hpp"
#include "hyperpart/util/rng.hpp"
#include "hyperpart/workload/workload.hpp"

namespace hp {
namespace {

/// Two dense clusters joined by one bridge edge: the planted bisection has
/// cost 1.
Hypergraph two_clusters(NodeId half) {
  HypergraphBuilder b;
  b.add_nodes(2 * half);
  for (NodeId side = 0; side < 2; ++side) {
    const NodeId base = side * half;
    for (NodeId i = 0; i + 1 < half; ++i) {
      b.add_edge({base + i, base + i + 1});
      b.add_edge({base + i, base + (i + 2) % half});
    }
  }
  b.add_edge2(half - 1, half);
  return b.build();
}

TEST(Greedy, RandomBalancedRespectsCapacity) {
  const Hypergraph g = random_hypergraph(30, 40, 2, 5, 1);
  for (PartId k : {2u, 3u, 5u}) {
    const auto balance = BalanceConstraint::for_graph(g, k, 0.1, true);
    const auto p = random_balanced_partition(g, balance, 42);
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(p->complete());
    EXPECT_TRUE(balance.satisfied(g, *p));
  }
}

TEST(Greedy, GrowingRespectsCapacity) {
  const Hypergraph g = random_hypergraph(30, 40, 2, 5, 2);
  for (PartId k : {2u, 3u, 4u}) {
    const auto balance = BalanceConstraint::for_graph(g, k, 0.1, true);
    const auto p =
        greedy_growing_partition(g, balance, CostMetric::kConnectivity, 7);
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(p->complete());
    EXPECT_TRUE(balance.satisfied(g, *p));
  }
}

TEST(Greedy, InfeasibleCapacityReturnsNullopt) {
  Hypergraph g = random_hypergraph(4, 2, 2, 2, 3);
  g.set_node_weights({5, 5, 5, 5});
  const auto balance = BalanceConstraint::with_capacity(2, 5);
  EXPECT_FALSE(random_balanced_partition(g, balance, 1).has_value());
}

// Golden partitions of greedy_growing_partition. The expected values are
// FNV-1a folds of every partition of a sweep (k = 2..8, several seeds), so
// any change to a single pick or rng draw changes them. Each sweep targets
// one branch of the growing loop.

/// Folds one greedy result (or its absence) into an FNV-1a hash, and checks
/// that a returned partition is complete and balanced.
void fold_greedy(const Hypergraph& g, PartId k, double eps,
                 std::uint64_t seed, std::uint64_t& h) {
  const auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  };
  const auto balance = BalanceConstraint::for_graph(g, k, eps, true);
  const auto p =
      greedy_growing_partition(g, balance, CostMetric::kConnectivity, seed);
  if (!p) {
    mix(0xFFFFFFFFULL);
    return;
  }
  EXPECT_TRUE(p->complete());
  EXPECT_TRUE(balance.satisfied(g, *p));
  for (const PartId q : p->raw()) mix(q);
}

std::uint64_t greedy_sweep(const Hypergraph& g, double eps,
                           std::uint64_t seeds) {
  std::uint64_t h = 1469598103934665603ULL;
  for (PartId k = 2; k <= 8; ++k) {
    for (std::uint64_t seed = 0; seed < seeds; ++seed) {
      fold_greedy(g, k, eps, seed, h);
    }
  }
  return h;
}

/// Random node weights in [lo, hi].
void random_node_weights(Hypergraph& g, Weight lo, Weight hi,
                         std::uint64_t seed) {
  Rng rng{seed};
  std::vector<Weight> w(g.num_nodes());
  for (Weight& x : w) x = rng.next_in(lo, hi);
  g.set_node_weights(std::move(w));
}

TEST(GreedyGolden, FrontierPicks) {
  const Hypergraph g = random_hypergraph(300, 450, 2, 6, 21);
  EXPECT_EQ(greedy_sweep(g, 0.1, 3), 10421022536152824858ULL);
}

TEST(GreedyGolden, NoFrontierRandomPicks) {
  // Short paths and isolated nodes: every component runs dry quickly, so
  // most parts reseed through the random no-frontier pick many times.
  HypergraphBuilder b;
  b.add_nodes(260);
  for (NodeId c = 0; c < 40; ++c) {
    for (NodeId i = 0; i + 1 < 5; ++i) b.add_edge2(5 * c + i, 5 * c + i + 1);
  }
  EXPECT_EQ(greedy_sweep(b.build(), 0.1, 4), 8152363948456999901ULL);
}

TEST(GreedyGolden, NodesStopFittingMidPart) {
  // Heavy nodes beside light ones under a tight capacity: as a part fills,
  // the heavy frontier nodes stop fitting before the light ones do.
  Hypergraph g = random_hypergraph(200, 320, 2, 5, 22);
  random_node_weights(g, 1, 30, 5);
  EXPECT_EQ(greedy_sweep(g, 0.05, 3), 6369463534440987066ULL);
}

TEST(GreedyGolden, ZeroWeightNetsAndNodes) {
  // Zero-weight nets leave their pins' affinity at 0 (no frontier), and
  // zero-weight nodes are absorbed without growing the part.
  Hypergraph g = random_hypergraph(220, 300, 2, 6, 23);
  Rng rng{6};
  std::vector<Weight> ew(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    ew[e] = e % 3 == 0 ? 0 : rng.next_in(1, 5);
  }
  g.set_edge_weights(std::move(ew));
  std::vector<Weight> nw(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) nw[v] = v % 5 == 0 ? 0 : 1 + v % 3;
  g.set_node_weights(std::move(nw));
  EXPECT_EQ(greedy_sweep(g, 0.1, 3), 16013216365955611180ULL);
}

TEST(GreedyGolden, EpsilonZero) {
  const Hypergraph unit = random_hypergraph(840, 1200, 2, 6, 24);
  Hypergraph weighted = random_hypergraph(240, 360, 2, 6, 25);
  random_node_weights(weighted, 1, 4, 7);
  EXPECT_EQ(greedy_sweep(unit, 0.0, 2), 9075167130848447905ULL);
  EXPECT_EQ(greedy_sweep(weighted, 0.0, 2), 17615535086924745528ULL);
}

TEST(GreedyGolden, GlobalNets) {
  // Three nets over 60% of the nodes each: absorbing a node on two of them
  // bumps the affinity of more than n pins in one step.
  const NodeId n = 300;
  HypergraphBuilder b;
  b.add_nodes(n);
  Rng rng{8};
  for (EdgeId e = 0; e < 400; ++e) {
    b.add_edge({static_cast<NodeId>(rng.next_below(n)),
                static_cast<NodeId>(rng.next_below(n)),
                static_cast<NodeId>(rng.next_below(n))});
  }
  for (NodeId c = 0; c < 3; ++c) {
    std::vector<NodeId> pins;
    for (NodeId v = 0; v < n; ++v) {
      if (v % 5 != c && v % 5 != c + 1) pins.push_back(v);
    }
    b.add_edge(std::move(pins));
  }
  Hypergraph g = b.build();
  random_node_weights(g, 1, 6, 9);
  EXPECT_EQ(greedy_sweep(g, 0.1, 3), 10975154778364590438ULL);
}

TEST(GreedyGolden, WorkloadFamilies) {
  // Netlists carry global nets touching a large fraction of all nodes;
  // power-law instances have a few hub pins in most nets.
  for (const auto& [spec, expected] :
       {std::pair<const char*, std::uint64_t>{"netlist:rent",
                                              13778855164590258801ULL},
        {"powerlaw:zipf", 9423520457891134813ULL},
        {"spmv:rmat", 1895436754923554227ULL}}) {
    workload::WorkloadSpec ws = workload::parse_spec(spec);
    ws.target_nodes = 3000;
    ws.seed = 3;
    const Hypergraph g = workload::generate(ws).graph;
    EXPECT_EQ(greedy_sweep(g, 0.1, 1), expected) << spec;
  }
}

TEST(GreedyGolden, InfeasibleReturnsNullopt) {
  // Part 0 takes one weight-5 node; the last part fits one more, and the
  // remaining two fit nowhere.
  Hypergraph g = random_hypergraph(4, 2, 2, 2, 3);
  g.set_node_weights({5, 5, 5, 5});
  const auto balance = BalanceConstraint::with_capacity(2, 5);
  EXPECT_FALSE(
      greedy_growing_partition(g, balance, CostMetric::kConnectivity, 1)
          .has_value());
}

TEST(Fm, NeverIncreasesCost) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const Hypergraph g = random_hypergraph(40, 60, 2, 5, seed);
    const auto balance = BalanceConstraint::for_graph(g, 3, 0.1, true);
    auto p = random_balanced_partition(g, balance, seed + 50);
    ASSERT_TRUE(p.has_value());
    const Weight before = cost(g, *p, CostMetric::kConnectivity);
    const Weight after = fm_refine(g, *p, balance, {});
    EXPECT_LE(after, before);
    EXPECT_EQ(after, cost(g, *p, CostMetric::kConnectivity));
    EXPECT_TRUE(balance.satisfied(g, *p));
  }
}

TEST(Fm, FindsPlantedBisection) {
  const Hypergraph g = two_clusters(10);
  const auto balance = BalanceConstraint::for_graph(g, 2, 0.0);
  // Start from an alternating (bad) partition.
  std::vector<PartId> assign(20);
  for (NodeId v = 0; v < 20; ++v) assign[v] = v % 2;
  Partition p(std::move(assign), 2);
  const Weight after = fm_refine(g, p, balance, {});
  EXPECT_EQ(after, 1);
  EXPECT_TRUE(balance.satisfied(g, p));
}

TEST(Fm, CutNetMetricSupported) {
  const Hypergraph g = random_hypergraph(30, 40, 2, 6, 9);
  const auto balance = BalanceConstraint::for_graph(g, 4, 0.2, true);
  auto p = random_balanced_partition(g, balance, 3);
  ASSERT_TRUE(p.has_value());
  FmConfig cfg;
  cfg.metric = CostMetric::kCutNet;
  const Weight before = cost(g, *p, CostMetric::kCutNet);
  const Weight after = fm_refine(g, *p, balance, cfg);
  EXPECT_LE(after, before);
  EXPECT_EQ(after, cost(g, *p, CostMetric::kCutNet));
}

TEST(Fm, RespectsExtraConstraints) {
  const Hypergraph g = random_hypergraph(24, 30, 2, 4, 11);
  const auto balance = BalanceConstraint::for_graph(g, 2, 0.5, true);
  // Two constraint groups over the first and second halves.
  std::vector<NodeId> first;
  std::vector<NodeId> second;
  for (NodeId v = 0; v < 12; ++v) first.push_back(v);
  for (NodeId v = 12; v < 24; ++v) second.push_back(v);
  const ConstraintSet cs =
      ConstraintSet::for_subsets(g, {first, second}, 2, 0.0);
  // Start from a feasible assignment: alternate within each half.
  std::vector<PartId> assign(24);
  for (NodeId v = 0; v < 24; ++v) assign[v] = v % 2;
  Partition p(std::move(assign), 2);
  ASSERT_TRUE(cs.satisfied(g, p));
  FmConfig cfg;
  cfg.extra_constraints = &cs;
  fm_refine(g, p, balance, cfg);
  EXPECT_TRUE(cs.satisfied(g, p));
  EXPECT_TRUE(balance.satisfied(g, p));
}

}  // namespace
}  // namespace hp
