// Tests for the deterministic parallel multilevel engine: clustering
// coarsening conflict resolution, synchronous FM rounds, the tracker's
// batch-commit API, and the fixed-grain thread-pool primitives they build
// on.

#include <gtest/gtest.h>

#include <vector>

#include "hyperpart/algo/coarsening.hpp"
#include "hyperpart/algo/fm_refiner.hpp"
#include "hyperpart/algo/greedy.hpp"
#include "hyperpart/algo/multilevel.hpp"
#include "hyperpart/core/connectivity_tracker.hpp"
#include "hyperpart/io/generators.hpp"
#include "hyperpart/util/thread_pool.hpp"

namespace hp {
namespace {

// --- Coarsening conflict resolution ----------------------------------------

// Nodes 0 and 1 both propose to join node 2 (their only candidate) with
// EQUAL heavy-edge ratings. The documented priority key — rating desc,
// then node id asc — makes 0 the winner. max_cluster_weight = 2 keeps the
// loser out in later rounds, so the outcome is observable in the mapping.
TEST(ParallelCoarsening, EqualRatingConflictResolvesToLowerNodeId) {
  Hypergraph g = Hypergraph::from_edges(3, {{0, 2}, {1, 2}});
  const CoarseLevel level = coarsen_once(g, /*max_cluster_weight=*/2,
                                         /*seed=*/123);
  EXPECT_EQ(level.fine_to_coarse[0], level.fine_to_coarse[2]);
  EXPECT_NE(level.fine_to_coarse[1], level.fine_to_coarse[2]);
  EXPECT_EQ(level.graph.num_nodes(), 2u);
}

// Same shape, but the edge {1,2} is 5× heavier: node 1 now out-rates node
// 0 and must win the conflict even though its id is larger — rating is the
// primary key, the node id only breaks exact ties.
TEST(ParallelCoarsening, HigherRatingWinsConflictRegardlessOfNodeId) {
  Hypergraph g = Hypergraph::from_edges(3, {{0, 2}, {1, 2}});
  g.set_edge_weights({1, 5});
  const CoarseLevel level = coarsen_once(g, /*max_cluster_weight=*/2,
                                         /*seed=*/123);
  EXPECT_EQ(level.fine_to_coarse[1], level.fine_to_coarse[2]);
  EXPECT_NE(level.fine_to_coarse[0], level.fine_to_coarse[2]);
  EXPECT_EQ(level.graph.num_nodes(), 2u);
}

// The winner's tie-break must not depend on the seed (the seed only salts
// the proposer-side target choice, never the winner-per-target key).
TEST(ParallelCoarsening, ConflictResolutionIsSeedIndependent) {
  Hypergraph g = Hypergraph::from_edges(3, {{0, 2}, {1, 2}});
  for (const std::uint64_t seed : {1ull, 7ull, 99ull, 123456789ull}) {
    const CoarseLevel level = coarsen_once(g, 2, seed);
    EXPECT_EQ(level.fine_to_coarse[0], level.fine_to_coarse[2])
        << "seed " << seed;
  }
}

// The contraction hierarchy — mapping AND coarse graph — is bit-identical
// at 1, 2, 4, and 8 threads. The instance spans several kStableGrain
// chunks so the propose phase genuinely fans out.
TEST(ParallelCoarsening, HierarchyIdenticalAcrossThreadCounts) {
  const Hypergraph g = random_hypergraph(9000, 12000, 2, 6, 31);
  const CoarseLevel base = coarsen_once(g, 16, 42, nullptr, 1);
  for (const unsigned t : {2u, 4u, 8u}) {
    const CoarseLevel other = coarsen_once(g, 16, 42, nullptr, t);
    EXPECT_EQ(base.fine_to_coarse, other.fine_to_coarse) << t << " threads";
    ASSERT_EQ(base.graph.num_nodes(), other.graph.num_nodes());
    ASSERT_EQ(base.graph.num_edges(), other.graph.num_edges());
    for (EdgeId e = 0; e < base.graph.num_edges(); ++e) {
      EXPECT_EQ(base.graph.edge_weight(e), other.graph.edge_weight(e));
      const auto bp = base.graph.pins(e);
      const auto op = other.graph.pins(e);
      ASSERT_EQ(bp.size(), op.size());
      EXPECT_TRUE(std::equal(bp.begin(), bp.end(), op.begin()));
    }
  }
}

TEST(ParallelCoarsening, EdgelessGraphCoarsensWithoutScheduling) {
  Hypergraph g = Hypergraph::from_edges(5, {});
  const CoarseLevel level = coarsen_once(g, 10, 1, nullptr, 4);
  // Nothing clusters (no edges → no ratings) and the dedup schedules no
  // work at all; the level is just a rename.
  EXPECT_EQ(level.graph.num_nodes(), 5u);
  EXPECT_EQ(level.graph.num_edges(), 0u);
}

// --- Synchronous FM rounds --------------------------------------------------

TEST(SyncFm, MonotoneBalancedAndMatchesReportedCost) {
  const Hypergraph g = random_hypergraph(400, 700, 2, 6, 5);
  const auto balance = BalanceConstraint::for_graph(g, 4, 0.1, true);
  auto p = random_balanced_partition(g, balance, 17);
  ASSERT_TRUE(p.has_value());
  const Weight before = cost(g, *p, CostMetric::kConnectivity);
  FmConfig cfg;
  cfg.sync_rounds = true;
  const Weight after = fm_refine(g, *p, balance, cfg);
  EXPECT_EQ(after, cost(g, *p, CostMetric::kConnectivity));
  EXPECT_LE(after, before);
  EXPECT_TRUE(balance.satisfied(g, *p));
}

TEST(SyncFm, IdenticalAcrossThreadCounts) {
  const Hypergraph g = random_hypergraph(3000, 5000, 2, 5, 11);
  const auto balance = BalanceConstraint::for_graph(g, 4, 0.1, true);
  const auto seed_p = random_balanced_partition(g, balance, 23);
  ASSERT_TRUE(seed_p.has_value());
  std::optional<Partition> base;
  for (const unsigned t : {1u, 2u, 4u, 8u}) {
    Partition p = *seed_p;
    FmConfig cfg;
    cfg.sync_rounds = true;
    cfg.threads = t;
    fm_refine(g, p, balance, cfg);
    if (!base) {
      base = std::move(p);
      continue;
    }
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ((*base)[v], p[v]) << "node " << v << " at " << t
                                  << " threads";
    }
  }
}

// Whole-pipeline determinism on an instance above the sync-FM size gate:
// the finest levels refine through the synchronous-round engine.
TEST(SyncFm, MultilevelSyncPathIdenticalAcrossThreadCounts) {
  const Hypergraph g = random_hypergraph(30000, 48000, 2, 6, 77);
  ASSERT_GE(g.num_nodes(), kSyncFmMinNodes);
  const auto balance = BalanceConstraint::for_graph(g, 4, 0.1, true);
  MultilevelConfig cfg;
  cfg.seed = 9;
  std::optional<Partition> base;
  for (const unsigned t : {1u, 2u, 4u, 8u}) {
    cfg.fm.threads = t;
    const auto p = multilevel_partition(g, balance, cfg);
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(balance.satisfied(g, *p));
    if (!base) {
      base = *p;
      continue;
    }
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ((*base)[v], (*p)[v]) << "node " << v << " at " << t
                                     << " threads";
    }
  }
}

// --- ConnectivityTracker::apply_batch ---------------------------------------

TEST(TrackerBatch, RevalidatesStaleAndDuplicateProposals) {
  const Hypergraph g = random_hypergraph(60, 100, 2, 5, 3);
  const auto balance = BalanceConstraint::for_graph(g, 2, 0.2, true);
  const auto p = random_balanced_partition(g, balance, 7);
  ASSERT_TRUE(p.has_value());
  ConnectivityTracker tracker(g, *p);
  tracker.enable_gain_cache(CostMetric::kConnectivity);

  // Find a strictly improving move.
  NodeId mover = kInvalidNode;
  for (const NodeId v : tracker.boundary_nodes()) {
    if (tracker.cached_best_gain(v) > 0) {
      mover = v;
      break;
    }
  }
  if (mover == kInvalidNode) GTEST_SKIP() << "instance has no improving move";
  const PartId to = tracker.cached_best_target(mover);
  const Weight gain = tracker.cached_best_gain(mover);
  const Weight before = tracker.connectivity_cost();

  // The same proposal twice: the first applies, the duplicate is stale
  // (the node already sits in its target) and must count as conflicted.
  const std::vector<BatchMove> batch{{mover, to, gain}, {mover, to, gain}};
  const BatchCommitResult res =
      tracker.apply_batch(batch, balance.capacity());
  EXPECT_EQ(res.applied, 1u);
  EXPECT_EQ(res.conflicted, 1u);
  EXPECT_EQ(res.total_gain, gain);
  EXPECT_EQ(tracker.connectivity_cost(), before - gain);
  EXPECT_EQ(tracker.part_of(mover), to);
}

TEST(TrackerBatch, RejectsCapacityViolations) {
  const Hypergraph g = random_hypergraph(40, 70, 2, 4, 9);
  const auto balance = BalanceConstraint::for_graph(g, 2, 0.1, true);
  const auto p = random_balanced_partition(g, balance, 3);
  ASSERT_TRUE(p.has_value());
  ConnectivityTracker tracker(g, *p);
  tracker.enable_gain_cache(CostMetric::kConnectivity);
  if (tracker.boundary_nodes().empty()) GTEST_SKIP() << "no boundary";
  const NodeId v = tracker.boundary_nodes().front();
  const PartId to = tracker.part_of(v) == 0 ? 1 : 0;
  // A capacity the target cannot possibly satisfy forces a rejection even
  // for an otherwise valid proposal.
  const std::vector<BatchMove> batch{{v, to, tracker.cached_gain(v, to)}};
  const BatchCommitResult res = tracker.apply_batch(batch, /*capacity=*/0,
                                                    /*min_gain=*/-1000000);
  EXPECT_EQ(res.applied, 0u);
  EXPECT_EQ(res.conflicted, 1u);
}

// --- Fixed-grain thread-pool primitives -------------------------------------

TEST(ParallelForGrain, EmptyRangeSchedulesNothing) {
  const std::uint64_t before = ThreadPool::instance().batches_executed();
  bool called = false;
  parallel_for_grain(0, 0, 8,
                     [&](std::size_t, std::uint64_t, std::uint64_t) {
                       called = true;
                     });
  EXPECT_FALSE(called);
  // No no-op tasks hit the pool for an empty range.
  EXPECT_EQ(ThreadPool::instance().batches_executed(), before);
}

TEST(ParallelForGrain, SingleChunkRunsInlineWithoutPool) {
  const std::uint64_t before = ThreadPool::instance().batches_executed();
  std::vector<std::uint64_t> seen;
  parallel_for_grain(100, 0, 8,
                     [&](std::size_t c, std::uint64_t b, std::uint64_t e) {
                       EXPECT_EQ(c, 0u);
                       for (std::uint64_t i = b; i < e; ++i) seen.push_back(i);
                     });
  ASSERT_EQ(seen.size(), 100u);
  // count < grain ⇒ one chunk ⇒ inline on the caller, no pool batch.
  EXPECT_EQ(ThreadPool::instance().batches_executed(), before);
}

TEST(ParallelForGrain, ChunkBoundariesAreAPureFunctionOfCount) {
  // 3 chunks of grain 10 over 25 items, identical for every thread count.
  for (const unsigned t : {1u, 2u, 8u}) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> bounds(3);
    parallel_for_grain(25, 10, t,
                       [&](std::size_t c, std::uint64_t b, std::uint64_t e) {
                         bounds[c] = {b, e};
                       });
    EXPECT_EQ(bounds[0], (std::pair<std::uint64_t, std::uint64_t>{0, 10}));
    EXPECT_EQ(bounds[1], (std::pair<std::uint64_t, std::uint64_t>{10, 20}));
    EXPECT_EQ(bounds[2], (std::pair<std::uint64_t, std::uint64_t>{20, 25}));
  }
}

}  // namespace
}  // namespace hp
