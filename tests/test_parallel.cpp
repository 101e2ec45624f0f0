#include "hyperpart/algo/multilevel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "hyperpart/algo/coarsening.hpp"
#include "hyperpart/algo/greedy.hpp"
#include "hyperpart/dag/layerwise_partitioner.hpp"
#include "hyperpart/dag/hyperdag.hpp"
#include "hyperpart/io/dag_families.hpp"
#include "hyperpart/io/generators.hpp"
#include "hyperpart/util/thread_pool.hpp"

namespace hp {
namespace {

TEST(ThreadPool, RunsEveryTaskOnce) {
  std::vector<int> hits(100, 0);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 100; ++i) {
    tasks.push_back([&hits, i]() { hits[i] += 1; });
  }
  run_parallel(tasks, 4);
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPool, ChunksCoverRangeExactly) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for_grain(1000, 64, 7,
                     [&](std::size_t, std::uint64_t b, std::uint64_t e) {
                       for (std::uint64_t i = b; i < e; ++i) {
                         hits[i].fetch_add(1);
                       }
                     });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadInline) {
  int counter = 0;
  std::vector<std::function<void()>> tasks{[&]() { ++counter; },
                                           [&]() { ++counter; }};
  run_parallel(tasks, 1);
  EXPECT_EQ(counter, 2);
}

TEST(ThreadPool, PersistsAcrossCalls) {
  // run_parallel is backed by one process-wide worker pool: repeated
  // parallel regions reuse the same resident workers instead of spawning
  // threads per call.
  ThreadPool& pool = ThreadPool::instance();
  const unsigned workers = pool.num_workers();
  const std::uint64_t before = pool.batches_executed();
  for (int round = 0; round < 50; ++round) {
    std::vector<std::atomic<int>> hits(64);
    parallel_for_grain(64, 16, 4,
                       [&](std::size_t, std::uint64_t b, std::uint64_t e) {
                         for (std::uint64_t i = b; i < e; ++i) {
                           hits[i].fetch_add(1);
                         }
                       });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
  EXPECT_EQ(pool.num_workers(), workers);
  EXPECT_EQ(&pool, &ThreadPool::instance());
  // On a single-core host every region runs inline on the submitter, which
  // is still one batch through the pool per multi-chunk call.
  EXPECT_GE(pool.batches_executed(), before);
}

TEST(ThreadPool, NestedSubmissionCompletes) {
  // A pool task submitting its own batch must not deadlock: the submitter
  // always drains its own batch, so progress never waits on a free worker.
  std::atomic<int> total{0};
  std::vector<std::function<void()>> outer;
  for (int i = 0; i < 4; ++i) {
    outer.push_back([&]() {
      parallel_for_grain(100, 25, 4,
                         [&](std::size_t, std::uint64_t b, std::uint64_t e) {
                           total.fetch_add(static_cast<int>(e - b));
                         });
    });
  }
  run_parallel(outer, 4);
  EXPECT_EQ(total.load(), 400);
}

TEST(ThreadPool, ZeroItemRangesAreNoOps) {
  // Empty work must return immediately without touching the pool.
  bool called = false;
  parallel_for_grain(0, 16, 4, [&](std::size_t, std::uint64_t, std::uint64_t) {
    called = true;
  });
  EXPECT_FALSE(called);
  run_parallel({}, 4);
  ThreadPool::instance().run({});
}

TEST(ThreadPool, NestedParallelForChunksFromWorker) {
  // parallel_for_grain issued from inside a pool task (the common shape
  // in restream's propose phase) must complete and cover both ranges.
  std::atomic<int> outer_hits{0};
  std::atomic<int> inner_hits{0};
  parallel_for_grain(8, 2, 4, [&](std::size_t, std::uint64_t b,
                                  std::uint64_t e) {
    outer_hits.fetch_add(static_cast<int>(e - b));
    parallel_for_grain(50, 16, 3,
                       [&](std::size_t, std::uint64_t ib, std::uint64_t ie) {
                         inner_hits.fetch_add(static_cast<int>(ie - ib));
                       });
  });
  EXPECT_EQ(outer_hits.load(), 8);
  // One full inner sweep of 50 per outer chunk (4 chunks of grain 2).
  EXPECT_EQ(inner_hits.load(), 4 * 50);
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives) {
  std::atomic<int> executed{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 16; ++i) {
    tasks.push_back([&executed, i]() {
      executed.fetch_add(1);
      if (i == 5) throw std::runtime_error("task 5 failed");
    });
  }
  try {
    run_parallel(tasks, 4);
    FAIL() << "expected run_parallel to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 5 failed");
  }
  // A throwing task never cancels its siblings.
  EXPECT_EQ(executed.load(), 16);

  // The pool is fully usable after an exception.
  std::atomic<int> after{0};
  std::vector<std::function<void()>> ok;
  for (int i = 0; i < 8; ++i) {
    ok.push_back([&after]() { after.fetch_add(1); });
  }
  run_parallel(ok, 4);
  EXPECT_EQ(after.load(), 8);

  // parallel_for_grain rethrows a chunk's exception the same way.
  EXPECT_THROW(parallel_for_grain(64, 8, 4,
                                  [](std::size_t c, std::uint64_t,
                                     std::uint64_t) {
                                    if (c == 3) throw std::runtime_error("c3");
                                  }),
               std::runtime_error);
}

TEST(ThreadPool, ExceptionFromDirectPoolRun) {
  std::vector<std::function<void()>> tasks{
      []() { throw std::logic_error("boom"); }, []() {}, []() {}};
  EXPECT_THROW(ThreadPool::instance().run(tasks), std::logic_error);
}

TEST(Coarsening, DedupDeterministicAcrossThreadCounts) {
  const Hypergraph g = random_hypergraph(300, 500, 2, 8, 13);
  const CoarseLevel serial = coarsen_once(g, 10, 99, nullptr, 1);
  for (const unsigned threads : {2u, 4u, 16u}) {
    const CoarseLevel par = coarsen_once(g, 10, 99, nullptr, threads);
    ASSERT_EQ(par.graph.num_nodes(), serial.graph.num_nodes());
    ASSERT_EQ(par.graph.num_edges(), serial.graph.num_edges());
    EXPECT_EQ(par.fine_to_coarse, serial.fine_to_coarse);
    for (EdgeId e = 0; e < serial.graph.num_edges(); ++e) {
      const auto a = serial.graph.pins(e);
      const auto b = par.graph.pins(e);
      ASSERT_EQ(a.size(), b.size());
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
      EXPECT_EQ(par.graph.edge_weight(e), serial.graph.edge_weight(e));
    }
  }
}

TEST(Fm, DeterministicAcrossThreadCounts) {
  // The gain-cache engine builds its tracker/cache in parallel, but the
  // refined partition must be bit-identical for every thread count.
  const Hypergraph g = random_hypergraph(400, 600, 2, 6, 21);
  for (const CostMetric metric :
       {CostMetric::kCutNet, CostMetric::kConnectivity}) {
    const auto balance = BalanceConstraint::for_graph(g, 4, 0.1, true);
    const auto start = random_balanced_partition(g, balance, 31);
    ASSERT_TRUE(start.has_value());
    FmConfig cfg;
    cfg.metric = metric;
    cfg.threads = 1;
    Partition serial = *start;
    const Weight serial_cost = fm_refine(g, serial, balance, cfg);
    for (const unsigned threads : {2u, 4u, 8u}) {
      cfg.threads = threads;
      Partition threaded = *start;
      const Weight threaded_cost = fm_refine(g, threaded, balance, cfg);
      EXPECT_EQ(threaded_cost, serial_cost);
      EXPECT_TRUE(std::equal(serial.raw().begin(), serial.raw().end(),
                             threaded.raw().begin()))
          << "metric " << to_string(metric) << " threads " << threads;
    }
  }
}

TEST(Fm, GainCacheEngineNeverWorsensAndStaysBalanced) {
  // The engine must never end worse than the start, must stay within
  // balance, and must report the cost of the partition it returns.
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Hypergraph g = random_hypergraph(120, 200, 2, 6, seed + 40);
    const auto balance = BalanceConstraint::for_graph(g, 3, 0.1, true);
    const auto start = random_balanced_partition(g, balance, seed + 9);
    ASSERT_TRUE(start.has_value());
    Partition a = *start;
    const Weight cached_cost = fm_refine(g, a, balance, {});
    EXPECT_LE(cached_cost, cost(g, *start, CostMetric::kConnectivity));
    EXPECT_TRUE(balance.satisfied(g, a));
    EXPECT_EQ(cached_cost, cost(g, a, CostMetric::kConnectivity));
  }
}

TEST(Parallel, MultistartDeterministicAcrossThreadCounts) {
  const Hypergraph g = random_hypergraph(120, 180, 2, 5, 7);
  const auto balance = BalanceConstraint::for_graph(g, 3, 0.1, true);
  MultilevelConfig cfg;
  cfg.seed = 5;
  const auto serial = multilevel_partition_multistart(g, balance, cfg, 4, 1);
  const auto threaded =
      multilevel_partition_multistart(g, balance, cfg, 4, 4);
  ASSERT_TRUE(serial && threaded);
  EXPECT_EQ(cost(g, *serial, CostMetric::kConnectivity),
            cost(g, *threaded, CostMetric::kConnectivity));
}

TEST(Parallel, MultistartNeverWorseThanSingle) {
  const Hypergraph g = spmv_hypergraph(40, 40, 400, 9);
  const auto balance = BalanceConstraint::for_graph(g, 4, 0.1, true);
  MultilevelConfig cfg;
  cfg.seed = 2;
  const auto single = multilevel_partition(g, balance, cfg);
  const auto multi = multilevel_partition_multistart(g, balance, cfg, 6, 2);
  ASSERT_TRUE(single && multi);
  EXPECT_LE(cost(g, *multi, CostMetric::kConnectivity),
            cost(g, *single, CostMetric::kConnectivity));
}

TEST(LayerwisePartitioner, ProducesLayerFeasiblePartitions) {
  const Dag dag = stencil2d_dag(6, 6, 6);
  const HyperDag h = to_hyperdag(dag);
  const auto layers = dag.earliest_layers();
  LayerwiseConfig cfg;
  cfg.epsilon = 0.1;
  const auto res = layerwise_partition(h.graph, dag, layers, 2, cfg);
  ASSERT_TRUE(res.has_value());
  const ConstraintSet groups =
      layerwise_constraints(h.graph, dag, layers, 2, 0.1, true);
  EXPECT_TRUE(groups.satisfied(h.graph, res->partition));
  EXPECT_EQ(res->cost,
            cost(h.graph, res->partition, CostMetric::kConnectivity));
}

TEST(LayerwisePartitioner, RejectsInvalidLayering) {
  const Dag dag = chain_dag(5);
  const HyperDag h = to_hyperdag(dag);
  EXPECT_FALSE(
      layerwise_partition(h.graph, dag, {0, 0, 1, 2, 3}, 2, {}).has_value());
}

}  // namespace
}  // namespace hp
