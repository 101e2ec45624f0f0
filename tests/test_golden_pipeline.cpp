// Golden results of the multilevel pipeline and its sibling drivers, in the
// style of GreedyGolden / FmGolden (test_greedy_fm.cpp): each value is an
// FNV-1a fold of every partition and reported cost of a sweep, so any change
// to a single move, rng draw or engine choice changes it. They pin the
// descent, the ascent, the per-level FM engine choice and the rng streams
// of multilevel_partition, the cached-hierarchy path, vcycle_refine, the
// streaming stack and annealing.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "hyperpart/algo/annealing.hpp"
#include "hyperpart/algo/greedy.hpp"
#include "hyperpart/algo/multilevel.hpp"
#include "hyperpart/io/generators.hpp"
#include "hyperpart/stream/binary_format.hpp"
#include "hyperpart/stream/restream_refiner.hpp"
#include "hyperpart/stream/stream_partitioner.hpp"
#include "hyperpart/util/rng.hpp"
#include "hyperpart/workload/workload.hpp"

namespace hp {
namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

struct Fold {
  std::uint64_t h = kFnvBasis;
  void mix(std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ULL;
  }
  void partition(const Partition& p) {
    for (const PartId q : p.raw()) mix(q);
  }
  void missing() { mix(0xFFFFFFFFULL); }
};

std::vector<PartId> parts(const Partition& p) {
  return {p.raw().begin(), p.raw().end()};
}

/// Random node weights in [lo, hi].
void random_node_weights(Hypergraph& g, Weight lo, Weight hi,
                         std::uint64_t seed) {
  Rng rng{seed};
  std::vector<Weight> w(g.num_nodes());
  for (Weight& x : w) x = rng.next_in(lo, hi);
  g.set_node_weights(std::move(w));
}

Hypergraph weighted_instance(NodeId n, EdgeId m, std::uint64_t seed) {
  Hypergraph g = random_hypergraph(n, m, 2, 6, seed);
  random_node_weights(g, 1, 4, seed + 1000);
  return g;
}

/// Folds multilevel_partition over k = 2..8 and two seeds; checks every
/// result is complete and balanced.
std::uint64_t multilevel_sweep(const Hypergraph& g, CostMetric metric) {
  Fold f;
  for (PartId k = 2; k <= 8; ++k) {
    const auto balance = BalanceConstraint::for_graph(g, k, 0.05, true);
    for (std::uint64_t seed = 1; seed <= 2; ++seed) {
      MultilevelConfig cfg;
      cfg.metric = metric;
      cfg.seed = seed;
      const auto p = multilevel_partition(g, balance, cfg);
      if (!p) {
        f.missing();
        continue;
      }
      EXPECT_TRUE(p->complete());
      EXPECT_TRUE(balance.satisfied(g, *p));
      f.mix(static_cast<std::uint64_t>(cost(g, *p, metric)));
      f.partition(*p);
    }
  }
  return f.h;
}

TEST(MultilevelGolden, ConnectivityKSweep) {
  const Hypergraph g = weighted_instance(1500, 2400, 41);
  EXPECT_EQ(multilevel_sweep(g, CostMetric::kConnectivity),
            1641386533228105447ULL);
}

TEST(MultilevelGolden, CutNetKSweep) {
  const Hypergraph g = weighted_instance(1500, 2400, 42);
  EXPECT_EQ(multilevel_sweep(g, CostMetric::kCutNet), 16510556050490311916ULL);
}

TEST(MultilevelGolden, SyncEngineLevels) {
  // n >= 30k: the finest levels are above the 25k node gate and refine
  // with the synchronous-round FM engine, the coarser ones sequentially.
  const Hypergraph g = random_hypergraph(32000, 51200, 2, 6, 47);
  const auto balance = BalanceConstraint::for_graph(g, 8, 0.05, true);
  for (const unsigned threads : {1u, 4u}) {
    MultilevelConfig cfg;
    cfg.seed = 3;
    cfg.fm.threads = threads;
    const auto p = multilevel_partition(g, balance, cfg);
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(balance.satisfied(g, *p));
    Fold f;
    f.partition(*p);
    EXPECT_EQ(cost(g, *p, CostMetric::kConnectivity), 73448) << threads;
    EXPECT_EQ(f.h, 10786975316198820452ULL) << threads;
  }
}

TEST(MultilevelGolden, CachedHierarchyEqualsFreshRun) {
  const Hypergraph g = weighted_instance(1500, 2400, 43);
  const auto balance = BalanceConstraint::for_graph(g, 4, 0.05, true);
  MultilevelConfig cfg;
  cfg.seed = 7;
  const auto fresh = multilevel_partition(g, balance, cfg);
  ASSERT_TRUE(fresh.has_value());
  MultilevelHierarchy hier;
  const auto built = multilevel_partition_cached(g, balance, cfg, &hier);
  ASSERT_FALSE(hier.empty());
  const auto reused = multilevel_partition_cached(g, balance, cfg, &hier);
  ASSERT_TRUE(built.has_value());
  ASSERT_TRUE(reused.has_value());
  EXPECT_EQ(parts(*built), parts(*fresh));
  EXPECT_EQ(parts(*reused), parts(*fresh));
  Fold f;
  f.mix(hier.levels.size());
  f.mix(hier.rng_draws);
  f.partition(*reused);
  EXPECT_EQ(f.h, 18116277530823893422ULL);
}

/// Folds vcycle_refine over k in {2, 4, 8} and 1-3 cycles from a random
/// balanced start; checks the returned cost is exact and never above the
/// start.
std::uint64_t vcycle_sweep(const Hypergraph& g, CostMetric metric) {
  Fold f;
  for (const PartId k : {2u, 4u, 8u}) {
    const auto balance = BalanceConstraint::for_graph(g, k, 0.05, true);
    const auto start = random_balanced_partition(g, balance, 100 + k);
    if (!start) {
      f.missing();
      continue;
    }
    for (int cycles = 1; cycles <= 3; ++cycles) {
      MultilevelConfig cfg;
      cfg.metric = metric;
      cfg.seed = static_cast<std::uint64_t>(cycles);
      Partition p = *start;
      const Weight c = vcycle_refine(g, p, balance, cfg, cycles);
      EXPECT_EQ(c, cost(g, p, metric));
      EXPECT_LE(c, cost(g, *start, metric));
      EXPECT_TRUE(balance.satisfied(g, p));
      f.mix(static_cast<std::uint64_t>(c));
      f.partition(p);
    }
  }
  return f.h;
}

TEST(VcycleGolden, ConnectivitySweep) {
  const Hypergraph g = weighted_instance(1200, 1900, 44);
  EXPECT_EQ(vcycle_sweep(g, CostMetric::kConnectivity),
            16756058421838450327ULL);
}

TEST(VcycleGolden, CutNetSweep) {
  const Hypergraph g = weighted_instance(1200, 1900, 45);
  EXPECT_EQ(vcycle_sweep(g, CostMetric::kCutNet), 3827178396818926086ULL);
}

/// Streams a small workload through stream_partition + restream_refine
/// (two passes, 256-node chunks) and folds both results.
std::uint64_t stream_fold(const std::string& spec_text, PartId k) {
  workload::WorkloadSpec spec = workload::parse_spec(spec_text);
  spec.target_nodes = 4000;
  const Hypergraph g = workload::generate(spec).graph;
  const std::string path =
      ::testing::TempDir() + "/golden_" + std::to_string(k) + ".hpb";
  stream::write_binary_file(path, g);
  Fold f;
  {
    const stream::MappedHypergraph mapped(path);
    const auto balance = BalanceConstraint::for_graph(g, k, 0.05, true);
    const auto placed = stream::stream_partition(mapped, balance);
    if (!placed) {
      f.missing();
    } else {
      f.mix(static_cast<std::uint64_t>(placed->offline_cost));
      f.partition(placed->partition);
      Partition p = placed->partition;
      stream::RestreamConfig rcfg;
      rcfg.max_passes = 2;
      rcfg.chunk_size = 256;
      const auto refined = stream::restream_refine(mapped, p, balance, rcfg);
      EXPECT_TRUE(balance.satisfied(g, p));
      EXPECT_EQ(refined.cost, cost(g, p, CostMetric::kConnectivity));
      f.mix(refined.moves_applied);
      f.mix(static_cast<std::uint64_t>(refined.cost));
      f.partition(p);
    }
  }
  std::remove(path.c_str());
  return f.h;
}

TEST(StreamGolden, PowerlawPlaceAndRestream) {
  EXPECT_EQ(stream_fold("powerlaw:zipf", 8), 4085167162095896372ULL);
}

TEST(StreamGolden, NetlistPlaceAndRestream) {
  EXPECT_EQ(stream_fold("netlist:rent", 4), 12922404157711548287ULL);
}

TEST(AnnealingGolden, KSweep) {
  const Hypergraph g = weighted_instance(300, 480, 46);
  Fold f;
  for (PartId k = 2; k <= 5; ++k) {
    const auto balance = BalanceConstraint::for_graph(g, k, 0.1, true);
    for (const CostMetric metric :
         {CostMetric::kConnectivity, CostMetric::kCutNet}) {
      AnnealingConfig cfg;
      cfg.metric = metric;
      cfg.seed = k;
      cfg.temperature_steps = 20;
      const auto p = annealing_partition(g, balance, cfg);
      if (!p) {
        f.missing();
        continue;
      }
      EXPECT_TRUE(balance.satisfied(g, *p));
      f.mix(static_cast<std::uint64_t>(cost(g, *p, metric)));
      f.partition(*p);
    }
  }
  EXPECT_EQ(f.h, 14380490889182284622ULL);
}

}  // namespace
}  // namespace hp
