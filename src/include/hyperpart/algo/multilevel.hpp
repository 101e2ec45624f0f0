#pragma once
// Multilevel hypergraph partitioning (coarsen → initial → uncoarsen+refine),
// the algorithmic skeleton of hMETIS/KaHyPar-style tools [28, 45]. Serves as
// the practical heuristic the paper's hardness results motivate. The same
// descent and ascent also drive V-cycle refinement of an existing partition
// and embarrassingly-parallel multi-start search.

#include <optional>
#include <vector>

#include "hyperpart/algo/coarsening.hpp"
#include "hyperpart/algo/fm_refiner.hpp"
#include "hyperpart/core/balance.hpp"
#include "hyperpart/core/metrics.hpp"
#include "hyperpart/core/partition.hpp"

namespace hp {

struct MultilevelConfig {
  CostMetric metric = CostMetric::kConnectivity;
  /// Coarsening stops once a level has at most max(coarsen_limit, 4·k)
  /// nodes, or earlier when a round shrinks a level by less than 5%.
  NodeId coarsen_limit = 120;
  /// Independent initial-partitioning attempts on the coarsest level.
  int initial_tries = 8;
  FmConfig fm{};
  std::uint64_t seed = 1;
};

/// Levels with at least this many nodes refine with the synchronous-round
/// parallel FM engine (FmConfig::sync_rounds); smaller levels — and the
/// coarsest-level initial refinement — use the sequential engine, whose
/// rollback discipline wins more on small instances than parallel rounds
/// do. The switch depends only on the level's node count, never on the
/// thread count, so partitions stay bit-identical across thread counts.
inline constexpr NodeId kSyncFmMinNodes = 25000;

/// Partition g into balance.k() parts. Returns nullopt when no feasible
/// partition is found (capacity too tight for the node weights).
[[nodiscard]] std::optional<Partition> multilevel_partition(
    const Hypergraph& g, const BalanceConstraint& balance,
    const MultilevelConfig& cfg = {});

/// A reusable coarsening hierarchy: the per-level coarse graphs and
/// fine→coarse maps produced by the coarsening phase. Valid only for the
/// exact graph contents (and balance capacity / seed) it was built from —
/// the partitioning service keys cached hierarchies by
/// Hypergraph::content_hash() plus the request config.
struct MultilevelHierarchy {
  std::vector<CoarseLevel> levels;
  /// Rng draws the coarsening phase consumed when this hierarchy was built
  /// (one per coarsen_once call, including a final saturated attempt that
  /// produced no level). Reuse replays exactly this many draws so the rest
  /// of the pipeline sees the same rng stream as the original run.
  std::uint32_t rng_draws = 0;
  [[nodiscard]] bool empty() const noexcept { return levels.empty(); }
};

/// multilevel_partition with an explicit hierarchy slot. When `hierarchy`
/// is non-null and non-empty, the coarsening phase is skipped entirely and
/// the cached levels are reused (no coarsen spans open; the per-level rng
/// draws are still consumed so the result is bit-identical to a fresh
/// run). When non-null and empty, the freshly built hierarchy is stored
/// into it for future reuse. nullptr behaves exactly like
/// multilevel_partition above.
[[nodiscard]] std::optional<Partition> multilevel_partition_cached(
    const Hypergraph& g, const BalanceConstraint& balance,
    const MultilevelConfig& cfg, MultilevelHierarchy* hierarchy);

/// V-cycle refinement [28, 45]: run `cycles` multilevel V-cycles on the
/// complete, balanced partition p (in place); returns the final cost under
/// cfg.metric. Coarsening is restricted to clusters within one part, so p
/// projects losslessly onto every level and a cycle is kept only when it
/// lowers the cost. Uses its own rng stream (seeded from cfg.seed).
Weight vcycle_refine(const Hypergraph& g, Partition& p,
                     const BalanceConstraint& balance,
                     const MultilevelConfig& cfg = {}, int cycles = 2);

/// Run `starts` independent multilevel searches (seeds cfg.seed + i) on up
/// to `threads` threads; return the best-cost feasible result. The outcome
/// is the same as running the starts sequentially.
[[nodiscard]] std::optional<Partition> multilevel_partition_multistart(
    const Hypergraph& g, const BalanceConstraint& balance,
    const MultilevelConfig& cfg, int starts, unsigned threads);

}  // namespace hp
