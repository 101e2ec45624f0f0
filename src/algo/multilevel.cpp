#include "hyperpart/algo/multilevel.hpp"

#include <algorithm>
#include <functional>
#include <span>
#include <vector>

#include "hyperpart/algo/coarsening.hpp"
#include "hyperpart/algo/greedy.hpp"
#include "hyperpart/obs/telemetry.hpp"
#include "hyperpart/util/rng.hpp"
#include "hyperpart/util/thread_pool.hpp"

namespace hp {

namespace {

/// FM settings for a level of n nodes: cfg.fm under cfg.metric, with the
/// engine a pure function of n (see kSyncFmMinNodes) — the thread count
/// must never influence it.
[[nodiscard]] FmConfig level_fm(const MultilevelConfig& cfg, NodeId n) {
  FmConfig fm = cfg.fm;
  fm.metric = cfg.metric;
  fm.sync_rounds = n >= kSyncFmMinNodes;
  return fm;
}

/// Coarse partition induced by a fine one under within-part clustering.
[[nodiscard]] Partition induce_coarse(const Partition& fine,
                                      const CoarseLevel& level) {
  Partition coarse(level.graph.num_nodes(), fine.k());
  for (NodeId v = 0; v < fine.num_nodes(); ++v) {
    coarse.assign(level.fine_to_coarse[v], fine[v]);
  }
  return coarse;
}

/// The descent: coarsens g into `levels` until a level has at most
/// max(coarsen_limit, 4·k) nodes, or a round shrinks a level by less than
/// 5% (matching is saturated). Clusters are capped at a third of the
/// per-part capacity, so the coarsest level still admits a balanced
/// partition. With `p` set, clusters stay within one part of p and `parts`
/// receives p induced on every kept level (V-cycles). Returns the rng
/// draws consumed: one per coarsen_once call, including a final saturated
/// attempt that keeps no level.
std::uint32_t coarsen_levels(const Hypergraph& g,
                             const BalanceConstraint& balance,
                             const MultilevelConfig& cfg, Rng& rng,
                             std::vector<CoarseLevel>& levels,
                             const Partition* p = nullptr,
                             std::vector<Partition>* parts = nullptr) {
  const unsigned threads =
      cfg.fm.threads == 0 ? default_threads() : cfg.fm.threads;
  const Weight max_cluster = std::max<Weight>(1, balance.capacity() / 3);
  const NodeId stop_at = std::max<NodeId>(cfg.coarsen_limit, 4 * balance.k());
  const Hypergraph* current = &g;
  const Partition* current_p = p;
  std::uint32_t draws = 0;
  while (current->num_nodes() > stop_at) {
    HP_SPAN("coarsen", "level", levels.size());
    ++draws;
    CoarseLevel next =
        coarsen_once(*current, max_cluster, rng(), current_p, threads);
    if (next.graph.num_nodes() >
        static_cast<NodeId>(0.95 * current->num_nodes())) {
      break;
    }
    if (p != nullptr) {
      parts->push_back(induce_coarse(*current_p, next));
      current_p = &parts->back();
    }
    levels.push_back(std::move(next));
    current = &levels.back().graph;
  }
  return draws;
}

/// The ascent: projects p, a partition of the coarsest of `levels`,
/// through every level back to g, refining on each finer graph.
void uncoarsen_levels(const Hypergraph& g,
                      std::span<const CoarseLevel> levels, Partition& p,
                      const BalanceConstraint& balance,
                      const MultilevelConfig& cfg) {
  for (std::size_t i = levels.size(); i-- > 0;) {
    HP_SPAN("uncoarsen", "level", i);
    p = project_partition(p, levels[i].fine_to_coarse);
    const Hypergraph& fine = i == 0 ? g : levels[i - 1].graph;
    fm_refine(fine, p, balance, level_fm(cfg, fine.num_nodes()));
  }
}

/// cfg.initial_tries greedy/random attempts on h, each FM-refined; returns
/// the cheapest, or nullopt when no attempt packs h.
std::optional<Partition> initial_partition(const Hypergraph& h,
                                           const BalanceConstraint& balance,
                                           const MultilevelConfig& cfg,
                                           Rng& rng) {
  HP_SPAN("initial");
  std::optional<Partition> best;
  Weight best_cost = 0;
  for (int attempt = 0; attempt < cfg.initial_tries; ++attempt) {
    std::optional<Partition> candidate =
        attempt % 2 == 0
            ? greedy_growing_partition(h, balance, cfg.metric, rng())
            : random_balanced_partition(h, balance, rng());
    if (!candidate) continue;
    const Weight c =
        fm_refine(h, *candidate, balance, level_fm(cfg, h.num_nodes()));
    if (!best || c < best_cost) {
      best = std::move(candidate);
      best_cost = c;
    }
  }
  return best;
}

}  // namespace

std::optional<Partition> multilevel_partition_cached(
    const Hypergraph& g, const BalanceConstraint& balance,
    const MultilevelConfig& cfg, MultilevelHierarchy* hierarchy) {
  HP_SPAN("multilevel");
  Rng rng{cfg.seed};

  // --- Coarsening phase ---------------------------------------------------
  MultilevelHierarchy local;
  MultilevelHierarchy& hier = hierarchy ? *hierarchy : local;
  if (hier.empty()) {
    hier.rng_draws += coarsen_levels(g, balance, cfg, rng, hier.levels);
  } else {
    // Reuse: the cached levels ARE the coarsening a fresh run would have
    // produced (callers guarantee graph + capacity + seed match). Replay
    // the recorded number of rng draws so every downstream random choice —
    // initial partitioning, FM tie-breaks — sees the same stream as an
    // uncached run, keeping the partition bit-identical.
    for (std::uint32_t i = 0; i < hier.rng_draws; ++i) (void)rng();
    HP_COUNTER_ADD("multilevel.hierarchy_reuses", 1);
  }
  const std::vector<CoarseLevel>& levels = hier.levels;
  HP_COUNTER_ADD("multilevel.runs", 1);
  HP_COUNTER_ADD("multilevel.levels",
                 static_cast<std::int64_t>(levels.size()));
  HP_GAUGE_MAX("multilevel.coarsest_nodes",
               levels.empty() ? g.num_nodes()
                              : levels.back().graph.num_nodes());

  // --- Initial partitioning on the coarsest level --------------------------
  // Coarse clusters weigh up to capacity/3, so a coarse level may admit no
  // balanced packing that the tries find although g does: then the tries
  // repeat one level finer, up to g itself, and the ascent starts from the
  // level that packed.
  std::size_t top = levels.size();
  std::optional<Partition> best;
  while (true) {
    best = initial_partition(top == 0 ? g : levels[top - 1].graph, balance,
                             cfg, rng);
    if (best || top == 0) break;
    --top;
  }
  if (!best) return std::nullopt;

  // --- Uncoarsening + refinement -------------------------------------------
  uncoarsen_levels(g, std::span(levels).first(top), *best, balance, cfg);
  return best;
}

std::optional<Partition> multilevel_partition(const Hypergraph& g,
                                              const BalanceConstraint& balance,
                                              const MultilevelConfig& cfg) {
  return multilevel_partition_cached(g, balance, cfg, nullptr);
}

Weight vcycle_refine(const Hypergraph& g, Partition& p,
                     const BalanceConstraint& balance,
                     const MultilevelConfig& cfg, int cycles) {
  Rng rng{cfg.seed ^ 0x5ec7c1e5ULL};
  Weight result = fm_refine(g, p, balance, level_fm(cfg, g.num_nodes()));

  for (int cycle = 0; cycle < cycles; ++cycle) {
    std::vector<CoarseLevel> levels;
    std::vector<Partition> parts;  // p induced on each level
    coarsen_levels(g, balance, cfg, rng, levels, &p, &parts);
    if (levels.empty()) break;

    Partition refined = std::move(parts.back());
    const Hypergraph& coarsest = levels.back().graph;
    fm_refine(coarsest, refined, balance, level_fm(cfg, coarsest.num_nodes()));
    uncoarsen_levels(g, levels, refined, balance, cfg);
    const Weight c = cost(g, refined, cfg.metric);
    if (c < result) {
      result = c;
      p = std::move(refined);
    }
  }
  return result;
}

std::optional<Partition> multilevel_partition_multistart(
    const Hypergraph& g, const BalanceConstraint& balance,
    const MultilevelConfig& cfg, int starts, unsigned threads) {
  if (starts < 1) return std::nullopt;
  std::vector<std::optional<Partition>> results(
      static_cast<std::size_t>(starts));
  std::vector<std::function<void()>> tasks;
  tasks.reserve(static_cast<std::size_t>(starts));
  for (int i = 0; i < starts; ++i) {
    tasks.push_back([&, i]() {
      MultilevelConfig local = cfg;
      local.seed = cfg.seed + static_cast<std::uint64_t>(i);
      results[static_cast<std::size_t>(i)] =
          multilevel_partition(g, balance, local);
    });
  }
  run_parallel(tasks, threads);

  std::optional<Partition> best;
  Weight best_cost = 0;
  for (auto& candidate : results) {
    if (!candidate) continue;
    const Weight c = cost(g, *candidate, cfg.metric);
    if (!best || c < best_cost) {
      best = std::move(candidate);
      best_cost = c;
    }
  }
  return best;
}

}  // namespace hp
