#include "hyperpart/algo/annealing.hpp"

#include <cmath>

#include "hyperpart/algo/greedy.hpp"
#include "hyperpart/core/connectivity_tracker.hpp"
#include "hyperpart/util/overflow.hpp"
#include "hyperpart/util/rng.hpp"

namespace hp {

namespace {

/// Start temperature and geometric cooling factor per temperature step.
constexpr double kInitialTemperature = 4.0;
constexpr double kCooling = 0.95;

}  // namespace

std::optional<Partition> annealing_partition(const Hypergraph& g,
                                             const BalanceConstraint& balance,
                                             const AnnealingConfig& cfg) {
  const auto start = random_balanced_partition(g, balance, cfg.seed);
  if (!start) return std::nullopt;
  const PartId k = balance.k();
  Rng rng{cfg.seed ^ 0xa22ea1ULL};
  ConnectivityTracker tracker(g, *start);

  Partition best = *start;
  Weight best_cost = tracker.cost(cfg.metric);
  double temperature = kInitialTemperature;

  const std::uint64_t moves_per_step =
      static_cast<std::uint64_t>(cfg.moves_per_node) * g.num_nodes();
  for (int step = 0; step < cfg.temperature_steps; ++step) {
    for (std::uint64_t attempt = 0; attempt < moves_per_step; ++attempt) {
      const auto v = static_cast<NodeId>(rng.next_below(g.num_nodes()));
      const auto to = static_cast<PartId>(rng.next_below(k));
      const PartId from = tracker.part_of(v);
      if (to == from) continue;
      if (sat_add(tracker.part_weight(to), g.node_weight(v)) >
          balance.capacity()) {
        continue;
      }
      const Weight gain = tracker.gain(v, to, cfg.metric);
      // Metropolis: accept improvements, and regressions with probability
      // exp(gain / T).
      if (gain < 0 &&
          rng.next_double() >=
              std::exp(static_cast<double>(gain) / temperature)) {
        continue;
      }
      tracker.move(v, to);
      const Weight current = tracker.cost(cfg.metric);
      if (current < best_cost) {
        best_cost = current;
        best = tracker.to_partition();
      }
    }
    temperature *= kCooling;
  }
  return best;
}

}  // namespace hp
