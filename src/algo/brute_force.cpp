#include "hyperpart/algo/brute_force.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "hyperpart/util/overflow.hpp"

namespace hp {

std::optional<ExactResult> brute_force_partition(
    const Hypergraph& g, const BalanceConstraint& balance,
    const BruteForceOptions& opts) {
  const PartId k = balance.k();
  const NodeId n = g.num_nodes();
  Partition current(n, k);
  std::vector<Weight> load(k, 0);

  double best_cost = std::numeric_limits<double>::infinity();
  std::optional<Partition> best;
  std::uint64_t leaves = 0;

  const auto leaf_cost = [&](const Partition& p) -> double {
    if (opts.custom_cost) return opts.custom_cost(p);
    return static_cast<double>(cost(g, p, opts.metric));
  };

  const auto recurse = [&](auto&& self, NodeId v, PartId max_used) -> void {
    if (v == n) {
      ++leaves;
      if (opts.extra_constraints != nullptr &&
          !opts.extra_constraints->satisfied(g, current)) {
        return;
      }
      const double c = leaf_cost(current);
      if (c < best_cost) {
        best_cost = c;
        best = current;
      }
      return;
    }
    const PartId limit =
        opts.break_symmetry ? std::min<PartId>(k, max_used + 1) : k;
    for (PartId q = 0; q < limit; ++q) {
      if (sat_add(load[q], g.node_weight(v)) > balance.capacity()) continue;
      current.assign(v, q);
      load[q] += g.node_weight(v);
      self(self, v + 1, std::max<PartId>(max_used, q + 1));
      load[q] -= g.node_weight(v);
    }
    current.assign(v, kInvalidPart);
  };
  recurse(recurse, 0, 0);

  if (!best) return std::nullopt;
  ExactResult res;
  res.cost = static_cast<Weight>(std::llround(best_cost));
  res.cost_value = best_cost;
  res.partition = std::move(*best);
  res.leaves_evaluated = leaves;
  return res;
}

}  // namespace hp
