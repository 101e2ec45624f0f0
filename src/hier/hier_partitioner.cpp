#include "hyperpart/hier/hier_partitioner.hpp"

#include <vector>

#include "hyperpart/algo/recursive_bisection.hpp"
#include "hyperpart/hier/assignment.hpp"
#include "hyperpart/hier/hier_cost.hpp"
#include "hyperpart/hier/two_step.hpp"
#include "hyperpart/util/overflow.hpp"

namespace hp {

std::optional<Partition> hier_recursive_partition(const Hypergraph& g,
                                                  const HierTopology& topo,
                                                  double epsilon,
                                                  const MultilevelConfig& cfg) {
  std::vector<PartId> arities;
  for (std::uint32_t level = 1; level <= topo.depth(); ++level) {
    arities.push_back(topo.branching(level));
  }
  return recursive_partition(g, arities, epsilon, cfg);
}

double hier_refine(const Hypergraph& g, Partition& p, const HierTopology& topo,
                   const BalanceConstraint& balance, int max_rounds) {
  const PartId k = topo.num_leaves();
  std::vector<Weight> load = p.part_weights(g);

  // Cost delta of moving v: only v's incident edges change; evaluate them
  // before and after.
  const auto incident_cost = [&](NodeId v) {
    double c = 0.0;
    std::vector<PartId> parts;
    for (const EdgeId e : g.incident_edges(v)) {
      parts.clear();
      for (const NodeId u : g.pins(e)) parts.push_back(p[u]);
      c += static_cast<double>(g.edge_weight(e)) * hier_set_cost(topo, parts);
    }
    return c;
  };

  double current = hier_cost(g, p, topo);
  for (int round = 0; round < max_rounds; ++round) {
    bool improved = false;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const PartId from = p[v];
      const double before = incident_cost(v);
      double best_delta = -1e-9;
      PartId best_to = kInvalidPart;
      for (PartId q = 0; q < k; ++q) {
        if (q == from) continue;
        if (sat_add(load[q], g.node_weight(v)) > balance.capacity()) continue;
        p.assign(v, q);
        const double delta = incident_cost(v) - before;
        if (delta < best_delta) {
          best_delta = delta;
          best_to = q;
        }
      }
      if (best_to != kInvalidPart) {
        p.assign(v, best_to);
        load[from] -= g.node_weight(v);
        load[best_to] += g.node_weight(v);
        current += best_delta;
        improved = true;
      } else {
        p.assign(v, from);
      }
    }
    if (!improved) break;
  }
  return current;
}

std::optional<Partition> hier_direct_partition(const Hypergraph& g,
                                               const HierTopology& topo,
                                               double epsilon,
                                               const MultilevelConfig& cfg) {
  const auto two_step = two_step_multilevel(g, topo, epsilon, cfg);
  if (!two_step) return std::nullopt;
  Partition p = two_step->partition;
  const auto balance = BalanceConstraint::for_graph(
      g, topo.num_leaves(), epsilon, /*relaxed=*/true);
  hier_refine(g, p, topo, balance);
  return p;
}

}  // namespace hp
