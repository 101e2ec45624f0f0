#include "hyperpart/hier/xp_hier.hpp"

#include <stdexcept>
#include <vector>

#include "hyperpart/hier/hier_cost.hpp"
#include "hyperpart/util/overflow.hpp"

namespace hp {

XpResult xp_hier_partition(const Hypergraph& g, const HierTopology& topo,
                           const BalanceConstraint& balance, double budget,
                           const XpOptions& base_opts) {
  if (topo.num_leaves() != balance.k() || topo.num_leaves() > 32) {
    throw std::invalid_argument("xp_hier_partition: k mismatch or k > 32");
  }
  XpOptions opts = base_opts;
  // Configuration cost of edge e with allowed leaf-set mask: the
  // hierarchical cost of that leaf set (pessimistic, and exact for the
  // optimal solution's own configuration — the Lemma 4.3 argument).
  opts.config_edge_cost = [&g, &topo](EdgeId e, std::uint32_t mask) {
    return static_cast<double>(g.edge_weight(e)) * hier_mask_cost(topo, mask);
  };
  opts.solution_cost = [&g, &topo](const Partition& p) {
    return hier_cost(g, p, topo);
  };
  return xp_partition(g, balance, budget, opts);
}

double general_topology_refine(const Hypergraph& g, Partition& p,
                               const GeneralTopology& topo,
                               const BalanceConstraint& balance,
                               int max_rounds) {
  const PartId k = topo.num_units();
  std::vector<Weight> load = p.part_weights(g);

  const auto incident_cost = [&](NodeId v) {
    double c = 0.0;
    std::vector<PartId> parts;
    for (const EdgeId e : g.incident_edges(v)) {
      parts.clear();
      for (const NodeId u : g.pins(e)) {
        if (p[u] < k) parts.push_back(p[u]);
      }
      c += static_cast<double>(g.edge_weight(e)) * topo.mst_cost(parts);
    }
    return c;
  };

  double current = general_topology_cost(g, p, topo);
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

}  // namespace hp
