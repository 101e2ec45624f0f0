#include "hyperpart/algo/branch_and_bound.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "hyperpart/util/overflow.hpp"

namespace hp {

namespace {

/// Incremental partial-cost tracker over a prefix of assigned nodes. The
/// partial cost (over assigned pins only) is monotone under further
/// assignments, hence a valid lower bound.
class PartialCost {
 public:
  PartialCost(const Hypergraph& g, PartId k, CostMetric metric)
      : g_(g), k_(k), metric_(metric),
        counts_(static_cast<std::size_t>(g.num_edges()) * k, 0),
        lambda_(g.num_edges(), 0) {}

  [[nodiscard]] Weight cost() const noexcept { return cost_; }

  void assign(NodeId v, PartId q) {
    for (const EdgeId e : g_.incident_edges(v)) {
      auto& c = counts_[static_cast<std::size_t>(e) * k_ + q];
      if (c == 0) {
        const PartId l = ++lambda_[e];
        if (l == 2) {
          cost_ += g_.edge_weight(e);
        } else if (l > 2 && metric_ == CostMetric::kConnectivity) {
          cost_ += g_.edge_weight(e);
        }
      }
      ++c;
    }
  }

  void unassign(NodeId v, PartId q) {
    for (const EdgeId e : g_.incident_edges(v)) {
      auto& c = counts_[static_cast<std::size_t>(e) * k_ + q];
      --c;
      if (c == 0) {
        const PartId l = lambda_[e]--;
        if (l == 2) {
          cost_ -= g_.edge_weight(e);
        } else if (l > 2 && metric_ == CostMetric::kConnectivity) {
          cost_ -= g_.edge_weight(e);
        }
      }
    }
  }

 private:
  const Hypergraph& g_;
  PartId k_;
  CostMetric metric_;
  std::vector<std::uint32_t> counts_;
  std::vector<PartId> lambda_;
  Weight cost_ = 0;
};

/// BFS order from the highest-degree node: consecutive nodes share edges,
/// so partial costs become informative early.
[[nodiscard]] std::vector<NodeId> search_order(const Hypergraph& g) {
  const NodeId n = g.num_nodes();
  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<bool> seen(n, false);
  std::vector<NodeId> queue;
  for (NodeId round = 0; order.size() < n; ++round) {
    NodeId start = kInvalidNode;
    for (NodeId v = 0; v < n; ++v) {
      if (!seen[v] &&
          (start == kInvalidNode || g.degree(v) > g.degree(start))) {
        start = v;
      }
    }
    queue.assign(1, start);
    seen[start] = true;
    while (!queue.empty()) {
      const NodeId v = queue.front();
      queue.erase(queue.begin());
      order.push_back(v);
      for (const EdgeId e : g.incident_edges(v)) {
        for (const NodeId u : g.pins(e)) {
          if (!seen[u]) {
            seen[u] = true;
            queue.push_back(u);
          }
        }
      }
    }
  }
  return order;
}

}  // namespace

std::optional<BnbResult> branch_and_bound_partition(
    const Hypergraph& g, const BalanceConstraint& balance,
    const BnbOptions& opts) {
  const PartId k = balance.k();
  const NodeId n = g.num_nodes();
  const auto order = search_order(g);

  PartialCost partial(g, k, opts.metric);
  std::vector<Weight> load(k, 0);
  Partition current(n, k);

  Weight best_cost = opts.initial_upper_bound
                         ? *opts.initial_upper_bound + 1
                         : std::numeric_limits<Weight>::max();
  std::optional<Partition> best;
  std::uint64_t explored = 0;
  bool budget_hit = false;

  const auto recurse = [&](auto&& self, std::size_t idx,
                           PartId max_used) -> void {
    if (++explored > opts.max_nodes) {
      budget_hit = true;
      return;
    }
    if (partial.cost() >= best_cost) return;  // bound
    if (idx == n) {
      best_cost = partial.cost();
      best = current;
      return;
    }
    const NodeId v = order[idx];
    const PartId limit = std::min<PartId>(k, max_used + 1);
    for (PartId q = 0; q < limit && !budget_hit; ++q) {
      if (sat_add(load[q], g.node_weight(v)) > balance.capacity()) continue;
      load[q] += g.node_weight(v);
      partial.assign(v, q);
      current.assign(v, q);
      self(self, idx + 1, std::max<PartId>(max_used, q + 1));
      current.assign(v, kInvalidPart);
      partial.unassign(v, q);
      load[q] -= g.node_weight(v);
    }
  };
  recurse(recurse, 0, 0);

  if (!best) return std::nullopt;
  BnbResult res;
  res.proven_optimal = !budget_hit;
  res.cost = best_cost;
  res.partition = std::move(*best);
  res.nodes_explored = explored;
  return res;
}

}  // namespace hp
