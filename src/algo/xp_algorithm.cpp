#include "hyperpart/algo/xp_algorithm.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "hyperpart/util/overflow.hpp"

namespace hp {

namespace {

/// Plain union-find over node ids.
class UnionFind {
 public:
  explicit UnionFind(NodeId n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), NodeId{0});
  }
  NodeId find(NodeId v) {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];
      v = parent_[v];
    }
    return v;
  }
  void unite(NodeId a, NodeId b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[a] = b;
  }

 private:
  std::vector<NodeId> parent_;
};

struct Component {
  Weight weight = 0;                    // total node weight
  std::uint32_t allowed = 0;            // bitmask of allowed colors
  std::vector<Weight> group_weight;     // weight per constraint group
  std::vector<NodeId> nodes;
};

/// Memoized feasibility: place components into k capacitated colors.
class Placer {
 public:
  Placer(std::vector<Component> comps, PartId k, Weight capacity,
         const ConstraintSet* groups)
      : comps_(std::move(comps)), k_(k), capacity_(capacity), groups_(groups) {
    // Heaviest components first: fail fast.
    std::sort(comps_.begin(), comps_.end(),
              [](const Component& a, const Component& b) {
                return a.weight > b.weight;
              });
    load_.assign(k_, 0);
    if (groups_ != nullptr) {
      group_load_.assign(groups_->num_constraints() * k_, 0);
    }
    colors_.assign(comps_.size(), 0);
  }

  [[nodiscard]] bool solve() { return place(0); }

  /// After a successful solve(): write component colors into a partition.
  void fill(Partition& p) const {
    for (std::size_t i = 0; i < comps_.size(); ++i) {
      for (const NodeId v : comps_[i].nodes) p.assign(v, colors_[i]);
    }
  }

 private:
  [[nodiscard]] std::string key(std::size_t idx) const {
    std::string s;
    s.reserve(8 + load_.size() * 8 + group_load_.size() * 8);
    const auto append = [&s](Weight w) {
      s.append(reinterpret_cast<const char*>(&w), sizeof(w));
    };
    append(static_cast<Weight>(idx));
    for (const Weight w : load_) append(w);
    for (const Weight w : group_load_) append(w);
    return s;
  }

  bool place(std::size_t idx) {
    if (idx == comps_.size()) return true;
    const std::string k = key(idx);
    if (failed_.count(k) != 0) return false;
    const Component& c = comps_[idx];
    for (PartId q = 0; q < k_; ++q) {
      if (!((c.allowed >> q) & 1)) continue;
      if (sat_add(load_[q], c.weight) > capacity_) continue;
      bool group_ok = true;
      if (groups_ != nullptr) {
        for (std::size_t j = 0; j < groups_->num_constraints(); ++j) {
          if (group_load_[j * k_ + q] + c.group_weight[j] >
              groups_->group(j).capacity) {
            group_ok = false;
            break;
          }
        }
      }
      if (!group_ok) continue;
      load_[q] += c.weight;
      if (groups_ != nullptr) {
        for (std::size_t j = 0; j < groups_->num_constraints(); ++j) {
          group_load_[j * k_ + q] += c.group_weight[j];
        }
      }
      colors_[idx] = q;
      if (place(idx + 1)) return true;
      load_[q] -= c.weight;
      if (groups_ != nullptr) {
        for (std::size_t j = 0; j < groups_->num_constraints(); ++j) {
          group_load_[j * k_ + q] -= c.group_weight[j];
        }
      }
    }
    failed_.insert(k);
    return false;
  }

  std::vector<Component> comps_;
  PartId k_;
  Weight capacity_;
  const ConstraintSet* groups_;
  std::vector<Weight> load_;
  std::vector<Weight> group_load_;
  std::vector<PartId> colors_;
  std::unordered_set<std::string> failed_;
};

}  // namespace

XpResult xp_partition(const Hypergraph& g, const BalanceConstraint& balance,
                      double budget, const XpOptions& opts) {
  const PartId k = balance.k();
  const EdgeId m = g.num_edges();
  for (EdgeId e = 0; e < m; ++e) {
    if (g.edge_weight(e) < 1) {
      throw std::invalid_argument("xp_partition: edge weights must be >= 1");
    }
  }

  const auto default_edge_cost = [&](EdgeId e, std::uint32_t mask) -> double {
    const auto w = static_cast<double>(g.edge_weight(e));
    return opts.metric == CostMetric::kCutNet
               ? w
               : w * static_cast<double>(std::popcount(mask) - 1);
  };
  const auto edge_cost = opts.config_edge_cost
                             ? opts.config_edge_cost
                             : std::function<double(EdgeId, std::uint32_t)>(
                                   default_edge_cost);
  const auto default_solution_cost = [&](const Partition& p) -> double {
    return static_cast<double>(cost(g, p, opts.metric));
  };
  const auto sol_cost =
      opts.solution_cost
          ? opts.solution_cost
          : std::function<double(const Partition&)>(default_solution_cost);

  // Every cut edge costs at least 1 under all supported cost functions, so
  // at most floor(budget) edges can be cut.
  const EdgeId max_cut =
      static_cast<EdgeId>(std::min<double>(m, std::floor(budget + 1e-9)));

  // Color-set masks with at least two colors.
  std::vector<std::uint32_t> masks;
  for (std::uint32_t mask = 1; mask < (1u << k); ++mask) {
    if (std::popcount(mask) >= 2) masks.push_back(mask);
  }

  // Constraint groups may overlap (the fixed-color-pool constructions put
  // fixed nodes into both their Lemma D.2 group and the pairing group), so
  // component group-weights are accumulated per group below.
  const ConstraintSet* groups = opts.extra_constraints;

  XpResult result;
  result.status = XpStatus::kNoSolution;
  double best = std::numeric_limits<double>::infinity();
  std::uint64_t checked = 0;
  bool budget_hit = false;

  std::vector<EdgeId> chosen;
  std::vector<std::uint32_t> chosen_mask;

  // Evaluate one configuration: components of G − E₀, allowed colors,
  // capacitated placement; on success, compare the realized cost.
  const auto evaluate = [&](double config_cost) {
    ++checked;
    UnionFind uf(g.num_nodes());
    std::vector<bool> removed(m, false);
    for (const EdgeId e : chosen) removed[e] = true;
    for (EdgeId e = 0; e < m; ++e) {
      if (removed[e]) continue;
      const auto pins = g.pins(e);
      for (std::size_t i = 1; i < pins.size(); ++i) uf.unite(pins[0], pins[i]);
    }
    std::vector<NodeId> root_to_comp(g.num_nodes(), kInvalidNode);
    std::vector<Component> comps;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const NodeId r = uf.find(v);
      if (root_to_comp[r] == kInvalidNode) {
        root_to_comp[r] = static_cast<NodeId>(comps.size());
        comps.push_back(Component{});
        comps.back().allowed = (1u << k) - 1;
        if (groups != nullptr) {
          comps.back().group_weight.assign(groups->num_constraints(), 0);
        }
      }
      Component& c = comps[root_to_comp[r]];
      c.weight += g.node_weight(v);
      c.nodes.push_back(v);
    }
    if (groups != nullptr) {
      for (std::size_t j = 0; j < groups->num_constraints(); ++j) {
        for (const NodeId v : groups->group(j).nodes) {
          comps[root_to_comp[uf.find(v)]].group_weight[j] +=
              g.node_weight(v);
        }
      }
    }
    for (std::size_t i = 0; i < chosen.size(); ++i) {
      for (const NodeId v : g.pins(chosen[i])) {
        Component& c = comps[root_to_comp[uf.find(v)]];
        c.allowed &= chosen_mask[i];
      }
    }
    for (const Component& c : comps) {
      if (c.allowed == 0) return;  // infeasible configuration
    }

    Placer placer(std::move(comps), k, balance.capacity(), groups);
    if (!placer.solve()) return;
    Partition p(g.num_nodes(), k);
    placer.fill(p);
    const double realized = sol_cost(p);
    // realized ≤ config_cost always holds; keep the smaller realized cost.
    (void)config_cost;
    if (realized < best) {
      best = realized;
      result.partition = std::move(p);
    }
  };

  // DFS over subsets E₀ (with per-edge masks), pruned by the budget and by
  // the best configuration found so far.
  const auto dfs = [&](auto&& self, EdgeId next, double cost_so_far) -> void {
    if (checked >= opts.max_configurations) {
      budget_hit = true;
      return;
    }
    evaluate(cost_so_far);
    if (best == 0.0) return;  // optimum can not improve
    if (chosen.size() >= max_cut) return;
    for (EdgeId e = next; e < m; ++e) {
      for (const std::uint32_t mask : masks) {
        const double c = cost_so_far + edge_cost(e, mask);
        if (c > budget + 1e-9 || c >= best - 1e-9) continue;
        chosen.push_back(e);
        chosen_mask.push_back(mask);
        self(self, e + 1, c);
        chosen.pop_back();
        chosen_mask.pop_back();
        if (budget_hit || best == 0.0) return;
      }
      if (budget_hit || best == 0.0) return;
    }
  };
  dfs(dfs, 0, 0.0);

  result.configurations_checked = checked;
  if (best <= budget + 1e-9) result.cost = best;
  if (budget_hit && best != 0.0) {
    // Enumeration was cut short: the best found (if any) is not certified
    // optimal, and "no solution" is not proven.
    result.status = XpStatus::kBudgetExceeded;
  } else if (best <= budget + 1e-9) {
    result.status = XpStatus::kSolved;
  } else {
    result.status = XpStatus::kNoSolution;
  }
  return result;
}

}  // namespace hp
