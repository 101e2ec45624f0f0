#include "hyperpart/algo/greedy.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <vector>

#include "hyperpart/util/rng.hpp"

namespace hp {

std::optional<Partition> random_balanced_partition(
    const Hypergraph& g, const BalanceConstraint& balance,
    std::uint64_t seed) {
  const PartId k = balance.k();
  Rng rng{seed};
  std::vector<NodeId> order(g.num_nodes());
  std::iota(order.begin(), order.end(), NodeId{0});
  rng.shuffle(order);

  Partition p(g.num_nodes(), k);
  std::vector<Weight> load(k, 0);
  for (const NodeId v : order) {
    PartId best = kInvalidPart;
    for (PartId q = 0; q < k; ++q) {
      if (load[q] + g.node_weight(v) > balance.capacity()) continue;
      if (best == kInvalidPart || load[q] < load[best]) best = q;
    }
    if (best == kInvalidPart) return std::nullopt;
    p.assign(v, best);
    load[best] += g.node_weight(v);
  }
  return p;
}

namespace {

/// Candidate set of one growing part, with each node's affinity to the part:
/// a tournament tree over node ids whose inner nodes hold the best candidate
/// below them (highest affinity, then lowest id) and the number of
/// candidates below them. Counts are kept exact by reset() and remove();
/// best candidates are repaired in batches by refresh() or rebuild(). Leaves
/// sit at [size, 2·size), one per node id; an empty leaf holds the id n,
/// whose affinity is a −1 sentinel, so it loses every comparison against a
/// candidate (affinities are never negative).
class Frontier {
 public:
  explicit Frontier(NodeId n)
      : n_(n),
        size_(std::bit_ceil(std::max<NodeId>(n, 1))),
        affinity_(std::size_t{n} + 1, 0),
        best_(2 * std::size_t{size_}, n),
        count_(2 * std::size_t{size_}, 0),
        marked_(size_, 0) {
    affinity_[n] = -1;
  }

  [[nodiscard]] Weight& affinity(NodeId v) { return affinity_[v]; }
  [[nodiscard]] bool contains(NodeId v) const { return best_[size_ + v] == v; }
  [[nodiscard]] bool empty() const { return count_[1] == 0; }
  [[nodiscard]] NodeId top() const { return best_[1]; }
  [[nodiscard]] NodeId count() const { return count_[1]; }

  /// Starts a part: candidates are the nodes `fits` accepts, affinities 0.
  template <class Fits>
  void reset(Fits fits) {
    std::fill(affinity_.begin(), affinity_.end() - 1, Weight{0});
    for (NodeId v = 0; v < n_; ++v) {
      const bool present = fits(v);
      best_[size_ + v] = present ? v : n_;
      count_[size_ + v] = present ? 1 : 0;
    }
    for (std::size_t i = size_ - 1; i >= 1; --i) {
      count_[i] = count_[2 * i] + count_[2 * i + 1];
    }
    rebuild();
  }

  /// Drops candidate v and updates the counts above it; refresh() or
  /// rebuild() repairs the best candidates above it.
  void remove(NodeId v) {
    best_[size_ + v] = n_;
    for (std::size_t i = size_ + v; i >= 1; i /= 2) --count_[i];
    touch(v);
  }

  /// Candidate v's affinity changed; refresh() repairs its ancestors.
  void touch(NodeId v) { dirty_.push_back(size_ + v); }

  /// Recomputes every inner node, O(n); drops pending touches. Nodes whose
  /// leaves all lie past n stay empty and are skipped.
  void rebuild() {
    for (std::size_t level = size_ / 2, span = 2; level >= 1;
         level /= 2, span *= 2) {
      const std::size_t end = level + (n_ + span - 1) / span;
      for (std::size_t i = level; i < end; ++i) pull(i);
    }
    dirty_.clear();
  }

  /// Recomputes the ancestors of the touched leaves level by level, each
  /// once: O(min(t·log n, n)) for t touches.
  void refresh() {
    while (!dirty_.empty()) {
      parents_.clear();
      for (const std::size_t i : dirty_) {
        const std::size_t parent = i >> 1;
        if (parent == 0 || marked_[parent]) continue;
        marked_[parent] = 1;
        parents_.push_back(parent);
      }
      for (const std::size_t i : parents_) {
        pull(i);
        marked_[i] = 0;
      }
      dirty_.swap(parents_);
    }
  }

  /// The r-th candidate in id order (r < count()).
  [[nodiscard]] NodeId kth(std::uint64_t r) const {
    std::size_t i = 1;
    while (i < size_) {
      i *= 2;
      if (count_[i] <= r) {
        r -= count_[i];
        ++i;
      }
    }
    return static_cast<NodeId>(i - size_);
  }

 private:
  void pull(std::size_t i) {
    const NodeId a = best_[2 * i];
    const NodeId b = best_[2 * i + 1];
    // Every id under the left child is below every id under the right one,
    // so the left wins ties.
    best_[i] = affinity_[b] > affinity_[a] ? b : a;
  }

  NodeId n_;
  NodeId size_;
  std::vector<Weight> affinity_;
  std::vector<NodeId> best_;
  std::vector<NodeId> count_;
  std::vector<std::uint8_t> marked_;  // inner nodes queued in parents_
  std::vector<std::size_t> dirty_;
  std::vector<std::size_t> parents_;
};

}  // namespace

std::optional<Partition> greedy_growing_partition(
    const Hypergraph& g, const BalanceConstraint& balance, CostMetric metric,
    std::uint64_t seed) {
  (void)metric;  // gain below is the cut-oriented growing score for both
  const PartId k = balance.k();
  const NodeId n = g.num_nodes();
  const Weight capacity = balance.capacity();
  Rng rng{seed};

  Partition p(n, k);
  std::vector<bool> taken(n, false);
  NodeId assigned = 0;
  Weight remaining_weight = g.total_node_weight();

  // Affinity of an unassigned node to the growing part: number of pins it
  // shares with already-absorbed nodes, weighted by edge weight.
  Frontier frontier(n);
  // Heaviest first: as the part grows, the nodes that stop fitting form a
  // prefix of this order, so one cursor per part retires them.
  std::vector<NodeId> by_weight(n);
  std::iota(by_weight.begin(), by_weight.end(), NodeId{0});
  std::stable_sort(by_weight.begin(), by_weight.end(),
                   [&g](NodeId a, NodeId b) {
                     return g.node_weight(a) > g.node_weight(b);
                   });

  for (PartId q = 0; q + 1 < k; ++q) {
    // Target: an even share of the remaining weight across remaining parts.
    const Weight target =
        std::min(capacity, remaining_weight / static_cast<Weight>(k - q));

    frontier.reset([&](NodeId v) {
      return !taken[v] && g.node_weight(v) <= capacity;
    });
    std::size_t heavy = 0;  // by_weight[0, heavy) no longer fit
    Weight grown = 0;
    while (grown < target && assigned < n && !frontier.empty()) {
      // Prefer the highest-affinity frontier node (lowest id on ties); with
      // no frontier, a uniformly random candidate seeds a fresh region.
      NodeId pick = frontier.top();
      if (frontier.affinity(pick) == 0) {
        pick = frontier.kth(rng.next_below(frontier.count()));
      }
      taken[pick] = true;
      p.assign(pick, q);
      grown += g.node_weight(pick);
      remaining_weight -= g.node_weight(pick);
      ++assigned;
      frontier.remove(pick);

      std::uint64_t touched = 0;
      for (const EdgeId e : g.incident_edges(pick)) touched += g.pins(e).size();
      // Nets reaching n pins: bumping in place and rebuilding in O(n) beats
      // tracking that many touches.
      const bool bulk = touched >= n;
      for (const EdgeId e : g.incident_edges(pick)) {
        const Weight w = g.edge_weight(e);
        if (bulk) {
          for (const NodeId u : g.pins(e)) {
            if (!taken[u]) frontier.affinity(u) += w;
          }
          continue;
        }
        for (const NodeId u : g.pins(e)) {
          if (taken[u]) continue;
          frontier.affinity(u) += w;
          if (frontier.contains(u)) frontier.touch(u);
        }
      }
      for (; heavy < n && g.node_weight(by_weight[heavy]) > capacity - grown;
           ++heavy) {
        if (frontier.contains(by_weight[heavy])) {
          frontier.remove(by_weight[heavy]);
        }
      }
      if (bulk) {
        frontier.rebuild();
      } else {
        frontier.refresh();
      }
    }
  }

  // Everything left goes to the last part, capacity permitting; overflow to
  // the lightest feasible part.
  std::vector<Weight> load(k, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (taken[v]) load[p[v]] += g.node_weight(v);
  }
  for (NodeId v = 0; v < n; ++v) {
    if (taken[v]) continue;
    PartId best = kInvalidPart;
    if (load[k - 1] + g.node_weight(v) <= balance.capacity()) {
      best = k - 1;
    } else {
      for (PartId q = 0; q < k; ++q) {
        if (load[q] + g.node_weight(v) > balance.capacity()) continue;
        if (best == kInvalidPart || load[q] < load[best]) best = q;
      }
    }
    if (best == kInvalidPart) return std::nullopt;
    p.assign(v, best);
    load[best] += g.node_weight(v);
  }
  return p;
}

}  // namespace hp
