#include "hyperpart/core/connectivity_tracker.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "hyperpart/util/overflow.hpp"
#include "hyperpart/util/prefetch.hpp"
#include "hyperpart/util/thread_pool.hpp"

namespace hp {

namespace {
constexpr std::uint32_t kNotInBoundary =
    std::numeric_limits<std::uint32_t>::max();
// Largest per-net pin count the narrow uint16 table can hold exactly.
constexpr std::uint32_t kNarrowMax = 0xFFFF;
// Lookahead distance (in loop iterations) for the software prefetches in
// the CSR pin walks: far enough to cover an L2 miss at these loop bodies,
// near enough that the line is still resident when used.
constexpr std::size_t kPrefetchAhead = 4;

// Collect the parts present in one count row into `out` (ascending part id)
// without reading all k counts: load several counts per word, skip all-zero
// words, and stop as soon as all λ present parts are found. This is the
// k > 64 replacement for the present-parts bitset — λ is typically a handful
// while k can be hundreds, so most words are zero.
template <typename C>
void collect_present_parts(const C* row, PartId k, PartId lambda,
                           std::vector<PartId>& out) {
  constexpr PartId kPerWord = static_cast<PartId>(sizeof(std::uint64_t) /
                                                  sizeof(C));
  const PartId nwords = k / kPerWord;
  PartId q = 0;
  for (PartId wi = 0; wi < nwords; ++wi, q += kPerWord) {
    std::uint64_t word;
    std::memcpy(&word, row + q, sizeof(word));
    if (word == 0) continue;
    for (PartId j = 0; j < kPerWord; ++j) {
      if (row[q + j] != 0) out.push_back(q + j);
    }
    if (static_cast<PartId>(out.size()) == lambda) return;
  }
  for (; q < k && static_cast<PartId>(out.size()) < lambda; ++q) {
    if (row[q] != 0) out.push_back(q);
  }
}
}  // namespace

template <typename C>
void ConnectivityTracker::build_counts(unsigned threads) {
  // Each edge's counts/λ slice is independent, so the edge loop shards
  // cleanly; the totals are integer sums and therefore identical for every
  // chunking.
  std::atomic<Weight> cut{0};
  std::atomic<Weight> conn{0};
  C* counts = counts_data<C>();
  parallel_for_grain(
      g_.num_edges(), kStableGrain, threads,
      [&](std::size_t, std::uint64_t begin, std::uint64_t end) {
        Weight local_cut = 0;
        Weight local_conn = 0;
        for (EdgeId e = static_cast<EdgeId>(begin);
             e < static_cast<EdgeId>(end); ++e) {
          const std::size_t base = static_cast<std::size_t>(e) * k_;
          PartId l = 0;
          std::uint64_t mask = 0;
          const auto pins = g_.pins(e);
          for (std::size_t i = 0; i < pins.size(); ++i) {
            // The edge walk itself is sequential (hardware-prefetched); the
            // per-pin part lookup is the one scattered access worth hinting.
            if (i + kPrefetchAhead < pins.size()) {
              prefetch(part_.data() + pins[i + kPrefetchAhead]);
            }
            const PartId q = part_[pins[i]];
            C& c = counts[base + q];
            if (c == 0) {
              ++l;
              mask |= std::uint64_t{1} << (q & 63);
            }
            ++c;
          }
          if (!present_.empty()) present_[e] = mask;
          lambda_[e] = l;
          if (l > 1) {
            local_cut += g_.edge_weight(e);
            local_conn += g_.edge_weight(e) * static_cast<Weight>(l - 1);
          }
        }
        cut.fetch_add(local_cut, std::memory_order_relaxed);
        conn.fetch_add(local_conn, std::memory_order_relaxed);
      });
  cut_net_ = cut.load();
  connectivity_ = conn.load();
}

ConnectivityTracker::ConnectivityTracker(const Hypergraph& g,
                                         const Partition& p, unsigned threads)
    : g_(g), k_(p.k()) {
  if (!p.complete()) {
    throw std::invalid_argument("ConnectivityTracker: incomplete partition");
  }
  part_.assign(p.raw().begin(), p.raw().end());
  narrow_ = g.max_edge_size() <= kNarrowMax;
  const std::size_t slots = static_cast<std::size_t>(g.num_edges()) * k_;
  if (narrow_) {
    counts16_.assign(slots, 0);
  } else {
    counts32_.assign(slots, 0);
  }
  if (k_ <= 64) present_.assign(g.num_edges(), 0);
  lambda_.assign(g.num_edges(), 0);
  part_weight_.assign(k_, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    part_weight_[part_[v]] += g.node_weight(v);
  }
  if (narrow_) {
    build_counts<std::uint16_t>(threads);
  } else {
    build_counts<std::uint32_t>(threads);
  }
}

void ConnectivityTracker::widen_counts() {
  counts32_.assign(counts16_.begin(), counts16_.end());
  counts16_.clear();
  counts16_.shrink_to_fit();
  narrow_ = false;
}

template <typename C>
Weight ConnectivityTracker::gain_impl(NodeId v, PartId to,
                                      CostMetric m) const {
  const PartId from = part_[v];
  if (from == to) return 0;
  Weight gain = 0;
  const C* counts = counts_data<C>();
  const auto edges = g_.incident_edges(v);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (i + kPrefetchAhead < edges.size()) {
      prefetch(counts +
               static_cast<std::size_t>(edges[i + kPrefetchAhead]) * k_);
    }
    const EdgeId e = edges[i];
    const std::size_t base = static_cast<std::size_t>(e) * k_;
    const std::uint32_t in_from = counts[base + from];
    const std::uint32_t in_to = counts[base + to];
    const Weight w = g_.edge_weight(e);
    if (m == CostMetric::kConnectivity) {
      // Branchless delta rule: +w when the from-part disappears from e,
      // −w when the to-part newly appears.
      gain += w * (static_cast<Weight>(in_from == 1) -
                   static_cast<Weight>(in_to == 0));
    } else {
      const PartId l = lambda_[e];
      const PartId l_after = l - static_cast<PartId>(in_from == 1) +
                             static_cast<PartId>(in_to == 0);
      gain +=
          w * (static_cast<Weight>(l > 1) - static_cast<Weight>(l_after > 1));
    }
  }
  return gain;
}

Weight ConnectivityTracker::gain(NodeId v, PartId to, CostMetric m) const {
  return narrow_ ? gain_impl<std::uint16_t>(v, to, m)
                 : gain_impl<std::uint32_t>(v, to, m);
}

template <typename C>
void ConnectivityTracker::move_plain(NodeId v, PartId to) {
  const PartId from = part_[v];
  C* counts = counts_data<C>();
  for (const EdgeId e : g_.incident_edges(v)) {
    const Weight w = g_.edge_weight(e);
    const std::size_t base = static_cast<std::size_t>(e) * k_;
    const PartId l_before = lambda_[e];
    C& cf = counts[base + from];
    C& ct = counts[base + to];
    assert(cf > 0);
    // Branchless λ update from the pre-move counts; the cost deltas below
    // are exact zeros when λ did not change.
    const PartId l_after = l_before - static_cast<PartId>(cf == 1) +
                           static_cast<PartId>(ct == 0);
    if (!present_.empty()) {
      const std::uint64_t fbit = std::uint64_t{1} << from;
      const std::uint64_t tbit = std::uint64_t{1} << to;
      present_[e] = (present_[e] & ~(fbit * (cf == 1))) | (tbit * (ct == 0));
    }
    --cf;
    ++ct;
    lambda_[e] = l_after;
    connectivity_ +=
        w * (static_cast<Weight>(l_after) - static_cast<Weight>(l_before));
    cut_net_ += w * (static_cast<Weight>(l_after > 1) -
                     static_cast<Weight>(l_before > 1));
  }
  part_weight_[from] -= g_.node_weight(v);
  part_weight_[to] += g_.node_weight(v);
  part_[v] = to;
}

void ConnectivityTracker::move(NodeId v, PartId to) {
  const PartId from = part_[v];
  if (from == to) return;
  if (cache_enabled_) {
    if (narrow_) {
      move_with_cache<std::uint16_t>(v, to);
    } else {
      move_with_cache<std::uint32_t>(v, to);
    }
    return;
  }
  if (narrow_) {
    move_plain<std::uint16_t>(v, to);
  } else {
    move_plain<std::uint32_t>(v, to);
  }
}

Partition ConnectivityTracker::to_partition() const {
  return Partition{std::vector<PartId>(part_.begin(), part_.end()), k_};
}

void ConnectivityTracker::begin_structural_patch(
    std::span<const EdgeId> touched) {
  if (patch_edges_before_ != kInvalidEdge) {
    throw std::logic_error("begin_structural_patch: patch already active");
  }
  patch_edges_before_ = g_.num_edges();
  for (const EdgeId e : touched) {
    if (e >= patch_edges_before_) {
      patch_edges_before_ = kInvalidEdge;
      throw std::invalid_argument("begin_structural_patch: edge out of range");
    }
  }
  for (const EdgeId e : touched) {
    const PartId l = lambda_[e];
    if (l > 1) {
      const Weight w = g_.edge_weight(e);
      cut_net_ -= w;
      connectivity_ -= w * static_cast<Weight>(l - 1);
    }
  }
  // Gain cache and boundary set are repaired by refilling, not patching.
  cache_enabled_ = false;
  benefit_.clear();
  aux_.clear();
  best_to_.clear();
  boundary_.clear();
  touched_.clear();
}

template <typename C>
void ConnectivityTracker::recount_net(EdgeId e) {
  C* counts = counts_data<C>();
  const std::size_t base = static_cast<std::size_t>(e) * k_;
  std::fill(counts + base, counts + base + k_, C{0});
  PartId l = 0;
  std::uint64_t mask = 0;
  for (const NodeId v : g_.pins(e)) {
    C& c = counts[base + part_[v]];
    if (c == 0) {
      ++l;
      mask |= std::uint64_t{1} << (part_[v] & 63);
    }
    ++c;
  }
  if (!present_.empty()) present_[e] = mask;
  lambda_[e] = l;
  if (l > 1) {
    const Weight w = g_.edge_weight(e);
    cut_net_ += w;
    connectivity_ += w * static_cast<Weight>(l - 1);
  }
}

void ConnectivityTracker::finish_structural_patch(
    std::span<const EdgeId> touched) {
  if (patch_edges_before_ == kInvalidEdge) {
    throw std::logic_error("finish_structural_patch: no active patch");
  }
  const EdgeId m_before = patch_edges_before_;
  patch_edges_before_ = kInvalidEdge;
  const EdgeId m_after = g_.num_edges();
  if (m_after < m_before) {
    throw std::logic_error("finish_structural_patch: edge count shrank");
  }
  // A patch can grow a net past what the narrow table holds; widen before
  // recounting so the counts stay exact.
  if (narrow_) {
    bool still_narrow = true;
    for (const EdgeId e : touched) {
      if (g_.edge_size(e) > kNarrowMax) still_narrow = false;
    }
    for (EdgeId e = m_before; e < m_after && still_narrow; ++e) {
      if (g_.edge_size(e) > kNarrowMax) still_narrow = false;
    }
    if (!still_narrow) widen_counts();
  }
  const std::size_t slots = static_cast<std::size_t>(m_after) * k_;
  if (narrow_) {
    counts16_.resize(slots, 0);
  } else {
    counts32_.resize(slots, 0);
  }
  lambda_.resize(m_after, 0);
  if (k_ <= 64) present_.resize(m_after, 0);
  const auto recount = [&](EdgeId e) {
    if (narrow_) {
      recount_net<std::uint16_t>(e);
    } else {
      recount_net<std::uint32_t>(e);
    }
  };
  for (const EdgeId e : touched) recount(e);
  for (EdgeId e = m_before; e < m_after; ++e) recount(e);
}

// --- Gain cache ------------------------------------------------------------

void ConnectivityTracker::enable_gain_cache(CostMetric m, unsigned threads) {
  const NodeId n = g_.num_nodes();
  cache_metric_ = m;
  benefit_.assign(static_cast<std::size_t>(n) * k_, 0);
  NodeAux blank;
  blank.boundary_pos = kNotInBoundary;
  aux_.assign(n, blank);
  boundary_.clear();
  touched_.clear();
  epoch_ = 0;

  // Edge-centric fill: each edge lists its present parts once (O(k)
  // sequential scan of its count row) and then adds w to exactly the
  // λ benefit slots of each pin — O(pins·λ) scattered writes instead of
  // the O(pins·k) scattered count reads a node-centric fill would do.
  // Both paths compute the same exact integer sums, so the tables are
  // identical for every thread count. Plain adds suffice when one executor
  // runs every chunk.
  const bool atomic =
      threads > 1 && num_grain_chunks(g_.num_edges(), kStableGrain) > 1;
  if (narrow_) {
    if (atomic) {
      fill_cache_tables<true, std::uint16_t>(m, threads);
    } else {
      fill_cache_tables<false, std::uint16_t>(m, 1);
    }
  } else {
    if (atomic) {
      fill_cache_tables<true, std::uint32_t>(m, threads);
    } else {
      fill_cache_tables<false, std::uint32_t>(m, 1);
    }
  }

  // Best-target index over the finished benefit rows; a pure function of
  // the rows, so the parallel build is deterministic.
  best_to_.assign(n, 0);
  parallel_for_grain(n, kStableGrain, threads,
                     [&](std::size_t, std::uint64_t begin, std::uint64_t end) {
                       for (NodeId v = static_cast<NodeId>(begin);
                            v < static_cast<NodeId>(end); ++v) {
                         rescan_best(v);
                       }
                     });

  for (NodeId v = 0; v < n; ++v) {
    if (aux_[v].cut_incident > 0) boundary_insert(v);
  }
  cache_enabled_ = true;
}

void ConnectivityTracker::rescan_best(NodeId v) noexcept {
  // Lowest-id argmax over q ≠ part(v); ties carry equal gain, so any
  // deterministic choice yields the same cached_best_gain().
  const Weight* row = benefit_.data() + static_cast<std::size_t>(v) * k_;
  const PartId from = part_[v];
  PartId best = (from == 0 && k_ > 1) ? 1 : 0;
  for (PartId q = best + 1; q < k_; ++q) {
    if (q != from && row[q] > row[best]) best = q;
  }
  best_to_[v] = best;
}

void ConnectivityTracker::benefit_add(NodeId v, PartId q, Weight w) noexcept {
  const std::size_t row = static_cast<std::size_t>(v) * k_;
  benefit_[row + q] += w;
  // A grown slot can only steal the argmax (strict: keep the incumbent on
  // ties — the gain is equal either way).
  const PartId b = best_to_[v];
  if (q != b && q != part_[v] && benefit_[row + q] > benefit_[row + b]) {
    best_to_[v] = q;
  }
}

void ConnectivityTracker::benefit_sub(NodeId v, PartId q, Weight w) noexcept {
  benefit_[static_cast<std::size_t>(v) * k_ + q] -= w;
  // Only a shrink at the argmax invalidates it; the row is cache-hot right
  // now, so the O(k) rescan is cheap and rare (~1/λ of decreases).
  if (best_to_[v] == q) rescan_best(v);
}

template <bool Atomic, typename C>
void ConnectivityTracker::fill_cache_tables(CostMetric m, unsigned threads) {
  const auto add = [](auto& slot, auto w) {
    if constexpr (Atomic) {
      std::atomic_ref(slot).fetch_add(w, std::memory_order_relaxed);
    } else {
      slot += w;
    }
  };
  const C* counts = counts_data<C>();
  parallel_for_grain(
      g_.num_edges(), kStableGrain, threads,
      [&](std::size_t, std::uint64_t begin, std::uint64_t end) {
        std::vector<PartId> present;
        present.reserve(k_);
        for (EdgeId e = static_cast<EdgeId>(begin);
             e < static_cast<EdgeId>(end); ++e) {
          const Weight w = g_.edge_weight(e);
          const std::size_t base = static_cast<std::size_t>(e) * k_;
          const PartId l = lambda_[e];
          const auto pins = g_.pins(e);
          if (m == CostMetric::kConnectivity) {
            present.clear();
            if (!present_.empty()) {
              // Bit iteration over the per-net present-parts word replaces
              // the O(k) count scan; order (ascending part id) matches.
              for (std::uint64_t mask = present_[e]; mask != 0;
                   mask &= mask - 1) {
                present.push_back(
                    static_cast<PartId>(std::countr_zero(mask)));
              }
            } else {
              collect_present_parts(counts + base, k_, l, present);
            }
            for (std::size_t i = 0; i < pins.size(); ++i) {
              if (i + kPrefetchAhead < pins.size()) {
                // The benefit row and aux record of a pin a few iterations
                // out are the scattered write targets of this loop.
                const NodeId ahead = pins[i + kPrefetchAhead];
                prefetch_write(benefit_.data() +
                               static_cast<std::size_t>(ahead) * k_);
                prefetch_write(aux_.data() + ahead);
              }
              const NodeId u = pins[i];
              NodeAux& a = aux_[u];
              add(a.degw, w);
              if (counts[base + part_[u]] == 1) add(a.penalty, w);
              Weight* row = benefit_.data() + static_cast<std::size_t>(u) * k_;
              for (const PartId q : present) add(row[q], w);
              if (l > 1) add(a.cut_incident, std::uint32_t{1});
            }
          } else {
            if (l == 1) {
              if (g_.edge_size(e) >= 2) {
                for (const NodeId u : pins) add(aux_[u].penalty, w);
              }
            } else if (l == 2) {
              // Exactly two present parts a < b: a lone pin in one side
              // benefits toward the other.
              const auto [a, b] = two_present_parts<C>(e);
              for (const NodeId u : pins) {
                const PartId pu = part_[u];
                if (counts[base + pu] == 1) {
                  const PartId other = pu == a ? b : a;
                  add(benefit_[static_cast<std::size_t>(u) * k_ + other], w);
                }
                add(aux_[u].cut_incident, std::uint32_t{1});
              }
            } else {
              for (const NodeId u : pins) {
                add(aux_[u].cut_incident, std::uint32_t{1});
              }
            }
          }
        }
      });
}

void ConnectivityTracker::touch(NodeId v) {
  if (aux_[v].stamp != epoch_) {
    aux_[v].stamp = epoch_;
    touched_.push_back(v);
  }
}

void ConnectivityTracker::boundary_insert(NodeId v) {
  if (aux_[v].boundary_pos != kNotInBoundary) return;
  aux_[v].boundary_pos = static_cast<std::uint32_t>(boundary_.size());
  boundary_.push_back(v);
}

void ConnectivityTracker::boundary_erase(NodeId v) {
  const std::uint32_t pos = aux_[v].boundary_pos;
  if (pos == kNotInBoundary) return;
  const NodeId last = boundary_.back();
  boundary_[pos] = last;
  aux_[last].boundary_pos = pos;
  boundary_.pop_back();
  aux_[v].boundary_pos = kNotInBoundary;
}

template <typename C>
void ConnectivityTracker::apply_connectivity_deltas(EdgeId e, NodeId u,
                                                    PartId from, PartId to) {
  // Called with pre-move counts. Benefit terms do not depend on the pin's
  // own part, so those deltas apply to every pin (including u, whose
  // benefit row stays delta-maintained; only its penalty is rebuilt).
  const Weight w = g_.edge_weight(e);
  const C* counts = counts_data<C>();
  const std::size_t base = static_cast<std::size_t>(e) * k_;
  const std::uint32_t in_from = counts[base + from];
  const std::uint32_t in_to = counts[base + to];
  const bool to_appears = in_to == 0;       // `to` newly appears in e
  const bool from_vanishes = in_from == 1;  // `from` disappears from e
  bool from_lone = in_from == 2;  // remaining from-pin becomes the lone one
  bool to_crowded = in_to == 1;   // previously lone to-pin gains company
  if (to_appears | from_vanishes) {
    // One fused pin walk covering every firing rule (separate passes per
    // rule would re-stream the same pin slice up to three times). Every pin
    // is touched in pin order either way, so the touched_ sequence — and
    // with it downstream heap tie-breaking — is unchanged.
    for (const NodeId x : g_.pins(e)) {
      if (to_appears) benefit_add(x, to, w);
      if (from_vanishes) benefit_sub(x, from, w);
      if ((from_lone | to_crowded) && x != u) {
        const PartId px = part_[x];
        if (from_lone && px == from) {
          aux_[x].penalty += w;
          from_lone = false;
        } else if (to_crowded && px == to) {
          aux_[x].penalty -= w;
          to_crowded = false;
        }
      }
      touch(x);
    }
    return;
  }
  // Only the single-pin rules fire: two early-exit searches, kept in this
  // order so touched_ records the lone from-pin before the crowded to-pin
  // (the order the unfused code produced).
  if (from_lone) {
    for (const NodeId x : g_.pins(e)) {
      if (x != u && part_[x] == from) {
        aux_[x].penalty += w;
        touch(x);
        break;
      }
    }
  }
  if (to_crowded) {
    for (const NodeId x : g_.pins(e)) {
      if (x != u && part_[x] == to) {
        aux_[x].penalty -= w;
        touch(x);
        break;
      }
    }
  }
}

template <typename C>
void ConnectivityTracker::remove_cut_contributions(EdgeId e, NodeId u) {
  // Pre-move state: strip e's cut-metric contributions from every pin
  // except the mover (whose row is rebuilt from scratch afterwards).
  const Weight w = g_.edge_weight(e);
  const C* counts = counts_data<C>();
  const std::size_t base = static_cast<std::size_t>(e) * k_;
  const PartId l = lambda_[e];
  if (l == 1) {
    for (const NodeId x : g_.pins(e)) {
      if (x == u) continue;
      aux_[x].penalty -= w;
      touch(x);
    }
  } else if (l == 2) {
    const auto [a, b] = two_present_parts<C>(e);
    for (const NodeId x : g_.pins(e)) {
      if (x == u) continue;
      const PartId px = part_[x];
      if (counts[base + px] == 1) {
        benefit_sub(x, px == a ? b : a, w);
        touch(x);
      }
    }
  }
}

template <typename C>
void ConnectivityTracker::add_cut_contributions(EdgeId e, NodeId u) {
  // Post-move state: mirror of remove_cut_contributions.
  const Weight w = g_.edge_weight(e);
  const C* counts = counts_data<C>();
  const std::size_t base = static_cast<std::size_t>(e) * k_;
  const PartId l = lambda_[e];
  if (l == 1) {
    for (const NodeId x : g_.pins(e)) {
      if (x == u) continue;
      aux_[x].penalty += w;
      touch(x);
    }
  } else if (l == 2) {
    const auto [a, b] = two_present_parts<C>(e);
    for (const NodeId x : g_.pins(e)) {
      if (x == u) continue;
      const PartId px = part_[x];
      if (counts[base + px] == 1) {
        benefit_add(x, px == a ? b : a, w);
        touch(x);
      }
    }
  }
}

template <typename C>
void ConnectivityTracker::rebuild_mover_cache_row(NodeId u) {
  // Post-move state; part_[u] is already the destination part.
  const PartId pu = part_[u];
  const C* counts = counts_data<C>();
  if (cache_metric_ == CostMetric::kConnectivity) {
    Weight p = 0;
    for (const EdgeId e : g_.incident_edges(u)) {
      p += g_.edge_weight(e) *
           static_cast<Weight>(counts[static_cast<std::size_t>(e) * k_ + pu] ==
                               1);
    }
    aux_[u].penalty = p;
    // The mover's own part changed, which redraws which slots are targets
    // (old part becomes one, new part stops being one).
    rescan_best(u);
    return;
  }
  Weight* row = benefit_.data() + static_cast<std::size_t>(u) * k_;
  std::fill(row, row + k_, 0);
  Weight p = 0;
  for (const EdgeId e : g_.incident_edges(u)) {
    const Weight w = g_.edge_weight(e);
    const std::size_t base = static_cast<std::size_t>(e) * k_;
    const PartId l = lambda_[e];
    if (l == 1) {
      if (g_.edge_size(e) >= 2) p += w;
    } else if (l == 2 && counts[base + pu] == 1) {
      const auto [a, b] = two_present_parts<C>(e);
      row[a == pu ? b : a] += w;
    }
  }
  aux_[u].penalty = p;
  rescan_best(u);  // row rebuilt wholesale; re-derive the argmax
}

void ConnectivityTracker::update_boundary_after_lambda_change(EdgeId e,
                                                              PartId l_before,
                                                              PartId l_after) {
  if (l_before == 1 && l_after > 1) {
    for (const NodeId x : g_.pins(e)) {
      if (aux_[x].cut_incident++ == 0) boundary_insert(x);
    }
  } else if (l_before > 1 && l_after == 1) {
    for (const NodeId x : g_.pins(e)) {
      assert(aux_[x].cut_incident > 0);
      if (--aux_[x].cut_incident == 0) boundary_erase(x);
    }
  }
}

template <typename C>
void ConnectivityTracker::move_with_cache(NodeId u, PartId to) {
  const PartId from = part_[u];
  if (!batch_active_) {  // apply_batch owns the epoch for the whole batch
    ++epoch_;
    touched_.clear();
  }
  touch(u);
  const bool conn = cache_metric_ == CostMetric::kConnectivity;
  C* counts = counts_data<C>();
  // The delta rules below write scattered benefit rows of this move's
  // neighborhood; start pulling them in before the count updates need them.
  for (const EdgeId e : g_.incident_edges(u)) {
    prefetch(counts + static_cast<std::size_t>(e) * k_);
    for (const NodeId v : g_.pins(e)) prefetch_gain_row(v);
  }
  for (const EdgeId e : g_.incident_edges(u)) {
    const Weight w = g_.edge_weight(e);
    const std::size_t base = static_cast<std::size_t>(e) * k_;
    const PartId l_before = lambda_[e];
    C& cf = counts[base + from];
    C& ct = counts[base + to];
    assert(cf > 0);
    const PartId l_after = l_before - static_cast<PartId>(cf == 1) +
                           static_cast<PartId>(ct == 0);
    // λ ≥ 3 before and after means no pin's cut-metric contribution
    // changes; those edges cost O(1).
    const bool cut_relevant = !conn && (l_before <= 2 || l_after <= 2);
    if (conn) {
      apply_connectivity_deltas<C>(e, u, from, to);
    } else if (cut_relevant) {
      remove_cut_contributions<C>(e, u);
    }
    if (!present_.empty()) {
      const std::uint64_t fbit = std::uint64_t{1} << from;
      const std::uint64_t tbit = std::uint64_t{1} << to;
      present_[e] = (present_[e] & ~(fbit * (cf == 1))) | (tbit * (ct == 0));
    }
    --cf;
    ++ct;
    lambda_[e] = l_after;
    connectivity_ +=
        w * (static_cast<Weight>(l_after) - static_cast<Weight>(l_before));
    cut_net_ += w * (static_cast<Weight>(l_after > 1) -
                     static_cast<Weight>(l_before > 1));
    if (cut_relevant) add_cut_contributions<C>(e, u);
    update_boundary_after_lambda_change(e, l_before, l_after);
  }
  part_weight_[from] -= g_.node_weight(u);
  part_weight_[to] += g_.node_weight(u);
  part_[u] = to;
  rebuild_mover_cache_row<C>(u);
}

template <typename C>
std::pair<PartId, PartId> ConnectivityTracker::two_present_parts(
    EdgeId e) const noexcept {
  if (!present_.empty()) {
    const std::uint64_t m = present_[e];
    return {static_cast<PartId>(std::countr_zero(m)),
            static_cast<PartId>(std::countr_zero(m & (m - 1)))};
  }
  const C* counts = counts_data<C>();
  const std::size_t base = static_cast<std::size_t>(e) * k_;
  PartId a = kInvalidPart;
  for (PartId q = 0; q < k_; ++q) {
    if (counts[base + q] > 0) {
      if (a == kInvalidPart) {
        a = q;
      } else {
        return {a, q};
      }
    }
  }
  return {a, kInvalidPart};
}

BatchCommitResult ConnectivityTracker::apply_batch(
    std::span<const BatchMove> moves, Weight capacity, Weight min_gain) {
  if (!cache_enabled_) {
    throw std::logic_error(
        "ConnectivityTracker::apply_batch requires an enabled gain cache");
  }
  BatchCommitResult result;
  ++epoch_;
  touched_.clear();
  batch_active_ = true;
  for (const BatchMove& m : moves) {
    // Revalidate against the CURRENT state: earlier commits in this batch
    // may have changed the gain or the balance headroom. The cached gain is
    // exact, so this is the same accept/reject decision a sequential pass
    // re-examining the node right now would make.
    if (part_[m.node] == m.to) {
      ++result.conflicted;
      continue;
    }
    const Weight fresh = cached_gain(m.node, m.to);
    if (fresh < min_gain ||
        sat_add(part_weight_[m.to], g_.node_weight(m.node)) > capacity) {
      ++result.conflicted;
      continue;
    }
    if (narrow_) {
      move_with_cache<std::uint16_t>(m.node, m.to);
    } else {
      move_with_cache<std::uint32_t>(m.node, m.to);
    }
    ++result.applied;
    result.total_gain += fresh;
  }
  batch_active_ = false;
  return result;
}

}  // namespace hp
