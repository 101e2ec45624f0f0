#include "hyperpart/stream/restream_refiner.hpp"

#include <algorithm>
#include <functional>
#include <vector>

#include "hyperpart/core/connectivity_tracker.hpp"
#include "hyperpart/obs/telemetry.hpp"
#include "hyperpart/util/overflow.hpp"
#include "hyperpart/util/thread_pool.hpp"

namespace hp::stream {

namespace {

struct Proposal {
  NodeId v;    // global node id
  PartId to;   // proposed destination
};

/// Chunks proposed concurrently per wave. Fixed (not the thread count) so
/// the commit order — and therefore the result — is identical for every
/// thread count; run_parallel caps actual concurrency at cfg.threads.
constexpr unsigned kWaveChunks = 8;

/// Greedy sweeps over a chunk's window before its proposals are emitted.
constexpr int kMaxChunkSweeps = 3;

/// Exact decrease in cost if v moved to `to`, evaluated against the live
/// global assignment by scanning v's incident pins through the mapping.
/// Mirrors the ConnectivityTracker gain rules: both metrics only need the
/// per-edge pin counts of the source and destination parts.
[[nodiscard]] Weight exact_gain(const MappedHypergraph& g, const Partition& p,
                                NodeId v, PartId to, CostMetric metric) {
  const PartId from = p[v];
  Weight gain = 0;
  for (const EdgeId e : g.incident_edges(v)) {
    const auto pins = g.pins(e);
    std::uint32_t c_from = 0;  // pins of e in `from`, including v
    std::uint32_t c_to = 0;
    for (const NodeId u : pins) {
      const PartId q = p[u];
      c_from += q == from;
      c_to += q == to;
    }
    const Weight w = g.edge_weight(e);
    if (metric == CostMetric::kConnectivity) {
      if (c_from == 1) gain = sat_add(gain, w);  // v leaves: λ_e drops by one
      if (c_to == 0) gain = sat_sub(gain, w);  // v arrives alone: λ_e grows
    } else {
      const bool cut_before = c_from != pins.size();
      const bool cut_after = c_to + 1 != pins.size();
      if (cut_before && !cut_after) gain = sat_add(gain, w);
      if (!cut_before && cut_after) gain = sat_sub(gain, w);
    }
  }
  return gain;
}

/// Build the ghost-collapsed sub-hypergraph of window [begin, end), run the
/// tracker-driven greedy sweeps, and return the net moves as proposals.
/// Reads p and part_weights only (both frozen during a wave).
[[nodiscard]] std::vector<Proposal> propose_chunk(
    const MappedHypergraph& g, const Partition& p,
    const std::vector<Weight>& part_weights, const BalanceConstraint& balance,
    const RestreamConfig& cfg, NodeId begin, NodeId end) {
  const PartId k = balance.k();
  const NodeId window = end - begin;

  // Window-incident edges, deduplicated.
  std::vector<EdgeId> edges;
  for (NodeId v = begin; v < end; ++v) {
    const auto inc = g.incident_edges(v);
    edges.insert(edges.end(), inc.begin(), inc.end());
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  if (edges.empty()) return {};

  // Local ids: window node v ↦ v − begin; ghosts (q, j) ↦ window + 2q + j.
  // Outside pins collapse per (edge, part) to min(count, 2) ghost pins —
  // exactly enough to preserve the 0 / 1 / ≥2 pin-count classification the
  // gain rules read.
  const auto ghost = [window](PartId q, std::uint32_t j) -> NodeId {
    return window + 2 * q + j;
  };
  std::vector<std::vector<NodeId>> local_edges;
  local_edges.reserve(edges.size());
  std::vector<Weight> local_edge_weights;
  local_edge_weights.reserve(edges.size());
  std::vector<std::uint32_t> out_count(k, 0);
  std::vector<PartId> out_touched;
  for (const EdgeId e : edges) {
    std::vector<NodeId> local;
    for (const NodeId u : g.pins(e)) {
      if (u >= begin && u < end) {
        local.push_back(u - begin);
      } else {
        const PartId q = p[u];
        if (out_count[q]++ == 0) out_touched.push_back(q);
      }
    }
    for (const PartId q : out_touched) {
      local.push_back(ghost(q, 0));
      if (out_count[q] >= 2) local.push_back(ghost(q, 1));
      out_count[q] = 0;
    }
    out_touched.clear();
    local_edges.push_back(std::move(local));
    local_edge_weights.push_back(g.edge_weight(e));
  }

  Hypergraph local_g =
      Hypergraph::from_edges(window + 2 * k, std::move(local_edges));
  local_g.set_edge_weights(std::move(local_edge_weights));
  {
    // Ghosts carry weight 0 so they never perturb weight bookkeeping.
    std::vector<Weight> nw(static_cast<std::size_t>(window) + 2 * k, 0);
    for (NodeId v = 0; v < window; ++v) nw[v] = g.node_weight(begin + v);
    local_g.set_node_weights(std::move(nw));
  }

  Partition local_p(window + 2 * k, k);
  for (NodeId v = 0; v < window; ++v) local_p.assign(v, p[begin + v]);
  for (PartId q = 0; q < k; ++q) {
    local_p.assign(ghost(q, 0), q);
    local_p.assign(ghost(q, 1), q);
  }

  // PR 1's gain rules on the resident window. Ghosts are never moved, so
  // every tracker gain equals the true global gain under the frozen
  // assignment.
  ConnectivityTracker tracker(local_g, local_p);
  std::vector<Weight> pw = part_weights;  // chunk-local running weights
  for (int sweep = 0; sweep < kMaxChunkSweeps; ++sweep) {
    bool improved = false;
    for (NodeId v = 0; v < window; ++v) {
      const PartId from = tracker.part_of(v);
      const Weight wv = g.node_weight(begin + v);
      PartId best = kInvalidPart;
      Weight best_gain = 0;
      for (PartId q = 0; q < k; ++q) {
        if (q == from || sat_add(pw[q], wv) > balance.capacity()) continue;
        const Weight gain = tracker.gain(v, q, cfg.metric);
        if (gain > best_gain) {
          best = q;
          best_gain = gain;
        }
      }
      if (best == kInvalidPart) continue;
      tracker.move(v, best);
      pw[from] -= wv;
      pw[best] += wv;
      improved = true;
    }
    if (!improved) break;
  }

  std::vector<Proposal> proposals;
  for (NodeId v = 0; v < window; ++v) {
    if (tracker.part_of(v) != p[begin + v]) {
      proposals.push_back({begin + v, tracker.part_of(v)});
    }
  }
  return proposals;
}

}  // namespace

RestreamResult restream_refine(const MappedHypergraph& g, Partition& p,
                               const BalanceConstraint& balance,
                               const RestreamConfig& cfg) {
  HP_SPAN("restream");
  RestreamResult result;
  const NodeId n = g.num_nodes();
  const NodeId chunk = std::max<NodeId>(1, cfg.chunk_size);
  const unsigned threads =
      cfg.threads == 0 ? default_threads() : cfg.threads;

  std::vector<Weight> part_weights(balance.k(), 0);
  for (NodeId v = 0; v < n; ++v) {
    part_weights[p[v]] = sat_add(part_weights[p[v]], g.node_weight(v));
  }

  for (int pass = 0; pass < cfg.max_passes; ++pass) {
    HP_SPAN("pass", pass);
    result.passes_run = pass + 1;
    std::uint64_t applied_this_pass = 0;
    for (NodeId wave_begin = 0; wave_begin < n;
         wave_begin += static_cast<std::uint64_t>(chunk) * kWaveChunks) {
      // Propose phase: p and part_weights are frozen (read-only) while the
      // wave's chunks run concurrently on the persistent pool.
      std::vector<std::vector<Proposal>> proposals(kWaveChunks);
      std::vector<std::function<void()>> tasks;
      for (unsigned c = 0; c < kWaveChunks; ++c) {
        const std::uint64_t b =
            wave_begin + static_cast<std::uint64_t>(c) * chunk;
        if (b >= n) break;
        const NodeId cb = static_cast<NodeId>(b);
        const NodeId ce = static_cast<NodeId>(
            std::min<std::uint64_t>(n, b + chunk));
        tasks.push_back([&, c, cb, ce]() {
          proposals[c] =
              propose_chunk(g, p, part_weights, balance, cfg, cb, ce);
        });
      }
      run_parallel(tasks, threads);

      // Commit phase: sequential, with each proposal's gain re-validated
      // against the live state — chunks share edges, so gains computed
      // against the wave snapshot can be stale.
      for (const auto& chunk_proposals : proposals) {
        for (const Proposal& m : chunk_proposals) {
          ++result.moves_proposed;
          const PartId from = p[m.v];
          if (from == m.to) continue;
          const Weight wv = g.node_weight(m.v);
          if (sat_add(part_weights[m.to], wv) > balance.capacity()) continue;
          if (exact_gain(g, p, m.v, m.to, cfg.metric) <= 0) continue;
          p.assign(m.v, m.to);
          part_weights[from] -= wv;
          part_weights[m.to] += wv;
          ++result.moves_applied;
          ++applied_this_pass;
        }
      }
    }
    if (applied_this_pass == 0) break;
  }

  HP_COUNTER_ADD("restream.passes", result.passes_run);
  HP_COUNTER_ADD("restream.moves_proposed",
                 static_cast<std::int64_t>(result.moves_proposed));
  HP_COUNTER_ADD("restream.moves_applied",
                 static_cast<std::int64_t>(result.moves_applied));
  result.cost = cost_of(g, p, cfg.metric);
  return result;
}

}  // namespace hp::stream
