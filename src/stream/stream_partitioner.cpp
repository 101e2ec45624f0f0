#include "hyperpart/stream/stream_partitioner.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "hyperpart/obs/telemetry.hpp"
#include "hyperpart/util/overflow.hpp"
#include "hyperpart/util/rng.hpp"

namespace hp::stream {

namespace {

/// α: strength of the fractional balance penalty.
constexpr double kBalancePenalty = 1.0;
/// γ: penalty growth exponent in the part-fill fraction.
constexpr double kPenaltyExponent = 2.0;

/// Deterministic tie-break hash: mixes (seed, node, part) through one
/// SplitMix64 step.
[[nodiscard]] std::uint64_t tie_hash(std::uint64_t seed, NodeId v,
                                     PartId q) noexcept {
  std::uint64_t state =
      seed ^ (static_cast<std::uint64_t>(v) << 32) ^ (q + 0x9e3779b9u);
  return splitmix64(state);
}

}  // namespace

std::optional<StreamResult> stream_partition(const MappedHypergraph& g,
                                             const BalanceConstraint& balance,
                                             const StreamConfig& cfg) {
  HP_SPAN("stream");
  const NodeId n = g.num_nodes();
  const PartId k = balance.k();
  const Weight capacity = balance.capacity();
  const bool exact_sketch = k <= 64;

  StreamResult result;
  result.partition = Partition(n, k);
  result.part_weights.assign(k, 0);
  std::vector<std::uint64_t> sketch(g.num_edges(), 0);
  std::vector<Weight> benefit(k, 0);
  std::vector<PartId> touched;  // parts with a nonzero benefit this node
  touched.reserve(k);
  Weight conn_cost = 0;
  Weight cut_cost = 0;

  const NodeId buffer = std::max<NodeId>(1, cfg.buffer_size);
  std::vector<NodeId> order;
  order.reserve(buffer);

  for (NodeId begin = 0; begin < n; begin += buffer) {
    HP_SPAN("window", begin / buffer);
    HP_COUNTER_ADD("stream.windows", 1);
    const NodeId end = std::min<std::uint64_t>(n, std::uint64_t{begin} + buffer);
    order.resize(end - begin);
    for (NodeId i = begin; i < end; ++i) order[i - begin] = i;
    // High-degree nodes first: they carry the most presence signal and
    // constrain the rest of the batch. Stable tie-break keeps arrival order.
    std::stable_sort(order.begin(), order.end(),
                     [&](NodeId a, NodeId b) {
                       return g.degree(a) > g.degree(b);
                     });

    for (const NodeId v : order) {
      const Weight wv = g.node_weight(v);
      const auto incident = g.incident_edges(v);

      // Gather per-part connectivity benefit from the edge sketches.
      for (const EdgeId e : incident) {
        std::uint64_t mask = sketch[e];
        if (mask == 0) continue;
        const Weight we = g.edge_weight(e);
        if (exact_sketch) {
          while (mask != 0) {
            const PartId q = static_cast<PartId>(std::countr_zero(mask));
            mask &= mask - 1;
            if (benefit[q] == 0) touched.push_back(q);
            benefit[q] = sat_add(benefit[q], we);
          }
        } else {
          // Hashed sketch: every part sharing a set bit may be present.
          for (PartId q = 0; q < k; ++q) {
            if ((mask >> (q % 64)) & 1u) {
              if (benefit[q] == 0) touched.push_back(q);
              benefit[q] = sat_add(benefit[q], we);
            }
          }
        }
      }

      // Pick the feasible part with the best fractional greedy score.
      const double penalty_scale =
          kBalancePenalty *
          (static_cast<double>(g.degree(v)) + 1.0);
      PartId best = kInvalidPart;
      double best_score = 0;
      Weight best_weight = 0;
      std::uint64_t best_hash = 0;
      for (PartId q = 0; q < k; ++q) {
        const Weight wq = result.part_weights[q];
        if (sat_add(wq, wv) > capacity) continue;
        const double fill = capacity > 0
                                ? static_cast<double>(wq) /
                                      static_cast<double>(capacity)
                                : 0.0;
        const double score =
            static_cast<double>(benefit[q]) -
            penalty_scale * std::pow(fill, kPenaltyExponent);
        const std::uint64_t h = tie_hash(cfg.seed, v, q);
        const bool better =
            best == kInvalidPart || score > best_score ||
            (score == best_score &&
             (wq < best_weight || (wq == best_weight && h < best_hash)));
        if (better) {
          best = q;
          best_score = score;
          best_weight = wq;
          best_hash = h;
        }
      }
      for (const PartId q : touched) benefit[q] = 0;
      touched.clear();
      if (best == kInvalidPart) return std::nullopt;

      // Place and update sketches + incremental cost.
      result.partition.assign(v, best);
      result.part_weights[best] = sat_add(result.part_weights[best], wv);
      const std::uint64_t bit = std::uint64_t{1} << (best % 64);
      for (const EdgeId e : incident) {
        const std::uint64_t mask = sketch[e];
        if ((mask & bit) != 0) continue;  // part already present (or collides)
        if (mask != 0) {
          const Weight we = g.edge_weight(e);
          conn_cost = sat_add(conn_cost, we);  // λ_e grows by one
          if (std::popcount(mask) == 1) {
            cut_cost = sat_add(cut_cost, we);  // λ_e: 1 → 2
          }
        }
        sketch[e] = mask | bit;
      }
    }
  }

  HP_COUNTER_ADD("stream.nodes_placed", n);
  HP_GAUGE_MAX("stream.sketch_bytes",
               static_cast<std::int64_t>(sketch.size() * sizeof(sketch[0])));
  result.streamed_cost =
      cfg.metric == CostMetric::kConnectivity ? conn_cost : cut_cost;
  result.offline_cost = cost_of(g, result.partition, cfg.metric);
  return result;
}

}  // namespace hp::stream
