#include "hyperpart/server/session.hpp"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>

#include "hyperpart/algo/incremental.hpp"
#include "hyperpart/obs/telemetry.hpp"
#include "hyperpart/stream/binary_format.hpp"

namespace hp::server {

namespace {

[[nodiscard]] BalanceConstraint balance_for(const Hypergraph& g,
                                            const SessionConfig& cfg) {
  // Relaxed (ceiling) capacity: a long-lived service should never reject a
  // graph whose exact threshold is a hair below an integer.
  return BalanceConstraint::for_graph(g, cfg.k, cfg.epsilon, /*relaxed=*/true);
}

[[nodiscard]] FmConfig fm_for(const SessionConfig& cfg) {
  FmConfig fm;
  fm.metric = cfg.metric;
  fm.threads = cfg.threads;
  return fm;
}

}  // namespace

GraphSession::GraphSession(Hypergraph g, std::string name)
    : name_(std::move(name)), g_(std::move(g)) {
  graph_hash_ = g_.content_hash();
}

std::unique_ptr<GraphSession> GraphSession::from_file(const std::string& path) {
  return std::unique_ptr<GraphSession>(
      new GraphSession(stream::read_hypergraph_file(path), path));
}

std::unique_ptr<GraphSession> GraphSession::from_graph(Hypergraph g,
                                                       std::string name) {
  return std::unique_ptr<GraphSession>(
      new GraphSession(std::move(g), std::move(name)));
}

GraphSession::CacheKey GraphSession::key_of(const SessionConfig& cfg) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof cfg.epsilon);
  std::memcpy(&bits, &cfg.epsilon, sizeof bits);
  return CacheKey{cfg.k, bits, cfg.metric, cfg.seed};
}

MultilevelConfig GraphSession::ml_config(const SessionConfig& cfg) const {
  MultilevelConfig ml;
  ml.metric = cfg.metric;
  ml.seed = cfg.seed;
  ml.fm.threads = cfg.threads;
  return ml;
}

PartitionOutcome GraphSession::outcome_from(const Entry& e,
                                            const SessionConfig& cfg,
                                            std::string method, bool cache_hit,
                                            double fraction,
                                            bool include_parts) const {
  PartitionOutcome out;
  out.ok = true;
  out.method = std::move(method);
  out.cache_hit = cache_hit;
  out.cost = e.cost;
  out.part_weights = e.partition.part_weights(g_);
  out.balanced = balance_for(g_, cfg).satisfied(out.part_weights);
  out.change_fraction = fraction;
  out.version = version();
  if (include_parts) {
    out.parts.assign(e.partition.raw().begin(), e.partition.raw().end());
  }
  return out;
}

void GraphSession::commit_entry(const CacheKey& key, Entry entry) {
  std::unique_lock lock(mu_);
  cache_[key] = std::move(entry);
}

PartitionOutcome GraphSession::run_full(const SessionConfig& cfg,
                                        const CacheKey& key,
                                        bool include_parts) {
  // The admitted mutator reads g_ without a lock: update() is the only
  // writer and it needs the mutator slot we hold.
  const BalanceConstraint balance = balance_for(g_, cfg);
  Entry entry;
  std::optional<Partition> p =
      multilevel_partition_cached(g_, balance, ml_config(cfg), &entry.hierarchy);
  if (!p) {
    PartitionOutcome out;
    out.version = version();
    out.error = "no feasible partition (capacity too tight for node weights)";
    return out;
  }
  entry.tracker = std::make_unique<ConnectivityTracker>(g_, *p, cfg.threads);
  entry.tracker->enable_gain_cache(cfg.metric, cfg.threads);
  entry.cost = entry.tracker->cost(cfg.metric);
  entry.partition = std::move(*p);
  entry.method = "full";
  entry.built_hash = graph_hash_;
  entry.built_units = change_units_;
  HP_COUNTER_ADD("server.cache_misses", 1);
  PartitionOutcome out =
      outcome_from(entry, cfg, "full", false, 0.0, include_parts);
  commit_entry(key, std::move(entry));
  return out;
}

PartitionOutcome GraphSession::partition(const SessionConfig& cfg,
                                         bool include_parts) {
  HP_SPAN("session.partition");
  const CacheKey key = key_of(cfg);
  auto it = cache_.find(key);
  if (it != cache_.end() && it->second.built_hash == graph_hash_) {
    HP_COUNTER_ADD("server.cache_hits", 1);
    return outcome_from(it->second, cfg, "cached", true, 0.0, include_parts);
  }
  if (it != cache_.end() && !it->second.hierarchy.empty() &&
      fraction_since(it->second) <= kDeltaFmMaxFraction) {
    // Weight-only drift small enough that the cached hierarchy is still a
    // faithful coarsening: re-run initial + uncoarsen phases only. The
    // coarse levels carry pre-update weights, so the result is feasibility-
    // checked against the *current* graph before being accepted.
    // multilevel_partition_cached only READS a non-empty hierarchy, so no
    // lock is needed around the compute; every entry WRITE below happens
    // under the unique lock so readers never see a torn entry.
    Entry& e = it->second;
    const double frac = fraction_since(e);
    const BalanceConstraint balance = balance_for(g_, cfg);
    std::optional<Partition> p =
        multilevel_partition_cached(g_, balance, ml_config(cfg), &e.hierarchy);
    std::unique_ptr<ConnectivityTracker> tracker;
    if (p) {
      tracker = std::make_unique<ConnectivityTracker>(g_, *p, cfg.threads);
      tracker->enable_gain_cache(cfg.metric, cfg.threads);
      if (!balance.satisfied(p->part_weights(g_)) &&
          rebalance_with_tracker(g_, *tracker, balance, cfg.metric,
                                 cfg.threads)) {
        // The coarse levels carried pre-drift weights, so the reused result
        // can overshoot a part capacity by the drift amount; a gain-guided
        // rebalance repairs that without touching the hierarchy.
        *p = tracker->to_partition();
      }
    }
    if (p && balance.satisfied(p->part_weights(g_))) {
      const Weight cost = tracker->cost(cfg.metric);
      {
        std::unique_lock lock(mu_);
        e.tracker = std::move(tracker);
        e.tracker_stale = false;
        e.cost = cost;
        e.partition = std::move(*p);
        e.method = "hierarchy";
        e.built_hash = graph_hash_;
        e.built_units = change_units_;
      }
      HP_COUNTER_ADD("server.cache_hits", 1);
      return outcome_from(e, cfg, "hierarchy", true, frac, include_parts);
    }
    std::unique_lock lock(mu_);
    e.hierarchy = MultilevelHierarchy{};  // proven stale; drop it
  }
  return run_full(cfg, key, include_parts);
}

PartitionOutcome GraphSession::repartition(const SessionConfig& cfg,
                                           bool include_parts) {
  HP_SPAN("session.repartition");
  const CacheKey key = key_of(cfg);
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    HP_COUNTER_ADD("server.repartition.full", 1);
    return run_full(cfg, key, include_parts);
  }
  Entry& e = it->second;
  if (e.built_hash == graph_hash_) {
    HP_COUNTER_ADD("server.cache_hits", 1);
    return outcome_from(e, cfg, "cached", true, 0.0, include_parts);
  }
  const double frac = fraction_since(e);
  const BalanceConstraint balance = balance_for(g_, cfg);

  // Rung 1: ΔFM on the cached tracker.
  if (frac <= kDeltaFmMaxFraction && e.tracker) {
    if (e.tracker_stale) {
      // Edge weights (or, past the patchability threshold, net structure)
      // changed under this tracker — rebuild from the cached partition
      // (O(pins), no coarsening). The partition itself stays valid: the
      // node set never changes.
      auto fresh =
          std::make_unique<ConnectivityTracker>(g_, e.partition, cfg.threads);
      std::unique_lock lock(mu_);
      e.tracker = std::move(fresh);
      e.tracker_stale = false;
      HP_COUNTER_ADD("server.tracker_rebuilds", 1);
    }
    // Quality-guard baseline: the cached partition's cost on the *current*
    // graph. The tracker is exact here (just rebuilt, or node-only drift
    // which never touches edge-based costs), so this is O(1).
    const Weight before = e.tracker->cost(cfg.metric);
    // ΔFM mutates the tracker's *contents* without a lock — readers never
    // dereference trackers, only the committed (partition, cost) fields.
    Partition p;
    std::optional<Weight> cost =
        delta_fm_refine(g_, *e.tracker, p, balance, fm_for(cfg));
    if (cost && *cost > 3 * before + 4) {
      // Rebalancing dug the partition into a hole (documented bound in
      // DESIGN.md: a rung may cost at most 3 · before + 4). Escalate.
      HP_COUNTER_ADD("server.repartition.quality_fallbacks", 1);
      cost.reset();
    }
    if (cost) {
      {
        std::unique_lock lock(mu_);
        e.cost = *cost;
        e.partition = std::move(p);
        e.method = "delta_fm";
        e.built_hash = graph_hash_;
        e.built_units = change_units_;
      }
      HP_COUNTER_ADD("server.cache_hits", 1);
      HP_COUNTER_ADD("server.repartition.delta_fm", 1);
      return outcome_from(e, cfg, "delta_fm", true, frac, include_parts);
    }
    // Rebalance failed; the tracker was left in a perturbed state — it no
    // longer matches e.partition, so it must not be reused below.
    std::unique_lock lock(mu_);
    e.tracker.reset();
  }

  // Rung 2: partition-aware V-cycles seeded from the cached partition.
  if (frac <= kVcycleMaxFraction && e.partition.complete() &&
      e.partition.k() == cfg.k) {
    Partition p = e.partition;
    bool feasible = balance.satisfied(p.part_weights(g_));
    auto tracker = std::make_unique<ConnectivityTracker>(g_, p, cfg.threads);
    const Weight before = tracker->cost(cfg.metric);
    if (!feasible) {
      feasible = rebalance_with_tracker(g_, *tracker, balance, cfg.metric,
                                        cfg.threads);
      if (feasible) p = tracker->to_partition();
    }
    if (feasible) {
      const Weight cost = vcycle_refine(g_, p, balance, ml_config(cfg));
      if (cost > 3 * before + 4) {
        // Same quality guard as the ΔFM rung: never commit a result more
        // than 3 · before + 4 worse than what the cache already had.
        HP_COUNTER_ADD("server.repartition.quality_fallbacks", 1);
        HP_COUNTER_ADD("server.repartition.full", 1);
        return run_full(cfg, key, include_parts);
      }
      // The refined partition differs from the one the tracker mirrors;
      // rebuild so the next ΔFM starts exact.
      auto fresh = std::make_unique<ConnectivityTracker>(g_, p, cfg.threads);
      fresh->enable_gain_cache(cfg.metric, cfg.threads);
      {
        std::unique_lock lock(mu_);
        e.tracker = std::move(fresh);
        e.tracker_stale = false;
        e.cost = cost;
        e.partition = std::move(p);
        e.method = "vcycle";
        e.built_hash = graph_hash_;
        e.built_units = change_units_;
      }
      HP_COUNTER_ADD("server.cache_hits", 1);
      HP_COUNTER_ADD("server.repartition.vcycle", 1);
      return outcome_from(e, cfg, "vcycle", true, frac, include_parts);
    }
  }

  // Rung 3: full multilevel.
  HP_COUNTER_ADD("server.repartition.full", 1);
  return run_full(cfg, key, include_parts);
}

UpdateOutcome GraphSession::update(std::span<const WeightUpdate> node_updates,
                                   std::span<const WeightUpdate> edge_updates,
                                   std::span<const StructuralDelta> structural) {
  HP_SPAN("session.update");
  UpdateOutcome out;
  out.version = version();
  // Validate everything before touching any state: an update either applies
  // in full or not at all. Structural deltas are validated against the
  // prospective final pin sets (each delta applied in order to an in-memory
  // copy of the touched nets), so an invalid delta anywhere in the batch —
  // including remove_net / remove_pins on an already-removed net — rejects
  // the whole frame before a single mutation lands.
  for (const WeightUpdate& u : node_updates) {
    if (u.id >= g_.num_nodes()) {
      out.error = "node id out of range: " + std::to_string(u.id);
      return out;
    }
    if (u.weight < 0) {
      out.error = "negative node weight for id " + std::to_string(u.id);
      return out;
    }
  }

  // touched: prospective (sorted) pin list per existing net the batch
  // rewrites; removed_now: nets tombstoned by this batch.
  std::map<EdgeId, std::vector<NodeId>> touched;
  std::set<EdgeId> removed_now;
  std::vector<NewEdge> appended;
  const auto prospective = [&](EdgeId e) -> std::vector<NodeId>& {
    auto it = touched.find(e);
    if (it == touched.end()) {
      const auto p = g_.pins(e);
      it = touched.emplace(e, std::vector<NodeId>(p.begin(), p.end())).first;
    }
    return it->second;
  };
  const auto dead = [&](EdgeId e) {
    return net_removed(e) || removed_now.count(e) != 0;
  };
  for (const StructuralDelta& d : structural) {
    switch (d.kind) {
      case StructuralDelta::Kind::kAddNet: {
        if (d.weight < 0) {
          out.error = "add_net: negative weight";
          return out;
        }
        if (d.pins.empty()) {
          out.error = "add_net: needs at least one pin";
          return out;
        }
        for (const NodeId v : d.pins) {
          if (v >= g_.num_nodes()) {
            out.error = "add_net: pin out of range: " + std::to_string(v);
            return out;
          }
        }
        NewEdge ne;
        ne.pins.assign(d.pins.begin(), d.pins.end());
        ne.weight = d.weight;
        appended.push_back(std::move(ne));
        break;
      }
      case StructuralDelta::Kind::kRemoveNet: {
        if (d.net >= g_.num_edges()) {
          out.error = "remove_net: net out of range: " + std::to_string(d.net);
          return out;
        }
        if (dead(d.net)) {
          out.error = "remove_net: net " + std::to_string(d.net) +
                      " is already removed";
          return out;
        }
        removed_now.insert(d.net);
        prospective(d.net).clear();
        break;
      }
      case StructuralDelta::Kind::kAddPins:
      case StructuralDelta::Kind::kRemovePins: {
        const bool adding = d.kind == StructuralDelta::Kind::kAddPins;
        const char* verb = adding ? "add_pins" : "remove_pins";
        if (d.net >= g_.num_edges()) {
          out.error =
              std::string(verb) + ": net out of range: " + std::to_string(d.net);
          return out;
        }
        if (dead(d.net)) {
          out.error = std::string(verb) + ": net " + std::to_string(d.net) +
                      " is removed";
          return out;
        }
        std::vector<NodeId>& pins = prospective(d.net);
        for (const NodeId v : d.pins) {
          if (v >= g_.num_nodes()) {
            out.error =
                std::string(verb) + ": pin out of range: " + std::to_string(v);
            return out;
          }
          const auto it = std::lower_bound(pins.begin(), pins.end(), v);
          const bool present = it != pins.end() && *it == v;
          if (adding) {
            if (present) {
              out.error = "add_pins: pin " + std::to_string(v) +
                          " already in net " + std::to_string(d.net);
              return out;
            }
            pins.insert(it, v);
          } else {
            if (!present) {
              out.error = "remove_pins: pin " + std::to_string(v) +
                          " not in net " + std::to_string(d.net);
              return out;
            }
            pins.erase(it);
          }
        }
        break;
      }
    }
  }

  for (const WeightUpdate& u : edge_updates) {
    if (u.id >= g_.num_edges()) {
      out.error = "edge id out of range: " + std::to_string(u.id);
      return out;
    }
    if (u.weight < 0) {
      out.error = "negative edge weight for id " + std::to_string(u.id);
      return out;
    }
    if (dead(u.id)) {
      out.error = "edge " + std::to_string(u.id) + " is removed";
      return out;
    }
  }

  // Patchability: per-net tracker repair costs O(touched pins · k); once the
  // batch rewrites a sizable share of all pins, marking trackers stale (and
  // letting repartition rebuild from the cached partition in O(ρ)) is both
  // cheaper and simpler. Threshold argument in DESIGN.md.
  std::uint64_t touched_volume = 0;
  for (const auto& [e, pins] : touched) {
    touched_volume += g_.edge_size(e) + pins.size();
  }
  for (const auto& a : appended) touched_volume += a.pins.size();
  const bool patchable =
      static_cast<double>(touched_volume) <=
      kStructuralPatchMaxFraction *
          std::max<double>(1.0, static_cast<double>(g_.num_pins()));

  std::unique_lock lock(mu_);
  for (const WeightUpdate& u : node_updates) {
    const Weight delta = u.weight - g_.node_weight(u.id);
    g_.update_node_weight(u.id, u.weight);
    if (delta == 0) continue;
    // Node weights never enter pin counts, λ, costs, or the gain cache —
    // patching the part weights keeps every fresh tracker exact.
    for (auto& [key, entry] : cache_) {
      if (entry.tracker && !entry.tracker_stale) {
        entry.tracker->apply_node_weight_delta(u.id, delta);
      }
    }
  }

  if (!structural.empty()) {
    std::vector<EdgeId> touched_ids;
    touched_ids.reserve(touched.size());
    std::vector<EdgeRewrite> rewrites;
    rewrites.reserve(touched.size());
    for (auto& [e, pins] : touched) {
      touched_ids.push_back(e);
      rewrites.push_back(EdgeRewrite{e, std::move(pins)});
    }
    // Phase 1 on every fresh tracker BEFORE the graph mutates: the old pin
    // lists and λ values are still live, so each touched net's cost
    // contribution can be subtracted exactly.
    std::vector<ConnectivityTracker*> patching;
    for (auto& [key, entry] : cache_) {
      if (!entry.tracker) continue;
      if (patchable && !entry.tracker_stale) {
        entry.tracker->begin_structural_patch(touched_ids);
        patching.push_back(entry.tracker.get());
        ++out.trackers_patched;
      } else if (!entry.tracker_stale) {
        entry.tracker_stale = true;
        ++out.trackers_staled;
      }
    }
    g_.apply_structural_batch(std::move(rewrites), std::move(appended));
    if (g_.num_edges() > net_removed_.size()) {
      net_removed_.resize(g_.num_edges(), 0);
    }
    for (const EdgeId e : removed_now) {
      // Tombstone: empty pin list (already applied) + weight 0, so the net
      // contributes nothing anywhere while its id stays allocated.
      g_.update_edge_weight(e, 0);
      net_removed_[e] = 1;
    }
    // Phase 2 AFTER the tombstone weights land: a removed net re-enters
    // the totals with λ = 0, i.e. not at all, whatever its weight.
    for (ConnectivityTracker* t : patching) {
      t->finish_structural_patch(touched_ids);
    }
    HP_COUNTER_ADD("server.structural_updates", 1);
    HP_COUNTER_ADD("server.tracker_patches",
                   static_cast<std::int64_t>(out.trackers_patched));
  }

  for (const WeightUpdate& u : edge_updates) {
    g_.update_edge_weight(u.id, u.weight);
    for (auto& [key, entry] : cache_) {
      if (entry.tracker) entry.tracker_stale = true;
    }
  }
  change_units_ +=
      node_updates.size() + edge_updates.size() + structural.size();
  graph_hash_ = g_.content_hash();
  version_.fetch_add(1, std::memory_order_acq_rel);
  out.ok = true;
  out.applied =
      node_updates.size() + edge_updates.size() + structural.size();
  out.structural = structural.size();
  out.version = version();
  for (const auto& [key, entry] : cache_) {
    out.change_fraction = std::max(out.change_fraction, fraction_since(entry));
  }
  HP_COUNTER_ADD("server.updates", 1);
  return out;
}

PartitionOutcome GraphSession::evaluate(
    const SessionConfig& cfg, bool include_parts,
    std::optional<std::uint64_t> expected_version) {
  HP_SPAN("session.evaluate");
  // The shared lock makes the whole read atomic with respect to mutation
  // commits, so version() is stable for the duration of the call and names
  // exactly the snapshot this answer describes.
  std::shared_lock lock(mu_);
  if (expected_version && *expected_version != version()) {
    PartitionOutcome out;
    out.version = version();
    out.error = "version mismatch: expected " +
                std::to_string(*expected_version) + ", current " +
                std::to_string(version());
    return out;
  }
  const CacheKey key = key_of(cfg);
  const auto it = cache_.find(key);
  if (it == cache_.end()) {
    PartitionOutcome out;
    out.version = version();
    out.error = "no cached partition for this config; call partition first";
    return out;
  }
  const Entry& e = it->second;
  PartitionOutcome out;
  out.ok = true;
  out.version = version();
  out.method = "cached";
  out.cache_hit = true;
  out.cost = e.built_hash == graph_hash_
                 ? e.cost
                 : cost_of(g_, e.partition, cfg.metric);
  out.part_weights = e.partition.part_weights(g_);
  out.balanced = balance_for(g_, cfg).satisfied(out.part_weights);
  out.change_fraction = fraction_since(e);
  if (include_parts) {
    out.parts.assign(e.partition.raw().begin(), e.partition.raw().end());
  }
  return out;
}

std::vector<GraphSession::EntryStats> GraphSession::entry_stats() const {
  std::shared_lock lock(mu_);
  std::vector<EntryStats> stats;
  stats.reserve(cache_.size());
  for (const auto& [key, e] : cache_) {
    EntryStats s;
    s.k = key.k;
    std::memcpy(&s.epsilon, &key.eps_bits, sizeof s.epsilon);
    s.metric = key.metric;
    s.seed = key.seed;
    s.cost = e.cost;
    s.method = e.method;
    s.tracker_cached = e.tracker != nullptr;
    s.tracker_stale = e.tracker_stale;
    s.hierarchy_levels = e.hierarchy.levels.size();
    s.current = e.built_hash == graph_hash_;
    stats.push_back(std::move(s));
  }
  return stats;
}

bool GraphSession::verify_cache_integrity(std::string* why) const {
  // Test/fuzz hook; callers guarantee quiescence (no concurrent mutator).
  std::shared_lock lock(mu_);
  for (const auto& [key, e] : cache_) {
    if (!e.tracker || e.tracker_stale) continue;
    std::ostringstream tag;
    tag << "entry(k=" << key.k << ", seed=" << key.seed << "): ";
    if (!e.partition.complete()) {
      if (why) *why = tag.str() + "cached partition incomplete";
      return false;
    }
    const ConnectivityTracker fresh(g_, e.partition);
    for (PartId q = 0; q < fresh.k(); ++q) {
      if (fresh.part_weight(q) != e.tracker->part_weight(q)) {
        if (why) {
          *why = tag.str() + "part " + std::to_string(q) + " weight " +
                 std::to_string(e.tracker->part_weight(q)) + " != rebuilt " +
                 std::to_string(fresh.part_weight(q));
        }
        return false;
      }
    }
    if (fresh.connectivity_cost() != e.tracker->connectivity_cost() ||
        fresh.cut_net_cost() != e.tracker->cut_net_cost()) {
      if (why) *why = tag.str() + "tracker costs diverge from rebuilt";
      return false;
    }
    for (EdgeId edge = 0; edge < g_.num_edges(); ++edge) {
      if (fresh.lambda(edge) != e.tracker->lambda(edge)) {
        if (why) {
          *why = tag.str() + "lambda mismatch at edge " + std::to_string(edge);
        }
        return false;
      }
    }
    if (e.built_hash == graph_hash_) {
      const Weight expect = cost_of(g_, e.partition, key.metric);
      if (e.cost != expect) {
        if (why) {
          *why = tag.str() + "stored cost " + std::to_string(e.cost) +
                 " != recomputed " + std::to_string(expect);
        }
        return false;
      }
    }
  }
  return true;
}

}  // namespace hp::server
