// hyperpartd service tests: the HPF1 frame layer byte-by-byte, the
// GraphSession cache + repartition ladder, reader/mutator concurrency, and
// the daemon end-to-end through the real hyperpartd/hyperpartc binaries
// (exec'd via the shared hp::subprocess helper).

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "hyperpart/algo/multilevel.hpp"
#include "hyperpart/core/balance.hpp"
#include "hyperpart/core/metrics.hpp"
#include "hyperpart/io/generators.hpp"
#include "hyperpart/obs/json.hpp"
#include "hyperpart/obs/telemetry.hpp"
#include "hyperpart/server/protocol.hpp"
#include "hyperpart/server/server.hpp"
#include "hyperpart/server/session.hpp"
#include "hyperpart/stream/binary_format.hpp"
#include "hyperpart/util/subprocess.hpp"

namespace fs = std::filesystem;
namespace json = hp::obs::json;
using namespace hp;
using namespace hp::server;

namespace {

/// A connected AF_UNIX socket pair; fd[0] plays the client, fd[1] the
/// server side. Closed on destruction.
struct Pair {
  int fd[2] = {-1, -1};
  Pair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fd), 0); }
  ~Pair() {
    if (fd[0] >= 0) ::close(fd[0]);
    if (fd[1] >= 0) ::close(fd[1]);
  }
  void close_client() {
    ::close(fd[0]);
    fd[0] = -1;
  }
};

void write_all(int fd, const void* data, std::size_t len) {
  ASSERT_EQ(::write(fd, data, len), static_cast<ssize_t>(len));
}

json::Value req(const std::string& op) {
  json::Object o;
  o.emplace_back("op", op);
  return json::Value(std::move(o));
}

bool ok_of(const std::optional<json::Value>& response) {
  if (!response) return false;
  const json::Value* ok = response->find("ok");
  return ok != nullptr && ok->as_bool();
}

std::string error_of(const std::optional<json::Value>& response) {
  if (!response) return "<no response>";
  const json::Value* e = response->find("error");
  return e == nullptr ? "" : e->as_string();
}

/// Tiny temp-dir RAII for socket + graph files.
struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("hp_srv_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this) & 0xffff));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

std::vector<WeightUpdate> bump_nodes(const Hypergraph& g, NodeId count,
                                     NodeId stride) {
  std::vector<WeightUpdate> updates;
  for (NodeId v = 0; v < g.num_nodes() && updates.size() < count;
       v += stride) {
    updates.push_back({v, g.node_weight(v) + 1});
  }
  return updates;
}

}  // namespace

// --- Frame layer ------------------------------------------------------------

TEST(FrameTest, RoundTripsPayloadBytes) {
  Pair p;
  const std::string payload = "{\"op\":\"stats\"}";
  ASSERT_EQ(write_frame(p.fd[0], payload), FrameError::kNone);
  std::string got;
  ASSERT_EQ(read_frame(p.fd[1], got), FrameError::kNone);
  EXPECT_EQ(got, payload);
}

TEST(FrameTest, RoundTripsEmptyPayload) {
  Pair p;
  ASSERT_EQ(write_frame(p.fd[0], ""), FrameError::kNone);
  std::string got = "stale";
  ASSERT_EQ(read_frame(p.fd[1], got), FrameError::kNone);
  EXPECT_EQ(got, "");
}

TEST(FrameTest, HeaderLayoutIsMagicThenLittleEndianLength) {
  Pair p;
  ASSERT_EQ(write_frame(p.fd[0], "abc"), FrameError::kNone);
  unsigned char header[8];
  ASSERT_EQ(::read(p.fd[1], header, 8), 8);
  EXPECT_EQ(std::memcmp(header, "HPF1", 4), 0);
  EXPECT_EQ(header[4], 3);  // little-endian 3
  EXPECT_EQ(header[5], 0);
  EXPECT_EQ(header[6], 0);
  EXPECT_EQ(header[7], 0);
}

TEST(FrameTest, RejectsBadMagic) {
  Pair p;
  write_all(p.fd[0], "XXXX\x03\x00\x00\x00" "abc", 11);
  std::string got;
  EXPECT_EQ(read_frame(p.fd[1], got), FrameError::kBadMagic);
}

TEST(FrameTest, CleanEofIsClosed) {
  Pair p;
  p.close_client();
  std::string got;
  EXPECT_EQ(read_frame(p.fd[1], got), FrameError::kClosed);
}

TEST(FrameTest, EofInsideHeaderIsTruncated) {
  Pair p;
  write_all(p.fd[0], "HPF1\x10", 5);  // magic + 1 length byte, then EOF
  p.close_client();
  std::string got;
  EXPECT_EQ(read_frame(p.fd[1], got), FrameError::kTruncated);
}

TEST(FrameTest, EofInsideBodyIsTruncated) {
  Pair p;
  write_all(p.fd[0], "HPF1\x64\x00\x00\x00partial", 15);  // claims 100 bytes
  p.close_client();
  std::string got;
  EXPECT_EQ(read_frame(p.fd[1], got), FrameError::kTruncated);
}

TEST(FrameTest, RejectsOversizeLengthBeforeReadingBody) {
  Pair p;
  // Declared length 2^31 with a 1 KiB cap: rejected from the header alone.
  write_all(p.fd[0], "HPF1\x00\x00\x00\x80", 8);
  std::string got;
  EXPECT_EQ(read_frame(p.fd[1], got, 1024), FrameError::kOversize);
}

// --- Session ladder ---------------------------------------------------------

namespace {

SessionConfig small_cfg() {
  SessionConfig cfg;
  cfg.k = 4;
  cfg.epsilon = 0.1;
  cfg.seed = 3;
  return cfg;
}

std::unique_ptr<GraphSession> session_of(NodeId n, std::uint64_t seed) {
  return GraphSession::from_graph(random_hypergraph(n, n, 2, 6, seed),
                                  "test-graph");
}

}  // namespace

TEST(SessionTest, PartitionFullThenCached) {
  auto s = session_of(600, 41);
  const SessionConfig cfg = small_cfg();
  ASSERT_TRUE(s->try_acquire_mutator());
  const auto first = s->partition(cfg);
  EXPECT_TRUE(first.ok);
  EXPECT_EQ(first.method, "full");
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(first.balanced);
  EXPECT_EQ(first.parts.size(), 600u);

  const auto second = s->partition(cfg);
  EXPECT_TRUE(second.ok);
  EXPECT_EQ(second.method, "cached");
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.cost, first.cost);
  EXPECT_EQ(second.parts, first.parts);
  s->release_mutator();
}

TEST(SessionTest, DifferentConfigsGetDistinctCacheEntries) {
  auto s = session_of(400, 42);
  SessionConfig a = small_cfg();
  SessionConfig b = small_cfg();
  b.k = 2;
  ASSERT_TRUE(s->try_acquire_mutator());
  EXPECT_EQ(s->partition(a, false).method, "full");
  EXPECT_EQ(s->partition(b, false).method, "full");
  EXPECT_EQ(s->partition(a, false).method, "cached");
  s->release_mutator();
  EXPECT_EQ(s->entry_stats().size(), 2u);
}

TEST(SessionTest, RepartitionRunsDeltaFmAfterSmallUpdate) {
  auto s = session_of(1000, 43);
  const SessionConfig cfg = small_cfg();
  ASSERT_TRUE(s->try_acquire_mutator());
  ASSERT_TRUE(s->partition(cfg, false).ok);

  // 10 units on n + m = 2000: fraction 0.005, well inside the ΔFM rung.
  const Hypergraph probe = random_hypergraph(1000, 1000, 2, 6, 43);
  const auto updates = bump_nodes(probe, 10, 1);
  const auto up = s->update(updates, {});
  EXPECT_TRUE(up.ok);
  EXPECT_EQ(up.applied, 10u);

  const auto re = s->repartition(cfg);
  EXPECT_TRUE(re.ok);
  EXPECT_EQ(re.method, "delta_fm");
  EXPECT_TRUE(re.cache_hit);
  EXPECT_TRUE(re.balanced);
  s->release_mutator();

  std::string why;
  EXPECT_TRUE(s->verify_cache_integrity(&why)) << why;
}

TEST(SessionTest, RepartitionRunsVcycleAfterMediumUpdate) {
  auto s = session_of(1000, 44);
  const SessionConfig cfg = small_cfg();
  ASSERT_TRUE(s->try_acquire_mutator());
  ASSERT_TRUE(s->partition(cfg, false).ok);

  // 400 units on n + m = 2000: fraction 0.2 — past ΔFM, inside V-cycle.
  const Hypergraph probe = random_hypergraph(1000, 1000, 2, 6, 44);
  const auto updates = bump_nodes(probe, 400, 1);
  ASSERT_TRUE(s->update(updates, {}).ok);

  const auto re = s->repartition(cfg);
  EXPECT_TRUE(re.ok);
  EXPECT_EQ(re.method, "vcycle");
  EXPECT_TRUE(re.balanced);
  s->release_mutator();

  std::string why;
  EXPECT_TRUE(s->verify_cache_integrity(&why)) << why;
}

TEST(SessionTest, RepartitionFallsBackToFullAfterLargeUpdate) {
  auto s = session_of(500, 45);
  const SessionConfig cfg = small_cfg();
  ASSERT_TRUE(s->try_acquire_mutator());
  ASSERT_TRUE(s->partition(cfg, false).ok);

  // 500 node + 200 edge units on n + m = 1000: fraction 0.7 > 0.5.
  const Hypergraph probe = random_hypergraph(500, 500, 2, 6, 45);
  auto node_updates = bump_nodes(probe, 500, 1);
  std::vector<WeightUpdate> edge_updates;
  for (std::uint32_t e = 0; e < 200; ++e) {
    edge_updates.push_back({e, probe.edge_weight(e) + 1});
  }
  ASSERT_TRUE(s->update(node_updates, edge_updates).ok);

  const auto re = s->repartition(cfg);
  EXPECT_TRUE(re.ok);
  EXPECT_EQ(re.method, "full");
  EXPECT_TRUE(re.balanced);
  s->release_mutator();
}

TEST(SessionTest, EdgeWeightUpdateInvalidatesTrackerButDeltaFmRecovers) {
  auto s = session_of(1000, 46);
  const SessionConfig cfg = small_cfg();
  ASSERT_TRUE(s->try_acquire_mutator());
  ASSERT_TRUE(s->partition(cfg, false).ok);

  // A handful of edge-weight changes: trackers go stale (costs and gain
  // caches depend on edge weights) yet the fraction stays in the ΔFM rung,
  // so repartition must rebuild the tracker and still run incrementally.
  const Hypergraph probe = random_hypergraph(1000, 1000, 2, 6, 46);
  std::vector<WeightUpdate> edge_updates;
  for (std::uint32_t e = 0; e < 8; ++e) {
    edge_updates.push_back({e, probe.edge_weight(e) + 2});
  }
  ASSERT_TRUE(s->update({}, edge_updates).ok);

  const auto stats = s->entry_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_TRUE(stats[0].tracker_stale);

  const auto re = s->repartition(cfg);
  EXPECT_TRUE(re.ok);
  EXPECT_EQ(re.method, "delta_fm");
  s->release_mutator();

  std::string why;
  EXPECT_TRUE(s->verify_cache_integrity(&why)) << why;
  // The recomputed cost must account for the new edge weights exactly.
  const auto ev = s->evaluate(cfg);
  EXPECT_TRUE(ev.ok);
  EXPECT_EQ(ev.cost, re.cost);
}

TEST(SessionTest, UpdateValidatesEverythingBeforeApplyingAnything) {
  auto s = session_of(100, 47);
  ASSERT_TRUE(s->try_acquire_mutator());
  const std::uint64_t hash_before = s->graph_hash();

  // Out-of-range node id: rejected atomically (first update is valid).
  std::vector<WeightUpdate> bad_id{{0, 5}, {100, 5}};
  const auto r1 = s->update(bad_id, {});
  EXPECT_FALSE(r1.ok);
  EXPECT_EQ(r1.applied, 0u);
  EXPECT_EQ(s->graph_hash(), hash_before);

  // Negative weight: same story.
  std::vector<WeightUpdate> bad_weight{{0, -1}};
  const auto r2 = s->update(bad_weight, {});
  EXPECT_FALSE(r2.ok);
  EXPECT_EQ(r2.applied, 0u);
  EXPECT_EQ(s->graph_hash(), hash_before);
  s->release_mutator();
}

TEST(SessionTest, EvaluateWithoutPartitionIsAnError) {
  auto s = session_of(100, 48);
  const auto ev = s->evaluate(small_cfg());
  EXPECT_FALSE(ev.ok);
  EXPECT_NE(ev.error.find("partition"), std::string::npos);
}

TEST(SessionTest, EvaluateTracksGraphChanges) {
  auto s = session_of(600, 49);
  const SessionConfig cfg = small_cfg();
  ASSERT_TRUE(s->try_acquire_mutator());
  const auto p = s->partition(cfg, false);
  ASSERT_TRUE(p.ok);

  auto ev = s->evaluate(cfg);
  EXPECT_TRUE(ev.ok);
  EXPECT_EQ(ev.cost, p.cost);
  EXPECT_TRUE(ev.balanced);

  // Edge-weight change: evaluate recomputes against the current graph and
  // the cost moves with the weight.
  std::vector<WeightUpdate> edge_updates{{0, 1000}};
  ASSERT_TRUE(s->update({}, edge_updates).ok);
  s->release_mutator();
  ev = s->evaluate(cfg);
  EXPECT_TRUE(ev.ok);
  EXPECT_GE(ev.cost, p.cost);  // weight 1000 on a (possibly cut) edge
}

// --- Structural deltas ------------------------------------------------------

TEST(SessionTest, StructuralAddNetPatchesTrackerAndDeltaFmRecovers) {
  auto s = session_of(1000, 53);
  const SessionConfig cfg = small_cfg();
  ASSERT_TRUE(s->try_acquire_mutator());
  ASSERT_TRUE(s->partition(cfg, false).ok);
  EXPECT_EQ(s->version(), 0u);

  std::vector<StructuralDelta> deltas(2);
  deltas[0].kind = StructuralDelta::Kind::kAddNet;
  deltas[0].pins = {0, 1, 2};
  deltas[0].weight = 2;
  deltas[1].kind = StructuralDelta::Kind::kAddNet;
  deltas[1].pins = {3, 4};
  const auto up = s->update({}, {}, deltas);
  ASSERT_TRUE(up.ok) << up.error;
  EXPECT_EQ(up.applied, 2u);
  EXPECT_EQ(up.structural, 2u);
  EXPECT_EQ(up.version, 1u);
  EXPECT_EQ(s->num_edges(), 1002u);
  // A 5-pin batch is far below the patch threshold: the cached tracker is
  // repaired per net, never marked stale.
  EXPECT_EQ(up.trackers_patched, 1u);
  EXPECT_EQ(up.trackers_staled, 0u);
  const auto stats = s->entry_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_FALSE(stats[0].tracker_stale);
  std::string why;
  EXPECT_TRUE(s->verify_cache_integrity(&why)) << why;

  const auto re = s->repartition(cfg);
  EXPECT_TRUE(re.ok);
  EXPECT_EQ(re.method, "delta_fm");
  EXPECT_EQ(re.version, 1u);
  EXPECT_TRUE(re.balanced);
  s->release_mutator();
}

TEST(SessionTest, StructuralPinEditsAndTombstonesMatchRebuild) {
  // Known pins so the final state can be rebuilt independently:
  //   net0 {0,1}  net1 {1,2}  net2 {2,3,4}  net3 {4,5}
  auto s = GraphSession::from_graph(
      Hypergraph::from_edges(6, {{0, 1}, {1, 2}, {2, 3, 4}, {4, 5}}), "tiny");
  SessionConfig cfg;
  cfg.k = 2;
  cfg.epsilon = 1.0;
  cfg.seed = 7;
  ASSERT_TRUE(s->try_acquire_mutator());
  const auto first = s->partition(cfg, true);
  ASSERT_TRUE(first.ok) << first.error;

  std::vector<StructuralDelta> deltas(3);
  deltas[0].kind = StructuralDelta::Kind::kRemoveNet;  // tombstone net 0
  deltas[0].net = 0;
  deltas[1].kind = StructuralDelta::Kind::kRemovePins;  // empty net 2
  deltas[1].net = 2;
  deltas[1].pins = {2, 3, 4};
  deltas[2].kind = StructuralDelta::Kind::kAddPins;  // net1 -> {0,1,2,5}
  deltas[2].net = 1;
  deltas[2].pins = {0, 5};
  const auto up = s->update({}, {}, deltas);
  ASSERT_TRUE(up.ok) << up.error;
  EXPECT_EQ(up.applied, 3u);
  EXPECT_TRUE(s->net_removed(0));
  EXPECT_FALSE(s->net_removed(2));  // stripped bare, but still live
  EXPECT_EQ(s->num_edges(), 4u);    // tombstones keep their id

  // The patched CSR must be indistinguishable from a from_edges rebuild of
  // the same final state (tombstone = empty pins + weight 0).
  Hypergraph rebuilt =
      Hypergraph::from_edges(6, {{}, {0, 1, 2, 5}, {}, {4, 5}});
  rebuilt.update_edge_weight(0, 0);
  EXPECT_EQ(s->graph_hash(), rebuilt.content_hash());

  // evaluate answers with exactly the rebuilt graph's cost for the cached
  // partition — the emptied net and the tombstone both contribute zero.
  const auto ev = s->evaluate(cfg);
  ASSERT_TRUE(ev.ok) << ev.error;
  const Partition p(std::vector<PartId>(first.parts.begin(),
                                        first.parts.end()),
                    cfg.k);
  EXPECT_EQ(ev.cost, cost(rebuilt, p, cfg.metric));

  // Every structural verb aimed at a tombstoned net is a validated error.
  const std::uint64_t ver = s->version();
  {
    std::vector<StructuralDelta> again(1);
    again[0].kind = StructuralDelta::Kind::kRemoveNet;
    again[0].net = 0;
    const auto r = s->update({}, {}, again);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("already removed"), std::string::npos) << r.error;
  }
  {
    std::vector<StructuralDelta> add(1);
    add[0].kind = StructuralDelta::Kind::kAddPins;
    add[0].net = 0;
    add[0].pins = {3};
    const auto r = s->update({}, {}, add);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("is removed"), std::string::npos) << r.error;
  }
  {
    std::vector<WeightUpdate> w{{0, 3}};
    const auto r = s->update({}, w);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("is removed"), std::string::npos) << r.error;
  }
  EXPECT_EQ(s->version(), ver);  // rejected updates never bump the version
  s->release_mutator();
}

TEST(SessionTest, InvalidDeltaRollsBackTheWholeBatch) {
  auto s = session_of(400, 54);
  const SessionConfig cfg = small_cfg();
  ASSERT_TRUE(s->try_acquire_mutator());
  ASSERT_TRUE(s->partition(cfg, false).ok);
  const std::uint64_t hash0 = s->graph_hash();
  const std::uint64_t ver0 = s->version();
  const EdgeId m0 = s->num_edges();

  // Two valid deltas followed by one invalid (net 0 is removed earlier in
  // the same batch): the whole frame must be rejected before any mutation.
  std::vector<StructuralDelta> deltas(3);
  deltas[0].kind = StructuralDelta::Kind::kAddNet;
  deltas[0].pins = {0, 1};
  deltas[1].kind = StructuralDelta::Kind::kRemoveNet;
  deltas[1].net = 0;
  deltas[2].kind = StructuralDelta::Kind::kRemoveNet;
  deltas[2].net = 0;
  const auto up = s->update({}, {}, deltas);
  EXPECT_FALSE(up.ok);
  EXPECT_EQ(up.applied, 0u);
  EXPECT_NE(up.error.find("already removed"), std::string::npos) << up.error;

  EXPECT_EQ(s->graph_hash(), hash0);
  EXPECT_EQ(s->version(), ver0);
  EXPECT_EQ(s->num_edges(), m0);
  EXPECT_FALSE(s->net_removed(0));
  const auto stats = s->entry_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_FALSE(stats[0].tracker_stale);
  std::string why;
  EXPECT_TRUE(s->verify_cache_integrity(&why)) << why;
  // The cache entry is still a clean hit for the unchanged graph.
  EXPECT_EQ(s->partition(cfg, false).method, "cached");
  s->release_mutator();
}

TEST(SessionTest, OversizeStructuralBatchMarksTrackersStale) {
  auto s = session_of(300, 55);
  const SessionConfig cfg = small_cfg();
  ASSERT_TRUE(s->try_acquire_mutator());
  ASSERT_TRUE(s->partition(cfg, false).ok);

  // Tombstone a third of all nets: the touched pin volume blows through
  // kStructuralPatchMaxFraction, so the tracker falls back to staleness
  // instead of per-net patching.
  std::vector<StructuralDelta> deltas(100);
  for (EdgeId e = 0; e < 100; ++e) {
    deltas[e].kind = StructuralDelta::Kind::kRemoveNet;
    deltas[e].net = e;
  }
  const auto up = s->update({}, {}, deltas);
  ASSERT_TRUE(up.ok) << up.error;
  EXPECT_EQ(up.trackers_patched, 0u);
  EXPECT_EQ(up.trackers_staled, 1u);
  const auto stats = s->entry_stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_TRUE(stats[0].tracker_stale);

  // Repartition rebuilds from the cached partition and recovers.
  const auto re = s->repartition(cfg);
  EXPECT_TRUE(re.ok) << re.error;
  EXPECT_TRUE(re.balanced);
  s->release_mutator();
  std::string why;
  EXPECT_TRUE(s->verify_cache_integrity(&why)) << why;
}

TEST(SessionTest, EvaluatePinsASnapshotVersion) {
  auto s = session_of(300, 56);
  const SessionConfig cfg = small_cfg();
  ASSERT_TRUE(s->try_acquire_mutator());
  ASSERT_TRUE(s->partition(cfg, false).ok);

  const auto at0 = s->evaluate(cfg, false, 0);
  EXPECT_TRUE(at0.ok) << at0.error;
  EXPECT_EQ(at0.version, 0u);

  std::vector<WeightUpdate> w{{0, 5}};
  ASSERT_TRUE(s->update(w, {}).ok);
  s->release_mutator();

  const auto outdated = s->evaluate(cfg, false, 0);
  EXPECT_FALSE(outdated.ok);
  EXPECT_NE(outdated.error.find("version mismatch"), std::string::npos)
      << outdated.error;
  EXPECT_EQ(outdated.version, 1u);

  const auto current = s->evaluate(cfg, false, 1);
  EXPECT_TRUE(current.ok) << current.error;
  EXPECT_EQ(current.version, 1u);
}

TEST(SessionTest, HierarchyReuseIsBitIdenticalToFreshRun) {
  const Hypergraph g = random_hypergraph(2000, 2000, 2, 6, 50);
  const auto balance = BalanceConstraint::for_graph(g, 4, 0.1, true);
  MultilevelConfig cfg;
  cfg.seed = 9;

  MultilevelHierarchy hier;
  const auto fresh = multilevel_partition_cached(g, balance, cfg, &hier);
  ASSERT_TRUE(fresh.has_value());
  ASSERT_FALSE(hier.empty());

  // Same graph, same config, cached hierarchy: the rng replay must make
  // the reused run indistinguishable from the fresh one.
  const auto reused = multilevel_partition_cached(g, balance, cfg, &hier);
  ASSERT_TRUE(reused.has_value());
  const auto a = fresh->raw();
  const auto b = reused->raw();
  EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
}

// --- Concurrency ------------------------------------------------------------

TEST(ConcurrencyTest, SecondMutatorIsRejectedNotQueued) {
  auto s = session_of(100, 51);
  EXPECT_TRUE(s->try_acquire_mutator());
  EXPECT_FALSE(s->try_acquire_mutator());
  s->release_mutator();
  EXPECT_TRUE(s->try_acquire_mutator());
  s->release_mutator();
}

TEST(ConcurrencyTest, ParallelEvaluateDuringRepartition) {
  auto s = session_of(20000, 52);
  const SessionConfig cfg = small_cfg();
  ASSERT_TRUE(s->try_acquire_mutator());
  ASSERT_TRUE(s->partition(cfg, false).ok);

  // Push the session into the V-cycle rung so the mutation below takes long
  // enough for the readers to genuinely overlap it.
  const Hypergraph probe = random_hypergraph(20000, 20000, 2, 6, 52);
  ASSERT_TRUE(s->update(bump_nodes(probe, 4000, 1), {}).ok);

  std::atomic<bool> mutating{true};
  std::atomic<int> reader_failures{0};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (mutating.load(std::memory_order_acquire)) {
        const auto ev = s->evaluate(cfg);
        if (!ev.ok || ev.part_weights.size() != 4) {
          reader_failures.fetch_add(1);
        }
        reads.fetch_add(1);
        const auto stats = s->entry_stats();
        if (stats.size() != 1) reader_failures.fetch_add(1);
      }
    });
  }

  const auto re = s->repartition(cfg, false);
  mutating.store(false, std::memory_order_release);
  for (auto& r : readers) r.join();
  s->release_mutator();

  EXPECT_TRUE(re.ok);
  EXPECT_EQ(reader_failures.load(), 0);
  EXPECT_GT(reads.load(), 0u);
}

// --- Server over real sockets -----------------------------------------------

namespace {

struct RunningServer {
  TempDir dir;
  std::unique_ptr<Server> server;
  std::string sock;

  explicit RunningServer(int tcp_port = -1) {
    sock = (dir.path / "d.sock").string();
    ServerConfig cfg;
    cfg.unix_socket = sock;
    cfg.tcp_port = tcp_port;
    server = std::make_unique<Server>(std::move(cfg));
    server->start();
  }
  ~RunningServer() {
    server->shutdown();
    server->wait();
  }

  std::string write_graph() {
    const Hypergraph g = random_hypergraph(300, 300, 2, 6, 77);
    const fs::path p = dir.path / "g.hpb";
    stream::write_binary_file(p.string(), g);
    return p.string();
  }
};

}  // namespace

TEST(ServerTest, LoadPartitionUpdateRepartitionOverSocket) {
  RunningServer rs;
  const std::string graph_path = rs.write_graph();
  const int fd = connect_unix(rs.sock);
  ASSERT_GE(fd, 0);

  json::Value load = req("load");
  load.set("path", json::Value(graph_path));
  const auto loaded = rpc(fd, load);
  ASSERT_TRUE(ok_of(loaded)) << error_of(loaded);
  const std::string graph = loaded->find("graph")->as_string();
  EXPECT_EQ(loaded->find("nodes")->as_int(), 300);

  json::Value part = req("partition");
  part.set("graph", json::Value(graph));
  part.set("k", json::Value(std::int64_t{4}));
  part.set("epsilon", json::Value(0.1));
  part.set("include_parts", json::Value(true));  // off by default on the wire
  const auto first = rpc(fd, part);
  ASSERT_TRUE(ok_of(first)) << error_of(first);
  EXPECT_EQ(first->find("method")->as_string(), "full");
  ASSERT_NE(first->find("parts"), nullptr);
  EXPECT_EQ(first->find("parts")->as_array().size(), 300u);

  json::Value update = req("update");
  update.set("graph", json::Value(graph));
  json::Array nw;
  for (std::int64_t v = 0; v < 3; ++v) {
    json::Array pair_v;
    pair_v.push_back(json::Value(v));
    pair_v.push_back(json::Value(std::int64_t{5}));
    nw.push_back(json::Value(std::move(pair_v)));
  }
  update.set("node_weights", json::Value(std::move(nw)));
  const auto updated = rpc(fd, update);
  ASSERT_TRUE(ok_of(updated)) << error_of(updated);
  EXPECT_EQ(updated->find("applied")->as_int(), 3);

  json::Value repart = req("repartition");
  repart.set("graph", json::Value(graph));
  repart.set("k", json::Value(std::int64_t{4}));
  repart.set("epsilon", json::Value(0.1));
  repart.set("include_parts", json::Value(false));
  const auto re = rpc(fd, repart);
  ASSERT_TRUE(ok_of(re)) << error_of(re);
  EXPECT_EQ(re->find("method")->as_string(), "delta_fm");
  EXPECT_TRUE(re->find("cache_hit")->as_bool());

  const auto stats = rpc(fd, req("stats"));
  ASSERT_TRUE(ok_of(stats)) << error_of(stats);
  EXPECT_GE(stats->find("requests_served")->as_int(), 5);
  ::close(fd);
}

TEST(ServerTest, StatsListsEveryServerCounter) {
  // The stats op reports the registry's server.* counters, so one that no
  // request of this test triggers — the repartition quality guard — shows
  // up once it has been recorded, and no other subsystem's counter does.
  obs::counter_add("server.repartition.quality_fallbacks", 1);
  obs::counter_add("multilevel.runs", 1);
  RunningServer rs;
  const int fd = connect_unix(rs.sock);
  ASSERT_GE(fd, 0);
  const auto stats = rpc(fd, req("stats"));
  ::close(fd);
  ASSERT_TRUE(ok_of(stats)) << error_of(stats);
  const json::Value* counters = stats->find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_TRUE(counters->is_object());
  const json::Value* fallbacks =
      counters->find("server.repartition.quality_fallbacks");
  ASSERT_NE(fallbacks, nullptr);
  EXPECT_GE(fallbacks->as_int(), 1);
  for (const auto& [name, value] : counters->as_object()) {
    EXPECT_TRUE(name.starts_with("server.")) << name;
  }
}

/// Entries in this process's memory map. A thread stack that is never
/// released keeps at least one.
std::size_t map_entries() {
  std::ifstream maps("/proc/self/maps");
  std::size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

TEST(ServerTest, ExitedConnectionThreadsReleaseTheirStacks) {
  // Every connection runs on its own thread. A thread that has exited but
  // is joined only at shutdown keeps its stack mapped, so 300 short
  // connections would add at least 300 map entries.
  RunningServer rs;
  const auto cycle = [&] {
    const int fd = connect_unix(rs.sock);
    ASSERT_GE(fd, 0);
    EXPECT_TRUE(ok_of(rpc(fd, req("stats"))));
    ::close(fd);
  };
  for (int i = 0; i < 20; ++i) cycle();  // warm up allocator arenas
  const std::size_t before = map_entries();
  for (int i = 0; i < 300; ++i) cycle();
  EXPECT_LT(map_entries(), before + 100);
}

TEST(ServerTest, StructuralUpdateAndVersionPinningOverSocket) {
  RunningServer rs;
  const std::string graph_path = rs.write_graph();
  const int fd = connect_unix(rs.sock);
  ASSERT_GE(fd, 0);

  json::Value load = req("load");
  load.set("path", json::Value(graph_path));
  const auto loaded = rpc(fd, load);
  ASSERT_TRUE(ok_of(loaded)) << error_of(loaded);
  const std::string graph = loaded->find("graph")->as_string();
  ASSERT_NE(loaded->find("version"), nullptr);
  EXPECT_EQ(loaded->find("version")->as_int(), 0);

  json::Value part = req("partition");
  part.set("graph", json::Value(graph));
  part.set("k", json::Value(std::int64_t{4}));
  part.set("epsilon", json::Value(0.1));
  const auto first = rpc(fd, part);
  ASSERT_TRUE(ok_of(first)) << error_of(first);
  EXPECT_EQ(first->find("version")->as_int(), 0);

  // One batched frame carrying several structural deltas: tombstone two
  // nets and append two new ones.
  json::Value update = req("update");
  update.set("graph", json::Value(graph));
  json::Array removes;
  removes.push_back(json::Value(std::int64_t{5}));
  removes.push_back(json::Value(std::int64_t{6}));
  update.set("remove_nets", json::Value(std::move(removes)));
  json::Array adds;
  {
    json::Value net0;
    json::Array pins;
    pins.push_back(json::Value(std::int64_t{0}));
    pins.push_back(json::Value(std::int64_t{1}));
    pins.push_back(json::Value(std::int64_t{2}));
    net0.set("pins", json::Value(std::move(pins)));
    net0.set("weight", json::Value(std::int64_t{2}));
    adds.push_back(std::move(net0));
    json::Value net1;
    json::Array pins1;
    pins1.push_back(json::Value(std::int64_t{3}));
    pins1.push_back(json::Value(std::int64_t{4}));
    net1.set("pins", json::Value(std::move(pins1)));
    adds.push_back(std::move(net1));
  }
  update.set("add_nets", json::Value(std::move(adds)));
  const auto updated = rpc(fd, update);
  ASSERT_TRUE(ok_of(updated)) << error_of(updated);
  EXPECT_EQ(updated->find("applied")->as_int(), 4);
  EXPECT_EQ(updated->find("structural")->as_int(), 4);
  EXPECT_EQ(updated->find("version")->as_int(), 1);
  EXPECT_EQ(updated->find("edges")->as_int(), 302);
  EXPECT_EQ(updated->find("trackers_patched")->as_int(), 1);
  EXPECT_EQ(updated->find("trackers_staled")->as_int(), 0);

  // Pinned evaluate: the stale version is refused with the current one
  // echoed; the current version answers.
  json::Value eval = req("evaluate");
  eval.set("graph", json::Value(graph));
  eval.set("k", json::Value(std::int64_t{4}));
  eval.set("epsilon", json::Value(0.1));
  eval.set("version", json::Value(std::int64_t{0}));
  const auto stale = rpc(fd, eval);
  ASSERT_TRUE(stale.has_value());
  EXPECT_FALSE(ok_of(stale));
  EXPECT_NE(error_of(stale).find("version mismatch"), std::string::npos);
  EXPECT_EQ(stale->find("version")->as_int(), 1);
  eval.set("version", json::Value(std::int64_t{1}));
  const auto pinned = rpc(fd, eval);
  ASSERT_TRUE(ok_of(pinned)) << error_of(pinned);

  // A batch with one invalid delta (net 5 is already tombstoned) is
  // rejected whole: the next update still sees version 1.
  json::Value bad = req("update");
  bad.set("graph", json::Value(graph));
  json::Array bad_removes;
  bad_removes.push_back(json::Value(std::int64_t{7}));
  bad_removes.push_back(json::Value(std::int64_t{5}));
  bad.set("remove_nets", json::Value(std::move(bad_removes)));
  const auto rejected = rpc(fd, bad);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_FALSE(ok_of(rejected));
  EXPECT_NE(error_of(rejected).find("already removed"), std::string::npos);
  EXPECT_EQ(rejected->find("version")->as_int(), 1);

  json::Value repart = req("repartition");
  repart.set("graph", json::Value(graph));
  repart.set("k", json::Value(std::int64_t{4}));
  repart.set("epsilon", json::Value(0.1));
  const auto re = rpc(fd, repart);
  ASSERT_TRUE(ok_of(re)) << error_of(re);
  EXPECT_EQ(re->find("method")->as_string(), "delta_fm");
  EXPECT_EQ(re->find("version")->as_int(), 1);
  ::close(fd);
}

TEST(ServerTest, RefusesToStartWhenSocketPathIsNotASocket) {
  TempDir dir;
  const fs::path path = dir.path / "not_a.sock";
  {
    std::ofstream f(path);
    f << "precious data\n";
  }
  ServerConfig cfg;
  cfg.unix_socket = path.string();
  Server server(std::move(cfg));
  EXPECT_THROW(server.start(), SocketPathError);
  // The refusal must not have deleted the file.
  ASSERT_TRUE(fs::exists(path));
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "precious data");
}

TEST(ServerTest, StaleSocketFileIsReplacedOnStart) {
  // The flip side: a leftover *socket* file from a crashed daemon is still
  // cleaned up and rebound, as before.
  TempDir dir;
  const std::string path = (dir.path / "stale.sock").string();
  {
    ServerConfig cfg;
    cfg.unix_socket = path;
    Server first(std::move(cfg));
    first.start();
    first.shutdown();
    first.wait();
  }
  // Recreate a dead socket file (shutdown unlinks; bind a raw one).
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
            0);
  ::close(fd);
  ASSERT_TRUE(fs::exists(path));

  ServerConfig cfg;
  cfg.unix_socket = path;
  Server second(std::move(cfg));
  second.start();  // must not throw
  EXPECT_TRUE(second.running());
  second.shutdown();
  second.wait();
}

TEST(ServerTest, UnknownGraphAndUnknownOpAreCleanErrors) {
  RunningServer rs;
  const int fd = connect_unix(rs.sock);
  ASSERT_GE(fd, 0);

  json::Value part = req("partition");
  part.set("graph", json::Value(std::string("never-loaded")));
  part.set("k", json::Value(std::int64_t{2}));
  const auto r1 = rpc(fd, part);
  ASSERT_TRUE(r1.has_value());
  EXPECT_FALSE(ok_of(r1));
  EXPECT_NE(error_of(r1).find("unknown graph"), std::string::npos);

  const auto r2 = rpc(fd, req("frobnicate"));
  ASSERT_TRUE(r2.has_value());
  EXPECT_FALSE(ok_of(r2));

  // Invalid JSON payload inside a valid frame.
  ASSERT_EQ(write_frame(fd, "{not json"), FrameError::kNone);
  std::string payload;
  ASSERT_EQ(read_frame(fd, payload), FrameError::kNone);
  const auto r3 = json::parse(payload);
  EXPECT_FALSE(ok_of(r3));
  ::close(fd);
}

TEST(ServerTest, MalformedFrameGetsOneErrorResponseThenHangup) {
  RunningServer rs;
  const int fd = connect_unix(rs.sock);
  ASSERT_GE(fd, 0);
  write_all(fd, "GET / HTTP/1.1\r\n\r\n", 18);

  std::string payload;
  ASSERT_EQ(read_frame(fd, payload), FrameError::kNone);
  const auto response = json::parse(payload);
  EXPECT_FALSE(ok_of(response));
  EXPECT_NE(error_of(response).find("malformed frame"), std::string::npos);

  // The server hangs up after a framing error. It closed with part of the
  // junk request still unread, and Linux reports that as ECONNRESET on
  // AF_UNIX — so the next read sees either clean EOF or a reset, never a
  // valid frame.
  const FrameError after = read_frame(fd, payload);
  EXPECT_TRUE(after == FrameError::kClosed || after == FrameError::kIo)
      << frame_error_name(after);
  ::close(fd);
}

TEST(ServerTest, TruncatedFrameAfterValidRequestIsTolerated) {
  RunningServer rs;
  const int fd = connect_unix(rs.sock);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(ok_of(rpc(fd, req("stats"))));
  // Half a header, then hang up: the server must just drop the connection
  // (and keep serving others).
  write_all(fd, "HPF1\x40", 5);
  ::close(fd);

  const int fd2 = connect_unix(rs.sock);
  ASSERT_GE(fd2, 0);
  EXPECT_TRUE(ok_of(rpc(fd2, req("stats"))));
  ::close(fd2);
}

TEST(ServerTest, TcpLoopbackServesTheSameProtocol) {
  RunningServer rs(/*tcp_port=*/0);
  ASSERT_GT(rs.server->tcp_port(), 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(rs.server->tcp_port()));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  EXPECT_TRUE(ok_of(rpc(fd, req("stats"))));
  ::close(fd);
}

TEST(ServerTest, ShutdownOpDrainsInFlightAndStopsServing) {
  auto rs = std::make_unique<RunningServer>();
  const std::string sock = rs->sock;
  const int fd = connect_unix(sock);
  ASSERT_GE(fd, 0);
  const int idle_fd = connect_unix(sock);
  ASSERT_GE(idle_fd, 0);

  const auto ack = rpc(fd, req("shutdown"));
  EXPECT_TRUE(ok_of(ack)) << error_of(ack);

  // wait() must return: the idle connection is nudged, the accept loops
  // woken. A hang here fails via the test timeout.
  rs->server->wait();
  EXPECT_FALSE(rs->server->running());

  // The idle client observes the hangup rather than a stuck read.
  std::string payload;
  EXPECT_NE(read_frame(idle_fd, payload), FrameError::kNone);
  ::close(fd);
  ::close(idle_fd);
  rs.reset();
  EXPECT_LT(connect_unix(sock), 0);  // socket file unlinked
}

TEST(ServerTest, BusyRejectionWhenMutationOverlaps) {
  RunningServer rs;
  // Large enough that the partition holds the mutator slot for a while.
  const Hypergraph g = random_hypergraph(60000, 60000, 2, 8, 88);
  const fs::path p = rs.dir.path / "big.hpb";
  stream::write_binary_file(p.string(), g);

  const int a = connect_unix(rs.sock);
  const int b = connect_unix(rs.sock);
  ASSERT_GE(a, 0);
  ASSERT_GE(b, 0);
  json::Value load = req("load");
  load.set("path", json::Value(p.string()));
  const auto loaded = rpc(a, load);
  ASSERT_TRUE(ok_of(loaded)) << error_of(loaded);
  const std::string graph = loaded->find("graph")->as_string();

  json::Value part = req("partition");
  part.set("graph", json::Value(graph));
  part.set("k", json::Value(std::int64_t{4}));
  part.set("include_parts", json::Value(false));

  // Fire the slow partition on connection a, then race the same mutation
  // from connection b while a is still coarsening.
  ASSERT_EQ(write_frame(a, json::dump(part)), FrameError::kNone);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const auto rb = rpc(b, part);
  ASSERT_TRUE(rb.has_value());
  EXPECT_FALSE(ok_of(rb));
  EXPECT_NE(error_of(rb).find("busy"), std::string::npos);

  std::string payload;
  ASSERT_EQ(read_frame(a, payload), FrameError::kNone);
  EXPECT_TRUE(ok_of(json::parse(payload)));
  ::close(a);
  ::close(b);
}

// --- Daemon end-to-end (exec through hp::subprocess) ------------------------

namespace {

/// Read the daemon's stdout until the "ready" line (or a deadline).
bool await_ready(hp::subprocess::Child& daemon, std::string& collected) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  char buf[256];
  while (std::chrono::steady_clock::now() < deadline) {
    const ssize_t n = ::read(daemon.stdout_fd(), buf, sizeof(buf));
    if (n > 0) {
      collected.append(buf, static_cast<std::size_t>(n));
      if (collected.find("ready\n") != std::string::npos) return true;
      continue;
    }
    if (n == 0) return false;  // daemon exited
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

}  // namespace

TEST(DaemonE2eTest, FullClientSessionAgainstExecdDaemon) {
  TempDir dir;
  const std::string sock = (dir.path / "e2e.sock").string();
  {
    const Hypergraph g = random_hypergraph(400, 400, 2, 6, 99);
    stream::write_binary_file((dir.path / "g.hpb").string(), g);
  }

  hp::subprocess::SpawnOptions opts;
  opts.capture_stdout = true;
  auto daemon =
      hp::subprocess::spawn(HYPERPARTD_BIN, {"--socket", sock}, opts);
  ASSERT_TRUE(daemon.has_value() && daemon->valid());
  // Make the captured-stdout pipe non-blocking for the incremental reads.
  std::string banner;
  ASSERT_TRUE(daemon->read_stdout(banner, 0.0) || true);
  ASSERT_TRUE(await_ready(*daemon, banner)) << banner;

  const auto client = [&](const std::vector<std::string>& args) {
    std::vector<std::string> full{"--socket", sock};
    full.insert(full.end(), args.begin(), args.end());
    return hp::subprocess::run_capture(HYPERPARTC_BIN, full, 60.0);
  };

  const auto loaded =
      client({"load", "--path", (dir.path / "g.hpb").string()});
  ASSERT_TRUE(loaded.has_value());
  EXPECT_NE(loaded->find("\"ok\": true"), std::string::npos);

  const std::string graph = (dir.path / "g.hpb").string();
  const auto part =
      client({"partition", "--graph", graph, "--k", "4", "--eps", "0.1"});
  ASSERT_TRUE(part.has_value());
  EXPECT_NE(part->find("\"method\": \"full\""), std::string::npos);

  const auto update =
      client({"update", "--graph", graph, "--node-weight", "0=4",
              "--node-weight", "1=4"});
  ASSERT_TRUE(update.has_value());
  EXPECT_NE(update->find("\"applied\": 2"), std::string::npos);

  const auto repart =
      client({"repartition", "--graph", graph, "--k", "4", "--eps", "0.1"});
  ASSERT_TRUE(repart.has_value());
  EXPECT_NE(repart->find("\"method\": \"delta_fm\""), std::string::npos);

  // Structural verbs: one batched frame appending a weighted net and
  // tombstoning another; the response carries the bumped version.
  const auto churned =
      client({"update", "--graph", graph, "--add-net", "0,1,2@2",
              "--remove-net", "5"});
  ASSERT_TRUE(churned.has_value());
  EXPECT_NE(churned->find("\"structural\": 2"), std::string::npos) << *churned;
  EXPECT_NE(churned->find("\"version\": 2"), std::string::npos) << *churned;

  const auto evaluated =
      client({"evaluate", "--graph", graph, "--k", "4", "--eps", "0.1"});
  ASSERT_TRUE(evaluated.has_value());
  EXPECT_NE(evaluated->find("\"balanced\": true"), std::string::npos);

  // Snapshot pinning through the client: the pre-churn version is refused
  // (client exit 1, run via spawn because run_capture hides failing runs),
  // the current one answers.
  {
    hp::subprocess::SpawnOptions copts;
    copts.capture_stdout = true;
    auto stale = hp::subprocess::spawn(
        HYPERPARTC_BIN,
        {"--socket", sock, "evaluate", "--graph", graph, "--k", "4", "--eps",
         "0.1", "--version", "1"},
        copts);
    ASSERT_TRUE(stale.has_value());
    std::string out;
    ASSERT_TRUE(stale->read_stdout(out, 60.0));
    const auto st = stale->wait(60.0);
    EXPECT_EQ(st.exit_code, 1);
    EXPECT_NE(out.find("version mismatch"), std::string::npos) << out;
  }
  const auto pinned = client({"evaluate", "--graph", graph, "--k", "4",
                              "--eps", "0.1", "--version", "2"});
  ASSERT_TRUE(pinned.has_value());
  EXPECT_NE(pinned->find("\"ok\": true"), std::string::npos) << *pinned;

  const auto stats = client({"stats"});
  ASSERT_TRUE(stats.has_value());
  EXPECT_NE(stats->find("\"sessions\""), std::string::npos);

  const auto bye = client({"shutdown"});
  ASSERT_TRUE(bye.has_value());

  const auto status = daemon->wait(30.0);
  EXPECT_TRUE(status.ok()) << "exit=" << status.exit_code
                           << " signal=" << status.term_signal
                           << " timed_out=" << status.timed_out;
}

TEST(DaemonE2eTest, NonSocketFileAtSocketPathExitsTwo) {
  // Satellite regression: a mistyped --socket pointing at a real file must
  // never delete it — the daemon prints one error line and exits 2.
  TempDir dir;
  const fs::path path = dir.path / "oops.sock";
  {
    std::ofstream f(path);
    f << "not a socket\n";
  }
  hp::subprocess::SpawnOptions opts;
  opts.stdout_to_file = (dir.path / "daemon.log").string();  // + stderr
  auto daemon = hp::subprocess::spawn(HYPERPARTD_BIN,
                                      {"--socket", path.string()}, opts);
  ASSERT_TRUE(daemon.has_value() && daemon->valid());
  const auto status = daemon->wait(30.0);
  EXPECT_FALSE(status.timed_out);
  EXPECT_EQ(status.exit_code, 2);
  std::ifstream log(dir.path / "daemon.log");
  std::string collected((std::istreambuf_iterator<char>(log)),
                        std::istreambuf_iterator<char>());
  EXPECT_NE(collected.find("error:"), std::string::npos) << collected;
  EXPECT_NE(collected.find("not a socket"), std::string::npos) << collected;
  // The file survived, contents intact.
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "not a socket");
}

TEST(DaemonE2eTest, SigtermStopsTheDaemonGracefully) {
  TempDir dir;
  const std::string sock = (dir.path / "sig.sock").string();
  hp::subprocess::SpawnOptions opts;
  opts.capture_stdout = true;
  auto daemon =
      hp::subprocess::spawn(HYPERPARTD_BIN, {"--socket", sock}, opts);
  ASSERT_TRUE(daemon.has_value() && daemon->valid());
  std::string out;
  ASSERT_TRUE(await_ready(*daemon, out)) << out;

  daemon->kill_group(SIGTERM);
  const auto status = daemon->wait(30.0);
  EXPECT_TRUE(status.ok()) << "exit=" << status.exit_code
                           << " signal=" << status.term_signal;
}

TEST(CliStreamTest, StreamAlgoOnTextInputFailsAsUsageError) {
  // Satellite regression: --algo stream on a non-HPBH input must be a
  // one-line usage error (exit 2), not a crash deep in the mmap reader.
  const auto status = hp::subprocess::run(
      HYPERPART_CLI_BIN, {"definitely_missing.hgr", "--algo", "stream"}, {},
      30.0);
  EXPECT_FALSE(status.timed_out);
  EXPECT_EQ(status.term_signal, 0);
  EXPECT_EQ(status.exit_code, 2);
}
