// svc-churn: the real hyperpartd, started as a child process, serves
// spmv:rmat (n≈200k) loaded from HPBH. Two clients drive it:
//
//   writer  closed loop — one update frame (one seeded structural delta of
//           each kind, plus the node-weight drift those deltas imply), then
//           repartition, then an evaluate pinned to the version the update
//           produced;
//   reader  open loop — evaluate at kReaderHz, each timed from when it was
//           due, so a stall also charges the requests queued behind it.
//           Before the writer starts, kIdleReads back-to-back evaluates on
//           the idle daemon give the uncontended read latency.
//
// perfbench/README.md derives the update size and the reader rate.
//
// The benchmark mirrors every update in its own copy of the graph; at the
// end the daemon's graph hash and final partition are checked against an
// independent from_edges rebuild of that mirror. The traced run replays the
// writer's exact op sequence on an in-process GraphSession::from_graph to
// split each request into session time and server+protocol overhead.

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <mutex>
#include <thread>

#include "hyperpart/core/connectivity_tracker.hpp"
#include "hyperpart/server/protocol.hpp"
#include "hyperpart/server/session.hpp"
#include "hyperpart/stream/binary_format.hpp"
#include "hyperpart/util/rng.hpp"
#include "hyperpart/util/subprocess.hpp"
#include "hyperpart/workload/workload.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace json = hp::obs::json;
using hp::server::StructuralDelta;
using hp::server::WeightUpdate;

namespace {

constexpr hp::NodeId kSvcNodes = 200000;
/// About one read per one to two writer cycles (30–70 ms at n=200k), under
/// 2% of one daemon core for idle reads of 0.25–0.8 ms, and over a 20 s
/// run 400 samples, a tail at p97.5.
constexpr double kReaderHz = 20.0;
/// Back-to-back evaluates on the idle daemon before the writer starts.
constexpr int kIdleReads = 100;
/// Daemons started per run; setup_s and partition_s are medians over them.
constexpr int kSvcSetupReps = 3;
constexpr std::uint64_t kPartitionSeed = 1;
constexpr double kDaemonStartSeconds = 30.0;
constexpr double kDaemonStopSeconds = 20.0;

}  // namespace

// --- Daemon child process ---------------------------------------------------

class Daemon {
 public:
  Daemon(const Options& opt, const std::string& socket) : socket_(socket) {
    hp::subprocess::SpawnOptions so;
    so.capture_stdout = true;
    auto child = hp::subprocess::spawn(
        opt.daemon,
        {"--socket", socket, "--threads", std::to_string(opt.threads)}, so);
    if (!child) throw std::runtime_error("cannot spawn " + opt.daemon);
    child_ = std::move(*child);
    // The pid file lets run.py reap the daemon if this process dies.
    std::ofstream(opt.workdir + "/daemon.pid") << child_.pid() << "\n";
    if (!wait_ready()) {
      // The destructor does not run for a throwing constructor.
      child_.kill_group(SIGKILL);
      (void)child_.wait();
      throw std::runtime_error("hyperpartd did not become ready: " + banner_);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (child_.valid() && !stopped_) {
      child_.kill_group(SIGKILL);
      (void)child_.wait();
    }
  }

  [[nodiscard]] pid_t pid() const noexcept { return child_.pid(); }

  /// A new client connection; -1 on failure.
  [[nodiscard]] int connect() const {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      return -1;
    }
    return fd;
  }

  /// Send shutdown on `fd` and wait for the daemon to exit (killed when it
  /// outlives kDaemonStopSeconds). True on a clean exit.
  bool stop(int fd) {
    json::Value req{json::Object{}};
    req.set("op", "shutdown");
    (void)hp::server::write_frame(fd, json::dump(req));
    std::string ignored;
    (void)child_.read_stdout(ignored, kDaemonStopSeconds);
    const auto st = child_.wait(kDaemonStopSeconds);
    stopped_ = true;
    return st.ok();
  }

 private:
  bool wait_ready() {
    const double deadline = now_s() + kDaemonStartSeconds;
    char buf[256];
    while (banner_.find("ready\n") == std::string::npos) {
      const double left = deadline - now_s();
      if (left <= 0) return false;
      pollfd pfd{child_.stdout_fd(), POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left * 1000) + 1) <= 0) continue;
      const ssize_t got = ::read(child_.stdout_fd(), buf, sizeof buf);
      if (got <= 0) return false;
      banner_.append(buf, static_cast<std::size_t>(got));
    }
    return true;
  }

  std::string socket_;
  hp::subprocess::Child child_;
  std::string banner_;
  bool stopped_ = false;
};

namespace {

std::optional<json::Value> rpc(int fd, const json::Value& request) {
  if (hp::server::write_frame(fd, json::dump(request)) !=
      hp::server::FrameError::kNone) {
    return std::nullopt;
  }
  std::string payload;
  if (hp::server::read_frame(fd, payload) != hp::server::FrameError::kNone) {
    return std::nullopt;
  }
  try {
    return json::parse(payload);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::int64_t int_of(const json::Value& v, const char* key) {
  const json::Value* f = v.find(key);
  return f && f->is_number() ? f->as_int() : -1;
}

// --- Writer op sequence -----------------------------------------------------

/// One writer update, in the daemon's structural application order
/// (remove_nets, remove_pins, add_pins, add_nets) so an in-process replay
/// applies exactly what the daemon applied.
struct Cycle {
  std::vector<WeightUpdate> nodes;
  std::vector<StructuralDelta> structural;
};

/// A random live net satisfying `ok`, distinct from `taken`.
hp::EdgeId pick_net(const Mirror& m, hp::Rng& rng,
                    const std::vector<hp::EdgeId>& taken,
                    const std::function<bool(hp::EdgeId)>& ok) {
  for (;;) {
    const auto e = static_cast<hp::EdgeId>(rng.next_below(m.nets.size()));
    if (!m.removed[e] && ok(e) &&
        std::find(taken.begin(), taken.end(), e) == taken.end()) {
      return e;
    }
  }
}

/// Draw the next cycle's update from `rng` and apply it to the mirror.
/// `nnz` holds each column's nonzero count, the node's degree: spmv's
/// row-net model weighs a node by it (at least 1), so every pin a delta
/// adds or removes also drifts that node's weight by one.
Cycle next_cycle(Mirror& m, std::vector<hp::Weight>& nnz, hp::Rng& rng) {
  Cycle c;
  std::vector<hp::EdgeId> taken;
  {
    StructuralDelta d;
    d.kind = StructuralDelta::Kind::kRemoveNet;
    d.net = pick_net(m, rng, taken, [](hp::EdgeId) { return true; });
    taken.push_back(d.net);
    c.structural.push_back(d);
  }
  {
    StructuralDelta d;
    d.kind = StructuralDelta::Kind::kRemovePins;
    d.net = pick_net(m, rng, taken,
                     [&](hp::EdgeId e) { return m.nets[e].size() >= 3; });
    taken.push_back(d.net);
    d.pins = {m.nets[d.net][rng.next_below(m.nets[d.net].size())]};
    c.structural.push_back(d);
  }
  {
    StructuralDelta d;
    d.kind = StructuralDelta::Kind::kAddPins;
    d.net = pick_net(m, rng, taken, [](hp::EdgeId) { return true; });
    taken.push_back(d.net);
    const auto& pins = m.nets[d.net];
    hp::NodeId v;
    do {
      v = static_cast<hp::NodeId>(rng.next_below(m.n));
    } while (std::binary_search(pins.begin(), pins.end(), v));
    d.pins = {v};
    c.structural.push_back(d);
  }
  {
    StructuralDelta d;
    d.kind = StructuralDelta::Kind::kAddNet;
    const std::uint64_t want = 2 + rng.next_below(5);
    while (d.pins.size() < want) {
      const auto v = static_cast<hp::NodeId>(rng.next_below(m.n));
      const auto it = std::lower_bound(d.pins.begin(), d.pins.end(), v);
      if (it == d.pins.end() || *it != v) d.pins.insert(it, v);
    }
    c.structural.push_back(d);
  }

  // Mirror the batch exactly as the daemon applies it, and count the
  // nonzeros each pin change adds to or removes from its column.
  std::vector<hp::NodeId> drifted;
  const auto count = [&](hp::NodeId v, hp::Weight delta) {
    nnz[v] += delta;
    drifted.push_back(v);
  };
  for (const StructuralDelta& d : c.structural) {
    switch (d.kind) {
      case StructuralDelta::Kind::kRemoveNet:
        for (const hp::NodeId v : m.nets[d.net]) count(v, -1);
        m.nets[d.net].clear();
        m.removed[d.net] = 1;
        break;
      case StructuralDelta::Kind::kRemovePins: {
        auto& pins = m.nets[d.net];
        for (const hp::NodeId v : d.pins) {
          pins.erase(std::lower_bound(pins.begin(), pins.end(), v));
          count(v, -1);
        }
        break;
      }
      case StructuralDelta::Kind::kAddPins: {
        auto& pins = m.nets[d.net];
        for (const hp::NodeId v : d.pins) {
          pins.insert(std::lower_bound(pins.begin(), pins.end(), v), v);
          count(v, +1);
        }
        break;
      }
      case StructuralDelta::Kind::kAddNet:
        m.nets.push_back(d.pins);
        m.removed.push_back(0);
        for (const hp::NodeId v : d.pins) count(v, +1);
        break;
    }
  }
  std::sort(drifted.begin(), drifted.end());
  drifted.erase(std::unique(drifted.begin(), drifted.end()), drifted.end());
  for (const hp::NodeId v : drifted) {
    const hp::Weight w = std::max<hp::Weight>(nnz[v], 1);
    if (w == m.node_weights[v]) continue;
    m.node_weights[v] = w;
    c.nodes.push_back({v, w});
  }
  return c;
}

json::Value pins_json(const std::vector<hp::NodeId>& pins) {
  json::Array a;
  for (const hp::NodeId v : pins) a.emplace_back(static_cast<std::int64_t>(v));
  return json::Value(std::move(a));
}

json::Value update_frame(const std::string& graph, const Cycle& c) {
  json::Value req{json::Object{}};
  req.set("op", "update");
  req.set("graph", graph);
  json::Array nodes, remove_nets, remove_pins, add_pins, add_nets;
  for (const WeightUpdate& u : c.nodes) {
    nodes.emplace_back(json::Array{json::Value(static_cast<std::int64_t>(u.id)),
                                   json::Value(u.weight)});
  }
  for (const StructuralDelta& d : c.structural) {
    json::Value o{json::Object{}};
    if (d.kind != StructuralDelta::Kind::kAddNet) {
      o.set("net", static_cast<std::int64_t>(d.net));
    }
    o.set("pins", pins_json(d.pins));
    switch (d.kind) {
      case StructuralDelta::Kind::kRemoveNet:
        remove_nets.emplace_back(static_cast<std::int64_t>(d.net));
        break;
      case StructuralDelta::Kind::kRemovePins:
        remove_pins.push_back(std::move(o));
        break;
      case StructuralDelta::Kind::kAddPins:
        add_pins.push_back(std::move(o));
        break;
      case StructuralDelta::Kind::kAddNet:
        add_nets.push_back(std::move(o));
        break;
    }
  }
  req.set("node_weights", json::Value(std::move(nodes)));
  req.set("remove_nets", json::Value(std::move(remove_nets)));
  req.set("remove_pins", json::Value(std::move(remove_pins)));
  req.set("add_pins", json::Value(std::move(add_pins)));
  req.set("add_nets", json::Value(std::move(add_nets)));
  return req;
}

json::Value config_frame(const char* op, const std::string& graph,
                         hp::PartId k, double eps) {
  json::Value req{json::Object{}};
  req.set("op", op);
  req.set("graph", graph);
  req.set("k", static_cast<std::int64_t>(k));
  req.set("epsilon", eps);
  req.set("seed", static_cast<std::int64_t>(kPartitionSeed));
  return req;
}

double ms_p50(const std::vector<double>& v) { return median(v) * 1e3; }

}  // namespace

// --- Shared with the self-tests ---------------------------------------------

std::optional<json::Value> checked_frame(std::optional<json::Value> response,
                                         const std::string& op, Report& rep) {
  if (!response) {
    rep.op(false, op + ": no response");
    return std::nullopt;
  }
  const json::Value* ok = response->find("ok");
  if (!ok || ok->type() != json::Type::kBool || !ok->as_bool()) {
    const json::Value* err = response->find("error");
    rep.op(false, op + ": " +
                      (err && err->is_string() ? err->as_string()
                                               : std::string("ok:false")));
    return std::nullopt;
  }
  rep.op(true, op);
  return response;
}

Mirror Mirror::of(const hp::Hypergraph& g) {
  Mirror m;
  m.n = g.num_nodes();
  m.nets.resize(g.num_edges());
  for (hp::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto p = g.pins(e);
    m.nets[e].assign(p.begin(), p.end());
  }
  m.removed.assign(g.num_edges(), 0);
  m.node_weights.resize(m.n);
  for (hp::NodeId v = 0; v < m.n; ++v) m.node_weights[v] = g.node_weight(v);
  return m;
}

hp::Hypergraph Mirror::rebuild() const {
  hp::Hypergraph g = hp::Hypergraph::from_edges(n, nets);
  g.set_node_weights(node_weights);
  for (hp::EdgeId e = 0; e < removed.size(); ++e) {
    if (removed[e]) g.update_edge_weight(e, 0);
  }
  return g;
}

std::string final_state_problem(const Mirror& mirror,
                                std::uint64_t served_hash,
                                const json::Value& evaluate, hp::PartId k,
                                double epsilon) {
  const hp::Hypergraph g = mirror.rebuild();
  if (g.content_hash() != served_hash) {
    return "served graph hash differs from the mirror's from_edges rebuild";
  }
  const json::Value* parts = evaluate.find("parts");
  const json::Value* cost = evaluate.find("cost");
  if (!parts || !parts->is_array() || !cost || !cost->is_number()) {
    return "evaluate response lacks parts or cost";
  }
  std::vector<hp::PartId> assignment;
  assignment.reserve(parts->as_array().size());
  for (const json::Value& p : parts->as_array()) {
    if (!p.is_number() || p.as_int() < 0) return "bad part id in response";
    assignment.push_back(static_cast<hp::PartId>(p.as_int()));
  }
  const auto balance =
      hp::BalanceConstraint::for_graph(g, k, epsilon, /*relaxed=*/true);
  return partition_problem(g, assignment, k, balance.capacity(),
                           cost->as_int());
}

// --- Daemon start and load -------------------------------------------------

Served::Served() = default;

Served::~Served() {
  if (fd >= 0) ::close(fd);
}

bool Served::stop() {
  const bool clean = daemon->stop(fd);
  ::close(fd);
  fd = -1;
  return clean;
}

std::unique_ptr<Served> start_and_load(const Options& opt,
                                       const std::string& socket,
                                       const std::string& path, Report& rep) {
  auto s = std::make_unique<Served>();
  try {
    s->daemon = std::make_unique<Daemon>(opt, socket);
  } catch (const std::exception& e) {
    rep.op(false, e.what());
    return nullptr;
  }
  s->fd = s->daemon->connect();
  if (!rep.op(s->fd >= 0, "cannot connect to hyperpartd")) return nullptr;
  json::Value req{json::Object{}};
  req.set("op", "load");
  req.set("path", path);
  const double t0 = now_s();
  const auto loaded = checked_frame(rpc(s->fd, req), "load", rep);
  s->load_s = now_s() - t0;
  if (!loaded) return nullptr;
  const json::Value* id = loaded->find("graph");
  if (!rep.op(id && id->is_string(), "load response lacks the graph id")) {
    return nullptr;
  }
  s->graph = id->as_string();
  s->hash = static_cast<std::uint64_t>(int_of(*loaded, "hash"));
  return s;
}

// --- The workload -------------------------------------------------------------

namespace {

/// What the churn phase measured. `ran` is false when the reader could not
/// connect; the failure is counted and nothing else is.
struct Churn {
  bool ran = false;
  Mirror mirror;
  std::vector<Cycle> cycles;
  std::vector<double> update, repartition, pinned, cycle;  // writer, s
  std::vector<double> idle, reader, late;                  // reader, s
  double writer_s = 0.0;
  double daemon_cpu_s = 0.0;  ///< the daemon's CPU time over writer_s
  hp::Weight last_cost = 0;
  std::uint64_t served_hash = 0;
  std::uint64_t busy = 0, mismatches = 0;
  std::map<std::string, int> rungs;  ///< repartition methods the daemon reported
};

Churn run_churn(const Options& opt, Served& served, const hp::Hypergraph& g,
                hp::PartId k, double eps, hp::Weight cost, Report& rep) {
  Churn r;
  const std::string& graph = served.graph;
  const int rfd = served.daemon->connect();
  if (!rep.op(rfd >= 0, "cannot connect the reader")) return r;
  r.ran = true;
  const json::Value read = config_frame("evaluate", graph, k, eps);
  for (int i = 0; i < kIdleReads; ++i) {
    const double t0 = now_s();
    auto resp = rpc(rfd, read);
    const double t1 = now_s();
    if (checked_frame(std::move(resp), "idle evaluate", rep)) {
      r.idle.push_back(t1 - t0);
    }
  }

  std::mutex rep_mu;  // the reader thread records into rep and r too
  const auto record = [&](std::optional<json::Value> resp,
                          const std::string& op) {
    std::lock_guard lock(rep_mu);
    const json::Value* err = resp ? resp->find("error") : nullptr;
    if (err && err->is_string()) {
      if (err->as_string().rfind("busy", 0) == 0) ++r.busy;
      if (err->as_string().find("version mismatch") != std::string::npos) {
        ++r.mismatches;
      }
    }
    return checked_frame(std::move(resp), op, rep);
  };

  const pid_t daemon = served.daemon->pid();
  const double cpu_start = cpu_s(daemon);
  const double start = now_s();
  const double end = start + opt.seconds;
  {
    // jthread: joined on every exit path, so the reader never outlives the
    // state it records into.
    std::jthread reader([&] {
      for (std::uint64_t j = 0;; ++j) {
        const double due = start + static_cast<double>(j) / kReaderHz;
        if (due >= end) break;
        const double wait = due - now_s();
        if (wait > 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(wait));
        }
        const double sent = now_s();
        auto resp = rpc(rfd, read);
        const double done = now_s();
        const bool ok = record(std::move(resp), "reader evaluate").has_value();
        std::lock_guard lock(rep_mu);
        if (ok) r.reader.push_back(done - due);
        r.late.push_back(sent - due);
      }
    });

    r.mirror = Mirror::of(g);
    std::vector<hp::Weight> nnz(g.num_nodes());
    for (hp::NodeId v = 0; v < g.num_nodes(); ++v) nnz[v] = g.degree(v);
    hp::Rng rng(opt.seed * 0x9e3779b97f4a7c15ULL + 17);
    std::int64_t version = 0;
    r.last_cost = cost;
    while (now_s() < end) {
      r.cycles.push_back(next_cycle(r.mirror, nnz, rng));
      const double cycle_start = now_s();
      double t0 = cycle_start;
      auto resp = rpc(served.fd, update_frame(graph, r.cycles.back()));
      r.update.push_back(now_s() - t0);
      if (const auto up = record(std::move(resp), "update")) {
        version = int_of(*up, "version");
      }
      t0 = now_s();
      resp = rpc(served.fd, config_frame("repartition", graph, k, eps));
      r.repartition.push_back(now_s() - t0);
      if (const auto rp = record(std::move(resp), "repartition")) {
        r.last_cost = int_of(*rp, "cost");
        const json::Value* method = rp->find("method");
        ++r.rungs[method && method->is_string() ? method->as_string() : "?"];
      }
      json::Value ev = config_frame("evaluate", graph, k, eps);
      ev.set("version", version);
      t0 = now_s();
      resp = rpc(served.fd, ev);
      r.pinned.push_back(now_s() - t0);
      r.cycle.push_back(now_s() - cycle_start);
      if (const auto e = record(std::move(resp), "pinned evaluate")) {
        std::lock_guard lock(rep_mu);
        rep.op(int_of(*e, "cost") == r.last_cost,
               "pinned evaluate cost differs from the repartition's");
      }
    }
    r.writer_s = now_s() - start;
    r.daemon_cpu_s = cpu_s(daemon) - cpu_start;
  }
  rep.op(r.daemon_cpu_s > 0, "cannot read hyperpartd's CPU clock");
  ::close(rfd);

  // --- Final-state verification against the mirror.
  json::Value stats{json::Object{}};
  stats.set("op", "stats");
  stats.set("graph", graph);
  if (const auto s = checked_frame(rpc(served.fd, stats), "stats", rep)) {
    const json::Value* sessions = s->find("sessions");
    if (sessions && sessions->is_array() && !sessions->as_array().empty()) {
      r.served_hash =
          static_cast<std::uint64_t>(int_of(sessions->as_array()[0], "hash"));
    }
  }
  json::Value fin = config_frame("evaluate", graph, k, eps);
  fin.set("include_parts", true);
  if (const auto e = checked_frame(rpc(served.fd, fin), "final evaluate",
                                   rep)) {
    const std::string problem =
        final_state_problem(r.mirror, r.served_hash, *e, k, eps);
    rep.op(problem.empty(), "final state: " + problem);
  }
  return r;
}

/// Share of `v` above `limit`.
double share_above(const std::vector<double>& v, double limit) {
  if (v.empty()) return 0.0;
  return static_cast<double>(std::count_if(
             v.begin(), v.end(), [&](double x) { return x > limit; })) /
         static_cast<double>(v.size());
}

}  // namespace

void run_svc(const Options& opt, Report& rep) {
  hp::workload::WorkloadSpec spec = hp::workload::parse_spec("spmv:rmat");
  spec.target_nodes = kSvcNodes;
  spec.seed = opt.seed;
  spec.threads = opt.threads;
  const std::string path = opt.workdir + "/svc.hpb";
  const std::string socket = opt.workdir + "/d.sock";

  // --- Set-up (kSvcSetupReps daemons): generate, write HPBH, start
  // hyperpartd, load. Each daemon's first partition frame is one
  // partition_s sample; the last daemon stays up for the churn phase. A
  // daemon that fails to start, connect or load is counted, and the run
  // ends there with what it measured.
  std::optional<hp::workload::Workload> w;
  std::unique_ptr<Served> served;
  std::vector<double> setup, generate, write, load, partition, partition_cpu;
  hp::Weight cost = 0;
  for (int rep_i = 0; rep_i < kSvcSetupReps; ++rep_i) {
    if (served) {
      rep.op(served->stop(), "hyperpartd exited uncleanly");
      served.reset();
    }
    w.reset();
    const double t0 = now_s();
    w = hp::workload::generate(spec);
    const double t1 = now_s();
    hp::stream::write_binary_file(path, w->graph);
    const double t2 = now_s();
    warm_thread_pool(opt.threads);
    served = start_and_load(opt, socket, path, rep);
    if (!served) break;
    setup.push_back(now_s() - t0);
    generate.push_back(t1 - t0);
    write.push_back(t2 - t1);
    load.push_back(served->load_s);
    rep.op(served->hash == w->graph.content_hash(),
           "loaded graph hash differs from the generated graph");

    const double c3 = cpu_s(served->daemon->pid());
    const double t3 = now_s();
    const auto part = checked_frame(
        rpc(served->fd, config_frame("partition", served->graph,
                                     w->suggested_k, w->suggested_eps)),
        "partition", rep);
    partition.push_back(now_s() - t3);
    partition_cpu.push_back(cpu_s(served->daemon->pid()) - c3);
    rep.op(partition_cpu.back() > 0, "cannot read hyperpartd's CPU clock");
    if (part) {
      const hp::Weight c = int_of(*part, "cost");
      if (rep_i > 0) rep.op(c == cost, "partition cost differs across daemons");
      cost = c;
    }
  }
  const hp::PartId k = w->suggested_k;
  const double eps = w->suggested_eps;
  std::cout << "# spmv:rmat seed=" << opt.seed << " n=" << w->graph.num_nodes()
            << " m=" << w->graph.num_edges() << " pins="
            << w->graph.num_pins() << " k=" << k << " threads=" << opt.threads
            << "\n";

  Churn c;
  double daemon_rss = 0.0;
  if (served) {
    c = run_churn(opt, *served, w->graph, k, eps, cost, rep);
    daemon_rss = peak_rss_mb(served->daemon->pid());
    rep.op(served->stop(), "hyperpartd exited uncleanly");
    served.reset();
  }
  std::remove(path.c_str());

  const double idle_max =
      c.idle.empty() ? 0.0 : *std::max_element(c.idle.begin(), c.idle.end());
  std::size_t weights = 0;
  for (const Cycle& cy : c.cycles) weights += cy.nodes.size();
  std::cout << "# writer cycles=" << c.cycles.size() << ", mean update "
            << static_cast<double>(weights) /
                   static_cast<double>(std::max<std::size_t>(1, c.cycles.size()))
            << " node weights + 4 structural deltas; reader evaluates="
            << c.late.size() << "; p50 ms: cycle "
            << ms_p50(c.cycle) << " update " << ms_p50(c.update)
            << " repartition " << ms_p50(c.repartition) << " pinned evaluate "
            << ms_p50(c.pinned) << "\n# reader p50 ms: idle "
            << ms_p50(c.idle) << " (max " << idle_max * 1e3
            << "), under churn " << ms_p50(c.reader) << "; "
            << 100.0 * share_above(c.reader, idle_max)
            << "% of reads under churn slower than any idle read\n"
            << "# daemon repartition methods:";
  for (const auto& [method, n] : c.rungs) std::cout << " " << method << "=" << n;
  std::cout << "; busy rejects " << c.busy << ", version mismatches "
            << c.mismatches << "\n# partition frames s:";
  for (const double t : partition) std::cout << " " << t;
  std::cout << "\n# partition frames daemon cpu s:";
  for (const double t : partition_cpu) std::cout << " " << t;
  std::cout << "\n# writer " << c.cycles.size() << " cycles in "
            << c.writer_s << " s wall, " << c.daemon_cpu_s
            << " s daemon cpu\n";

  if (!opt.trace) {
    rep.metric("setup_s", median(setup), "s");
    rep.metric("partition_s", median(partition_cpu), "s");
    rep.metric("cost", static_cast<double>(cost), "count");
    rep.metric("peak_rss_mb", daemon_rss, "MiB");
    rep.metric("cycles_per_s",
               c.daemon_cpu_s > 0
                   ? static_cast<double>(c.cycles.size()) / c.daemon_cpu_s
                   : 0.0,
               "1/s");
    return;
  }

  // --- Traced run: client-side latencies, then the in-process replay.
  const Tail upd_tail = tail(c.update), rep_tail = tail(c.repartition),
             eval_tail = tail(c.reader);
  std::cout << "# tails: update p" << upd_tail.percentile << " of "
            << upd_tail.samples << ", repartition p" << rep_tail.percentile
            << " of " << rep_tail.samples << ", evaluate p"
            << eval_tail.percentile << " of " << eval_tail.samples << "\n";
  rep.metric("update_p50_ms", ms_p50(c.update), "ms");
  rep.metric("update_tail_ms", upd_tail.value * 1e3, "ms");
  rep.metric("repartition_p50_ms", ms_p50(c.repartition), "ms");
  rep.metric("repartition_tail_ms", rep_tail.value * 1e3, "ms");
  rep.metric("evaluate_p50_ms", ms_p50(c.reader), "ms");
  rep.metric("evaluate_tail_ms", eval_tail.value * 1e3, "ms");
  rep.metric("writer_cycles_per_s",
             c.writer_s > 0 ? static_cast<double>(c.cycles.size()) / c.writer_s
                            : 0.0,
             "1/s");
  rep.metric("server.busy_rejects", static_cast<double>(c.busy), "count");
  rep.metric("server.version_mismatches", static_cast<double>(c.mismatches),
             "count");
  rep.metric("loadgen.late_ms", tail(c.late).value * 1e3, "ms");
  rep.metric("loadgen.idle_evaluate_ms", ms_p50(c.idle), "ms");
  rep.metric("loadgen.contended_ratio", share_above(c.reader, idle_max),
             "ratio");
  rep.metric("workload.generate_ms", median(generate) * 1e3, "ms");
  rep.metric("stream.write_hpb_ms", median(write) * 1e3, "ms");
  rep.metric("stream.map_ms", median(load) * 1e3, "ms");
  if (!c.ran) return;

  auto session = hp::server::GraphSession::from_graph(w->graph, "replay");
  hp::server::SessionConfig cfg;
  cfg.k = k;
  cfg.epsilon = eps;
  cfg.seed = kPartitionSeed;
  cfg.threads = opt.threads;
  (void)session->try_acquire_mutator();
  const auto first = session->partition(cfg, false);
  rep.op(first.ok && first.cost == cost,
         "replayed partition differs from the daemon's");
  std::vector<double> s_upd, s_rep, s_eval;
  double rung_delta = 0, rung_vcycle = 0, rung_full = 0, patched = 0,
         staled = 0;
  for (const Cycle& cy : c.cycles) {
    double t0 = now_s();
    const auto up = session->update(cy.nodes, {}, cy.structural);
    s_upd.push_back(now_s() - t0);
    patched += static_cast<double>(up.trackers_patched);
    staled += static_cast<double>(up.trackers_staled);
    t0 = now_s();
    const auto rp = session->repartition(cfg, false);
    s_rep.push_back(now_s() - t0);
    rung_delta += rp.method == "delta_fm";
    rung_vcycle += rp.method == "vcycle";
    rung_full += rp.method == "full";
    t0 = now_s();
    const auto ev = session->evaluate(cfg, false, up.version);
    s_eval.push_back(now_s() - t0);
    rep.op(up.ok && rp.ok && ev.ok, "replayed writer cycle failed");
  }
  const auto last = session->evaluate(cfg, true);
  session->release_mutator();
  rep.op(session->graph_hash() == c.served_hash && last.cost == c.last_cost,
         "in-process replay ends in another state than the daemon");

  double tracker_ms = 0.0;
  if (last.ok) {
    const hp::Hypergraph g = c.mirror.rebuild();
    const hp::Partition p(last.parts, k);
    const double t0 = now_s();
    const hp::ConnectivityTracker tracker(g, p, opt.threads);
    tracker_ms = (now_s() - t0) * 1e3;
  }

  const double su = ms_p50(s_upd), sr = ms_p50(s_rep), se = ms_p50(s_eval);
  const double cu = ms_p50(c.update), cr = ms_p50(c.repartition),
               ce = ms_p50(c.pinned);
  rep.metric("session.update_ms", su, "ms");
  rep.metric("session.repartition_ms", sr, "ms");
  rep.metric("session.evaluate_ms", se, "ms");
  rep.metric("session.rung_delta_fm", rung_delta, "count");
  rep.metric("session.rung_vcycle", rung_vcycle, "count");
  rep.metric("session.rung_full", rung_full, "count");
  rep.metric("session.trackers_patched", patched, "count");
  rep.metric("session.trackers_staled", staled, "count");
  rep.metric("server.overhead_ms", ((cu - su) + (cr - sr) + (ce - se)) / 3.0,
             "ms");
  rep.metric("tracker.build_ms", tracker_ms, "ms");
  rep.metric("trace.coverage_ratio",
             cu + cr + ce > 0 ? (su + sr + se) / (cu + cr + ce) : 0.0,
             "ratio");
  print_layer_table(
      std::cout, "writer cycle, p50 per op (client = frame round trip)",
      {{"client.update", cu, cu - su, static_cast<double>(c.update.size())},
       {"session.update", su, su, patched},
       {"client.repartition", cr, cr - sr,
        static_cast<double>(c.repartition.size())},
       {"session.repartition", sr, sr, rung_delta},
       {"client.evaluate(pinned)", ce, ce - se,
        static_cast<double>(c.pinned.size())},
       {"session.evaluate", se, se, static_cast<double>(s_eval.size())},
       {"tracker.build", tracker_ms, tracker_ms, 1}});
  std::cout << "# coverage: session time is " << 100.0 * (su + sr + se) /
                                                   std::max(1e-9, cu + cr + ce)
            << "% of the client round trips; the daemon runs untraced, so "
               "tracing overhead is nil\n"
            << "# cost " << c.last_cost << " graph hash " << c.served_hash
            << "\n";
}

}  // namespace perfbench
