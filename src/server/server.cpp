#include "hyperpart/server/server.hpp"

#include <netinet/in.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <thread>
#include <utility>

#include "hyperpart/obs/telemetry.hpp"

namespace hp::server {

namespace json = hp::obs::json;

namespace {

/// realpath() when the path resolves, the raw string otherwise — the
/// session-map key for both load and graph-addressed lookups.
[[nodiscard]] std::string canonical_key(const std::string& path) {
  std::string key = path;
  if (char* real = ::realpath(path.c_str(), nullptr)) {
    key.assign(real);
    ::free(real);
  }
  return key;
}

[[nodiscard]] json::Value error_response(const std::string& message) {
  json::Value out{json::Object{}};
  out.set("ok", false);
  out.set("error", message);
  return out;
}

[[nodiscard]] const json::Value* field(const json::Value& req,
                                       const char* key) {
  return req.find(key);
}

/// Read an integral field; returns fallback when absent, nullopt (= type
/// error) when present but not an integer.
[[nodiscard]] std::optional<std::int64_t> int_field(const json::Value& req,
                                                    const char* key,
                                                    std::int64_t fallback,
                                                    bool* bad) {
  const json::Value* v = field(req, key);
  if (!v) return fallback;
  if (!v->is_number() || !v->is_integral()) {
    *bad = true;
    return std::nullopt;
  }
  return v->as_int();
}

struct MutatorSlot {
  GraphSession* session = nullptr;
  ~MutatorSlot() {
    if (session) session->release_mutator();
  }
};

void outcome_to_json(const PartitionOutcome& o, json::Value& out) {
  out.set("ok", o.ok);
  out.set("version", static_cast<std::int64_t>(o.version));
  if (!o.ok) {
    out.set("error", o.error);
    return;
  }
  out.set("method", o.method);
  out.set("cache_hit", o.cache_hit);
  out.set("cost", o.cost);
  out.set("balanced", o.balanced);
  out.set("change_fraction", o.change_fraction);
  json::Array weights;
  weights.reserve(o.part_weights.size());
  for (const Weight w : o.part_weights) weights.emplace_back(w);
  out.set("part_weights", json::Value(std::move(weights)));
  if (!o.parts.empty()) {
    json::Array parts;
    parts.reserve(o.parts.size());
    for (const PartId p : o.parts) {
      parts.emplace_back(static_cast<std::int64_t>(p));
    }
    out.set("parts", json::Value(std::move(parts)));
  }
}

/// Parse [[id, weight], ...]; returns false with `err` set on shape errors.
bool parse_weight_updates(const json::Value& req, const char* key,
                          std::vector<WeightUpdate>& out, std::string& err) {
  const json::Value* v = field(req, key);
  if (!v) return true;
  if (!v->is_array()) {
    err = std::string(key) + " must be an array of [id, weight] pairs";
    return false;
  }
  for (const json::Value& pair : v->as_array()) {
    if (!pair.is_array() || pair.as_array().size() != 2 ||
        !pair.as_array()[0].is_number() || !pair.as_array()[1].is_number()) {
      err = std::string(key) + " entries must be [id, weight] pairs";
      return false;
    }
    WeightUpdate u;
    const std::int64_t id = pair.as_array()[0].as_int();
    if (id < 0) {
      err = std::string(key) + ": negative id";
      return false;
    }
    u.id = static_cast<std::uint32_t>(id);
    u.weight = pair.as_array()[1].as_int();
    out.push_back(u);
  }
  return true;
}

/// Parse a JSON array of node ids.
bool parse_pin_array(const json::Value& v, const char* ctx,
                     std::vector<NodeId>& pins, std::string& err) {
  if (!v.is_array()) {
    err = std::string(ctx) + ": pins must be an array of node ids";
    return false;
  }
  for (const json::Value& p : v.as_array()) {
    if (!p.is_number() || !p.is_integral() || p.as_int() < 0) {
      err = std::string(ctx) + ": pins must be non-negative integers";
      return false;
    }
    pins.push_back(static_cast<NodeId>(p.as_int()));
  }
  return true;
}

/// Parse the structural arrays of an update frame into one delta batch, in
/// the documented application order: remove_nets → remove_pins → add_pins →
/// add_nets (only add_nets appends, so new nets take ids m, m+1, … in their
/// array order regardless).
bool parse_structural(const json::Value& req, std::vector<StructuralDelta>& out,
                      std::string& err) {
  if (const json::Value* v = field(req, "remove_nets")) {
    if (!v->is_array()) {
      err = "remove_nets must be an array of net ids";
      return false;
    }
    for (const json::Value& id : v->as_array()) {
      if (!id.is_number() || !id.is_integral() || id.as_int() < 0) {
        err = "remove_nets entries must be non-negative net ids";
        return false;
      }
      StructuralDelta d;
      d.kind = StructuralDelta::Kind::kRemoveNet;
      d.net = static_cast<EdgeId>(id.as_int());
      out.push_back(std::move(d));
    }
  }
  const auto pin_deltas = [&](const char* key,
                              StructuralDelta::Kind kind) -> bool {
    const json::Value* v = field(req, key);
    if (!v) return true;
    if (!v->is_array()) {
      err = std::string(key) + " must be an array of {net, pins} objects";
      return false;
    }
    for (const json::Value& o : v->as_array()) {
      const json::Value* net = o.is_object() ? o.find("net") : nullptr;
      const json::Value* pins = o.is_object() ? o.find("pins") : nullptr;
      if (!net || !net->is_number() || !net->is_integral() ||
          net->as_int() < 0 || !pins) {
        err = std::string(key) +
              " entries need a non-negative net id and a pins array";
        return false;
      }
      StructuralDelta d;
      d.kind = kind;
      d.net = static_cast<EdgeId>(net->as_int());
      if (!parse_pin_array(*pins, key, d.pins, err)) return false;
      out.push_back(std::move(d));
    }
    return true;
  };
  if (!pin_deltas("remove_pins", StructuralDelta::Kind::kRemovePins)) {
    return false;
  }
  if (!pin_deltas("add_pins", StructuralDelta::Kind::kAddPins)) return false;
  if (const json::Value* v = field(req, "add_nets")) {
    if (!v->is_array()) {
      err = "add_nets must be an array of {pins, weight?} objects";
      return false;
    }
    for (const json::Value& o : v->as_array()) {
      const json::Value* pins = o.is_object() ? o.find("pins") : nullptr;
      if (!pins) {
        err = "add_nets entries need a pins array";
        return false;
      }
      StructuralDelta d;
      d.kind = StructuralDelta::Kind::kAddNet;
      if (!parse_pin_array(*pins, "add_nets", d.pins, err)) return false;
      if (const json::Value* w = o.find("weight")) {
        if (!w->is_number() || !w->is_integral()) {
          err = "add_nets weight must be an integer";
          return false;
        }
        d.weight = w->as_int();
      }
      out.push_back(std::move(d));
    }
  }
  return true;
}

}  // namespace

Server::Server(ServerConfig cfg) : cfg_(std::move(cfg)) {}

Server::~Server() {
  shutdown();
  wait();
}

void Server::start() {
  if (cfg_.unix_socket.empty()) {
    throw std::runtime_error("server: unix_socket path is required");
  }
  // A dying peer must surface as a write error, not a process-killing
  // SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (cfg_.unix_socket.size() >= sizeof addr.sun_path) {
    throw std::runtime_error("server: unix socket path too long: " +
                             cfg_.unix_socket);
  }
  std::memcpy(addr.sun_path, cfg_.unix_socket.c_str(),
              cfg_.unix_socket.size() + 1);
  // Only a stale *socket* from a previous run may be swept aside; anything
  // else at the path (a regular file, a directory, even a symlink) means
  // the operator mistyped --socket, and unlinking it would destroy their
  // data. lstat, not stat: a symlink pointing at a socket is still not a
  // socket at this path.
  struct stat st{};
  if (::lstat(cfg_.unix_socket.c_str(), &st) == 0 && !S_ISSOCK(st.st_mode)) {
    throw SocketPathError("refusing to start: " + cfg_.unix_socket +
                          " exists and is not a socket");
  }
  unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (unix_fd_ < 0) throw std::runtime_error("server: socket() failed");
  ::unlink(cfg_.unix_socket.c_str());  // stale socket from a previous run
  if (::bind(unix_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(unix_fd_, 64) != 0) {
    const int err = errno;
    ::close(unix_fd_);
    unix_fd_ = -1;
    throw std::runtime_error("server: cannot listen on " + cfg_.unix_socket +
                             ": " + std::strerror(err));
  }

  if (cfg_.tcp_port >= 0) {
    tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_fd_ < 0) throw std::runtime_error("server: tcp socket() failed");
    const int one = 1;
    ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in tcp{};
    tcp.sin_family = AF_INET;
    tcp.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    tcp.sin_port = htons(static_cast<std::uint16_t>(cfg_.tcp_port));
    if (::bind(tcp_fd_, reinterpret_cast<const sockaddr*>(&tcp),
               sizeof tcp) != 0 ||
        ::listen(tcp_fd_, 64) != 0) {
      const int err = errno;
      ::close(tcp_fd_);
      tcp_fd_ = -1;
      throw std::runtime_error(std::string("server: cannot listen on tcp: ") +
                               std::strerror(err));
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound), &len) ==
        0) {
      bound_tcp_port_ = ntohs(bound.sin_port);
    }
  }

  std::lock_guard lock(threads_mu_);
  accept_threads_.emplace_back([this, fd = unix_fd_] { accept_loop(fd); });
  if (tcp_fd_ >= 0) {
    accept_threads_.emplace_back([this, fd = tcp_fd_] { accept_loop(fd); });
  }
}

void Server::accept_loop(int listen_fd) {
  for (;;) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by shutdown(), or fatal
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }
    std::lock_guard lock(threads_mu_);
    open_conns_.insert(fd);
    std::thread([this, fd] { handle_connection(fd); }).detach();
  }
}

void Server::handle_connection(int fd) {
  std::string payload;
  for (;;) {
    const FrameError err = read_frame(fd, payload);
    if (err == FrameError::kClosed || err == FrameError::kIo) break;
    if (err != FrameError::kNone) {
      // Malformed stream: answer once with a diagnostic, then hang up —
      // after a framing error the byte stream has no recoverable boundary.
      const std::string resp = json::dump(error_response(
          std::string("malformed frame: ") + frame_error_name(err)));
      (void)write_frame(fd, resp);
      break;
    }
    bool request_shutdown = false;
    const std::string response = handle_request(payload, &request_shutdown);
    requests_.fetch_add(1, std::memory_order_relaxed);
    if (write_frame(fd, response) != FrameError::kNone) break;
    if (request_shutdown) {
      shutdown();
      break;
    }
    if (stopping_.load(std::memory_order_acquire)) break;
  }
  // Deregister before closing so shutdown() can never hit a recycled fd.
  // Notify under the lock: wait() sees the set empty only after the notify
  // returned, and the Server may be destroyed then. (notify_all_at_thread_
  // exit unlocks first, so the condition variable could already be gone.)
  std::lock_guard lock(threads_mu_);
  open_conns_.erase(fd);
  ::close(fd);
  conns_drained_.notify_all();
}

std::string Server::handle_request(const std::string& payload,
                                   bool* request_shutdown) {
  json::Value req;
  try {
    req = json::parse(payload);
  } catch (const std::exception& e) {
    return json::dump(
        error_response(std::string("request is not valid JSON: ") + e.what()));
  }
  const json::Value* op_v = req.find("op");
  if (!req.is_object() || !op_v || !op_v->is_string()) {
    return json::dump(error_response("request must be an object with an op"));
  }
  const std::string& op = op_v->as_string();
  HP_SPAN("request", op);
  json::Value out{json::Object{}};

  try {
    if (op == "shutdown") {
      *request_shutdown = true;
      out.set("ok", true);
      return json::dump(out);
    }
    if (op == "stats") {
      out.set("ok", true);
      out.set("requests_served",
              static_cast<std::int64_t>(
                  requests_.load(std::memory_order_relaxed) + 1));
      json::Array sessions;
      {
        std::lock_guard lock(sessions_mu_);
        for (const auto& [name, session] : sessions_) {
          json::Value s{json::Object{}};
          s.set("graph", name);
          s.set("nodes", static_cast<std::int64_t>(session->num_nodes()));
          s.set("edges", static_cast<std::int64_t>(session->num_edges()));
          s.set("hash", static_cast<std::int64_t>(session->graph_hash()));
          s.set("version", static_cast<std::int64_t>(session->version()));
          json::Array entries;
          for (const GraphSession::EntryStats& e : session->entry_stats()) {
            json::Value ev{json::Object{}};
            ev.set("k", static_cast<std::int64_t>(e.k));
            ev.set("epsilon", e.epsilon);
            ev.set("metric", to_string(e.metric));
            ev.set("seed", static_cast<std::int64_t>(e.seed));
            ev.set("cost", e.cost);
            ev.set("method", e.method);
            ev.set("tracker_cached", e.tracker_cached);
            ev.set("tracker_stale", e.tracker_stale);
            ev.set("hierarchy_levels",
                   static_cast<std::int64_t>(e.hierarchy_levels));
            ev.set("current", e.current);
            entries.push_back(std::move(ev));
          }
          s.set("entries", json::Value(std::move(entries)));
          sessions.push_back(std::move(s));
        }
      }
      out.set("sessions", json::Value(std::move(sessions)));
      // Every server.* counter recorded so far (telemetry must be on).
      json::Value counters{json::Object{}};
      for (const auto& [name, value] :
           hp::obs::counters_with_prefix("server.")) {
        counters.set(name, value);
      }
      out.set("counters", std::move(counters));
      return json::dump(out);
    }
    if (op == "load") {
      const json::Value* path_v = req.find("path");
      if (!path_v || !path_v->is_string()) {
        return json::dump(error_response("load needs a string path"));
      }
      // Canonicalize so two clients loading the same file share a session.
      const std::string key = canonical_key(path_v->as_string());
      GraphSession* session = nullptr;
      bool created = false;
      {
        std::lock_guard lock(sessions_mu_);
        auto it = sessions_.find(key);
        if (it == sessions_.end()) {
          // from_file does I/O; holding the map lock during it is fine at
          // this scope (load is rare) and keeps double-loads impossible.
          auto fresh = GraphSession::from_file(path_v->as_string());
          it = sessions_.emplace(key, std::move(fresh)).first;
          created = true;
        }
        session = it->second.get();
      }
      out.set("ok", true);
      out.set("graph", key);
      out.set("created", created);
      out.set("nodes", static_cast<std::int64_t>(session->num_nodes()));
      out.set("edges", static_cast<std::int64_t>(session->num_edges()));
      out.set("hash", static_cast<std::int64_t>(session->graph_hash()));
      out.set("version", static_cast<std::int64_t>(session->version()));
      return json::dump(out);
    }

    // Every remaining op addresses a loaded graph.
    const json::Value* graph_v = req.find("graph");
    if (!graph_v || !graph_v->is_string()) {
      return json::dump(error_response(op + " needs a string graph id"));
    }
    GraphSession* session = nullptr;
    {
      // Same canonicalization as load, so clients may address the session
      // by any path that resolves to the loaded file.
      std::lock_guard lock(sessions_mu_);
      auto it = sessions_.find(graph_v->as_string());
      if (it == sessions_.end()) {
        it = sessions_.find(canonical_key(graph_v->as_string()));
      }
      if (it != sessions_.end()) session = it->second.get();
    }
    if (!session) {
      return json::dump(error_response("unknown graph " + graph_v->as_string() +
                                       " (load it first)"));
    }

    if (op == "update") {
      std::vector<WeightUpdate> nodes;
      std::vector<WeightUpdate> edges;
      std::vector<StructuralDelta> structural;
      std::string err;
      if (!parse_weight_updates(req, "node_weights", nodes, err) ||
          !parse_weight_updates(req, "edge_weights", edges, err) ||
          !parse_structural(req, structural, err)) {
        return json::dump(error_response(err));
      }
      MutatorSlot slot;
      if (!session->try_acquire_mutator()) {
        return json::dump(error_response(
            "busy: another mutation is in progress on this graph"));
      }
      slot.session = session;
      const UpdateOutcome result = session->update(nodes, edges, structural);
      out.set("ok", result.ok);
      if (!result.ok) {
        out.set("error", result.error);
        out.set("version", static_cast<std::int64_t>(result.version));
      } else {
        out.set("applied", static_cast<std::int64_t>(result.applied));
        out.set("structural", static_cast<std::int64_t>(result.structural));
        out.set("change_fraction", result.change_fraction);
        out.set("hash", static_cast<std::int64_t>(session->graph_hash()));
        out.set("version", static_cast<std::int64_t>(result.version));
        out.set("nodes", static_cast<std::int64_t>(session->num_nodes()));
        out.set("edges", static_cast<std::int64_t>(session->num_edges()));
        out.set("trackers_patched",
                static_cast<std::int64_t>(result.trackers_patched));
        out.set("trackers_staled",
                static_cast<std::int64_t>(result.trackers_staled));
      }
      return json::dump(out);
    }

    // partition / repartition / evaluate share the config fields.
    bool bad = false;
    const auto k = int_field(req, "k", 2, &bad);
    const auto seed = int_field(req, "seed", 1, &bad);
    if (bad || !k || *k < 2 || !seed) {
      return json::dump(error_response("k must be an integer >= 2 and seed "
                                       "an integer"));
    }
    SessionConfig cfg;
    cfg.k = static_cast<PartId>(*k);
    cfg.seed = static_cast<std::uint64_t>(*seed);
    cfg.threads = cfg_.threads;
    if (const json::Value* eps = req.find("epsilon")) {
      if (!eps->is_number()) {
        return json::dump(error_response("epsilon must be a number"));
      }
      cfg.epsilon = eps->as_double();
    }
    if (const json::Value* metric = req.find("metric")) {
      if (!metric->is_string()) {
        return json::dump(error_response("metric must be a string"));
      }
      const std::string& m = metric->as_string();
      if (m == "connectivity" || m == "km1") {
        cfg.metric = CostMetric::kConnectivity;
      } else if (m == "cut" || m == "cutnet" || m == "cut-net") {
        cfg.metric = CostMetric::kCutNet;
      } else {
        return json::dump(
            error_response("metric must be connectivity|cut, got " + m));
      }
    }
    bool include_parts = false;
    if (const json::Value* ip = req.find("include_parts")) {
      include_parts = ip->type() == json::Type::kBool && ip->as_bool();
    }

    if (op == "evaluate") {
      std::optional<std::uint64_t> expected;
      if (const json::Value* v = req.find("version")) {
        if (!v->is_number() || !v->is_integral() || v->as_int() < 0) {
          return json::dump(
              error_response("version must be a non-negative integer"));
        }
        expected = static_cast<std::uint64_t>(v->as_int());
      }
      PartitionOutcome result = session->evaluate(cfg, include_parts, expected);
      outcome_to_json(result, out);
      return json::dump(out);
    }
    if (op == "partition" || op == "repartition") {
      MutatorSlot slot;
      if (!session->try_acquire_mutator()) {
        return json::dump(error_response(
            "busy: another mutation is in progress on this graph"));
      }
      slot.session = session;
      PartitionOutcome result = op == "partition"
                                    ? session->partition(cfg, include_parts)
                                    : session->repartition(cfg, include_parts);
      outcome_to_json(result, out);
      return json::dump(out);
    }
    return json::dump(error_response("unknown op " + op));
  } catch (const std::exception& e) {
    return json::dump(
        error_response(std::string("internal error: ") + e.what()));
  }
}

void Server::shutdown() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  // ::shutdown() (NOT close) on a listening socket reliably wakes a thread
  // blocked in accept(); closing an fd another thread is blocked on does
  // not. The fds themselves are closed in wait() after the accept threads
  // have joined, so no thread can race a recycled descriptor.
  if (unix_fd_ >= 0) ::shutdown(unix_fd_, SHUT_RDWR);
  if (tcp_fd_ >= 0) ::shutdown(tcp_fd_, SHUT_RDWR);
  // Nudge idle connections: shutting down the read side makes their blocked
  // read_frame return kClosed; an in-flight request still writes its
  // response (the write side stays open) before the loop exits.
  std::lock_guard lock(threads_mu_);
  for (const int fd : open_conns_) ::shutdown(fd, SHUT_RD);
  // Unlink only a socket this server actually bound: a start() that refused
  // (non-socket file at the path) must leave the operator's file alone.
  if (unix_fd_ >= 0 && !cfg_.unix_socket.empty()) {
    ::unlink(cfg_.unix_socket.c_str());
  }
}

void Server::wait() {
  while (!stopping_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  std::vector<std::thread> accepts;
  {
    std::lock_guard lock(threads_mu_);
    accepts.swap(accept_threads_);
  }
  for (auto& t : accepts) t.join();
  // No accept thread is left to add connections; let in-flight requests
  // finish and their threads exit.
  {
    std::unique_lock lock(threads_mu_);
    conns_drained_.wait(lock, [&] { return open_conns_.empty(); });
  }
  if (unix_fd_ >= 0) {
    ::close(unix_fd_);
    unix_fd_ = -1;
  }
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
}

}  // namespace hp::server
