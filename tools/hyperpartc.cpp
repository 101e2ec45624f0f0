// hyperpartc — client and load generator for the hyperpartd daemon.
//
//   hyperpartc (--socket /path.sock | --tcp PORT) <op> [flags]
//
//   ops:
//     load        --path graph.hpb
//     partition   --graph G --k K [--eps E] [--metric conn|cut] [--seed S]
//                 [--parts]
//     repartition same flags (incremental ΔFM ladder server-side)
//     evaluate    same flags plus [--version V] (reader; runs concurrently
//                 with a mutator; --version pins a graph snapshot — a
//                 mismatch is an error, not a stale answer)
//     update      --graph G [--node-weight ID=W]... [--edge-weight ID=W]...
//                 [--remove-net ID]... [--remove-pins NET:P1,P2,...]...
//                 [--add-pins NET:P1,P2,...]... [--add-net P1,P2,...[@W]]...
//                 (all deltas of one invocation ship in ONE frame = one
//                 atomic batch, applied server-side in the order
//                 remove_nets → remove_pins → add_pins → add_nets)
//     stats
//     shutdown
//     raw         --json '{"op": ...}'   (verbatim passthrough)
//     loadgen     --graph G --k K [--op evaluate|partition|repartition|churn]
//                 [--repeat N] [--clients C] [--nodes N]
//
// Every op sends one HPF1 frame and prints the JSON response on stdout;
// exit 0 when the server answered {ok: true}, 1 on {ok: false} or transport
// errors, 2 on usage errors. loadgen opens C connections, fires N requests
// round-robin across them, and reports req/sec with p50/p99 latency. The
// churn loadgen op sends per-request-distinct structural updates (one
// add_net each, pins drawn below --nodes); "busy" rejections — expected
// under concurrent mutators, the slot admits one at a time — are counted
// separately from failures.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "hyperpart/obs/json.hpp"
#include "hyperpart/server/protocol.hpp"
#include "hyperpart/util/parse.hpp"

namespace json = hp::obs::json;

namespace {

[[noreturn]] void usage() {
  std::cerr
      << "usage: hyperpartc (--socket /path.sock | --tcp PORT) <op> [flags]\n"
         "  ops: load --path F | partition|repartition|evaluate --graph G\n"
         "       --k K [--eps E] [--metric conn|cut] [--seed S] [--parts]\n"
         "       [--version V]\n"
         "       | update --graph G [--node-weight ID=W]... "
         "[--edge-weight ID=W]...\n"
         "         [--remove-net ID]... [--remove-pins NET:P,..]... "
         "[--add-pins NET:P,..]...\n"
         "         [--add-net P,P,..[@W]]...\n"
         "       | stats | shutdown | raw --json J\n"
         "       | loadgen --graph G --k K [--op OP|churn] [--repeat N] "
         "[--clients C] [--nodes N]\n";
  std::exit(2);
}

[[noreturn]] void bad_flag(const std::string& flag, const std::string& token,
                           const char* expected) {
  std::cerr << "error: invalid value '" << token << "' for " << flag << " ("
            << expected << ")\n";
  usage();
}

int connect_to(const std::string& socket_path, int tcp_port) {
  if (!socket_path.empty()) {
    const int fd = hp::server::connect_unix(socket_path);
    if (fd < 0) {
      std::cerr << "error: cannot connect to " << socket_path << ": "
                << std::strerror(errno) << "\n";
    }
    return fd;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(tcp_port));
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    std::cerr << "error: cannot connect to tcp port " << tcp_port << ": "
              << std::strerror(errno) << "\n";
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Parse "ID=W" into a [id, weight] JSON pair.
json::Value weight_pair(const std::string& flag, const std::string& spec) {
  const auto eq = spec.find('=');
  if (eq == std::string::npos) bad_flag(flag, spec, "ID=WEIGHT");
  const auto id = hp::parse_u64(spec.substr(0, eq), 0, UINT32_MAX);
  const auto w = hp::parse_i64(spec.substr(eq + 1), 0, INT64_MAX);
  if (!id || !w) bad_flag(flag, spec, "ID=WEIGHT, both non-negative integers");
  json::Array pair;
  pair.emplace_back(static_cast<std::int64_t>(*id));
  pair.emplace_back(*w);
  return json::Value(std::move(pair));
}

/// Parse "P1,P2,..." into a JSON array of node ids.
json::Array pin_list(const std::string& flag, const std::string& spec) {
  json::Array pins;
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t comma = spec.find(',', start);
    const std::string tok =
        spec.substr(start, comma == std::string::npos ? comma : comma - start);
    const auto id = hp::parse_u64(tok, 0, UINT32_MAX);
    if (!id) bad_flag(flag, spec, "comma-separated node ids");
    pins.emplace_back(static_cast<std::int64_t>(*id));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (pins.empty()) bad_flag(flag, spec, "comma-separated node ids");
  return pins;
}

/// Parse "NET:P1,P2,..." into a {net, pins} object.
json::Value net_pins(const std::string& flag, const std::string& spec) {
  const auto colon = spec.find(':');
  if (colon == std::string::npos) bad_flag(flag, spec, "NET:P1,P2,...");
  const auto net = hp::parse_u64(spec.substr(0, colon), 0, UINT32_MAX);
  if (!net) bad_flag(flag, spec, "NET:P1,P2,...");
  json::Value o{json::Object{}};
  o.set("net", static_cast<std::int64_t>(*net));
  o.set("pins", json::Value(pin_list(flag, spec.substr(colon + 1))));
  return o;
}

/// Parse "P1,P2,...[@W]" into a {pins, weight?} object.
json::Value new_net(const std::string& flag, const std::string& spec) {
  const auto at = spec.find('@');
  json::Value o{json::Object{}};
  o.set("pins", json::Value(pin_list(
                    flag, at == std::string::npos ? spec : spec.substr(0, at))));
  if (at != std::string::npos) {
    const auto w = hp::parse_i64(spec.substr(at + 1), 0, INT64_MAX);
    if (!w) bad_flag(flag, spec, "P1,P2,...@WEIGHT with non-negative weight");
    o.set("weight", *w);
  }
  return o;
}

struct LoadgenStats {
  std::vector<double> latencies_ms;
  std::uint64_t failures = 0;
  std::uint64_t busy = 0;  ///< mutator-slot rejections (churn op)
};

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  int tcp_port = -1;
  std::string op;
  std::string path;
  std::string graph;
  std::string raw_json;
  std::string loadgen_op = "evaluate";
  std::uint64_t k = 2;
  double eps = 0.05;
  std::string metric;
  std::uint64_t seed = 1;
  bool include_parts = false;
  std::optional<std::uint64_t> pin_version;
  std::uint64_t repeat = 100;
  std::uint64_t clients = 4;
  std::uint64_t churn_nodes = 2;
  json::Array node_weights;
  json::Array edge_weights;
  json::Array remove_nets;
  json::Array remove_pins;
  json::Array add_pins;
  json::Array add_nets;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "error: " << arg << " expects a value\n";
        usage();
      }
      return argv[++i];
    };
    if (arg == "--socket") {
      socket_path = value();
    } else if (arg == "--tcp") {
      const auto v = hp::parse_u64(value(), 1, 65535);
      if (!v) bad_flag(arg, argv[i], "port in [1, 65535]");
      tcp_port = static_cast<int>(*v);
    } else if (arg == "--path") {
      path = value();
    } else if (arg == "--graph") {
      graph = value();
    } else if (arg == "--json") {
      raw_json = value();
    } else if (arg == "--k") {
      const auto v = hp::parse_u64(value(), 2, UINT32_MAX);
      if (!v) bad_flag(arg, argv[i], "integer >= 2");
      k = *v;
    } else if (arg == "--eps") {
      const auto v = hp::parse_f64(value(), 0.0, 1e9);
      if (!v) bad_flag(arg, argv[i], "finite number >= 0");
      eps = *v;
    } else if (arg == "--metric") {
      metric = value();
      if (metric != "conn" && metric != "cut") {
        bad_flag(arg, metric, "conn or cut");
      }
    } else if (arg == "--seed") {
      const auto v = hp::parse_u64(value());
      if (!v) bad_flag(arg, argv[i], "unsigned integer");
      seed = *v;
    } else if (arg == "--parts") {
      include_parts = true;
    } else if (arg == "--version") {
      const auto v = hp::parse_u64(value());
      if (!v) bad_flag(arg, argv[i], "unsigned integer");
      pin_version = *v;
    } else if (arg == "--node-weight") {
      node_weights.push_back(weight_pair(arg, value()));
    } else if (arg == "--edge-weight") {
      edge_weights.push_back(weight_pair(arg, value()));
    } else if (arg == "--remove-net") {
      const auto id = hp::parse_u64(value(), 0, UINT32_MAX);
      if (!id) bad_flag(arg, argv[i], "net id");
      remove_nets.emplace_back(static_cast<std::int64_t>(*id));
    } else if (arg == "--remove-pins") {
      remove_pins.push_back(net_pins(arg, value()));
    } else if (arg == "--add-pins") {
      add_pins.push_back(net_pins(arg, value()));
    } else if (arg == "--add-net") {
      add_nets.push_back(new_net(arg, value()));
    } else if (arg == "--nodes") {
      const auto v = hp::parse_u64(value(), 2, UINT32_MAX);
      if (!v) bad_flag(arg, argv[i], "integer >= 2");
      churn_nodes = *v;
    } else if (arg == "--repeat") {
      const auto v = hp::parse_u64(value(), 1, 100000000);
      if (!v) bad_flag(arg, argv[i], "integer >= 1");
      repeat = *v;
    } else if (arg == "--clients") {
      const auto v = hp::parse_u64(value(), 1, 1024);
      if (!v) bad_flag(arg, argv[i], "integer in [1, 1024]");
      clients = *v;
    } else if (arg == "--op") {
      loadgen_op = value();
      if (loadgen_op != "evaluate" && loadgen_op != "partition" &&
          loadgen_op != "repartition" && loadgen_op != "stats" &&
          loadgen_op != "churn") {
        bad_flag(arg, loadgen_op,
                 "evaluate, partition, repartition, stats, or churn");
      }
    } else if (!arg.empty() && arg[0] != '-' && op.empty()) {
      op = arg;
    } else {
      std::cerr << "error: unknown flag '" << arg << "'\n";
      usage();
    }
  }
  if (op.empty()) {
    std::cerr << "error: no op given\n";
    usage();
  }
  if (socket_path.empty() && tcp_port < 0) {
    std::cerr << "error: --socket or --tcp is required\n";
    usage();
  }

  // Build the request payload.
  const auto config_request = [&](const std::string& request_op) {
    json::Value req{json::Object{}};
    req.set("op", request_op);
    req.set("graph", graph);
    req.set("k", static_cast<std::int64_t>(k));
    req.set("epsilon", eps);
    if (!metric.empty()) {
      req.set("metric", metric == "cut" ? "cut" : "connectivity");
    }
    req.set("seed", static_cast<std::int64_t>(seed));
    if (include_parts) req.set("include_parts", true);
    if (pin_version) {
      // Snapshot pinning: the server answers "version mismatch" instead of
      // silently evaluating a graph the client has not seen yet.
      req.set("version", static_cast<std::int64_t>(*pin_version));
    }
    return req;
  };

  std::string request;
  if (op == "raw") {
    if (raw_json.empty()) {
      std::cerr << "error: raw needs --json\n";
      usage();
    }
    request = raw_json;
  } else if (op == "load") {
    if (path.empty()) {
      std::cerr << "error: load needs --path\n";
      usage();
    }
    json::Value req{json::Object{}};
    req.set("op", "load");
    req.set("path", path);
    request = json::dump(req);
  } else if (op == "stats" || op == "shutdown") {
    json::Value req{json::Object{}};
    req.set("op", op);
    request = json::dump(req);
  } else if (op == "update") {
    if (graph.empty()) {
      std::cerr << "error: update needs --graph\n";
      usage();
    }
    json::Value req{json::Object{}};
    req.set("op", "update");
    req.set("graph", graph);
    if (!node_weights.empty()) {
      req.set("node_weights", json::Value(node_weights));
    }
    if (!edge_weights.empty()) {
      req.set("edge_weights", json::Value(edge_weights));
    }
    if (!remove_nets.empty()) {
      req.set("remove_nets", json::Value(remove_nets));
    }
    if (!remove_pins.empty()) {
      req.set("remove_pins", json::Value(remove_pins));
    }
    if (!add_pins.empty()) req.set("add_pins", json::Value(add_pins));
    if (!add_nets.empty()) req.set("add_nets", json::Value(add_nets));
    request = json::dump(req);
  } else if (op == "partition" || op == "repartition" || op == "evaluate") {
    if (graph.empty()) {
      std::cerr << "error: " << op << " needs --graph\n";
      usage();
    }
    request = json::dump(config_request(op));
  } else if (op == "loadgen") {
    if (graph.empty() && loadgen_op != "stats") {
      std::cerr << "error: loadgen needs --graph\n";
      usage();
    }
    if (loadgen_op == "stats") {
      json::Value req{json::Object{}};
      req.set("op", "stats");
      request = json::dump(req);
    } else if (loadgen_op != "churn") {
      request = json::dump(config_request(loadgen_op));
    }
    // churn builds a distinct frame per request inside the worker loop.
  } else {
    std::cerr << "error: unknown op '" << op << "'\n";
    usage();
  }

  if (op == "loadgen") {
    // Fire `repeat` identical requests over `clients` parallel connections.
    std::vector<std::thread> workers;
    std::vector<LoadgenStats> per_client(clients);
    const auto wall_start = std::chrono::steady_clock::now();
    for (std::uint64_t c = 0; c < clients; ++c) {
      const std::uint64_t share =
          repeat / clients + (c < repeat % clients ? 1 : 0);
      workers.emplace_back([&, c, share] {
        LoadgenStats& stats = per_client[c];
        const int fd = connect_to(socket_path, tcp_port);
        if (fd < 0) {
          stats.failures = share;
          return;
        }
        stats.latencies_ms.reserve(share);
        for (std::uint64_t r = 0; r < share; ++r) {
          std::string payload = request;
          if (loadgen_op == "churn") {
            // Per-request-distinct structural delta: one new 2-pin net,
            // pins rolling through [0, --nodes) so every frame differs.
            const std::uint64_t tick = c * 1000003ULL + r;
            json::Value req{json::Object{}};
            req.set("op", "update");
            req.set("graph", graph);
            json::Value net{json::Object{}};
            json::Array pins;
            pins.emplace_back(static_cast<std::int64_t>(tick % churn_nodes));
            pins.emplace_back(
                static_cast<std::int64_t>((tick + 1) % churn_nodes));
            net.set("pins", json::Value(std::move(pins)));
            json::Array nets;
            nets.push_back(std::move(net));
            req.set("add_nets", json::Value(std::move(nets)));
            payload = json::dump(req);
          }
          const auto t0 = std::chrono::steady_clock::now();
          const auto response = hp::server::round_trip(fd, payload);
          const auto t1 = std::chrono::steady_clock::now();
          if (!response) {
            ++stats.failures;
            continue;
          }
          if (response->find("\"ok\": true") == std::string::npos) {
            // The single mutator slot rejects concurrent churn with "busy";
            // that is admission control working, not a failure.
            if (response->find("busy:") != std::string::npos) {
              ++stats.busy;
            } else {
              ++stats.failures;
            }
            continue;
          }
          stats.latencies_ms.push_back(
              std::chrono::duration<double, std::milli>(t1 - t0).count());
        }
        ::close(fd);
      });
    }
    for (auto& w : workers) w.join();
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - wall_start)
                              .count();
    std::vector<double> all;
    std::uint64_t failures = 0;
    std::uint64_t busy = 0;
    for (const LoadgenStats& s : per_client) {
      all.insert(all.end(), s.latencies_ms.begin(), s.latencies_ms.end());
      failures += s.failures;
      busy += s.busy;
    }
    std::sort(all.begin(), all.end());
    const auto pct = [&](double q) {
      if (all.empty()) return 0.0;
      const auto idx = static_cast<std::size_t>(q * (all.size() - 1));
      return all[idx];
    };
    std::cout << "requests   = " << all.size() << " ok, " << failures
              << " failed, " << busy << " busy\n"
              << "clients    = " << clients << "\n"
              << "wall       = " << wall_s << " s\n"
              << "throughput = " << (wall_s > 0 ? all.size() / wall_s : 0.0)
              << " req/sec\n"
              << "p50        = " << pct(0.50) << " ms\n"
              << "p99        = " << pct(0.99) << " ms\n";
    return failures == 0 ? 0 : 1;
  }

  const int fd = connect_to(socket_path, tcp_port);
  if (fd < 0) return 1;
  const auto response = hp::server::round_trip(fd, request);
  ::close(fd);
  if (!response) {
    std::cerr << "error: transport failure talking to the server\n";
    return 1;
  }
  std::cout << *response;
  if (response->empty() || response->back() != '\n') std::cout << "\n";
  try {
    const json::Value parsed = json::parse(*response);
    const json::Value* ok = parsed.find("ok");
    return ok && ok->type() == json::Type::kBool && ok->as_bool() ? 0 : 1;
  } catch (const std::exception&) {
    return 1;
  }
}
