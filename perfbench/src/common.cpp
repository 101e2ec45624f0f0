#include "common.hpp"

#include <time.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "hyperpart/stream/binary_format.hpp"
#include "hyperpart/util/subprocess.hpp"
#include "hyperpart/util/thread_pool.hpp"
#include "hyperpart/workload/workload.hpp"

namespace perfbench {

namespace json = hp::obs::json;

bool Report::op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << "perfbench: operation failed: " << what << "\n";
  }
  return ok;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

namespace {

/// Shortest round-trip decimal form: every digit as measured, no padding.
std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

}  // namespace

std::string Report::result_line() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " +
           number(metrics_[i].value) + ", \"unit\": \"" + metrics_[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s(pid_t pid) {
  clockid_t clock = CLOCK_PROCESS_CPUTIME_ID;
  timespec ts{};
  if ((pid != 0 && ::clock_getcpuclockid(pid, &clock) != 0) ||
      ::clock_gettime(clock, &ts) != 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail tail(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n < 11) {
    t.value = v.back();
    return t;
  }
  // Index n-11 leaves exactly ten samples beyond it.
  t.value = v[n - 11];
  t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return t;
}

std::uint64_t partition_hash(std::span<const hp::PartId> parts) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const hp::PartId p : parts) {
    h ^= p;
    h *= 0x100000001b3ULL;
  }
  return h;
}

double peak_rss_mb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void warm_thread_pool(unsigned threads) {
  std::vector<std::function<void()>> tasks(std::max(1u, threads), [] {});
  hp::run_parallel(tasks, threads);
}

GeneratedFile generate_in_child(const Options& opt, const std::string& spec,
                                hp::NodeId nodes, std::uint64_t seed,
                                const std::string& path) {
  constexpr double kGenerateTimeoutS = 120.0;
  const auto out = hp::subprocess::run_capture(
      opt.self,
      {"--generate", spec, "--nodes", std::to_string(nodes), "--seed",
       std::to_string(seed), "--threads", std::to_string(opt.threads),
       "--out", path},
      kGenerateTimeoutS);
  GeneratedFile f;
  std::istringstream in(out ? *out : "");
  if (!(in >> f.n >> f.m >> f.pins >> f.k >> f.eps >> f.hash >>
        f.generate_s >> f.write_s)) {
    throw std::runtime_error("generating " + spec + " into " + path +
                             " failed");
  }
  return f;
}

int generate_main(const std::string& spec_text, hp::NodeId nodes,
                  std::uint64_t seed, unsigned threads,
                  const std::string& path) {
  hp::workload::WorkloadSpec spec = hp::workload::parse_spec(spec_text);
  spec.target_nodes = nodes;
  spec.seed = seed;
  spec.threads = threads;
  const double t0 = now_s();
  const hp::workload::Workload w = hp::workload::generate(spec);
  const double t1 = now_s();
  hp::stream::write_binary_file(path, w.graph);
  const double t2 = now_s();
  std::cout << w.graph.num_nodes() << " " << w.graph.num_edges() << " "
            << w.graph.num_pins() << " " << w.suggested_k << " "
            << std::setprecision(17) << w.suggested_eps << " "
            << w.graph.content_hash() << " " << t1 - t0 << " " << t2 - t1
            << std::endl;
  return 0;
}

const json::Value* span_child(const json::Value& node,
                              const std::string& name) {
  const json::Value* kids = node.find("spans");
  if (!kids) kids = node.find("children");
  if (!kids || !kids->is_array()) return nullptr;
  for (const json::Value& c : kids->as_array()) {
    const json::Value* n = c.find("name");
    if (n && n->is_string() && n->as_string() == name) return &c;
  }
  return nullptr;
}

double span_ms(const json::Value* node) {
  if (!node) return 0.0;
  const json::Value* ms = node->find("ms");
  return ms && ms->is_number() ? ms->as_double() : 0.0;
}

double span_sum(const json::Value& node, const std::string& prefix,
                const std::string& grandchild) {
  const json::Value* kids = node.find("spans");
  if (!kids) kids = node.find("children");
  if (!kids || !kids->is_array()) return 0.0;
  double sum = 0.0;
  for (const json::Value& c : kids->as_array()) {
    const json::Value* n = c.find("name");
    if (!n || !n->is_string() || n->as_string().rfind(prefix, 0) != 0) {
      continue;
    }
    sum += grandchild.empty() ? span_ms(&c) : span_sum(c, grandchild);
  }
  return sum;
}

void print_layer_table(std::ostream& out, const std::string& title,
                       const std::vector<LayerRow>& rows) {
  std::ios saved(nullptr);
  saved.copyfmt(out);
  out << "# " << title << "\n";
  out << "# " << std::left << std::setw(28) << "layer" << std::right
      << std::setw(12) << "ms" << std::setw(12) << "self_ms" << std::setw(14)
      << "count" << "\n";
  for (const LayerRow& r : rows) {
    out << "# " << std::left << std::setw(28) << r.layer << std::right
        << std::fixed << std::setprecision(1) << std::setw(12) << r.ms
        << std::setw(12) << r.self_ms << std::setprecision(0)
        << std::setw(14) << r.count << "\n";
  }
  out.copyfmt(saved);
}

}  // namespace perfbench
