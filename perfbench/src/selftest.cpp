// Self-tests of the benchmark's checks and failure accounting. A failed
// operation must be counted, never crash the run or vanish from it, and a
// tampered daemon response must be caught by the final-state check.
//
//   perfbench_selftest HYPERPARTD WORKDIR
//       (exit 0 = all pass; python3 perfbench/run.py --selftest builds and
//       runs it with a scratch WORKDIR)

#include <cmath>
#include <iostream>
#include <string>

#include "hyperpart/core/metrics.hpp"
#include "hyperpart/obs/json.hpp"
#include "workloads.hpp"

namespace {

namespace json = hp::obs::json;
using perfbench::Report;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "PASS " : "FAIL ") << what << "\n";
  if (!ok) ++g_failures;
}

/// Two 3-pin nets over six unit nodes.
hp::Hypergraph small_graph() {
  return hp::Hypergraph::from_edges(6, {{0, 1, 2}, {3, 4, 5}, {2, 3}});
}

void infeasible_instance_counts_as_failed() {
  // Node 0 outweighs a part's capacity, so no balanced partition exists.
  hp::Hypergraph g = small_graph();
  g.set_node_weights({100, 1, 1, 1, 1, 1});
  const auto balance = hp::BalanceConstraint::for_graph(g, 2, 0.03, true);
  expect(balance.capacity() < 100, "constructed node is heavier than a part");
  Report rep;
  double secs = -1.0;
  const auto p = perfbench::timed_multilevel(g, balance, {}, nullptr, rep,
                                             &secs);
  expect(!p, "infeasible instance yields no partition");
  expect(rep.attempted() == 1 && rep.failed() == 1,
         "infeasible call counted: attempted 1, failed 1");
  expect(secs >= 0.0, "failed call still timed");
  const json::Value line = json::parse(rep.result_line());
  expect(line.find("correct") && !line.find("correct")->as_bool(),
         "result line reports correct=false");
}

void feasible_instance_passes() {
  const hp::Hypergraph g = small_graph();
  const auto balance = hp::BalanceConstraint::for_graph(g, 2, 0.0, true);
  Report rep;
  double secs = 0.0;
  hp::MultilevelHierarchy hier;
  const auto fresh =
      perfbench::timed_multilevel(g, balance, {}, &hier, rep, &secs);
  const auto reuse =
      perfbench::timed_multilevel(g, balance, {}, &hier, rep, &secs);
  expect(fresh && reuse && rep.failed() == 0 && rep.attempted() == 2,
         "feasible instance passes every output check");
  expect(fresh && reuse && perfbench::partition_hash(fresh->raw()) ==
                               perfbench::partition_hash(reuse->raw()),
         "hierarchy reuse reproduces the partition");
}

void refused_frames_count_as_failed() {
  Report rep;
  expect(!perfbench::checked_frame(std::nullopt, "update", rep),
         "missing response is not accepted");
  expect(!perfbench::checked_frame(
             json::parse(R"({"ok": false, "error": "busy: x"})"), "update",
             rep),
         "ok:false response is not accepted");
  expect(perfbench::checked_frame(json::parse(R"({"ok": true})"), "update",
                                  rep)
             .has_value(),
         "ok:true response is accepted");
  expect(rep.attempted() == 3 && rep.failed() == 2,
         "frames counted: attempted 3, failed 2");
}

void tampered_response_is_caught() {
  const hp::Hypergraph g = small_graph();
  const perfbench::Mirror mirror = perfbench::Mirror::of(g);
  const std::uint64_t hash = g.content_hash();
  const std::vector<hp::PartId> parts{0, 0, 0, 1, 1, 1};
  const hp::Weight cost = hp::cost_of(
      g, hp::Partition(parts, 2), hp::CostMetric::kConnectivity);
  const auto response = [&](hp::Weight c, std::vector<hp::PartId> ps) {
    json::Value r{json::Object{}};
    r.set("ok", true);
    r.set("cost", c);
    json::Array a;
    for (const hp::PartId p : ps) a.emplace_back(static_cast<std::int64_t>(p));
    r.set("parts", json::Value(std::move(a)));
    return r;
  };
  expect(perfbench::final_state_problem(mirror, hash, response(cost, parts), 2,
                                        0.0)
             .empty(),
         "honest response passes the final-state check");
  expect(!perfbench::final_state_problem(mirror, hash,
                                         response(cost + 1, parts), 2, 0.0)
              .empty(),
         "tampered cost is caught");
  std::vector<hp::PartId> moved = parts;
  moved[2] = 1;
  expect(!perfbench::final_state_problem(mirror, hash, response(cost, moved),
                                         2, 0.0)
              .empty(),
         "tampered assignment is caught (cost or balance)");
  std::vector<hp::PartId> unassigned = parts;
  unassigned[0] = hp::kInvalidPart;
  expect(!perfbench::final_state_problem(mirror, hash,
                                         response(cost, unassigned), 2, 0.0)
              .empty(),
         "unassigned node is caught");
  expect(!perfbench::final_state_problem(mirror, hash ^ 1,
                                         response(cost, parts), 2, 0.0)
              .empty(),
         "tampered graph hash is caught");
}

void failed_daemon_start_is_counted(const std::string& workdir) {
  perfbench::Options opt;
  opt.daemon = workdir + "/no-such-hyperpartd";
  opt.workdir = workdir;
  Report rep;
  const auto served = perfbench::start_and_load(
      opt, workdir + "/d.sock", workdir + "/g.hpb", rep);
  expect(!served && rep.attempted() == 1 && rep.failed() == 1,
         "daemon that does not start: counted, attempted 1, failed 1");
}

void failed_load_is_counted(const std::string& daemon,
                            const std::string& workdir) {
  perfbench::Options opt;
  opt.daemon = daemon;
  opt.workdir = workdir;
  Report rep;
  const auto served = perfbench::start_and_load(
      opt, workdir + "/d.sock", workdir + "/missing.hpb", rep);
  expect(!served && rep.attempted() == 2 && rep.failed() == 1,
         "load of a missing file: connect counted, load counted failed");
}

void svc_run_without_daemon_still_reports(const std::string& workdir) {
  perfbench::Options opt;
  opt.workload = "svc-churn";
  opt.daemon = workdir + "/no-such-hyperpartd";
  opt.workdir = workdir;
  opt.seconds = 1.0;
  Report rep;
  bool threw = false;
  try {
    perfbench::run_svc(opt, rep);
  } catch (const std::exception&) {
    threw = true;
  }
  expect(!threw && rep.failed() >= 1,
         "svc-churn run whose daemon never starts does not throw");
  const json::Value line = json::parse(rep.result_line());
  const json::Value* metrics = line.find("metrics");
  bool all = metrics != nullptr;
  for (const char* name :
       {"setup_s", "partition_s", "cost", "peak_rss_mb", "cycles_per_s"}) {
    all = all && metrics->find(name) != nullptr;
  }
  expect(line.find("correct") && !line.find("correct")->as_bool() && all,
         "its result line says correct=false and has every metric");
}

void tail_has_ten_samples_beyond() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const perfbench::Tail t = perfbench::tail(v);
  expect(t.value == 90.0 && std::fabs(t.percentile - 90.0) < 1e-9 &&
             t.samples == 100,
         "tail of 100 samples is p90 with ten beyond");
  expect(perfbench::tail({1, 2, 3}).value == 3.0,
         "short sample tail is its maximum");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << "usage: perfbench_selftest HYPERPARTD WORKDIR\n";
    return 2;
  }
  infeasible_instance_counts_as_failed();
  feasible_instance_passes();
  refused_frames_count_as_failed();
  tampered_response_is_caught();
  failed_daemon_start_is_counted(argv[2]);
  failed_load_is_counted(argv[1], argv[2]);
  svc_run_without_daemon_still_reports(argv[2]);
  tail_has_ten_samples_beyond();
  std::cout << (g_failures == 0 ? "all self-tests passed\n"
                                : "self-tests FAILED\n");
  return g_failures == 0 ? 0 : 1;
}
