// Feeds the benchmark's schedule checker one valid schedule and a set of
// hand-broken copies of it; each broken copy must be rejected with the
// matching complaint. Exit status 0 when every case behaves.
//
//   .bench_build/perfbench/perfbench_check_test   (built by perfbench/run.py)

#include <cmath>
#include <functional>
#include <map>
#include <iostream>
#include <string>
#include <vector>

#include "check.hpp"
#include "exp/experiment.hpp"
#include "sched/scheduler.hpp"
#include "workloads/workload_registry.hpp"

namespace {

using perfbench::Plan;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::cerr << "FAIL: " << what << "\n";
    ++failures;
  }
}

/// The lower bound on hand-computed graphs: a diamond a->{b,c}->d plus
/// independent tasks, on 3 processors with explicit execution costs.
void lower_bound_by_hand() {
  using namespace bsa;
  const net::Topology topo = net::Topology::ring(3);
  auto bound_of = [&](const std::vector<std::vector<Cost>>& extra) {
    std::vector<std::vector<Cost>> costs = {
        {4, 2, 3}, {3, 6, 6}, {5, 5, 7}, {1, 9, 9}};  // a b c d
    costs.insert(costs.end(), extra.begin(), extra.end());
    graph::TaskGraphBuilder b;
    std::vector<Cost> matrix;
    for (const auto& row : costs) {
      b.add_task(1);
      matrix.insert(matrix.end(), row.begin(), row.end());
    }
    b.add_edge(0, 1, 1);
    b.add_edge(0, 2, 1);
    b.add_edge(1, 3, 1);
    b.add_edge(2, 3, 1);
    const graph::TaskGraph g = b.build();
    const auto cm =
        net::HeterogeneousCostModel::from_exec_matrix(g, topo, matrix);
    return perfbench::lower_bound(g, cm, topo.num_processors());
  };
  // Critical path a-c-d = 2+5+1 = 8 < the lone task's 20; load 31/3.
  const double cp = bound_of({{30, 20, 25}});
  expect(std::fabs(cp - 20) < 1e-9,
         "lower bound is the critical path (20), got " + std::to_string(cp));
  // Three 9s: critical path 9 < load (2+3+5+1+27)/3.
  const double load = bound_of({{9, 9, 9}, {9, 9, 9}, {9, 9, 9}});
  expect(std::fabs(load - 38.0 / 3) < 1e-9,
         "lower bound is the load (38/3), got " + std::to_string(load));
}

}  // namespace

int main() {
  using namespace bsa;
  lower_bound_by_hand();
  // Coarse granularity on a ring: BSA spreads the tasks, so the schedule
  // has local, one-hop and multi-hop messages.
  const graph::TaskGraph g =
      workloads::WorkloadRegistry::global().resolve("random")->generate(60, 10.0,
                                                                        7);
  const net::Topology topo = net::Topology::ring(8);
  const auto cm = exp::make_cost_model(g, topo, 1, 10, 1, 10, false, 11);
  const auto r = sched::SchedulerRegistry::global().resolve("bsa")->run(
      g, topo, cm, 1);
  const Plan good = perfbench::plan_of(r.schedule);
  const double lb = perfbench::lower_bound(g, cm, topo.num_processors());

  const auto clean = perfbench::check_plan(good, g, topo, cm, lb);
  expect(clean.empty(), "valid schedule accepted" +
                            (clean.empty() ? "" : ": " + clean.front()));
  expect(lb > 0 && lb <= good.makespan, "lower bound within (0, makespan]");

  // Landmarks for the mutations.
  EdgeId routed = kInvalidEdge, multi = kInvalidEdge, local = kInvalidEdge;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& hops = good.routes[static_cast<std::size_t>(e)];
    if (hops.size() == 1 && routed == kInvalidEdge) routed = e;
    if (hops.size() >= 2 && multi == kInvalidEdge) multi = e;
    if (hops.empty() && local == kInvalidEdge) local = e;
  }
  ProcId busy = kInvalidProc;
  for (ProcId p = 0; p < topo.num_processors(); ++p) {
    if (good.proc_order[static_cast<std::size_t>(p)].size() >= 2) busy = p;
  }
  expect(routed != kInvalidEdge && multi != kInvalidEdge &&
             local != kInvalidEdge && busy != kInvalidProc,
         "fixture has one-hop, multi-hop and local messages and a busy "
         "processor");
  if (failures > 0) return 1;
  const auto idx = [](auto v) { return static_cast<std::size_t>(v); };
  const TaskId first = good.proc_order[idx(busy)][0];
  const TaskId second = good.proc_order[idx(busy)][1];
  const TaskId sink = g.edge_dst(routed);

  struct Case {
    const char* name;
    const char* complaint;
    std::function<void(Plan&)> breakit;
    double bound;
  };
  const std::vector<Case> cases = {
      {"task duration off the cost model", "costs",
       [&](Plan& p) { p.tasks[idx(first)].finish += 1; }, lb},
      {"task placed twice", "placed 2 times",
       [&](Plan& p) { p.proc_order[idx(busy)].push_back(first); }, lb},
      {"task never placed", "placed 0 times",
       [&](Plan& p) {
         auto& order = p.proc_order[idx(busy)];
         order.erase(order.begin());
       },
       lb},
      {"tasks overlap on a processor", "runs two tasks at once",
       [&](Plan& p) {
         auto& s = p.tasks[idx(second)];
         const double shift = s.start - p.tasks[idx(first)].start;
         s.start -= shift;
         s.finish -= shift;
       },
       lb},
      {"task starts before its message arrives", "before message",
       [&](Plan& p) {
         auto& s = p.tasks[idx(sink)];
         const double shift = s.start - good.routes[idx(routed)][0].start;
         s.start -= shift;
         s.finish -= shift;
       },
       lb},
      {"route leaves from the wrong processor", "does not leave",
       [&](Plan& p) {
         auto& hops = p.routes[idx(multi)];
         std::swap(hops[0], hops[1]);
       },
       lb},
      {"route ends at the wrong processor", "route ends",
       [&](Plan& p) { p.routes[idx(multi)].pop_back(); }, lb},
      {"hop duration off the cost model", "lasts",
       [&](Plan& p) { p.routes[idx(routed)][0].finish += 1; }, lb},
      {"hops out of time order", "starts at",
       [&](Plan& p) {
         auto& hops = p.routes[idx(multi)];
         hops[1].start = hops[0].start - 1;
         hops[1].finish = hops[1].start +
                          cm.comm_cost(multi, hops[1].link);
       },
       lb},
      {"crossing message without a route", "without a route",
       [&](Plan& p) { p.routes[idx(routed)].clear(); }, lb},
      {"co-located message with a route", "co-located",
       [&](Plan& p) { p.routes[idx(local)] = p.routes[idx(routed)]; }, lb},
      {"two messages share a link at once", "carries two messages at once",
       [&](Plan& p) {
         // Move one booked hop onto another message's interval on the
         // same link.
         std::map<LinkId, std::pair<EdgeId, int>> first_on;
         for (EdgeId e = 0; e < g.num_edges(); ++e) {
           auto& hops = p.routes[idx(e)];
           for (std::size_t k = 0; k < hops.size(); ++k) {
             const auto it = first_on.find(hops[k].link);
             if (it == first_on.end()) {
               first_on[hops[k].link] = {e, static_cast<int>(k)};
               continue;
             }
             const auto& other =
                 p.routes[idx(it->second.first)][idx(it->second.second)];
             hops[k].start = other.start;
             hops[k].finish = other.start + cm.comm_cost(e, hops[k].link);
             return;
           }
         }
       },
       lb},
      {"makespan is not the largest finish", "largest finish",
       [&](Plan& p) { p.makespan += 1; }, lb},
      {"makespan below the lower bound", "lower bound",
       [&](Plan&) {}, good.makespan * 1.5},
  };
  for (const Case& c : cases) {
    Plan bad = good;
    c.breakit(bad);
    const auto violations = perfbench::check_plan(bad, g, topo, cm, c.bound);
    bool named = false;
    for (const auto& i : violations) {
      named = named || i.find(c.complaint) != std::string::npos;
    }
    expect(named, std::string(c.name) + " rejected with \"" + c.complaint +
                      "\"" +
                      (violations.empty() ? " (accepted)"
                                      : ", got: " + violations.front()));
  }
  std::cout << (failures == 0 ? "ok" : "FAILED") << ": " << cases.size()
            << " broken schedules, 2 hand-computed lower bounds\n";
  return failures == 0 ? 0 : 1;
}
