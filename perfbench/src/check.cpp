#include "check.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

namespace perfbench {
namespace {

using bsa::EdgeId;
using bsa::LinkId;
using bsa::ProcId;
using bsa::TaskId;
using bsa::Time;

double tol(double a, double b) {
  return 1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}
bool near(double a, double b) { return std::fabs(a - b) <= tol(a, b); }
bool before_or_at(double a, double b) { return a <= b + tol(a, b); }

/// Reports every pair of intervals on one resource that overlap in time.
void check_exclusive(std::vector<std::pair<Time, Time>> busy,
                     const std::string& what, std::vector<std::string>& out) {
  std::sort(busy.begin(), busy.end());
  for (std::size_t i = 1; i < busy.size(); ++i) {
    if (!before_or_at(busy[i - 1].second, busy[i].first)) {
      std::ostringstream os;
      os << what << " at once: [" << busy[i - 1].first << "," << busy[i - 1].second
         << ") overlaps [" << busy[i].first << "," << busy[i].second << ")";
      out.push_back(os.str());
    }
  }
}

}  // namespace

Plan plan_of(const bsa::sched::Schedule& s) {
  const auto& g = s.task_graph();
  Plan p;
  p.tasks.resize(static_cast<std::size_t>(g.num_tasks()));
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    if (!s.is_placed(t)) continue;
    p.tasks[static_cast<std::size_t>(t)] = {s.proc_of(t), s.start_of(t),
                                            s.finish_of(t)};
  }
  p.routes.resize(static_cast<std::size_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    for (const auto& h : s.route_of(e)) {
      p.routes[static_cast<std::size_t>(e)].push_back(
          {h.link, h.start, h.finish});
    }
  }
  const int m = s.topology().num_processors();
  p.proc_order.resize(static_cast<std::size_t>(m));
  for (ProcId q = 0; q < m; ++q) {
    p.proc_order[static_cast<std::size_t>(q)] = s.tasks_on(q);
  }
  p.makespan = s.makespan();
  return p;
}

double lower_bound(const bsa::graph::TaskGraph& g,
                   const bsa::net::HeterogeneousCostModel& cm, int procs) {
  const auto n = static_cast<std::size_t>(g.num_tasks());
  std::vector<double> min_exec(n);
  double total = 0;
  for (TaskId t = 0; t < g.num_tasks(); ++t) {
    double best = cm.exec_cost(t, 0);
    for (ProcId q = 1; q < procs; ++q) best = std::min(best, cm.exec_cost(t, q));
    min_exec[static_cast<std::size_t>(t)] = best;
    total += best;
  }
  // Longest path by Kahn's algorithm over the edge list, without relying
  // on the graph's own topological order.
  std::vector<int> indeg(n, 0);
  std::vector<std::vector<TaskId>> succ(n);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    succ[static_cast<std::size_t>(g.edge_src(e))].push_back(g.edge_dst(e));
    ++indeg[static_cast<std::size_t>(g.edge_dst(e))];
  }
  std::vector<double> finish(n, 0);
  std::vector<TaskId> ready;
  for (std::size_t t = 0; t < n; ++t) {
    if (indeg[t] == 0) ready.push_back(static_cast<TaskId>(t));
  }
  double cp = 0;
  while (!ready.empty()) {
    const auto t = static_cast<std::size_t>(ready.back());
    ready.pop_back();
    finish[t] += min_exec[t];  // finish[t] held the latest predecessor end
    cp = std::max(cp, finish[t]);
    for (const TaskId v : succ[t]) {
      const auto vi = static_cast<std::size_t>(v);
      finish[vi] = std::max(finish[vi], finish[t]);
      if (--indeg[vi] == 0) ready.push_back(v);
    }
  }
  return std::max(cp, total / procs);
}

std::vector<std::string> check_plan(const Plan& plan,
                                    const bsa::graph::TaskGraph& g,
                                    const bsa::net::Topology& topo,
                                    const bsa::net::HeterogeneousCostModel& cm,
                                    double bound) {
  std::vector<std::string> out;
  auto fail = [&out](const auto&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    out.push_back(os.str());
  };
  const int n = g.num_tasks();
  const int m = topo.num_processors();
  if (static_cast<int>(plan.tasks.size()) != n ||
      static_cast<int>(plan.routes.size()) != g.num_edges() ||
      static_cast<int>(plan.proc_order.size()) != m) {
    fail("plan shape does not match the graph/topology");
    return out;
  }

  // Each task placed exactly once, on the processor its slot names, with
  // the cost model's execution time.
  std::vector<int> seen(static_cast<std::size_t>(n), 0);
  for (ProcId q = 0; q < m; ++q) {
    for (const TaskId t : plan.proc_order[static_cast<std::size_t>(q)]) {
      if (t < 0 || t >= n) {
        fail("processor ", q, " lists unknown task ", t);
        continue;
      }
      ++seen[static_cast<std::size_t>(t)];
      if (plan.tasks[static_cast<std::size_t>(t)].proc != q) {
        fail("task ", t, " listed on processor ", q, " but placed on ",
             plan.tasks[static_cast<std::size_t>(t)].proc);
      }
    }
  }
  double largest_finish = 0;
  std::vector<std::vector<std::pair<Time, Time>>> proc_busy(
      static_cast<std::size_t>(m));
  for (TaskId t = 0; t < n; ++t) {
    const TaskSlot& s = plan.tasks[static_cast<std::size_t>(t)];
    if (seen[static_cast<std::size_t>(t)] != 1) {
      fail("task ", t, " placed ", seen[static_cast<std::size_t>(t)],
           " times");
    }
    if (s.proc < 0 || s.proc >= m) {
      fail("task ", t, " on unknown processor ", s.proc);
      continue;
    }
    if (!near(s.finish - s.start, cm.exec_cost(t, s.proc)) || s.start < 0) {
      fail("task ", t, " runs [", s.start, ",", s.finish, ") on P", s.proc,
           " but costs ", cm.exec_cost(t, s.proc));
    }
    proc_busy[static_cast<std::size_t>(s.proc)].emplace_back(s.start,
                                                             s.finish);
    largest_finish = std::max(largest_finish, s.finish);
  }
  if (!out.empty()) return out;
  for (ProcId q = 0; q < m; ++q) {
    check_exclusive(proc_busy[static_cast<std::size_t>(q)],
                    "processor " + std::to_string(q) + " runs two tasks", out);
  }

  // Messages: a contiguous chain of links from the source's processor to
  // the destination's, per-link durations, hops in time order, and the
  // destination starting no earlier than the arrival.
  std::vector<std::vector<std::pair<Time, Time>>> link_busy(
      static_cast<std::size_t>(topo.num_links()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const TaskSlot& src = plan.tasks[static_cast<std::size_t>(g.edge_src(e))];
    const TaskSlot& dst = plan.tasks[static_cast<std::size_t>(g.edge_dst(e))];
    const auto& hops = plan.routes[static_cast<std::size_t>(e)];
    if (src.proc == dst.proc && !hops.empty()) {
      fail("message ", e, " between co-located tasks is routed");
    }
    if (src.proc != dst.proc && hops.empty()) {
      fail("message ", e, " crosses processors without a route");
    }
    ProcId at = src.proc;
    Time ready = src.finish;
    for (std::size_t k = 0; k < hops.size(); ++k) {
      const HopSlot& h = hops[k];
      if (h.link < 0 || h.link >= topo.num_links()) {
        fail("message ", e, " hop ", k, " on unknown link ", h.link);
        at = bsa::kInvalidProc;
        break;
      }
      const auto [a, b] = topo.link_endpoints(h.link);
      if (a != at && b != at) {
        fail("message ", e, " hop ", k, " on link ", h.link,
             " does not leave processor ", at);
      }
      at = a == at ? b : a;
      if (!near(h.finish - h.start, cm.comm_cost(e, h.link))) {
        fail("message ", e, " hop ", k, " lasts ", h.finish - h.start,
             " but costs ", cm.comm_cost(e, h.link));
      }
      if (!before_or_at(ready, h.start)) {
        fail("message ", e, " hop ", k, " starts at ", h.start,
             " before ", ready);
      }
      ready = h.finish;
      link_busy[static_cast<std::size_t>(h.link)].emplace_back(h.start,
                                                               h.finish);
    }
    if (!hops.empty() && at != dst.proc) {
      fail("message ", e, " route ends at P", at, ", not P", dst.proc);
    }
    if (!before_or_at(ready, dst.start)) {
      fail("task ", g.edge_dst(e), " starts at ", dst.start,
           " before message ", e, " arrives at ", ready);
    }
  }
  for (LinkId l = 0; l < topo.num_links(); ++l) {
    check_exclusive(link_busy[static_cast<std::size_t>(l)],
                    "link " + std::to_string(l) + " carries two messages", out);
  }

  if (!near(plan.makespan, largest_finish)) {
    fail("makespan ", plan.makespan, " is not the largest finish ",
         largest_finish);
  }
  if (!before_or_at(bound, plan.makespan)) {
    fail("makespan ", plan.makespan, " is below the lower bound ", bound);
  }
  return out;
}

std::string plan_text(const Plan& plan) {
  std::size_t hops = 0;
  for (const auto& r : plan.routes) hops += r.size();
  std::ostringstream os;
  os << "# schedule: " << plan.tasks.size() << " tasks, " << hops
     << " hops\n";
  for (std::size_t t = 0; t < plan.tasks.size(); ++t) {
    const TaskSlot& s = plan.tasks[t];
    os << "task " << t << ' ' << s.proc << ' ' << s.start << ' ' << s.finish
       << '\n';
  }
  for (std::size_t e = 0; e < plan.routes.size(); ++e) {
    for (const HopSlot& h : plan.routes[e]) {
      os << "hop " << e << ' ' << h.link << ' ' << h.start << ' ' << h.finish
         << '\n';
    }
  }
  return os.str();
}

}  // namespace perfbench
