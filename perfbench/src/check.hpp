#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "graph/task_graph.hpp"
#include "network/cost_model.hpp"
#include "network/topology.hpp"
#include "sched/schedule.hpp"

/// \file check.hpp
/// The benchmark's own schedule checker and lower bound. It reads a
/// schedule only through plain data (Plan), so it shares no code with the
/// program's sched::validate(), and hand-broken plans can be fed to it.

namespace perfbench {

struct TaskSlot {
  bsa::ProcId proc = bsa::kInvalidProc;
  bsa::Time start = 0;
  bsa::Time finish = 0;
};

struct HopSlot {
  bsa::LinkId link = bsa::kInvalidLink;
  bsa::Time start = 0;
  bsa::Time finish = 0;
};

/// A schedule as plain data: one slot per task (by TaskId), one route per
/// message (by EdgeId, hops in route order), the task order of every
/// processor, and the makespan the scheduler reported.
struct Plan {
  std::vector<TaskSlot> tasks;
  std::vector<std::vector<HopSlot>> routes;
  std::vector<std::vector<bsa::TaskId>> proc_order;
  bsa::Time makespan = 0;
};

/// Copy a finished schedule into a Plan through Schedule's public queries.
[[nodiscard]] Plan plan_of(const bsa::sched::Schedule& s);

/// max(critical path at minimum exec cost with zero communication,
///     sum of minimum exec costs / processors).
[[nodiscard]] double lower_bound(const bsa::graph::TaskGraph& g,
                                 const bsa::net::HeterogeneousCostModel& cm,
                                 int procs);

/// Every violation found (empty when the plan is a valid schedule of `g`
/// on `topo` under `cm` whose makespan is at least `bound`).
[[nodiscard]] std::vector<std::string> check_plan(
    const Plan& plan, const bsa::graph::TaskGraph& g,
    const bsa::net::Topology& topo,
    const bsa::net::HeterogeneousCostModel& cm, double bound);

/// The plan in the program's native schedule text format, written here
/// independently so a served schedule can be compared with it byte for
/// byte.
[[nodiscard]] std::string plan_text(const Plan& plan);

}  // namespace perfbench
