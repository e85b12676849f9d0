// perfbench — the repository benchmark program.
//
//   perfbench --workload paper-sweep|large-graph|serve-mixed --seed N
//             --seconds S --trace 0|1 --served PATH --out-dir DIR
//             [--setup-only 1]
//
// Builds the workload's inputs from --seed, measures for about --seconds,
// checks every schedule with the benchmark's own checker, and prints one
// JSON object as the last line of stdout. --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer metrics. perfbench/
// run.py builds this binary and is the intended entry point.
//
// With --setup-only 1 it only builds the workload's inputs, prints
// "ready" and exits: the benchmark times such processes for setup_s.

#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <limits>
#include <sstream>

#include "bench.hpp"

namespace perfbench {

void Report::print(std::ostream& os) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << std::setprecision(12) << "{\"correct\": " << (correct_ ? "true" : "false")
      << ", \"attempted\": " << attempted_.load()
      << ", \"failed\": " << failed_.load() << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << v
        << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  out << "}}";
  os << out.str() << std::endl;
}

void pin_for_pass(int pass) {
  static const cpu_set_t initial = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) CPU_SET(0, &set);
    return set;
  }();
  cpu_set_t set = initial;
  if (pass >= 0) {
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &initial)) cpus.push_back(c);
    }
    CPU_ZERO(&set);
    CPU_SET(cpus[static_cast<std::size_t>(pass) % cpus.size()], &set);
  }
  (void)sched_setaffinity(0, sizeof set, &set);  // best effort
}

double self_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KB
}

std::map<std::string, double> self_ms_by_name(
    const std::vector<bsa::obs::TraceEvent>& events) {
  struct Open {
    const bsa::obs::TraceEvent* ev;
    double self_us;
  };
  std::map<std::uint32_t, std::vector<const bsa::obs::TraceEvent*>> tracks;
  for (const auto& e : events) {
    if (e.ph == 'X') tracks[e.tid].push_back(&e);
  }
  std::map<std::string, double> self;
  for (auto& [tid, evs] : tracks) {
    std::stable_sort(evs.begin(), evs.end(), [](const auto* a, const auto* b) {
      return a->ts_us != b->ts_us ? a->ts_us < b->ts_us : a->dur_us > b->dur_us;
    });
    std::vector<Open> stack;
    auto close_until = [&](double ts) {
      while (!stack.empty() &&
             stack.back().ev->ts_us + stack.back().ev->dur_us <= ts + 1e-3) {
        self[stack.back().ev->name] += stack.back().self_us / 1000.0;
        stack.pop_back();
      }
    };
    for (const auto* e : evs) {
      close_until(e->ts_us);
      if (!stack.empty()) stack.back().self_us -= e->dur_us;
      stack.push_back({e, e->dur_us});
    }
    close_until(std::numeric_limits<double>::infinity());
  }
  return self;
}

void report_bsa_layers(Report& rep, const std::map<std::string, double>& counters,
                       const std::map<std::string, double>& self_ms) {
  auto ctr = [&counters](const std::string& name) {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  };
  auto span = [&self_ms](const std::string& name) {
    const auto it = self_ms.find(name);
    return it == self_ms.end() ? 0.0 : it->second;
  };
  for (const char* name :
       {"bsa.retime.nodes_recomputed", "bsa.txn.journal_records",
        "bsa.replay_fallbacks", "bsa.retime.full_rebuilds",
        "bsa.retime.migrations", "bsa.migrations", "bsa.considered",
        "bsa.rejected.no_gain", "bsa.rejected.makespan_guard", "sa.proposed",
        "sa.accepted", "sa.best_updates", "sa.replay_fallbacks"}) {
    rep.metric(name, ctr(name), "count");
  }
  rep.metric("core.bsa.retime_useful",
             ratio(ctr("bsa.txn.journal_records"),
                   ctr("bsa.retime.nodes_recomputed")),
             "ratio");
  rep.metric("core.bsa.commit_rate",
             ratio(ctr("bsa.migrations"), ctr("bsa.considered")), "ratio");
  rep.metric("sched.sa.fallback_rate",
             ratio(ctr("sa.replay_fallbacks"), ctr("sa.proposed")), "ratio");
  rep.metric("core.bsa.retime_ms", span("retime"), "ms");
  rep.metric("core.bsa.replay_ms", span("replay"), "ms");
  rep.metric("core.bsa.rollback_ms", span("rollback"), "ms");
  rep.metric("core.bsa.pivot_ms", span("pivot"), "ms");
  rep.metric("core.bsa.prelude_ms",
             span("pivot_selection") + span("serialization") + span("injection"),
             "ms");
  // The scheduler-run span's own time: with the five above, the whole of
  // a traced BSA call.
  rep.metric("core.bsa.other_ms", span("bsa"), "ms");
}

double spawn_setup_s(const Options& opt) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], 1);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<std::string> args = {
      opt.self_path, "--workload",  opt.workload,
      "--seed",      std::to_string(opt.seed), "--seconds", "1",
      "--trace",     "0",          "--served",  opt.served_path,
      "--out-dir",   opt.out_dir,  "--setup-only", "1"};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  const auto t0 = Clock::now();
  const int rc = ::posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(),
                               environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  char buf[16];
  ssize_t got = -1;
  if (rc == 0) {
    do {
      got = ::read(fds[0], buf, sizeof buf);
    } while (got < 0 && errno == EINTR);
  }
  const double seconds = ms_since(t0) / 1000.0;
  ::close(fds[0]);
  int status = 0;
  if (rc == 0) ::waitpid(pid, &status, 0);
  if (rc != 0 || got <= 0 || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up process failed");
  }
  return seconds;
}

double fastest_cold_setup_s(const std::function<double()>& once) {
  std::vector<double> samples;
  for (int k = 0; k < kSetupSamples; ++k) {
    pin_for_pass(k);
    samples.push_back(once());
  }
  pin_for_pass(-1);
  return fastest(samples);
}

namespace {

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload paper-sweep|large-graph|"
               "serve-mixed --seed N --seconds S --trace 0|1 --served PATH "
               "--out-dir DIR\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  pin_for_pass(-1);  // record the starting CPU set
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage("expected --key value pairs");
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return usage("expected --key value pairs");
  for (const char* need : {"workload", "seed", "seconds", "trace", "served",
                           "out-dir"}) {
    if (args.count(need) == 0) return usage("missing an option");
  }
  try {
    Options opt;
    opt.workload = args["workload"];
    opt.seed = std::stoull(args["seed"]);
    opt.seconds = std::stod(args["seconds"]);
    opt.trace = args["trace"] == "1";
    opt.served_path = args["served"];
    opt.out_dir = args["out-dir"];
    opt.self_path = argv[0];
    opt.setup_only = args["setup-only"] == "1";
    if (opt.seconds <= 0) return usage("--seconds must be positive");
    if (opt.setup_only && opt.workload == "serve-mixed") {
      return usage("serve-mixed's set-up is a daemon start, not --setup-only");
    }

    Report rep;
    if (opt.workload == "paper-sweep") {
      run_paper_sweep(opt, rep);
    } else if (opt.workload == "large-graph") {
      run_large_graph(opt, rep);
    } else if (opt.workload == "serve-mixed") {
      run_serve_mixed(opt, rep);
    } else {
      return usage("unknown workload");
    }
    if (opt.setup_only) {
      std::cout << "ready" << std::endl;
    } else {
      rep.print(std::cout);
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
