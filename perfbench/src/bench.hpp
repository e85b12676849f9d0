#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <functional>
#include <iostream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/trace.hpp"

/// \file bench.hpp
/// Shared pieces of the benchmark program: options, the result report,
/// timing and statistics helpers, and span self-time attribution.

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 0;
  bool trace = false;
  /// Path of the bsa_served binary built alongside the benchmark.
  std::string served_path;
  /// Directory for run-time files (daemon socket, log and trace).
  std::string out_dir;
  /// This program, as started (for the set-up processes).
  std::string self_path;
  /// Build the workload's inputs and stop (see spawn_setup_s).
  bool setup_only = false;
};

/// What one run prints: the verdict, operation counts and named metrics.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    const std::lock_guard<std::mutex> lock(mu_);
    metrics_[name] = {value, unit};
  }
  /// Record a failed correctness check (the run still completes).
  void require(bool ok, const std::string& what) {
    if (ok) return;
    const std::lock_guard<std::mutex> lock(mu_);
    if (correct_) std::cerr << "perfbench: check failed: " << what << "\n";
    correct_ = false;
  }
  void attempt(std::int64_t n) { attempted_ += n; }
  void fail(std::int64_t n) { failed_ += n; }
  void print(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  bool correct_ = true;
  std::atomic<std::int64_t> attempted_{0};
  std::atomic<std::int64_t> failed_{0};
  std::map<std::string, std::pair<double, std::string>> metrics_;
};

inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : (v[h - 1] + v[h]) / 2;
}

/// Nearest-rank percentile, q in (0, 1].
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Smallest sample: the estimator for work that is repeated exactly
/// (every pass must reproduce the first one's schedules and counters). The
/// reference host runs the same work up to 1.5x slower for seconds at a
/// time; timing each call or scenario by its fastest pass and summing
/// keeps those stretches out (README.md, "Steadiness").
inline double fastest(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

/// Pin the calling thread, and the threads it starts from then on, to the
/// CPU this pass takes in turn (pass < 0: every CPU the process started
/// with). The reference host slows one CPU at a time, for seconds on end,
/// so passes on different CPUs give each call's fastest pass a CPU that was
/// not slowed.
void pin_for_pass(int pass);

/// Cold set-ups timed per run; setup_s is the fastest.
inline constexpr int kSetupSamples = 7;

/// One cold set-up of a paper-sweep or large-graph run: start this program
/// with --setup-only 1, and take the seconds from its start until it
/// reports its inputs built.
double spawn_setup_s(const Options& opt);

/// Fastest of kSetupSamples cold set-ups, each timed by `once` from the
/// start of a fresh process. Sample k runs pinned to the k-th CPU in turn,
/// so a CPU the host slows holds back only some of them. Back-to-back
/// cold set-ups of large-graph took 23-42 ms in stretches; over ten groups
/// of seven, the fastest of each spread by 5-9% and the median by 20-34%.
double fastest_cold_setup_s(const std::function<double()>& once);

inline double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

inline double ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Peak resident set of this process, in MB.
double self_peak_rss_mb();

/// Self time per span name, in ms: a span's duration minus the durations
/// of the spans nested directly inside it on the same track.
std::map<std::string, double> self_ms_by_name(
    const std::vector<bsa::obs::TraceEvent>& events);

/// Sum a run's deterministic counters into `acc`.
inline void add_counters(std::map<std::string, double>& acc,
                         const std::vector<std::pair<std::string, std::int64_t>>& snap) {
  for (const auto& [name, value] : snap) acc[name] += static_cast<double>(value);
}

/// Report the core (BSA) and sched (SA) layers: `counters` are one pass's
/// summed counters, `self_ms` one traced pass's span self times.
void report_bsa_layers(Report& rep, const std::map<std::string, double>& counters,
                       const std::map<std::string, double>& self_ms);

/// Run fn(i) for i in [0, n) on `threads` threads (untimed phases only).
template <typename Fn>
void parallel_for(std::size_t n, int threads, Fn fn) {
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mu;
  std::vector<std::thread> pool;
  for (int w = 0; w < threads; ++w) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) {
        try {
          fn(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mu);
          if (!error) error = std::current_exception();
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

/// Untimed checking phases use at most this many threads (the core count
/// of the reference machine).
inline constexpr int kCheckThreads = 4;

void run_paper_sweep(const Options& opt, Report& rep);
void run_large_graph(const Options& opt, Report& rep);
void run_serve_mixed(const Options& opt, Report& rep);

}  // namespace perfbench
