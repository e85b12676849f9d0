// serve-mixed: a bsa_served daemon with 2 pool workers and 2 closed-loop
// connections at window 1. Each connection alternates a distinct 50-task
// random/bsa/ring request (a cache miss) with a request for one of 16 hot
// keys warmed before timing (a cache hit). A round is 32 requests on one
// connection: 16 misses and 16 hits.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "check.hpp"
#include "exp/experiment.hpp"
#include "network/routing.hpp"
#include "sched/scheduler.hpp"
#include "serve/client.hpp"
#include "workloads/workload_registry.hpp"

namespace perfbench {
namespace {

using bsa::serve::Client;
using bsa::serve::Request;
using bsa::serve::Response;

constexpr int kConnections = 2;
constexpr int kHotKeys = 16;
/// The daemon's cache holds kCacheEntries schedules; more warm-up misses
/// than that fill it before timing, so every timed miss evicts an entry and
/// the daemon's memory no longer grows with the number of requests served.
constexpr int kCacheEntries = 512;
constexpr int kWarmMisses = 640;
constexpr int kPairsPerRound = 16;  // (miss, hit) pairs in one round

const bsa::serve::ClientOptions kClientOptions = [] {
  bsa::serve::ClientOptions co;
  co.connect_timeout_ms = 20000;
  co.read_timeout_ms = 30000;
  return co;
}();

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

Request schedule_request(std::uint64_t seed) {
  Request r;  // protocol defaults: random / bsa / ring, 8 procs
  r.size = 50;
  r.seed = seed;
  return r;
}

/// One answered miss, kept for the in-process recomputation.
struct Miss {
  std::uint64_t seed = 0;
  double makespan = 0;
  std::uint64_t text_hash = 0;
  std::map<std::string, double> counters;
};

/// A bsa_served child process. The destructor makes sure it is gone.
class Daemon {
 public:
  Daemon(const Options& opt, const std::string& tag, bool traced)
      : socket_(opt.out_dir + "/" + tag + ".sock"),
        log_(opt.out_dir + "/" + tag + ".log"),
        trace_(traced ? opt.out_dir + "/" + tag + "-trace.json" : "") {
    ::unlink(socket_.c_str());
    std::vector<std::string> args = {opt.served_path, "--socket", socket_,
                                     "--threads", "2", "--cache",
                                     std::to_string(kCacheEntries)};
    if (traced) {
      args.emplace_back("--trace");
      args.push_back(trace_);
    }
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
      const int fd = ::open(log_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
      std::vector<char*> argv;
      for (auto& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    ::unlink(socket_.c_str());
    ::unlink(log_.c_str());
    if (!trace_.empty()) ::unlink(trace_.c_str());
  }

  [[nodiscard]] const std::string& socket() const { return socket_; }

  /// Wait until the daemon accepts connections, probing every 0.1 ms.
  /// serve::connect_unix retries a refused connect only every 10 ms, which
  /// would round the daemon's start-up time up to that step.
  void wait_ready() const {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_.c_str(), sizeof addr.sun_path - 1);
    const auto t0 = Clock::now();
    for (;;) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
      const bool up =
          fd >= 0 && ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                               sizeof addr) == 0;
      if (fd >= 0) ::close(fd);
      if (up) return;
      if (ms_since(t0) > kClientOptions.connect_timeout_ms) {
        throw std::runtime_error("daemon did not start listening");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  /// VmHWM of the daemon, in MB.
  [[nodiscard]] double peak_rss_mb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
      }
    }
    return 0;
  }

  /// Stop through the protocol's shutdown op; fall back to SIGTERM and
  /// then SIGKILL when the daemon does not exit in time. True when the
  /// shutdown op alone ended it with status 0.
  bool shutdown(Client& client) {
    bool clean = false;
    try {
      clean = client.shutdown_server().ok;
    } catch (const std::exception&) {
    }
    client.close();
    int status = 0;
    const int sigs[] = {0, SIGTERM, SIGKILL};
    for (const int sig : sigs) {
      if (sig != 0) ::kill(pid_, sig);
      const auto t0 = Clock::now();
      while (ms_since(t0) < 10000) {
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          ::unlink(socket_.c_str());
          return clean && sig == 0 && WIFEXITED(status) &&
                 WEXITSTATUS(status) == 0;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    return false;
  }

  /// Complete spans of the daemon's trace file (after shutdown).
  [[nodiscard]] std::vector<bsa::obs::TraceEvent> trace_events() const {
    std::ifstream in(trace_);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    std::vector<bsa::obs::TraceEvent> out;
    const std::string head = "{\"name\":\"";
    for (std::size_t p = text.find(head); p != std::string::npos;
         p = text.find(head, p + 1)) {
      const std::size_t name_end = text.find('"', p + head.size());
      if (name_end == std::string::npos) break;
      if (text.compare(name_end, 9, "\",\"cat\":\"") != 0) continue;
      auto number_after = [&](const char* key, std::size_t from) {
        const std::size_t k = text.find(key, from);
        return k == std::string::npos
                   ? 0.0
                   : std::strtod(text.c_str() + k + std::strlen(key), nullptr);
      };
      const std::size_t ph = text.find("\"ph\":\"", name_end);
      if (ph == std::string::npos || text[ph + 6] != 'X') continue;
      bsa::obs::TraceEvent e;
      e.name = text.substr(p + head.size(), name_end - p - head.size());
      e.ts_us = number_after("\"ts\":", ph);
      e.dur_us = number_after("\"dur\":", ph);
      e.tid = static_cast<std::uint32_t>(number_after("\"tid\":", ph));
      out.push_back(std::move(e));
    }
    return out;
  }

 private:
  std::string socket_;
  std::string log_;
  std::string trace_;
  pid_t pid_ = -1;
};

/// One round on one connection: kPairsPerRound misses and as many hits.
struct Round {
  double ms = 0;
  double miss_ms = 0;  ///< summed miss latency
  std::vector<double> miss_lat_ms, hit_lat_ms;
};

/// Medians over every round of a timed phase. No request repeats exactly,
/// so there is no per-call fastest sample to keep. Over eight seeds in a
/// calm stretch the median round spread by 3.0% (quartiles over median)
/// and the median round of the fastest 1 s window by 9.6%; while the host
/// was loaded both spread by ~10%.
struct Summary {
  double round_ms = 0;
  double miss_sum_ms = 0;
  double miss_p50_ms = 0, hit_p50_ms = 0, miss_p90_ms = 0, hit_p90_ms = 0;
  double req_per_s = 0;
};

Summary summarize(const std::vector<Round>& rounds, double timed_ms) {
  std::vector<double> ms, miss_sum, miss, hit;
  for (const Round& r : rounds) {
    ms.push_back(r.ms);
    miss_sum.push_back(r.miss_ms);
    miss.insert(miss.end(), r.miss_lat_ms.begin(), r.miss_lat_ms.end());
    hit.insert(hit.end(), r.hit_lat_ms.begin(), r.hit_lat_ms.end());
  }
  Summary out;
  out.round_ms = median(ms);
  out.miss_sum_ms = median(miss_sum);
  out.miss_p50_ms = median(miss);
  out.hit_p50_ms = median(hit);
  out.miss_p90_ms = percentile(miss, 0.9);
  out.hit_p90_ms = percentile(hit, 0.9);
  out.req_per_s =
      static_cast<double>(miss.size() + hit.size()) / (timed_ms / 1000.0);
  return out;
}

/// Everything one daemon session measured.
struct Session {
  double peak_rss_mb = 0;
  std::vector<Round> rounds;
  double timed_ms = 0;
  std::int64_t timed_requests = 0;
  std::vector<Miss> misses;  // warm-up and timed
  std::map<std::string, Response> hot;
  std::map<std::string, double> stats;
  std::vector<bsa::obs::TraceEvent> trace;
};

double stat(const Response& r, const std::string& name) {
  return r.number("ctr:" + name, 0);
}

Miss miss_of(const Response& r, std::uint64_t seed) {
  Miss m;
  m.seed = seed;
  m.makespan = r.makespan();
  m.text_hash = fnv1a(r.schedule_text());
  for (const auto& [key, value] : r.payload) {
    if (key.rfind("ctr:", 0) == 0 && std::holds_alternative<double>(value)) {
      m.counters[key.substr(4)] = std::get<double>(value);
    }
  }
  return m;
}

/// Run one daemon for `seconds` of timed closed-loop load. `index` keeps
/// the miss keys of the two sessions of a traced run apart.
Session run_session(const Options& opt, Report& rep, int index, bool traced,
                    double seconds) {
  Session out;
  const std::uint64_t base = (opt.seed % 100000) * 100000000ULL;
  Daemon daemon(opt, "serve-" + std::to_string(::getpid()) + "-" +
                         std::to_string(index),
                traced);
  daemon.wait_ready();
  auto control = Client::connect_ptr(daemon.socket(), kClientOptions);
  rep.require(control->ping().ok, "daemon did not answer ping");

  // Warm-up, untimed: distinct misses that fill the cache, then the hot set.
  std::vector<Request> hot_reqs;
  for (int k = 0; k < kHotKeys; ++k) {
    hot_reqs.push_back(schedule_request(base + static_cast<std::uint64_t>(k)));
  }
  auto answered = [&](const Response& r, std::uint64_t sent_id) {
    rep.require(r.id == sent_id, "response id does not match its request");
    if (!r.ok) rep.fail(1);
    return r.ok;
  };
  for (int j = 0; j < kWarmMisses; ++j) {
    const std::uint64_t seed =
        base + 100 + static_cast<std::uint64_t>(index * kWarmMisses + j);
    const std::uint64_t id = control->send(schedule_request(seed));
    const Response r = control->recv();
    rep.attempt(1);
    if (answered(r, id)) out.misses.push_back(miss_of(r, seed));
  }
  for (const Request& req : hot_reqs) {
    const std::uint64_t id = control->send(req);
    const Response r = control->recv();
    rep.attempt(1);
    if (!answered(r, id)) continue;
    out.hot.emplace(std::to_string(req.seed), r);
    out.misses.push_back(miss_of(r, req.seed));
  }
  const double hits_before = stat(control->stats(), "serve.cache.hits");

  // Timed closed loop: each connection alternates a miss and a hit.
  std::vector<std::int64_t> hot_sent(kConnections, 0);
  std::vector<std::int64_t> sent(kConnections, 0);
  std::vector<Session> per_conn(kConnections);
  const auto t_start = Clock::now();
  std::vector<std::thread> loaders;
  for (int c = 0; c < kConnections; ++c) {
    loaders.emplace_back([&, c] {
      Session& s = per_conn[static_cast<std::size_t>(c)];
      try {
        auto client = Client::connect_ptr(daemon.socket(), kClientOptions);
        std::uint64_t next_miss = 0;
        while (ms_since(t_start) < seconds * 1000.0) {
          const auto r0 = Clock::now();
          Round round;
          for (int k = 0; k < kPairsPerRound; ++k) {
            for (const bool hit : {false, true}) {
              const std::uint64_t seed =
                  hit ? base + static_cast<std::uint64_t>(k)
                      : base + 1000000 +
                            static_cast<std::uint64_t>(index) * 40000000 +
                            static_cast<std::uint64_t>(c) * 20000000 +
                            next_miss++;
              const auto t0 = Clock::now();
              const std::uint64_t id = client->send(schedule_request(seed));
              const Response r = client->recv();
              const double lat = ms_since(t0);
              ++sent[static_cast<std::size_t>(c)];
              rep.attempt(1);
              if (!answered(r, id)) continue;
              if (hit) {
                ++hot_sent[static_cast<std::size_t>(c)];
                const Response& first = out.hot.at(std::to_string(seed));
                rep.require(r.cached && r.payload == first.payload,
                            "hit differs from the miss that filled it");
                round.hit_lat_ms.push_back(lat);
              } else {
                round.miss_lat_ms.push_back(lat);
                round.miss_ms += lat;
                s.misses.push_back(miss_of(r, seed));
              }
            }
          }
          round.ms = ms_since(r0);
          s.rounds.push_back(std::move(round));
        }
        client->close();
      } catch (const std::exception& e) {
        rep.fail(1);
        rep.require(false, std::string("connection failed: ") + e.what());
      }
    });
  }
  for (auto& t : loaders) t.join();
  out.timed_ms = ms_since(t_start);
  for (int c = 0; c < kConnections; ++c) {
    Session& s = per_conn[static_cast<std::size_t>(c)];
    out.rounds.insert(out.rounds.end(), s.rounds.begin(), s.rounds.end());
    out.misses.insert(out.misses.end(), s.misses.begin(), s.misses.end());
    out.timed_requests += sent[static_cast<std::size_t>(c)];
  }

  const Response st = control->stats();
  for (const char* name :
       {"serve.requests", "serve.batches", "serve.batch_dedup",
        "serve.cache.hits", "serve.cache.misses", "serve.cache.evictions"}) {
    out.stats[name] = stat(st, name);
  }
  std::int64_t hot_total = 0;
  for (const auto h : hot_sent) hot_total += h;
  rep.require(out.stats["serve.cache.hits"] - hits_before ==
                  static_cast<double>(hot_total),
              "daemon cache hits differ from the hot requests sent");
  // Every request of this session (warm-up, timed and the control ops so
  // far) reached the daemon exactly once.
  rep.require(out.stats["serve.requests"] ==
                  static_cast<double>(kHotKeys + kWarmMisses +
                                      out.timed_requests + 3),
              "daemon request count differs from the requests sent");
  out.peak_rss_mb = daemon.peak_rss_mb();
  rep.require(daemon.shutdown(*control), "daemon did not shut down cleanly");
  if (traced) out.trace = daemon.trace_events();
  return out;
}

/// Recompute every miss in-process and check it: schedule text equal to
/// the served one, checker and lower bound. Returns the gaps; adds the
/// generation / network build times of the recomputation.
std::vector<double> recompute(const Session& s, Report& rep,
                              double* generate_ms, double* network_ms) {
  using namespace bsa;
  std::vector<double> gaps(s.misses.size(), 0);
  std::vector<double> gen(s.misses.size(), 0), net_ms(s.misses.size(), 0);
  parallel_for(s.misses.size(), kCheckThreads, [&](std::size_t i) {
    const Miss& m = s.misses[i];
    const Request req = schedule_request(m.seed);
    auto t0 = Clock::now();
    const graph::TaskGraph g = workloads::WorkloadRegistry::global()
                                   .resolve(req.workload)
                                   ->generate(req.size, req.gran, req.seed);
    gen[i] = ms_since(t0);
    t0 = Clock::now();
    const net::Topology topo =
        exp::make_topology(req.topology, req.procs, req.seed);
    const net::RoutingTable routes(topo);
    const auto cm = net::HeterogeneousCostModel::uniform_processor_speeds(
        g, topo, 1, req.het, 1, req.link_het, req.seed);
    net_ms[i] = ms_since(t0);
    const auto r = sched::SchedulerRegistry::global().resolve(req.algo)->run(
        g, topo, cm, req.seed);
    const Plan plan = plan_of(r.schedule);
    const double lb = lower_bound(g, cm, topo.num_processors());
    const auto violations = check_plan(plan, g, topo, cm, lb);
    rep.require(violations.empty(), "served schedule, seed " +
                                    std::to_string(m.seed) + ": " +
                                    (violations.empty() ? "" : violations.front()));
    const std::string text = plan_text(plan);
    rep.require(fnv1a(text) == m.text_hash && r.makespan() == m.makespan,
                "served schedule differs from the in-process one, seed " +
                    std::to_string(m.seed));
    const auto hot = s.hot.find(std::to_string(m.seed));
    if (hot != s.hot.end()) {
      rep.require(hot->second.schedule_text() == text,
                  "hot schedule text differs from the in-process one");
    }
    gaps[i] = r.makespan() / lb;
  });
  for (std::size_t i = 0; i < gen.size(); ++i) {
    *generate_ms += gen[i];
    *network_ms += net_ms[i];
  }
  return gaps;
}

/// Sum of the durations of `name` spans, and how many there were.
std::pair<double, double> span_total(
    const std::vector<bsa::obs::TraceEvent>& ev, const std::string& name) {
  double total = 0, count = 0;
  for (const auto& e : ev) {
    if (e.name == name) {
      total += e.dur_us / 1000.0;
      ++count;
    }
  }
  return {total, count};
}

/// Mean self time of serve.batch per batch: the batch span minus its
/// respond span and the wall time covered by its cells' schedule spans,
/// which run on pool-worker tracks.
double batch_self_ms(const std::vector<bsa::obs::TraceEvent>& ev) {
  std::vector<const bsa::obs::TraceEvent*> batches, inner;
  for (const auto& e : ev) {
    if (e.name == "serve.batch") batches.push_back(&e);
    if (e.name == "serve.respond" || e.name == "serve.schedule") {
      inner.push_back(&e);
    }
  }
  double total = 0;
  for (const auto* b : batches) {
    std::vector<std::pair<double, double>> iv;
    for (const auto* e : inner) {
      if (e->ts_us >= b->ts_us && e->ts_us < b->ts_us + b->dur_us) {
        iv.emplace_back(e->ts_us, e->ts_us + e->dur_us);
      }
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0, end = -1;
    for (const auto& [s, f] : iv) {
      if (s > end) {
        covered += f - s;
        end = f;
      } else if (f > end) {
        covered += f - end;
        end = f;
      }
    }
    total += (b->dur_us - covered) / 1000.0;
  }
  return batches.empty() ? 0 : total / static_cast<double>(batches.size());
}

}  // namespace

void run_serve_mixed(const Options& opt, Report& rep) {
  // Set-up: a daemon started and its first ping answered.
  int started = 0;
  const double setup_s = fastest_cold_setup_s([&] {
    const auto t0 = Clock::now();
    Daemon daemon(opt, "setup-" + std::to_string(::getpid()) + "-" +
                           std::to_string(started++),
                  false);
    daemon.wait_ready();
    auto client = Client::connect_ptr(daemon.socket(), kClientOptions);
    rep.require(client->ping().ok, "daemon did not answer ping");
    const double s = ms_since(t0) / 1000.0;
    rep.require(daemon.shutdown(*client), "daemon did not shut down cleanly");
    return s;
  });
  // A traced run measures an untraced and a traced daemon for half the
  // time each; their difference is the tracing overhead.
  const Session plain = run_session(opt, rep, 0, false,
                                    opt.trace ? opt.seconds / 2 : opt.seconds);
  double generate_ms = 0, network_ms = 0;
  const std::vector<double> gaps =
      recompute(plain, rep, &generate_ms, &network_ms);
  const double misses = static_cast<double>(plain.misses.size());
  const Summary plain_sum = summarize(plain.rounds, plain.timed_ms);

  if (!opt.trace) {
    rep.metric("setup_s", setup_s, "s");
    rep.metric("peak_rss_mb", plain.peak_rss_mb, "MB");
    rep.metric("pass_s", plain_sum.round_ms / 1000.0, "s");
    rep.metric("bsa_ms", plain_sum.miss_sum_ms, "ms");
    rep.metric("bsa_gap", geomean(gaps), "ratio");
    return;
  }

  const Session traced = run_session(opt, rep, 1, true, opt.seconds / 2);
  double unused_gen = 0, unused_net = 0;
  (void)recompute(traced, rep, &unused_gen, &unused_net);

  // Per-layer values are per round (16 misses + 16 hits on a connection).
  const double per_round = kPairsPerRound / misses;
  rep.metric("workloads.generate_ms", generate_ms * per_round, "ms");
  rep.metric("workloads.tasks", 50.0 * kPairsPerRound, "count");
  rep.metric("network.build_ms", network_ms * per_round, "ms");
  std::map<std::string, double> counters;
  for (const Miss& m : plain.misses) {
    for (const auto& [k, v] : m.counters) counters[k] += v * per_round;
  }
  const double traced_rounds = static_cast<double>(traced.rounds.size());
  const std::map<std::string, double> self = self_ms_by_name(traced.trace);
  std::map<std::string, double> self_per_round = self;
  for (auto& [k, v] : self_per_round) v /= traced_rounds;
  report_bsa_layers(rep, counters, self_per_round);

  rep.metric("serve.req_per_s", plain_sum.req_per_s, "1/s");
  rep.metric("serve.miss_p50_ms", plain_sum.miss_p50_ms, "ms");
  rep.metric("serve.hit_p50_ms", plain_sum.hit_p50_ms, "ms");
  rep.metric("serve.miss_p90_ms", plain_sum.miss_p90_ms, "ms");
  rep.metric("serve.hit_p90_ms", plain_sum.hit_p90_ms, "ms");
  auto st = [&plain](const char* name) { return plain.stats.at(name); };
  rep.metric("serve.batches", st("serve.batches"), "count");
  rep.metric("serve.cells_per_batch",
             ratio(st("serve.cache.misses") - st("serve.batch_dedup"),
                   st("serve.batches")),
             "ratio");
  rep.metric("serve.batch_dedup", st("serve.batch_dedup"), "count");
  rep.metric("serve.cache.hits", st("serve.cache.hits"), "count");
  rep.metric("serve.cache.misses", st("serve.cache.misses"), "count");
  rep.metric("serve.cache.evictions", st("serve.cache.evictions"), "count");

  const auto [parse_ms, parses] = span_total(traced.trace, "serve.parse");
  const auto [sched_ms, cells] = span_total(traced.trace, "serve.schedule");
  const auto [respond_ms, responds] = span_total(traced.trace, "serve.respond");
  rep.metric("serve.parse_ms", ratio(parse_ms, parses), "ms");
  rep.metric("serve.batch_ms", batch_self_ms(traced.trace), "ms");
  rep.metric("serve.schedule_ms",
             ratio(self.count("serve.schedule") ? self.at("serve.schedule") : 0,
                   cells),
             "ms");
  rep.metric("serve.respond_ms", ratio(respond_ms, responds), "ms");
  const Summary traced_sum = summarize(traced.rounds, traced.timed_ms);
  rep.metric("serve.queue_wait_ms",
             traced_sum.miss_p50_ms - ratio(sched_ms, cells) -
                 ratio(respond_ms, responds),
             "ms");
  rep.metric("obs.trace_overhead_ms", traced_sum.round_ms - plain_sum.round_ms,
             "ms");
}

}  // namespace perfbench
