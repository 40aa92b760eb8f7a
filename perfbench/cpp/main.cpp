// dps_perfbench: runs one benchmark workload, checks its outputs and prints
// one JSON line of metrics. See ../README.md for the workloads, the checks
// and the metric map.
//
//   dps_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   dps_perfbench --self-check
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {
namespace {

using namespace dps;

/// Forwards to the measured manager. Times each decide (the only
/// instrument in the timed passes) and checks the caps it returns: each in
/// [min_cap, TDP], their sum within the budget delivered through
/// update_budget, except on the decide right after a cut.
class CheckedManager final : public PowerManager {
 public:
  CheckedManager(PowerManager& inner, std::vector<std::uint32_t>* decide_ns,
                 Clock::time_point* first_reset)
      : inner_(inner), decide_ns_(decide_ns), first_reset_(first_reset) {}

  std::string_view name() const override { return inner_.name(); }
  void reset(const ManagerContext& ctx) override {
    inner_.reset(ctx);
    ctx_ = ctx;
    budget_ = ctx.total_budget;
    if (first_reset_ != nullptr) {
      *first_reset_ = Clock::now();
      first_reset_ = nullptr;
    }
  }
  void decide(std::span<const Watts> power, std::span<Watts> caps) override {
    const auto t0 = Clock::now();
    inner_.decide(power, caps);
    const auto t1 = Clock::now();
    if (decide_ns_ != nullptr) {
      decide_ns_->push_back(static_cast<std::uint32_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
    }
    Watts sum = 0.0;
    for (std::size_t u = 0; u < caps.size(); ++u) {
      const Watts cap = caps[u];
      sum += cap;
      digest_ = fold(digest_, cap);
      if (!(cap >= ctx_.min_cap - 1e-9 &&
            cap <= ctx_.tdp_of(static_cast<int>(u)) + 1e-9)) {
        fail("cap of unit " + std::to_string(u) + " outside [min_cap, TDP]");
      }
    }
    if (sum > budget_ + 1e-6 && !just_cut_) {
      fail("cap sum " + std::to_string(sum) + " over budget " +
           std::to_string(budget_));
    }
    just_cut_ = false;
    peak_ = std::max(peak_, sum);
  }
  void update_budget(Watts budget) override {
    just_cut_ = budget < budget_;
    budget_ = budget;
    inner_.update_budget(budget);
  }
  void set_obs(const obs::ObsSink& sink) override { inner_.set_obs(sink); }

  std::uint64_t digest() const { return digest_; }
  Watts peak() const { return peak_; }
  const std::string& failure() const { return failure_; }

 private:
  void fail(const std::string& why) {
    if (failure_.empty()) failure_ = why;
  }
  PowerManager& inner_;
  std::vector<std::uint32_t>* decide_ns_;
  Clock::time_point* first_reset_;
  ManagerContext ctx_;
  Watts budget_ = 0.0;
  bool just_cut_ = false;
  Watts peak_ = 0.0;
  std::uint64_t digest_ = kFnvBasis;
  std::string failure_;
};

struct EngineRun {
  RunOutcome outcome;
  double wall_s = 0.0;  // engine.run only
  long unit_steps = 0;
  std::string failure;
};

/// The case with every cap at TDP: constant manager, no faults, no
/// thermal governor and no budget cut.
Case uncapped(const Case& c) {
  Case u = c;
  u.config.total_budget = u.rapl.tdp * c.units;
  u.config.budget_schedule.clear();
  u.config.fault_plan.reset();
  u.config.thermal.reset();
  u.obs_enabled = false;
  u.manager = ManagerKind::kConstant;
  return u;
}

EngineRun run_engine(const Case& c, ManagerKind kind, bool obs_enabled,
                     std::vector<std::uint32_t>* decide_ns,
                     Clock::time_point* first_reset = nullptr) {
  auto cluster = c.make_cluster();
  SimulatedRapl rapl(cluster->total_units(), c.rapl);
  auto manager = make_manager(kind);
  CheckedManager checked(*manager, decide_ns, first_reset);
  EngineConfig config = c.config;
  if (obs_enabled) config.obs = obs::ObsSink::create();
  const SimulationEngine engine(config);
  EngineRun run;
  const auto t0 = Clock::now();
  const EngineResult result = engine.run(*cluster, rapl, checked);
  run.wall_s = seconds_since(t0);
  run.outcome = outcome_of(result, checked.digest());
  run.unit_steps = static_cast<long>(result.steps) * cluster->total_units();
  run.failure = checked.failure();
  if (run.failure.empty() && checked.peak() != result.peak_cap_sum) {
    run.failure = "wrapper peak cap sum disagrees with the engine's";
  }
  return run;
}

/// Baseline outcomes of one case from the same seed.
struct Baselines {
  RunOutcome constant;
  RunOutcome uncapped;
};

double hmean(const std::vector<double>& xs) {
  double inv = 0.0;
  for (const double x : xs) inv += 1.0 / x;
  return xs.empty() ? 0.0 : static_cast<double>(xs.size()) / inv;
}

/// Checks one case's outcome against properties of the method and against
/// its baselines; appends the per-run speedups over constant to `ratios`.
/// Returns an empty string when every check holds.
std::string check_case(const Case& c, int ops, const RunOutcome& o,
                       const Baselines& b, std::vector<double>& ratios,
                       int& failed_ops) {
  if (o.timed_out) {
    failed_ops += ops;
    return "";
  }
  if (c.config.job_schedule) {
    const auto& s = o.sched;
    failed_ops += s.abandoned;
    if (s.submitted != s.completed + s.abandoned) {
      return "submitted jobs != completed + abandoned";
    }
    std::map<int, const sched::JobOutcome*> constant, free_run;
    for (const auto& j : b.constant.jobs) constant[j.id] = &j;
    for (const auto& j : b.uncapped.jobs) free_run[j.id] = &j;
    double unit_time = 0.0;
    for (const auto& j : o.jobs) {
      if (!(j.submit <= j.start && j.start < j.end)) {
        return "job " + std::to_string(j.id) + " violates submit<=start<end";
      }
      unit_time += j.granted_units * (j.end - j.start);
      // A job's first attempt uses the same realization in the uncapped
      // run (requeued attempts draw fresh jitter), and capping, shrinking
      // and crashes can only stretch it.
      const auto f = free_run.find(j.id);
      if (j.retries == 0 && f != free_run.end() &&
          j.end - j.start < f->second->end - f->second->start - 1e-9) {
        return "job " + std::to_string(j.id) + " ran faster than uncapped";
      }
      // A job's latency is its run time; queue waits are the scheduler's.
      const auto k = constant.find(j.id);
      if (k != constant.end()) {
        ratios.push_back((k->second->end - k->second->start) /
                         (j.end - j.start));
      }
    }
    if (unit_time > c.units * o.makespan + 1e-6) {
      return "granted unit-time exceeds units x makespan";
    }
    return "";
  }
  std::vector<double> group_speedups;
  for (std::size_t g = 0; g < o.runs.size(); ++g) {
    const auto& runs = o.runs[g];
    if (static_cast<int>(runs.size()) < c.config.target_completions) {
      return "group finished too few runs";
    }
    const auto& free_runs = b.uncapped.runs[g];
    const auto& const_runs = b.constant.runs[g];
    std::vector<double> lat, const_lat;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const double l = runs[i].second - runs[i].first;
      lat.push_back(l);
      if (i < free_runs.size() &&
          l < free_runs[i].second - free_runs[i].first - 1e-9) {
        return "a run finished faster than the uncapped run";
      }
      if (i < const_runs.size()) {
        const double cl = const_runs[i].second - const_runs[i].first;
        const_lat.push_back(cl);
        ratios.push_back(cl / l);
      }
    }
    group_speedups.push_back(hmean(const_lat) / hmean(lat));
  }
  // The paper's lower-bound guarantee: a pair's harmonic-mean speedup of
  // DPS over constant allocation is at least 1.
  if (o.runs.size() == 2 && hmean(group_speedups) < 1.0) {
    return "pair speedup over constant below 1";
  }
  return "";
}

struct Metric {
  double value;
  const char* unit;
};

void print_result(bool correct, long attempted, long failed,
                  const std::vector<std::pair<std::string, Metric>>& m) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < m.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m[i].first.c_str(), m[i].second.value,
                m[i].second.unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Peak resident memory of this process image. getrusage's ru_maxrss
/// would also count the launching process's peak, which survives exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool self_check = false;
};

/// Everything one invocation does for one workload; `quick` is the
/// self-check's small size with a single pass of each kind.
int run_workload(const Options& opt, Clock::time_point start, bool quick) {
  std::string failure;
  const WorkloadDef def = build_workload(opt.workload, opt.seed, quick);

  // Set-up: the constant and uncapped baseline runs of every case.
  const auto tb = Clock::now();
  std::vector<Baselines> baselines;
  for (std::size_t i = 0; i < def.cases.size(); ++i) {
    const Case& c = def.cases[i];
    Baselines b;
    EngineRun k = run_engine(c, ManagerKind::kConstant, false, nullptr);
    EngineRun f = run_engine(uncapped(c), ManagerKind::kConstant,
                             false, nullptr);
    if (!k.failure.empty()) failure = "constant baseline: " + k.failure;
    if (!f.failure.empty()) failure = "uncapped baseline: " + f.failure;
    b.constant = std::move(k.outcome);
    b.uncapped = std::move(f.outcome);
    baselines.push_back(std::move(b));
  }
  const double baseline_s = seconds_since(tb);

  // One pass = every case once under the workload's manager.
  struct Pass {
    double wall_s = 0.0;
    long unit_steps = 0;
    double makespan = 0.0;
    std::uint64_t digest = kFnvBasis;
    int ops = 0;
    int failed = 0;
    std::vector<double> ratios;
    // Job-mode and stage counts (identical on every pass).
    int started = 0, shrunk = 0, injected = 0, trips = 0;
  };
  const auto engine_pass = [&](std::vector<std::uint32_t>* decide_ns, bool obs,
                               Clock::time_point* mark) {
    Pass p;
    for (std::size_t i = 0; i < def.cases.size(); ++i) {
      const Case& c = def.cases[i];
      EngineRun r = run_engine(c, c.manager, obs && c.obs_enabled, decide_ns,
                               i == 0 ? mark : nullptr);
      if (!r.failure.empty() && failure.empty()) {
        failure = c.label + ": " + r.failure;
      }
      // An operation is a pair run on paper_pairs (several engine runs),
      // else a group run or a job.
      const int ops = def.cases.size() > 1 ? 1 : r.outcome.operations();
      const std::string why =
          check_case(c, ops, r.outcome, baselines[i], p.ratios, p.failed);
      if (!why.empty() && failure.empty()) failure = c.label + ": " + why;
      p.wall_s += r.wall_s;
      p.unit_steps += r.unit_steps;
      p.makespan += r.outcome.makespan;
      p.started += r.outcome.sched.started;
      p.shrunk += r.outcome.sched.shrunk;
      p.injected += r.outcome.faults_injected;
      p.trips += r.outcome.thermal_trips;
      p.digest = fold(p.digest, r.outcome.digest());
      p.ops += ops;
    }
    return p;
  };

  // Warm-up pass; its engine start ends the set-up.
  Clock::time_point first_step{};
  const Pass warm = engine_pass(nullptr, true, &first_step);
  const double setup_s =
      std::chrono::duration<double>(first_step - start).count();

  const auto t_run = Clock::now();
  const auto time_left = [&](int done) {
    return quick ? done < 1 : (done < 3 || seconds_since(t_run) < opt.seconds);
  };
  long attempted = 0, failed = 0;
  const auto tally = [&](const Pass& p) {
    attempted += p.ops;
    failed += p.failed;
    if (p.digest != warm.digest && failure.empty()) {
      failure = "timed passes disagree on the outcome digest";
    }
  };

  if (!opt.trace) {
    // Host time on a shared machine only ever gains noise, so both host
    // metrics come from the least disturbed pass: the fastest pass's rate
    // and the lowest per-pass median decide time.
    std::vector<std::uint32_t> decide_ns;
    double best_rate = 0.0;
    double best_decide_ns = 0.0;
    int done = 0;
    while (time_left(done)) {
      decide_ns.clear();
      const Pass p = engine_pass(&decide_ns, true, nullptr);
      tally(p);
      best_rate = std::max(best_rate, p.unit_steps / p.wall_s);
      const auto mid = decide_ns.begin() + decide_ns.size() / 2;
      std::nth_element(decide_ns.begin(), mid, decide_ns.end());
      const double pass_median = *mid;
      best_decide_ns =
          done == 0 ? pass_median : std::min(best_decide_ns, pass_median);
      ++done;
    }
    const bool correct = failure.empty();
    if (!correct) std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
    print_result(correct, attempted, failed,
                 {{"setup_s", {setup_s, "s"}},
                  {"unit_steps_per_s", {best_rate, "unit-steps/s"}},
                  {"decide_p50_us", {best_decide_ns / 1000.0, "us"}},
                  {"peak_rss_mb", {peak_rss_mb(), "MiB"}},
                  {"sim_makespan_s", {warm.makespan, "s"}},
                  {"sim_speedup", {hmean(warm.ratios), "x"}}});
    return correct ? 0 : 1;
  }

  // Traced invocation: rounds of (untraced pass, traced replay, pass with
  // the sink disabled), every replay checked against the engine outcome.
  LayerTimes layers;
  const double span_cost_ns = empty_span_ns();
  // obs.overhead_ns compares the fastest pass with the sink and the
  // fastest without it, as the untraced run's host metrics do.
  double untraced_s = 0.0, best_obs_s = 0.0, best_no_obs_s = 0.0;
  long untraced_unit_steps = 0, replay_steps = 0;
  int done = 0;
  while (time_left(done)) {
    const Pass p = engine_pass(nullptr, true, nullptr);
    tally(p);
    untraced_s += p.wall_s;
    best_obs_s = done == 0 ? p.wall_s : std::min(best_obs_s, p.wall_s);
    untraced_unit_steps += p.unit_steps;
    std::uint64_t digest = kFnvBasis;
    for (std::size_t i = 0; i < def.cases.size(); ++i) {
      const RunOutcome o = replay_case(def.cases[i], layers);
      digest = fold(digest, o.digest());
      replay_steps += o.steps;
      if (!layers.failure.empty() && failure.empty()) {
        failure = def.cases[i].label + ": " + layers.failure;
      }
    }
    if (digest != warm.digest && failure.empty()) {
      failure = "traced replay disagrees with the engine outcome";
    }
    const double no_obs_s = engine_pass(nullptr, false, nullptr).wall_s;
    best_no_obs_s = done == 0 ? no_obs_s : std::min(best_no_obs_s, no_obs_s);
    ++done;
  }
  const double us = static_cast<double>(layers.unit_steps);
  const double st = static_cast<double>(layers.steps);
  // Each layer's time with the clock reads of its spans taken off.
  const auto net_ns = [&](const LayerTimes::Span& s) {
    return s.ns - static_cast<double>(s.count) * span_cost_ns;
  };
  const auto per_us = [&](const char* k) { return net_ns(layers.ns[k]) / us; };
  const auto per_step = [&](const char* k) {
    return net_ns(layers.ns[k]) / st;
  };
  double traced_ns = 0.0;
  for (const auto& [k, span] : layers.ns) traced_ns += net_ns(span);
  const double caps_ratio =
      layers.caps_written > 0
          ? static_cast<double>(layers.caps_changed) / layers.caps_written
          : 0.0;
  const bool correct = failure.empty();
  if (!correct) std::fprintf(stderr, "CHECK FAILED: %s\n", failure.c_str());
  print_result(
      correct, attempted, failed,
      {{"core.priority_ns", {per_us("core.priority_ns"), "ns"}},
       {"core.history_ns", {per_us("core.history_ns"), "ns"}},
       {"core.readjust_ns", {per_us("core.readjust_ns"), "ns"}},
       {"managers.mimd_ns", {per_us("managers.mimd_ns"), "ns"}},
       {"core.high_priority_share",
        {layers.high_priority_unit_steps / us, "share"}},
       {"core.restore_steps",
        {static_cast<double>(layers.restore_steps) / done, "count"}},
       {"sim.cluster_step_ns", {per_us("sim.cluster_step_ns"), "ns"}},
       {"power.record_ns", {per_us("power.record_ns"), "ns"}},
       {"power.read_ns", {per_us("power.read_ns"), "ns"}},
       {"power.write_ns", {per_us("power.write_ns"), "ns"}},
       {"power.cap_change_ratio", {caps_ratio, "share"}},
       {"workloads.realize_s", {def.realize_s, "s"}},
       {"experiments.baseline_s", {baseline_s, "s"}},
       {"ctrl.decide_ns", {per_us("ctrl.decide_ns"), "ns"}},
       {"ctrl.critical_path_us", {layers.critical_path_ns / st / 1000.0, "us"}},
       {"sched.tick_ns", {per_step("sched.tick_ns"), "ns"}},
       {"faults.advance_ns", {per_step("faults.advance_ns"), "ns"}},
       {"thermal.model_ns", {per_us("thermal.model_ns"), "ns"}},
       {"thermal.governor_ns", {per_us("thermal.governor_ns"), "ns"}},
       {"obs.overhead_ns",
        {(best_obs_s - best_no_obs_s) * 1e9 * done / replay_steps, "ns"}},
       {"sim.unattributed_ns",
        {(untraced_s * 1e9 - traced_ns) / untraced_unit_steps, "ns"}},
       {"sched.jobs_started", {static_cast<double>(warm.started), "count"}},
       {"sched.jobs_shrunk", {static_cast<double>(warm.shrunk), "count"}},
       {"faults.injected", {static_cast<double>(warm.injected), "count"}},
       {"thermal.trips", {static_cast<double>(warm.trips), "count"}}});
  return correct ? 0 : 1;
}

int self_check(Clock::time_point start) {
  int status = 0;
  for (const char* name : {"paper_pairs", "fleet_replay", "jobs_stressed"}) {
    for (const bool trace : {false, true}) {
      Options opt;
      opt.workload = name;
      opt.trace = trace;
      std::printf("self-check %s trace=%d: ", name, trace ? 1 : 0);
      std::fflush(stdout);
      const int rc = run_workload(opt, start, /*quick=*/true);
      status |= rc;
    }
  }
  std::printf("self-check %s\n", status == 0 ? "passed" : "FAILED");
  return status;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const auto start = Clock::now();
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        opt.workload = value();
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value());
      } else if (arg == "--trace") {
        opt.trace = value() == "1";
      } else if (arg == "--self-check") {
        opt.self_check = true;
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }
    if (opt.self_check) return self_check(start);
    if (opt.workload.empty()) throw std::invalid_argument("--workload missing");
    return run_workload(opt, start, /*quick=*/false);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dps_perfbench: %s\n", e.what());
    return 2;
  }
}
