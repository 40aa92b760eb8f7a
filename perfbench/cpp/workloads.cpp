// The benchmark's three workloads, built from the seed, plus the helpers
// shared by the engine path and the replay.
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bench.hpp"
#include "core/dps_manager.hpp"
#include "ctrl/tree.hpp"
#include "experiments/registry.hpp"
#include "faults/fault_plan.hpp"
#include "managers/constant.hpp"
#include "power/rapl_sim.hpp"
#include "util/rng.hpp"
#include "workloads/instance.hpp"
#include "workloads/trace_workload.hpp"

namespace perfbench {

using namespace dps;

std::uint64_t RunOutcome::digest() const {
  std::uint64_t h = fold(kFnvBasis, static_cast<double>(steps));
  h = fold(h, makespan);
  h = fold(h, timed_out ? 1.0 : 0.0);
  h = fold(h, cap_digest);
  for (const auto& group : runs) {
    h = fold(h, static_cast<double>(group.size()));
    for (const auto& [start, end] : group) {
      h = fold(fold(h, start), end);
    }
  }
  for (const auto& j : jobs) {
    h = fold(h, static_cast<double>(j.id));
    h = fold(h, j.submit);
    h = fold(h, j.start);
    h = fold(h, j.end);
    h = fold(h, static_cast<double>(j.granted_units));
    h = fold(h, static_cast<double>(j.retries));
  }
  h = fold(h, peak_cap_sum);
  h = fold(h, static_cast<double>(faults_injected));
  return fold(h, static_cast<double>(thermal_trips));
}

int RunOutcome::operations() const {
  return sched.submitted > 0 ? sched.submitted : static_cast<int>(runs.size());
}

RunOutcome outcome_of(const EngineResult& r, std::uint64_t cap_digest) {
  RunOutcome o;
  o.steps = r.steps;
  o.makespan = r.elapsed;
  o.timed_out = r.timed_out;
  o.cap_digest = cap_digest;
  for (const auto& group : r.completions) {
    auto& runs = o.runs.emplace_back();
    for (const auto& c : group) runs.emplace_back(c.start, c.end);
  }
  o.jobs = r.job_outcomes;
  o.sched = r.sched;
  o.peak_cap_sum = r.peak_cap_sum;
  o.faults_injected = r.faults_injected;
  o.thermal_trips = r.thermal_throttle_events;
  return o;
}

std::unique_ptr<PowerManager> make_manager(ManagerKind kind) {
  switch (kind) {
    case ManagerKind::kDps:
      return std::make_unique<DpsManager>();
    case ManagerKind::kTree: {
      CtrlConfig ctrl;
      ctrl.shard_size = 32;  // DPS leaves of 32 units under a DPS root
      ctrl.leaf_jobs = 1;  // every measured decide runs on this thread
      return std::make_unique<TreeController>(ctrl);
    }
    case ManagerKind::kConstant:
      return std::make_unique<ConstantManager>();
  }
  throw std::invalid_argument("make_manager: unknown kind");
}

namespace {

/// Spark x NPB pairs from the fig6 grid on the paper's 2 x 10-socket
/// system at 110 W per socket: low, mid and high power Spark against the
/// phased (short, gap-separated) NPB kernels.
WorkloadDef paper_pairs(std::uint64_t seed, bool quick) {
  const std::vector<std::pair<std::string, std::string>> all = {
      {"Sort", "FT"}, {"Wordcount", "MG"}, {"LR", "FT"},
      {"Bayes", "MG"}, {"RF", "IS"},       {"GMM", "MG"}};
  const std::size_t count = quick ? 2 : all.size();
  const int repeats = quick ? 1 : 2;
  WorkloadDef def;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    const WorkloadSpec a = workload_by_name(all[i].first);
    const WorkloadSpec b = workload_by_name(all[i].second);
    const std::uint64_t sa = mix_seed(seed, i, 1);
    const std::uint64_t sb = mix_seed(seed, i, 2);
    Case c;
    c.label = all[i].first + "x" + all[i].second;
    c.make_cluster = [a, b, sa, sb] {
      std::vector<GroupSpec> groups;
      groups.push_back(GroupSpec{a, 10, sa});
      groups.push_back(GroupSpec{b, 10, sb});
      return std::make_unique<Cluster>(std::move(groups));
    };
    c.units = 20;
    c.rapl.noise_seed = mix_seed(seed, i, 3);
    c.config.total_budget = 110.0 * 20;
    c.config.target_completions = repeats;
    const Seconds longer = std::max(a.nominal_duration() + a.inter_run_gap,
                                    b.nominal_duration() + b.inter_run_gap);
    c.config.max_time = 200.0 + 4.0 * longer * repeats;
    c.manager = ManagerKind::kDps;
    def.cases.push_back(std::move(c));
  }
  def.realize_s = seconds_since(t0);
  return def;
}

/// One node's power trace of `length` 1 s samples: back-to-back runs of
/// workloads drawn uniformly from the calibrated Spark and NPB suites
/// (Tables 2 and 4), each realized with its spec's own duration and power
/// jitter and start skew, separated by the spec's inter-run gap at idle
/// power. Each sample carries the simulated RAPL sensor's multiplicative
/// read noise, as a trace recorded from that sensor would. The trace starts
/// at a random point of its first run, so no two groups line up their
/// phases.
std::vector<double> node_trace(Rng& rng, const std::vector<WorkloadSpec>& suite,
                               int length) {
  const double noise = RaplSimConfig{}.noise_fraction;
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(length));
  bool first = true;
  while (static_cast<int>(samples.size()) < length) {
    const WorkloadSpec& spec = suite[rng.uniform_int(suite.size())];
    const WorkloadInstance run(spec, rng);
    Seconds progress = first ? std::floor(rng.uniform(0.0, run.total_work()))
                             : 0.0;
    first = false;
    for (; progress < run.total_work(); progress += 1.0) {
      samples.push_back(run.demand_at(progress));
    }
    for (Seconds t = 0.0; t < spec.inter_run_gap; t += 1.0) {
      samples.push_back(kIdlePower);
    }
  }
  samples.resize(static_cast<std::size_t>(length));
  for (double& w : samples) w *= 1.0 + rng.normal(0.0, noise);
  return samples;
}

/// Thousands of units in 10-socket groups, each replaying its own
/// seeded trace through workload_from_samples until every group has
/// completed one run.
WorkloadDef fleet_replay(std::uint64_t seed, bool quick) {
  const int groups = quick ? 3 : 400;
  const int length = quick ? 120 : 200;
  WorkloadDef def;
  const auto t0 = Clock::now();
  auto specs = std::make_shared<std::vector<GroupSpec>>();
  specs->reserve(static_cast<std::size_t>(groups));
  std::vector<WorkloadSpec> suite;
  for (const std::string& name : all_workload_names()) {
    suite.push_back(workload_by_name(name));
  }
  Seconds longest = 0.0;
  for (int g = 0; g < groups; ++g) {
    Rng rng(mix_seed(seed, static_cast<std::uint64_t>(g), 11));
    const std::vector<double> samples = node_trace(rng, suite, length);
    WorkloadSpec spec =
        workload_from_samples(samples, 1.0, "trace" + std::to_string(g));
    longest = std::max(longest, spec.nominal_duration() + spec.inter_run_gap);
    const std::uint64_t jitter =
        mix_seed(seed, static_cast<std::uint64_t>(g), 12);
    specs->push_back(GroupSpec{std::move(spec), 10, jitter});
  }
  Case c;
  c.label = "fleet";
  c.make_cluster = [specs] { return std::make_unique<Cluster>(*specs); };
  c.rapl.noise_seed = mix_seed(seed, 13);
  c.units = groups * 10;
  c.config.total_budget = 110.0 * c.units;
  c.config.target_completions = 1;
  c.config.max_time = 200.0 + 4.0 * longest;
  c.manager = ManagerKind::kDps;
  // The first cluster's per-unit realization is part of the workload's
  // set-up cost; building it here times it.
  (void)c.make_cluster();
  def.realize_s = seconds_since(t0);
  def.cases.push_back(std::move(c));
  return def;
}

/// A job-mode cluster fed a seeded Poisson stream of suite workloads under
/// power-aware backfill and a DPS control tree, with every optional engine
/// stage switched on: a tight thermal trip, a fault plan of every
/// simulated kind, a budget cut and an in-memory observability sink.
WorkloadDef jobs_stressed(std::uint64_t seed, bool quick) {
  const int units = quick ? 64 : 256;
  WorkloadDef def;
  const auto t0 = Clock::now();
  Case c;
  c.label = "jobs";
  c.make_cluster = [units] { return std::make_unique<Cluster>(units); };
  c.units = units;
  c.rapl.noise_seed = mix_seed(seed, 21);
  c.config.total_budget = 110.0 * units;
  c.config.max_time = 400000.0;

  sched::JobScheduleConfig js;
  js.policy = sched::SchedPolicy::kPowerAware;
  js.seed = mix_seed(seed, 22);
  // Arrivals outpace the machine, so the queue stays full and the
  // makespan follows the stream's total work; jobs of similar size keep
  // that total steady from seed to seed.
  js.job_count = quick ? 12 : 200;
  js.arrival_rate_per_1000s = 60.0;
  js.workload_mix = {"LR", "Bayes", "RF", "IS"};
  js.min_units = 8;
  js.max_units = quick ? 16 : 24;
  js.resolve = workload_by_name;
  js.retry_cap = 8;
  c.config.job_schedule = js;

  // Arrivals end near job_count / rate; the cut lands mid-stream.
  const double stream_s = 1000.0 * js.job_count / js.arrival_rate_per_1000s;
  c.config.budget_schedule.push_back(
      BudgetChange{0.5 * stream_s, 95.0 * units});

  FaultPlanConfig faults;
  faults.seed = mix_seed(seed, 23);
  faults.horizon = 1.5 * stream_s;
  faults.crash_rate = 1.0;
  faults.sensor_dropout_rate = 2.0;
  faults.sensor_garbage_rate = 2.0;
  faults.cap_stuck_rate = 2.0;
  faults.budget_sag_rate = 0.5;
  faults.fan_degrade_rate = 2.0;
  faults.temp_stuck_rate = 2.0;
  faults.min_duration = 20.0;
  faults.max_duration = 120.0;
  faults.sag_floor = 0.8;
  c.config.fault_plan =
      std::make_shared<const FaultPlan>(FaultPlan::generate(faults, units));

  ThermalConfig thermal;
  thermal.seed = mix_seed(seed, 24);
  thermal.trip_c = 77.0;  // 2.5 C above the 110 W steady state
  thermal.clear_c = 69.0;
  c.config.thermal = thermal;

  c.obs_enabled = true;
  c.manager = ManagerKind::kTree;
  def.cases.push_back(std::move(c));
  def.realize_s = seconds_since(t0);
  return def;
}

}  // namespace

WorkloadDef build_workload(const std::string& name, std::uint64_t seed,
                           bool quick) {
  if (name == "paper_pairs") return paper_pairs(seed, quick);
  if (name == "fleet_replay") return fleet_replay(seed, quick);
  if (name == "jobs_stressed") return jobs_stressed(seed, quick);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
