// The traced replay: drives one case through the layers' public functions
// in SimulationEngine::run's stage order and times every call from the
// outside. Nothing inside src/ is instrumented for it.
#include <algorithm>
#include <cmath>
#include <cstring>

#include "bench.hpp"
#include "core/dps_manager.hpp"
#include "ctrl/tree.hpp"
#include "faults/fault_injector.hpp"
#include "faults/faulty_power.hpp"
#include "sched/runtime.hpp"
#include "thermal/governor.hpp"

namespace perfbench {

using namespace dps;

namespace {

/// Accumulates the wall time of a scope into one layer's spans.
class Timed {
 public:
  explicit Timed(LayerTimes::Span& span) : span_(span), t0_(Clock::now()) {}
  Timed(const Timed&) = delete;
  Timed& operator=(const Timed&) = delete;
  ~Timed() {
    span_.ns += std::chrono::duration<double, std::nano>(Clock::now() - t0_)
                    .count();
    ++span_.count;
  }

 private:
  LayerTimes::Span& span_;
  Clock::time_point t0_;
};

/// DpsManager::decide rebuilt from its stages, in its order: history,
/// priority, stateless MIMD, restore/readjust. A reference DpsManager runs
/// beside it on the same inputs and every step's caps must match its bit
/// for bit. Eviction (DpsManager's last, private stage) only acts on units
/// that read under 8 W for five steps, which the fault-free workloads that
/// use this path never produce; the reference comparison would show it.
class ComposedDps {
 public:
  explicit ComposedDps(const DpsConfig& config = {})
      : history_(config),
        priority_(config),
        mimd_(config.mimd),
        readjuster_(config),
        reference_(config) {}

  void reset(const ManagerContext& ctx) {
    ctx_ = ctx;
    history_.reset(ctx.num_units);
    priority_.reset(ctx.num_units);
    mimd_.reset(ctx);
    readjuster_.reset(ctx);
    reference_.reset(ctx);
  }

  void update_budget(Watts budget) {
    mimd_.update_budget(budget);
    readjuster_.update_budget(budget);
    reference_.update_budget(budget);
  }

  /// Returns false (with `why` set) when the composition diverges from
  /// DpsManager::decide.
  bool decide(std::span<const Watts> power, std::vector<Watts>& caps,
              LayerTimes& t, std::string& why) {
    ref_caps_.assign(caps.begin(), caps.end());
    {
      Timed span(t.ns["core.history_ns"]);
      history_.observe(power, ctx_.dt);
    }
    {
      Timed span(t.ns["core.priority_ns"]);
      priority_.update(history_, caps);
    }
    {
      Timed span(t.ns["managers.mimd_ns"]);
      mimd_.decide(power, caps);
    }
    bool restored = false;
    {
      Timed span(t.ns["core.readjust_ns"]);
      restored = readjuster_.apply(power, priority_.priorities(), caps);
    }
    t.high_priority_unit_steps += priority_.count_high();
    t.restore_steps += restored ? 1 : 0;

    reference_.decide(power, ref_caps_);
    if (std::memcmp(ref_caps_.data(), caps.data(),
                    caps.size() * sizeof(Watts)) != 0) {
      why = "composed DPS stages diverge from DpsManager::decide";
      return false;
    }
    return true;
  }

 private:
  ManagerContext ctx_;
  EstimatedPowerHistory history_;
  PriorityModule priority_;
  MimdController mimd_;
  CapReadjuster readjuster_;
  DpsManager reference_;
  std::vector<Watts> ref_caps_;
};

}  // namespace

double empty_span_ns() {
  double best = 0.0;
  for (int batch = 0; batch < 10; ++batch) {
    LayerTimes::Span span;
    for (int i = 0; i < 20000; ++i) {
      Timed timed(span);
    }
    const double per_span = span.ns / static_cast<double>(span.count);
    best = batch == 0 ? per_span : std::min(best, per_span);
  }
  return best;
}

RunOutcome replay_case(const Case& c, LayerTimes& t) {
  const EngineConfig& cfg = c.config;
  auto cluster = c.make_cluster();
  SimulatedRapl rapl(cluster->total_units(), c.rapl);
  const int n = cluster->total_units();
  const auto un = static_cast<std::size_t>(n);

  ManagerContext ctx;
  ctx.num_units = n;
  ctx.total_budget = cfg.total_budget;
  ctx.tdp = rapl.tdp();
  ctx.min_cap = rapl.min_cap();
  ctx.dt = cfg.dt;

  // The manager: the composed DPS pipeline, or any other manager timed
  // whole (the control tree).
  std::unique_ptr<ComposedDps> composed;
  std::unique_ptr<PowerManager> manager;
  TreeController* tree = nullptr;
  if (c.manager == ManagerKind::kDps) {
    composed = std::make_unique<ComposedDps>();
    composed->reset(ctx);
  } else {
    manager = make_manager(c.manager);
    tree = dynamic_cast<TreeController*>(manager.get());
    manager->reset(ctx);
  }

  std::vector<Watts> caps(un, ctx.constant_cap());
  rapl.set_cap_batch(caps);
  std::vector<Watts> measured(un, 0.0), true_power(un, 0.0),
      effective(un, 0.0);

  std::unique_ptr<sched::SchedRuntime> sched_rt;
  const obs::ObsSink obs = c.obs_enabled ? obs::ObsSink::create()
                                         : obs::ObsSink();
  if (cfg.job_schedule) {
    sched_rt = std::make_unique<sched::SchedRuntime>(*cfg.job_schedule, n, obs);
  }
  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<FaultyPowerInterface> faulty;
  if (cfg.fault_plan && !cfg.fault_plan->empty()) {
    injector = std::make_unique<FaultInjector>(*cfg.fault_plan, n);
    faulty = std::make_unique<FaultyPowerInterface>(rapl, *injector);
  }
  PowerInterface& telemetry =
      faulty ? static_cast<PowerInterface&>(*faulty) : rapl;
  std::unique_ptr<ThermalModel> thermal;
  std::unique_ptr<ThrottleGovernor> governor;
  std::vector<Watts> applied;
  if (cfg.thermal) {
    thermal = std::make_unique<ThermalModel>(*cfg.thermal, n);
    governor = std::make_unique<ThrottleGovernor>(*cfg.thermal, n);
    applied.resize(un);
  }
  // The same sink reaches every layer as in the engine; the engine's own
  // decision / cap-write events are left out, so their cost lands in
  // sim.unattributed_ns and obs.overhead_ns.
  obs.set_time(cluster->now());
  if (manager) manager->set_obs(obs);
  rapl.set_obs(obs);
  if (injector) {
    injector->set_obs(obs);
    faulty->set_obs(obs);
  }
  if (governor) governor->set_obs(obs);

  // Energy ledger: integrated true power against the unwrapped counters.
  std::vector<double> true_joules(un, 0.0);
  std::vector<std::uint64_t> counter_total(un, 0);
  std::vector<std::uint32_t> counter_last(un, 0);
  for (std::size_t u = 0; u < un; ++u) {
    counter_last[u] = rapl.raw_energy_counter(static_cast<int>(u));
  }

  RunOutcome out;
  std::uint64_t digest = kFnvBasis;
  Watts current_budget = cfg.total_budget;
  Watts effective_budget = current_budget;
  std::size_t next_change = 0;
  const auto work_remaining = [&] {
    return sched_rt ? !sched_rt->finished()
                    : cluster->min_completions() < cfg.target_completions;
  };
  LayerTimes::Span& faults_ns = t.ns["faults.advance_ns"];
  LayerTimes::Span& sched_ns = t.ns["sched.tick_ns"];
  LayerTimes::Span& model_ns = t.ns["thermal.model_ns"];
  LayerTimes::Span& gov_ns = t.ns["thermal.governor_ns"];
  LayerTimes::Span& cluster_ns = t.ns["sim.cluster_step_ns"];
  LayerTimes::Span& record_ns = t.ns["power.record_ns"];
  LayerTimes::Span& read_ns = t.ns["power.read_ns"];
  LayerTimes::Span& write_ns = t.ns["power.write_ns"];
  LayerTimes::Span& ctrl_ns = t.ns["ctrl.decide_ns"];

  int steps = 0;
  while (work_remaining() && cluster->now() < cfg.max_time) {
    obs.set_time(cluster->now());
    while (next_change < cfg.budget_schedule.size() &&
           cluster->now() >= cfg.budget_schedule[next_change].at) {
      current_budget = cfg.budget_schedule[next_change].total_budget;
      ++next_change;
    }
    if (injector) {
      Timed span(faults_ns);
      injector->advance(cluster->now());
      for (int u = 0; u < n; ++u) cluster->set_crashed(u, injector->crashed(u));
    }
    const Watts new_effective =
        current_budget * (injector ? injector->budget_factor() : 1.0);
    if (new_effective != effective_budget) {
      effective_budget = new_effective;
      if (composed) {
        composed->update_budget(effective_budget);
      } else {
        manager->update_budget(effective_budget);
      }
    }
    if (sched_rt) {
      Timed span(sched_ns);
      sched_rt->begin_tick(*cluster, cluster->now(), effective_budget, caps);
    }
    if (thermal && injector) {
      Timed span(model_ns);
      for (int u = 0; u < n; ++u) {
        thermal->set_resistance_multiplier(u, injector->fan_degrade_factor(u));
        thermal->set_sensor_stuck(u, injector->temp_sensor_stuck(u));
      }
    }
    {
      Timed span(record_ns);
      rapl.effective_caps_batch(effective);
    }
    {
      Timed span(cluster_ns);
      cluster->step(cfg.dt, effective, true_power);
    }
    if (sched_rt) {
      Timed span(sched_ns);
      sched_rt->end_tick(*cluster, cluster->now(), cfg.dt);
    }
    {
      Timed span(record_ns);
      rapl.record_batch(true_power, cfg.dt);
      rapl.advance_step();
    }
    if (thermal) {
      Timed span(model_ns);
      thermal->step(cfg.dt, true_power);
    }
    for (std::size_t u = 0; u < un; ++u) {
      true_joules[u] += std::max(0.0, true_power[u]) * cfg.dt;
      const std::uint32_t raw = rapl.raw_energy_counter(static_cast<int>(u));
      counter_total[u] += static_cast<std::uint32_t>(raw - counter_last[u]);
      counter_last[u] = raw;
    }
    {
      Timed span(read_ns);
      telemetry.read_power_batch(measured);
    }
    if (composed) {
      if (!composed->decide(measured, caps, t, t.failure)) return out;
    } else {
      {
        Timed span(ctrl_ns);
        manager->decide(measured, caps);
      }
      if (tree != nullptr) {
        t.critical_path_ns +=
            static_cast<double>(tree->last_critical_path_ns());
        for (int s = 0; s < tree->num_shards(); ++s) {
          const auto* leaf = dynamic_cast<const DpsManager*>(&tree->leaf(s));
          if (leaf == nullptr) continue;
          t.high_priority_unit_steps += leaf->priorities().count_high();
          t.restore_steps += leaf->last_step_restored() ? 1 : 0;
        }
      }
    }
    Watts cap_sum = 0.0;
    for (int u = 0; u < n; ++u) {
      cap_sum += caps[static_cast<std::size_t>(u)];
      digest = fold(digest, caps[static_cast<std::size_t>(u)]);
    }
    if (governor) {
      Timed span(gov_ns);
      governor->apply(*thermal, cluster->now(), cfg.dt, caps, applied);
    }
    const std::vector<Watts>& written = governor ? applied : caps;
    for (int u = 0; u < n; ++u) {
      const Watts w = std::clamp(written[static_cast<std::size_t>(u)],
                                 rapl.min_cap(), rapl.tdp());
      t.caps_changed += w != telemetry.cap(u) ? 1 : 0;
    }
    t.caps_written += n;
    {
      Timed span(write_ns);
      telemetry.set_cap_batch(written);
    }
    out.peak_cap_sum = std::max(out.peak_cap_sum, cap_sum);
    ++steps;
  }

  // The counters truncate each step's energy to whole quanta, so they may
  // trail the integral by up to one quantum per step and never lead it.
  const double quantum = c.rapl.energy_unit;
  for (std::size_t u = 0; u < un && t.failure.empty(); ++u) {
    const double counted = static_cast<double>(counter_total[u]) * quantum;
    const double slack = 1e-9 * std::max(1.0, true_joules[u]);
    if (counted > true_joules[u] + slack ||
        counted < true_joules[u] - steps * quantum - slack) {
      t.failure = "RAPL energy counter of unit " + std::to_string(u) +
                  " disagrees with the integrated true power";
    }
  }

  t.steps += steps;
  t.unit_steps += static_cast<long>(steps) * n;
  out.steps = steps;
  out.makespan = cluster->now();
  out.timed_out = work_remaining();
  out.cap_digest = digest;
  for (int g = 0; g < cluster->num_groups(); ++g) {
    auto& runs = out.runs.emplace_back();
    for (const auto& comp : cluster->completions(g)) {
      runs.emplace_back(comp.start, comp.end);
    }
  }
  if (sched_rt) {
    out.jobs = sched_rt->outcomes();
    out.sched = sched_rt->stats(cluster->now(), n);
  }
  if (injector) out.faults_injected = injector->activated_count();
  if (governor) out.thermal_trips = governor->trip_events();
  return out;
}

}  // namespace perfbench
