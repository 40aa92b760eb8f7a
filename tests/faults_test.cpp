/// Tests of the deterministic fault-injection & resilience subsystem
/// (src/faults/): plan generation, the injector's activation windows, the
/// FaultyPowerInterface decorator, engine integration (resilience metrics,
/// bit-identical reruns), and the DPS manager's unresponsive-unit
/// eviction.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <numeric>

#include "config/file_config.hpp"
#include "core/dps_manager.hpp"
#include "experiments/registry.hpp"
#include "faults/fault_config.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "faults/net_faults.hpp"
#include "faults/faulty_power.hpp"
#include "faults/resilience.hpp"
#include "managers/constant.hpp"
#include "managers/slurm_stateless.hpp"
#include "metrics/metrics.hpp"
#include "power/rapl_sim.hpp"
#include "sim/engine.hpp"
#include "workloads/synthetic.hpp"

namespace dps {
namespace {

// --- FaultPlan ---

FaultPlanConfig mixed_config(std::uint64_t seed) {
  FaultPlanConfig config;
  config.seed = seed;
  config.horizon = 5000.0;
  config.crash_rate = 2.0;
  config.sensor_dropout_rate = 1.0;
  config.sensor_garbage_rate = 1.0;
  config.cap_stuck_rate = 1.0;
  config.budget_sag_rate = 0.5;
  return config;
}

TEST(FaultPlan, GenerationIsDeterministic) {
  const auto a = FaultPlan::generate(mixed_config(42), 8);
  const auto b = FaultPlan::generate(mixed_config(42), 8);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_GT(a.size(), 0u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i], b.events()[i]);  // bit-identical schedule
  }
}

TEST(FaultPlan, DifferentSeedsDiffer) {
  const auto a = FaultPlan::generate(mixed_config(1), 8);
  const auto b = FaultPlan::generate(mixed_config(2), 8);
  bool identical = a.size() == b.size();
  if (identical) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      identical = identical && a.events()[i] == b.events()[i];
    }
  }
  EXPECT_FALSE(identical);
}

TEST(FaultPlan, EventsAreSortedAndInHorizon) {
  const auto plan = FaultPlan::generate(mixed_config(7), 8);
  Seconds prev = 0.0;
  for (const auto& e : plan.events()) {
    EXPECT_GE(e.at, prev);
    EXPECT_LT(e.at, 5000.0);
    EXPECT_GE(e.duration, 30.0);
    EXPECT_LE(e.duration, 180.0);
    if (e.kind == FaultKind::kBudgetSag) {
      EXPECT_GE(e.magnitude, 0.6);
      EXPECT_LT(e.magnitude, 1.0);
    } else {
      EXPECT_GE(e.unit, 0);
      EXPECT_LT(e.unit, 8);
    }
    prev = e.at;
  }
}

TEST(FaultPlan, ValidatesExplicitEvents) {
  EXPECT_THROW(
      FaultPlan({FaultEvent{-1.0, 10.0, 0, FaultKind::kUnitCrash, 1.0}}, 4),
      std::invalid_argument);
  EXPECT_THROW(
      FaultPlan({FaultEvent{0.0, 10.0, 4, FaultKind::kUnitCrash, 1.0}}, 4),
      std::invalid_argument);
  EXPECT_THROW(
      FaultPlan({FaultEvent{0.0, 10.0, -1, FaultKind::kBudgetSag, 1.5}}, 4),
      std::invalid_argument);
  EXPECT_NO_THROW(
      FaultPlan({FaultEvent{0.0, 10.0, 3, FaultKind::kCapStuck, 1.0}}, 4));
}

// --- FaultInjector ---

TEST(FaultInjector, ActivatesAndClearsOnTime) {
  FaultPlan plan({FaultEvent{10.0, 20.0, 1, FaultKind::kUnitCrash, 1.0},
                  FaultEvent{15.0, 10.0, -1, FaultKind::kBudgetSag, 0.7}},
                 4);
  FaultInjector injector(plan, 4);

  injector.advance(5.0);
  EXPECT_FALSE(injector.crashed(1));
  EXPECT_FALSE(injector.any_active());
  EXPECT_DOUBLE_EQ(injector.budget_factor(), 1.0);

  injector.advance(10.0);
  EXPECT_TRUE(injector.crashed(1));
  EXPECT_EQ(injector.just_activated().size(), 1u);

  injector.advance(16.0);
  EXPECT_DOUBLE_EQ(injector.budget_factor(), 0.7);
  EXPECT_EQ(injector.activated_count(), 2);

  injector.advance(25.0);  // sag cleared at 25
  EXPECT_DOUBLE_EQ(injector.budget_factor(), 1.0);
  EXPECT_EQ(injector.just_cleared().size(), 1u);
  EXPECT_TRUE(injector.crashed(1));

  injector.advance(30.0);  // crash cleared at 30
  EXPECT_FALSE(injector.crashed(1));
  EXPECT_FALSE(injector.any_active());
}

TEST(FaultInjector, SubStepFaultStillCounts) {
  // A fault whose whole window falls between two advances activates and
  // clears inside one call instead of being dropped.
  FaultPlan plan({FaultEvent{10.2, 0.3, 0, FaultKind::kSensorGarbage, 1.0}},
                 2);
  FaultInjector injector(plan, 2);
  injector.advance(10.0);
  EXPECT_EQ(injector.activated_count(), 0);
  injector.advance(11.0);
  EXPECT_EQ(injector.activated_count(), 1);
  EXPECT_EQ(injector.just_cleared().size(), 1u);
  EXPECT_FALSE(injector.sensor_garbage(0));
}

// --- FaultyPowerInterface ---

struct FaultyRig {
  explicit FaultyRig(FaultPlan plan)
      : rapl(2, [] {
          RaplSimConfig config;
          config.noise_fraction = 0.0;  // exact readings for the asserts
          return config;
        }()),
        injector(plan, 2),
        faulty(rapl, injector) {}

  void feed(int unit, Watts power, Seconds dt = 1.0) {
    rapl.record(unit, power, dt);
    rapl.advance_step();
  }

  SimulatedRapl rapl;
  FaultInjector injector;
  FaultyPowerInterface faulty;
};

TEST(FaultyPower, DropoutReturnsStaleValue) {
  FaultyRig rig(FaultPlan(
      {FaultEvent{2.0, 10.0, 0, FaultKind::kSensorDropout, 1.0}}, 2));
  rig.injector.advance(1.0);
  rig.feed(0, 100.0);
  const Watts before = rig.faulty.read_power(0);
  EXPECT_NEAR(before, 100.0, 0.1);

  rig.injector.advance(2.0);
  rig.feed(0, 55.0);
  EXPECT_DOUBLE_EQ(rig.faulty.read_power(0), before);  // stale
  rig.feed(0, 77.0);
  EXPECT_DOUBLE_EQ(rig.faulty.read_power(0), before);  // still stale

  rig.injector.advance(20.0);  // cleared: next reading is live again
  rig.feed(0, 60.0);
  EXPECT_GT(rig.faulty.read_power(0), 50.0);
}

TEST(FaultyPower, GarbageIsBoundedAndCrashReadsZero) {
  FaultyRig rig(FaultPlan(
      {FaultEvent{0.0, 10.0, 0, FaultKind::kSensorGarbage, 1.0},
       FaultEvent{0.0, 10.0, 1, FaultKind::kUnitCrash, 1.0}},
      2));
  rig.injector.advance(0.0);
  rig.feed(0, 90.0);
  rig.feed(1, 90.0);
  for (int i = 0; i < 50; ++i) {
    const Watts garbage = rig.faulty.read_power(0);
    EXPECT_GE(garbage, 0.0);
    EXPECT_LE(garbage, 2.0 * rig.rapl.tdp());
    EXPECT_DOUBLE_EQ(rig.faulty.read_power(1), 0.0);
  }
}

TEST(FaultyPower, StuckCapIgnoresSetCap) {
  FaultyRig rig(
      FaultPlan({FaultEvent{5.0, 10.0, 0, FaultKind::kCapStuck, 1.0}}, 2));
  rig.injector.advance(0.0);
  rig.faulty.set_cap(0, 100.0);
  EXPECT_DOUBLE_EQ(rig.rapl.cap(0), 100.0);

  rig.injector.advance(5.0);
  rig.faulty.set_cap(0, 60.0);  // swallowed by the stuck actuator
  EXPECT_DOUBLE_EQ(rig.rapl.cap(0), 100.0);
  EXPECT_EQ(rig.faulty.dropped_cap_writes(), 1u);
  rig.faulty.set_cap(1, 60.0);  // other unit unaffected
  EXPECT_DOUBLE_EQ(rig.rapl.cap(1), 60.0);

  rig.injector.advance(20.0);
  rig.faulty.set_cap(0, 60.0);
  EXPECT_DOUBLE_EQ(rig.rapl.cap(0), 60.0);
}

TEST(FaultyPower, GuardsNonFiniteReadings) {
  // A hostile inner interface returning NaN/negative must never leak it.
  struct HostileInterface final : PowerInterface {
    int num_units() const override { return 1; }
    Watts read_power(int) override {
      ++calls;
      if (calls == 1) return 80.0;
      if (calls == 2) return std::nan("");
      return -5.0;
    }
    void set_cap(int, Watts) override {}
    Watts cap(int) const override { return 165.0; }
    Watts tdp() const override { return 165.0; }
    Watts min_cap() const override { return 40.0; }
    int calls = 0;
  };
  HostileInterface hostile;
  FaultInjector injector(FaultPlan(), 1);
  FaultyPowerInterface faulty(hostile, injector);
  EXPECT_DOUBLE_EQ(faulty.read_power(0), 80.0);
  EXPECT_DOUBLE_EQ(faulty.read_power(0), 80.0);  // NaN -> last good
  EXPECT_DOUBLE_EQ(faulty.read_power(0), 80.0);  // negative -> last good
}

// --- [faults] INI section ---

TEST(FaultConfig, ParsesIniSection) {
  const auto ini = IniFile::parse(
      "[faults]\n"
      "seed = 99\n"
      "horizon = 2000\n"
      "crash_rate = 1.5\n"
      "budget_sag_rate = 0.25\n"
      "sag_floor = 0.5\n");
  const auto config = file_config_from_ini(ini).faults;
  EXPECT_EQ(config.seed, 99u);
  EXPECT_DOUBLE_EQ(config.horizon, 2000.0);
  EXPECT_DOUBLE_EQ(config.crash_rate, 1.5);
  EXPECT_DOUBLE_EQ(config.budget_sag_rate, 0.25);
  EXPECT_DOUBLE_EQ(config.sag_floor, 0.5);
  EXPECT_DOUBLE_EQ(config.sensor_dropout_rate, 0.0);  // default kept
  EXPECT_TRUE(any_fault_rate(config));
}

TEST(FaultConfig, RejectsOutOfRangeValues) {
  EXPECT_THROW(file_config_from_ini(
                   IniFile::parse("[faults]\nsag_floor = 1.5\n")),
               ConfigError);
  EXPECT_THROW(file_config_from_ini(
                   IniFile::parse("[faults]\ncrash_rate = -1\n")),
               ConfigError);
}

TEST(FaultConfig, ShippedConfigHasFaultsSection) {
  const auto ini = IniFile::load(std::string(DPS_SOURCE_DIR) +
                                 "/configs/dps.ini");
  ASSERT_TRUE(ini.has_section("faults"));
  const auto config = file_config_from_ini(ini).faults;
  EXPECT_FALSE(any_fault_rate(config));  // drills are opt-in
}

// --- Engine integration ---

bool same_result(const EngineResult& a, const EngineResult& b) {
  if (a.steps != b.steps || a.elapsed != b.elapsed ||
      a.peak_cap_sum != b.peak_cap_sum ||
      a.max_budget_overshoot != b.max_budget_overshoot ||
      a.overshoot_steps != b.overshoot_steps ||
      a.faults_injected != b.faults_injected ||
      a.faulted_time != b.faulted_time ||
      a.faulted_overshoot_ws != b.faulted_overshoot_ws ||
      a.dropped_cap_writes != b.dropped_cap_writes ||
      a.fault_recovery_times != b.fault_recovery_times ||
      a.group_mean_power != b.group_mean_power ||
      a.completions.size() != b.completions.size()) {
    return false;
  }
  for (std::size_t g = 0; g < a.completions.size(); ++g) {
    if (a.completions[g].size() != b.completions[g].size()) return false;
    for (std::size_t i = 0; i < a.completions[g].size(); ++i) {
      if (a.completions[g][i].start != b.completions[g][i].start ||
          a.completions[g][i].end != b.completions[g][i].end) {
        return false;
      }
    }
  }
  return true;
}

EngineConfig faulted_pair_config(std::uint64_t fault_seed) {
  EngineConfig config;
  config.total_budget = 110.0 * 20;
  config.target_completions = 2;
  config.max_time = 6000.0;
  auto fault_config = mixed_config(fault_seed);
  config.fault_plan = std::make_shared<FaultPlan>(
      FaultPlan::generate(fault_config, 20));
  return config;
}

TEST(FaultedEngine, IdenticalSeedsGiveBitIdenticalResults) {
  const auto spec_a = square_wave(40.0, 40.0, 140.0, 60.0, 30);
  const auto spec_b = flat(300.0, 120.0);
  const auto config = faulted_pair_config(11);

  DpsManager manager_a;
  const auto first = run_pair(spec_a, spec_b, manager_a, config, 77);
  DpsManager manager_b;
  const auto second = run_pair(spec_a, spec_b, manager_b, config, 77);

  EXPECT_GT(first.faults_injected, 0);
  EXPECT_TRUE(same_result(first, second));
}

TEST(FaultedEngine, DifferentFaultSeedsDiverge) {
  const auto spec_a = square_wave(40.0, 40.0, 140.0, 60.0, 30);
  const auto spec_b = flat(300.0, 120.0);

  DpsManager manager_a;
  const auto first =
      run_pair(spec_a, spec_b, manager_a, faulted_pair_config(11), 77);
  DpsManager manager_b;
  const auto second =
      run_pair(spec_a, spec_b, manager_b, faulted_pair_config(12), 77);
  EXPECT_FALSE(same_result(first, second));
}

/// The acceptance scenario: one unit crashes mid-run; DPS must evict it,
/// reclaim its watts for the survivors, and keep the cap sum within
/// budget — all within 10 decision steps of the fault.
TEST(FaultedEngine, DpsReclaimsCrashedUnitsWattsWithinTenSteps) {
  constexpr int kUnits = 6;
  constexpr Watts kBudget = 80.0 * kUnits;
  constexpr Seconds kCrashAt = 60.0;
  constexpr int kDeadline = 10;  // decision steps after the fault

  Cluster cluster({GroupSpec{flat(120.0, 120.0), kUnits, 5}});
  SimulatedRapl rapl(kUnits);

  EngineConfig config;
  config.total_budget = kBudget;
  config.target_completions = 100;  // run to max_time
  config.max_time = 400.0;
  config.record_trace = true;
  config.fault_plan = std::make_shared<FaultPlan>(
      std::vector<FaultEvent>{
          FaultEvent{kCrashAt, 150.0, 0, FaultKind::kUnitCrash, 1.0}},
      kUnits);

  DpsManager manager;
  const auto result = SimulationEngine(config).run(cluster, rapl, manager);

  EXPECT_EQ(result.faults_injected, 1);
  EXPECT_LE(result.peak_cap_sum, kBudget + 1e-6);

  // Inspect the caps decided kDeadline steps after the crash hit.
  const int step = static_cast<int>(kCrashAt) + kDeadline;
  Watts dead_cap = result.trace->series(0)[step].cap;
  Watts cap_sum = 0.0;
  for (int u = 0; u < kUnits; ++u) {
    cap_sum += result.trace->series(u)[step].cap;
  }
  EXPECT_NEAR(dead_cap, 40.0, 1e-6);        // parked at the hardware minimum
  EXPECT_LE(cap_sum, kBudget + 1e-6);       // never over budget
  // The survivors hold (nearly) everything the budget allows: the dead
  // unit's watts were actually reclaimed, not parked as spare.
  EXPECT_GE(cap_sum - dead_cap, kBudget - 40.0 - 1.0);

  // The crash cleared at t=210; the restarted unit is re-admitted and the
  // manager re-converges (recovery sample recorded, eviction lifted).
  ASSERT_EQ(result.fault_recovery_times.size(), 1u);
  EXPECT_LT(result.fault_recovery_times[0], 120.0);
  EXPECT_FALSE(manager.evicted()[0]);
}

TEST(FaultedEngine, CrashCostsCompletionsVersusCleanTwin) {
  constexpr int kUnits = 6;
  auto run_once = [&](bool with_fault) {
    Cluster cluster({GroupSpec{flat(120.0, 120.0), kUnits, 5}});
    SimulatedRapl rapl(kUnits);
    EngineConfig config;
    config.total_budget = 80.0 * kUnits;
    config.target_completions = 100;
    config.max_time = 400.0;
    if (with_fault) {
      config.fault_plan = std::make_shared<FaultPlan>(
          std::vector<FaultEvent>{
              FaultEvent{60.0, 150.0, 0, FaultKind::kUnitCrash, 1.0}},
          kUnits);
    }
    DpsManager manager;
    return SimulationEngine(config).run(cluster, rapl, manager);
  };

  const auto faulted = run_once(true);
  const auto clean = run_once(false);
  const std::size_t faulted_count = faulted.completions[0].size();
  const std::size_t clean_count = clean.completions[0].size();
  EXPECT_LE(faulted_count, clean_count);  // a 150 s stall cannot help
  EXPECT_GE(completions_lost({&faulted_count, 1}, {&clean_count, 1}), 0);
  EXPECT_GT(clean_count, 0u);
}

TEST(FaultedEngine, BudgetSagIsShedAndRestored) {
  constexpr int kUnits = 6;
  Cluster cluster({GroupSpec{flat(300.0, 120.0), kUnits, 5}});
  SimulatedRapl rapl(kUnits);

  EngineConfig config;
  config.total_budget = 100.0 * kUnits;
  config.target_completions = 100;
  config.max_time = 300.0;
  config.record_trace = true;
  config.fault_plan = std::make_shared<FaultPlan>(
      std::vector<FaultEvent>{
          FaultEvent{100.0, 80.0, -1, FaultKind::kBudgetSag, 0.7}},
      kUnits);

  DpsManager manager;
  const auto result = SimulationEngine(config).run(cluster, rapl, manager);

  // The manager is told the sagged budget the same step the sag lands, so
  // it sheds immediately: no overshoot at all, faulted or otherwise.
  EXPECT_EQ(result.overshoot_steps, 0);
  EXPECT_DOUBLE_EQ(result.faulted_overshoot_ws, 0.0);
  EXPECT_EQ(result.faults_injected, 1);
  EXPECT_NEAR(result.faulted_time, 80.0, 1.5);

  // During the sag the cap sum honours the sagged budget...
  Watts sagged_sum = 0.0;
  for (int u = 0; u < kUnits; ++u) {
    sagged_sum += result.trace->series(u)[140].cap;
  }
  EXPECT_LE(sagged_sum, 0.7 * config.total_budget + 1e-6);
  // ...and afterwards the full budget is put back to work.
  Watts restored_sum = 0.0;
  for (int u = 0; u < kUnits; ++u) {
    restored_sum += result.trace->series(u)[250].cap;
  }
  EXPECT_GT(restored_sum, 0.7 * config.total_budget);
  EXPECT_LE(restored_sum, config.total_budget + 1e-6);
}

/// Stateful DPS must beat the stateless baseline under a nonzero fault
/// rate — the bench/ext_faults.cpp acceptance criterion, pinned here at
/// the bench's default seeds so the tier-1 suite guards it.
TEST(FaultedEngine, DpsBeatsStatelessUnderFaults) {
  const auto spec_a = workload_by_name("Kmeans");
  const auto spec_b = workload_by_name("GMM");

  EngineConfig config;
  config.total_budget = 110.0 * 20;
  config.target_completions = 2;
  config.max_time = 100000.0;
  FaultPlanConfig faults;
  faults.seed = 4242;
  faults.horizon = 100000.0;
  faults.crash_rate = 1.2;
  faults.sensor_dropout_rate = 0.8;
  faults.sensor_garbage_rate = 0.8;
  faults.cap_stuck_rate = 0.8;
  faults.budget_sag_rate = 0.4;
  config.fault_plan =
      std::make_shared<FaultPlan>(FaultPlan::generate(faults, 20));

  auto mean_latency = [](const EngineResult& result) {
    double sum = 0.0;
    int count = 0;
    for (const auto& group : result.completions) {
      std::vector<double> latencies;
      for (const auto& c : group) latencies.push_back(c.latency());
      sum += hmean_latency(latencies);
      ++count;
    }
    return sum / count;
  };

  DpsManager dps;
  const auto dps_result = run_pair(spec_a, spec_b, dps, config, 42);
  SlurmStatelessManager slurm;
  const auto slurm_result = run_pair(spec_a, spec_b, slurm, config, 42);

  EXPECT_GT(dps_result.faults_injected, 0);
  EXPECT_LT(mean_latency(dps_result), mean_latency(slurm_result));
  EXPECT_LE(dps_result.peak_cap_sum, config.total_budget + 1e-6);
}

// --- Control-plane faults (kNet*) ---

TEST(NetFaults, ScriptMapsFaultTimesOntoRounds) {
  const FaultPlan plan(
      {
          FaultEvent{.at = 2.0,
                     .duration = 3.0,
                     .unit = 1,
                     .kind = FaultKind::kNetReadStall},
          FaultEvent{.at = 5.0,
                     .duration = 0.0,  // never clears
                     .unit = 0,
                     .kind = FaultKind::kNetDisconnect},
          FaultEvent{.at = 1.0,
                     .duration = 2.0,
                     .unit = -1,
                     .kind = FaultKind::kNetConnectRefuse},
      },
      2);
  const NetFaultScript script(plan, 2, 1.0);
  EXPECT_TRUE(script.any_net_faults());

  // Round r covers time r * round_period: the stall spans [2, 5).
  EXPECT_FALSE(script.stalled(1, 1));
  EXPECT_TRUE(script.stalled(1, 2));
  EXPECT_TRUE(script.stalled(1, 4));
  EXPECT_FALSE(script.stalled(1, 5));
  EXPECT_FALSE(script.stalled(0, 3));  // wrong unit

  EXPECT_FALSE(script.disconnected(0, 4));
  EXPECT_TRUE(script.disconnected(0, 5));
  EXPECT_TRUE(script.disconnected(0, 5000));  // duration <= 0 never clears
  EXPECT_FALSE(script.disconnected(1, 5));

  EXPECT_FALSE(script.connect_refused(0));
  EXPECT_TRUE(script.connect_refused(1));
  EXPECT_TRUE(script.connect_refused(2));
  EXPECT_FALSE(script.connect_refused(3));

  // Halving the round period doubles the round index of every window.
  const NetFaultScript half(plan, 2, 0.5);
  EXPECT_FALSE(half.stalled(1, 3));
  EXPECT_TRUE(half.stalled(1, 4));

  EXPECT_THROW(NetFaultScript(plan, 0, 1.0), std::invalid_argument);
  EXPECT_THROW(NetFaultScript(plan, 2, 0.0), std::invalid_argument);
}

TEST(NetFaults, GeneratorEmitsNetKindsAtConfiguredRates) {
  FaultPlanConfig config;
  config.net_connect_refuse_rate = 2.0;
  config.net_read_stall_rate = 5.0;
  config.net_disconnect_rate = 5.0;
  const auto plan = FaultPlan::generate(config, 4);
  int refuse = 0, stall = 0, disconnect = 0;
  for (const auto& event : plan.events()) {
    switch (event.kind) {
      case FaultKind::kNetConnectRefuse:
        ++refuse;
        EXPECT_EQ(event.unit, -1);  // cluster-scoped, like budget sags
        break;
      case FaultKind::kNetReadStall:
        ++stall;
        EXPECT_GE(event.unit, 0);
        EXPECT_LT(event.unit, 4);
        break;
      case FaultKind::kNetDisconnect:
        ++disconnect;
        break;
      default:
        ADD_FAILURE() << "unexpected kind with only net rates configured";
    }
  }
  EXPECT_GT(refuse, 0);
  EXPECT_GT(stall, 0);
  EXPECT_GT(disconnect, 0);
  // Determinism — same config, same plan.
  EXPECT_EQ(FaultPlan::generate(config, 4).events(), plan.events());
}

TEST(NetFaults, IniParsesNetRates) {
  const auto config = file_config_from_ini(IniFile::parse(
                          "[faults]\n"
                          "net_connect_refuse_rate = 1.5\n"
                          "net_read_stall_rate = 2.5\n"
                          "net_disconnect_rate = 3.5\n"))
                          .faults;
  EXPECT_DOUBLE_EQ(config.net_connect_refuse_rate, 1.5);
  EXPECT_DOUBLE_EQ(config.net_read_stall_rate, 2.5);
  EXPECT_DOUBLE_EQ(config.net_disconnect_rate, 3.5);
  EXPECT_THROW(file_config_from_ini(
                   IniFile::parse("[faults]\nnet_read_stall_rate = -1\n")),
               ConfigError);
}

}  // namespace
}  // namespace dps
