#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "config/file_config.hpp"
#include "experiments/pair_runner.hpp"
#include "experiments/registry.hpp"
#include "experiments/sweep.hpp"
#include "faults/fault_plan.hpp"
#include "managers/constant.hpp"
#include "managers/slurm_stateless.hpp"
#include "sim/engine.hpp"
#include "thermal/governor.hpp"
#include "thermal/thermal_config.hpp"
#include "util/csv.hpp"

namespace dps {
namespace {

/// Jitter-free config: every unit gets exactly the nominal R and tau, so
/// analytic expectations hold without per-unit bookkeeping.
ThermalConfig exact_config() {
  ThermalConfig config;
  config.jitter_fraction = 0.0;
  return config;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(ThermalModel, MatchesClosedFormStepResponse) {
  // Constant power from ambient: T(t) = ambient + R*P*(1 - exp(-t/tau)).
  // The model's exponential update must reproduce it exactly (to rounding)
  // at every step, not just in the limit.
  const ThermalConfig config = exact_config();
  ThermalModel model(config, 1);
  const Watts p = 110.0;
  const Seconds dt = 1.0;
  const std::vector<Watts> power = {p};
  for (int step = 1; step <= 600; ++step) {
    model.step(dt, power);
    const double t = dt * step;
    const Celsius expected =
        config.ambient_c + config.resistance_c_per_w * p *
                               (1.0 - std::exp(-t / config.time_constant_s));
    ASSERT_NEAR(model.temperature(0), expected, 1e-9) << "step " << step;
  }
  // Long-run steady state.
  EXPECT_NEAR(model.steady_state(0, p),
              config.ambient_c + config.resistance_c_per_w * p, 1e-12);
}

TEST(ThermalModel, JitterIsPerUnitDeterministicAndBounded) {
  ThermalConfig config;
  config.jitter_fraction = 0.05;
  ThermalModel a(config, 8);
  ThermalModel b(config, 8);
  const std::vector<Watts> power(8, 165.0);
  for (int i = 0; i < 50; ++i) {
    a.step(1.0, power);
    b.step(1.0, power);
  }
  bool any_differs = false;
  for (int u = 0; u < 8; ++u) {
    // Same seed => identical trajectories.
    EXPECT_DOUBLE_EQ(a.temperature(u), b.temperature(u));
    // Steady states stay inside the jitter envelope.
    const Celsius nominal =
        config.ambient_c + config.resistance_c_per_w * 165.0;
    const Celsius rise = a.steady_state(u, 165.0) - config.ambient_c;
    EXPECT_GE(rise, (nominal - config.ambient_c) * 0.95);
    EXPECT_LE(rise, (nominal - config.ambient_c) * 1.05);
    if (a.steady_state(u, 165.0) != nominal) any_differs = true;
  }
  EXPECT_TRUE(any_differs);
}

TEST(ThermalModel, FanDegradeAndStuckSensorHooks) {
  const ThermalConfig config = exact_config();
  ThermalModel model(config, 2);
  const std::vector<Watts> power = {100.0, 100.0};
  model.set_resistance_multiplier(0, 2.0);
  for (int i = 0; i < 2000; ++i) model.step(1.0, power);
  // Doubled resistance => doubled steady-state rise.
  EXPECT_NEAR(model.temperature(0) - config.ambient_c,
              2.0 * (model.temperature(1) - config.ambient_c), 1e-6);

  // Freeze unit 1's sensor, keep heating: the sensed value stops moving.
  const Celsius frozen = model.sensed(1);
  model.set_sensor_stuck(1, true);
  const std::vector<Watts> hotter = {100.0, 165.0};
  for (int i = 0; i < 100; ++i) model.step(1.0, hotter);
  EXPECT_DOUBLE_EQ(model.sensed(1), frozen);
  EXPECT_GT(model.temperature(1), frozen + 5.0);
  model.set_sensor_stuck(1, false);
  model.step(1.0, hotter);
  EXPECT_DOUBLE_EQ(model.sensed(1), model.temperature(1));
}

TEST(ThrottleGovernor, TripClearHysteresisAndLedger) {
  ThermalConfig config = exact_config();
  config.trip_c = 50.0;
  config.clear_c = 40.0;
  config.throttle_cap_w = 60.0;
  ThermalModel model(config, 1);
  ThrottleGovernor governor(config, 1);
  const std::vector<Watts> requested = {110.0};
  std::vector<Watts> applied = {0.0};

  // Heat at 110 W until the governor trips, then cool at 10 W until it
  // clears; between trip and clear the applied cap must be the throttle
  // cap while the requested cap stays untouched.
  Seconds now = 0.0;
  bool tripped = false, cleared = false;
  std::vector<Watts> heat = {110.0};
  for (int i = 0; i < 3000 && !cleared; ++i) {
    model.step(1.0, heat);
    governor.apply(model, now, 1.0, requested, applied);
    now += 1.0;
    if (!tripped && governor.throttled(0)) {
      tripped = true;
      EXPECT_GE(model.sensed(0), config.trip_c);
      heat = {10.0};  // cooled: 10 W steady state is below clear
    } else if (tripped && !governor.throttled(0)) {
      cleared = true;
      EXPECT_LE(model.sensed(0), config.clear_c);
    }
    if (governor.throttled(0)) {
      EXPECT_DOUBLE_EQ(applied[0], 60.0);
    } else {
      EXPECT_DOUBLE_EQ(applied[0], 110.0);
    }
  }
  EXPECT_TRUE(tripped);
  EXPECT_TRUE(cleared);
  EXPECT_EQ(governor.trip_events(), 1);
  // Every throttled second shed exactly 110 - 60 = 50 Ws.
  EXPECT_NEAR(governor.shed_ws(), 50.0 * governor.throttled_time(), 1e-9);
  EXPECT_GT(governor.time_over_trip()[0], 0.0);
}

TEST(ThermalEngine, GovernorInvisibleToManagerButCapsPhysics) {
  // Tight trip: the workload's heat must engage the governor, the
  // manager's requested peak cap sum must stay manager-shaped (the
  // governor rewrites the written caps, not the decision), and the ledger
  // must show shed watt-seconds.
  ThermalConfig thermal = exact_config();
  const Celsius ss = thermal.ambient_c + thermal.resistance_c_per_w * 110.0;
  thermal.trip_c = ss - 5.0;
  thermal.clear_c = thermal.trip_c - 8.0;

  EngineConfig config;
  config.total_budget = 110.0 * 20;
  config.target_completions = 2;
  config.thermal = thermal;

  SlurmStatelessManager manager;
  const auto result = run_pair(workload_by_name("Kmeans"),
                               workload_by_name("GMM"), manager, config, 7);
  EXPECT_GT(result.thermal_throttle_events, 0);
  EXPECT_GT(result.thermal_shed_ws, 0.0);
  EXPECT_GT(result.peak_temperature_c, thermal.trip_c);
  ASSERT_EQ(result.thermal_time_over_trip.size(), 20u);
  double over = 0.0;
  for (const Seconds s : result.thermal_time_over_trip) over += s;
  EXPECT_GT(over, 0.0);
  // The requested-cap invariant the whole repo tests elsewhere still
  // holds: the governor never makes the *manager* exceed its budget.
  EXPECT_LE(result.peak_cap_sum, config.total_budget + 1e-6);
}

TEST(ThermalEngine, DisabledThermalIsBitIdenticalToUnset) {
  // Zero-cost-when-off at the engine level: a run with no thermal block
  // and one with the block absent must agree exactly. (The real bar —
  // existing bench CSVs unchanged — is checked by the bench harness; this
  // is the unit-sized version.)
  EngineConfig config;
  config.total_budget = 110.0 * 20;
  config.target_completions = 1;

  SlurmStatelessManager m1, m2;
  const auto r1 = run_pair(workload_by_name("Kmeans"),
                           workload_by_name("GMM"), m1, config, 42);
  const auto r2 = run_pair(workload_by_name("Kmeans"),
                           workload_by_name("GMM"), m2, config, 42);
  EXPECT_EQ(r1.steps, r2.steps);
  EXPECT_DOUBLE_EQ(r1.peak_cap_sum, r2.peak_cap_sum);
  EXPECT_EQ(r1.thermal_throttle_events, 0);
  EXPECT_DOUBLE_EQ(r1.thermal_shed_ws, 0.0);
  EXPECT_TRUE(r1.thermal_time_over_trip.empty());
}

TEST(ThermalFaults, FanDegradeTripsGovernorThatWouldStayQuiet) {
  // Trip sits above the healthy steady state; only the unit whose fan
  // degrades (resistance x2 from t=100 on) can reach it. Constant
  // manager: every cap is pinned at 110 W, so no healthy unit can
  // dissipate past the 110 W steady state (a redistributing manager
  // could legally raise one unit's cap far above the per-socket mean
  // and overheat it without any fault).
  ThermalConfig thermal = exact_config();
  const Celsius ss = thermal.ambient_c + thermal.resistance_c_per_w * 110.0;
  thermal.trip_c = ss + 10.0;
  thermal.clear_c = thermal.trip_c - 8.0;

  std::vector<FaultEvent> events;
  FaultEvent e;
  e.at = 100.0;
  e.duration = 0.0;  // never clears
  e.unit = 3;
  e.kind = FaultKind::kFanDegrade;
  e.magnitude = 2.0;
  events.push_back(e);

  EngineConfig config;
  config.total_budget = 110.0 * 20;
  config.target_completions = 2;
  config.thermal = thermal;
  config.fault_plan = std::make_shared<FaultPlan>(std::move(events), 20);

  ConstantManager manager;
  const auto result = run_pair(workload_by_name("Kmeans"),
                               workload_by_name("GMM"), manager, config, 7);
  EXPECT_GT(result.thermal_throttle_events, 0);
  ASSERT_EQ(result.thermal_time_over_trip.size(), 20u);
  EXPECT_GT(result.thermal_time_over_trip[3], 0.0);
  for (int u = 0; u < 20; ++u) {
    if (u != 3) {
      EXPECT_EQ(result.thermal_time_over_trip[u], 0.0) << u;
    }
  }
}

TEST(ThermalFaults, StuckSensorBlindsGovernorLedgerStillSees) {
  // The sensor freezes at ambient before the unit ever heats: the
  // governor never trips, but time-over-trip (tracked against the true
  // temperature) must still record the overheat.
  ThermalConfig thermal = exact_config();
  const Celsius ss = thermal.ambient_c + thermal.resistance_c_per_w * 110.0;
  thermal.trip_c = ss - 10.0;
  thermal.clear_c = thermal.trip_c - 8.0;

  std::vector<FaultEvent> events;
  for (int u = 0; u < 20; ++u) {
    FaultEvent e;
    e.at = 0.0;
    e.duration = 0.0;  // never clears
    e.unit = u;
    e.kind = FaultKind::kTempSensorStuck;
    events.push_back(e);
  }

  EngineConfig config;
  config.total_budget = 110.0 * 20;
  config.target_completions = 2;
  config.thermal = thermal;
  config.fault_plan = std::make_shared<FaultPlan>(std::move(events), 20);

  SlurmStatelessManager manager;
  const auto result = run_pair(workload_by_name("Kmeans"),
                               workload_by_name("GMM"), manager, config, 7);
  EXPECT_EQ(result.thermal_throttle_events, 0);
  EXPECT_DOUBLE_EQ(result.thermal_shed_ws, 0.0);
  double over = 0.0;
  for (const Seconds s : result.thermal_time_over_trip) over += s;
  EXPECT_GT(over, 0.0);
}

TEST(ThermalFaultPlan, GenerateProducesNewKindsWithValidMagnitudes) {
  FaultPlanConfig config;
  config.fan_degrade_rate = 3.0;
  config.temp_stuck_rate = 3.0;
  config.horizon = 20000.0;
  const auto plan = FaultPlan::generate(config, 8);
  int fans = 0, stuck = 0;
  for (const auto& e : plan.events()) {
    if (e.kind == FaultKind::kFanDegrade) {
      ++fans;
      EXPECT_GE(e.magnitude, config.fan_degrade_min);
      EXPECT_LE(e.magnitude, config.fan_degrade_max);
      EXPECT_GE(e.unit, 0);
      EXPECT_LT(e.unit, 8);
    }
    if (e.kind == FaultKind::kTempSensorStuck) ++stuck;
  }
  EXPECT_GT(fans, 0);
  EXPECT_GT(stuck, 0);

  // Adding the thermal kinds must not reshuffle the existing streams.
  FaultPlanConfig crashes_only;
  crashes_only.crash_rate = 2.0;
  FaultPlanConfig crashes_plus_thermal = crashes_only;
  crashes_plus_thermal.fan_degrade_rate = 3.0;
  const auto before = FaultPlan::generate(crashes_only, 8);
  const auto after = FaultPlan::generate(crashes_plus_thermal, 8);
  std::vector<FaultEvent> after_crashes;
  for (const auto& e : after.events()) {
    if (e.kind == FaultKind::kUnitCrash) after_crashes.push_back(e);
  }
  EXPECT_EQ(before.events(), after_crashes);
}

TEST(ThermalConfigIo, RoundTripAndLineNumberedRejection) {
  ThermalConfig config;
  config.trip_c = 91.5;
  config.clear_c = 80.25;
  config.seed = 7;
  bool enabled = true;
  const FileConfig parsed = file_config_from_ini(
      IniFile::parse(write_section(ini_section(config, enabled))));
  EXPECT_TRUE(parsed.thermal_enabled);
  EXPECT_DOUBLE_EQ(parsed.thermal.trip_c, config.trip_c);
  EXPECT_DOUBLE_EQ(parsed.thermal.clear_c, config.clear_c);
  EXPECT_EQ(parsed.thermal.seed, config.seed);

  // Absent section / disabled section => off; a listed one => on.
  auto load = [](const char* text) {
    return file_config_from_ini(IniFile::parse(text));
  };
  EXPECT_FALSE(load("[dps]\nhistory_length = 20\n").thermal_enabled);
  EXPECT_FALSE(load("[thermal]\nenabled = false\n").thermal_enabled);
  EXPECT_TRUE(load("[thermal]\ntrip = 90\n").thermal_enabled);

  // Semantic errors cite the offending line.
  try {
    load("[thermal]\nambient = 25\ntime_constant = -3\n");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& err) {
    EXPECT_NE(std::string(err.what()).find("line 3"), std::string::npos)
        << err.what();
  }
  try {
    load("[thermal]\ntrip = 70\nclear = 80\n");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& err) {
    EXPECT_NE(std::string(err.what()).find("line 2"), std::string::npos)
        << err.what();
  }
}

TEST(ThermalDeterminism, ParallelCsvIsByteIdenticalToSerial) {
  // The ISSUE's acceptance contract, thermal edition: a thermal-enabled
  // sweep written at DPS_JOBS=4 must reproduce the DPS_JOBS=1 bytes.
  ThermalConfig thermal;
  const Celsius ss = thermal.ambient_c + thermal.resistance_c_per_w * 110.0;
  thermal.trip_c = ss + 2.0;
  thermal.clear_c = thermal.trip_c - 8.0;

  struct Task {
    std::string a, b;
    ManagerKind kind;
  };
  std::vector<Task> tasks;
  for (const auto* a : {"Kmeans", "LDA"}) {
    for (const auto kind : {ManagerKind::kSlurm, ManagerKind::kDps}) {
      tasks.push_back({a, "GMM", kind});
    }
  }

  auto run_grid = [&](int jobs, const std::string& csv_path) {
    ExperimentParams params;
    params.repeats = 1;
    params.seed = 11;
    params.thermal = thermal;
    PairRunner runner(params);
    const auto outcomes = sweep_ordered(
        tasks.size(),
        [&](std::size_t i) {
          return runner.run_pair(workload_by_name(tasks[i].a),
                                 workload_by_name(tasks[i].b), tasks[i].kind);
        },
        jobs);
    CsvWriter csv(csv_path);
    csv.write_header({"a", "b", "manager", "pair_hmean", "fairness",
                      "throttle_events", "shed_ws", "peak_temperature_c"});
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      csv.write_row({tasks[i].a, tasks[i].b, to_string(tasks[i].kind),
                     format_double(outcomes[i].pair_hmean, 6),
                     format_double(outcomes[i].fairness, 6),
                     std::to_string(outcomes[i].thermal_throttle_events),
                     format_double(outcomes[i].thermal_shed_ws, 6),
                     format_double(outcomes[i].peak_temperature_c, 6)});
    }
    csv.flush();
  };

  const std::string serial_path = ::testing::TempDir() + "thermal_serial.csv";
  const std::string parallel_path =
      ::testing::TempDir() + "thermal_parallel.csv";
  run_grid(1, serial_path);
  run_grid(4, parallel_path);

  const std::string serial = slurp(serial_path);
  ASSERT_FALSE(serial.empty());
  EXPECT_EQ(serial, slurp(parallel_path));
}

}  // namespace
}  // namespace dps
