/// Extension experiment: where is the reaction-speed boundary? Section 3.3
/// argues that when power phases flip faster than the manager can react,
/// active reallocation hurts, and DPS must detect this (the
/// high-frequency flag) and fall back to safe provisioning. This bench
/// sweeps a square-wave workload's period from 4 s to 160 s against a
/// sustained high-power partner and reports, per period:
///   - the fraction of decision steps the square-wave units carried the
///     high-frequency flag,
///   - DPS's and SLURM's pair hmean gain vs constant.
///
/// Expected: the flag engages below roughly the history length (20 s) and
/// disengages for long periods where the derivative detector takes over;
/// SLURM's losses concentrate at short periods; DPS holds the constant
/// lower bound across the whole sweep.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/dps_manager.hpp"
#include "experiments/registry.hpp"
#include "managers/constant.hpp"
#include "managers/slurm_stateless.hpp"
#include "metrics/metrics.hpp"
#include "sim/engine.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "workloads/synthetic.hpp"

namespace {

using namespace dps;

struct SweepPoint {
  double gain_constant_pair = 1.0;
  double gain_slurm = 0.0;
  double gain_dps = 0.0;
  double high_freq_share = 0.0;  // fraction of steps units 0..9 flagged
};

WorkloadSpec wave_of_period(Seconds period) {
  // 40 % duty cycle at 150 W over a 55 W floor; enough cycles to fill an
  // experiment run of a few hundred seconds.
  const Seconds high = period * 0.4;
  const Seconds low = period - high;
  const int cycles = std::max(3, static_cast<int>(600.0 / period));
  auto spec = square_wave(high, low, 150.0, 55.0, cycles);
  spec.name = "square_" + format_double(period, 0);
  return spec;
}

double run_pair_gain(PowerManager& manager, const WorkloadSpec& wave,
                     const WorkloadSpec& partner, double base_a,
                     double base_b, double* high_freq_share = nullptr,
                     DpsManager* dps = nullptr) {
  Cluster cluster({GroupSpec{wave, 10, 51}, GroupSpec{partner, 10, 52}});
  SimulatedRapl rapl(cluster.total_units());
  EngineConfig config;
  config.total_budget = 110.0 * cluster.total_units();
  config.target_completions = 2;
  config.max_time = 30000.0;

  // Manual loop so DPS's high-frequency flags can be sampled.
  ManagerContext ctx;
  ctx.num_units = cluster.total_units();
  ctx.total_budget = config.total_budget;
  ctx.tdp = rapl.tdp();
  ctx.min_cap = rapl.min_cap();
  manager.reset(ctx);
  std::vector<Watts> caps(ctx.num_units, ctx.constant_cap());
  std::vector<Watts> power(ctx.num_units), measured(ctx.num_units);
  rapl.set_cap_batch(caps);

  long flagged = 0, samples = 0;
  std::vector<Watts> effective(ctx.num_units);
  while (cluster.min_completions() < config.target_completions &&
         cluster.now() < config.max_time) {
    rapl.effective_caps_batch(effective);
    cluster.step(1.0, effective, power);
    rapl.record_batch(power, 1.0);
    rapl.advance_step();
    rapl.read_power_batch(measured);
    manager.decide(measured, caps);
    rapl.set_cap_batch(caps);
    if (dps) {
      for (int u = 0; u < 10; ++u) {
        flagged += dps->priorities().high_frequency(u) ? 1 : 0;
        ++samples;
      }
    }
  }
  if (high_freq_share && samples > 0) {
    *high_freq_share = static_cast<double>(flagged) /
                       static_cast<double>(samples);
  }

  std::vector<double> lat_a, lat_b;
  for (const auto& c : cluster.completions(0)) lat_a.push_back(c.latency());
  for (const auto& c : cluster.completions(1)) lat_b.push_back(c.latency());
  return pair_hmean(base_a / hmean_latency(lat_a),
                    base_b / hmean_latency(lat_b));
}

}  // namespace

int main() {
  using namespace dps;
  const auto partner = workload_by_name("GMM");

  std::printf(
      "Extension: high-frequency detector sweep — square-wave (40%% duty,\n"
      "150/55 W) vs GMM, period swept 4..160 s. DPS history length is 20.\n\n");

  CsvWriter csv(dps::bench::out_dir() + "/ext_detector_sweep.csv");
  csv.write_header({"period_s", "high_freq_share", "slurm_pair_gain",
                    "dps_pair_gain"});

  Table table({"period [s]", "HF flag share", "slurm gain", "dps gain"});

  // One sweep task per period: its solo baselines and both pair runs are
  // self-contained, so the seven points run concurrently and report in
  // period order.
  const std::vector<Seconds> periods = {4.0, 8.0, 12.0, 20.0,
                                        40.0, 80.0, 160.0};
  const auto points = sweep_ordered(periods.size(), [&](std::size_t i) {
    const auto wave = wave_of_period(periods[i]);

    // Constant baselines for this wave and the partner.
    ConstantManager constant_a;
    Cluster solo_a({GroupSpec{wave, 10, 51}});
    SimulatedRapl rapl_a(10);
    EngineConfig solo_config;
    solo_config.total_budget = 1100.0;
    solo_config.target_completions = 2;
    solo_config.max_time = 30000.0;
    const auto base_run_a =
        SimulationEngine(solo_config).run(solo_a, rapl_a, constant_a);
    std::vector<double> base_lat_a;
    for (const auto& c : base_run_a.completions[0]) {
      base_lat_a.push_back(c.latency());
    }
    const double base_a = hmean_latency(base_lat_a);

    ConstantManager constant_b;
    Cluster solo_b({GroupSpec{partner, 10, 52}});
    SimulatedRapl rapl_b(10);
    const auto base_run_b =
        SimulationEngine(solo_config).run(solo_b, rapl_b, constant_b);
    std::vector<double> base_lat_b;
    for (const auto& c : base_run_b.completions[0]) {
      base_lat_b.push_back(c.latency());
    }
    const double base_b = hmean_latency(base_lat_b);

    SweepPoint point;
    SlurmStatelessManager slurm;
    point.gain_slurm = run_pair_gain(slurm, wave, partner, base_a, base_b);
    DpsManager dps;
    point.gain_dps = run_pair_gain(dps, wave, partner, base_a, base_b,
                                   &point.high_freq_share, &dps);
    return point;
  });

  for (std::size_t i = 0; i < periods.size(); ++i) {
    const auto& point = points[i];
    table.add_row({format_double(periods[i], 0),
                   format_double(point.high_freq_share, 2),
                   dps::bench::percent(point.gain_slurm),
                   dps::bench::percent(point.gain_dps)});
    csv.write_row({format_double(periods[i], 0),
                   format_double(point.high_freq_share, 4),
                   format_double(point.gain_slurm, 4),
                   format_double(point.gain_dps, 4)});
  }
  table.print();

  std::printf(
      "\nExpected: the high-frequency flag engages for periods within the\n"
      "20-step history and releases for slow waves; DPS holds the constant\n"
      "lower bound everywhere while SLURM suffers most at short periods.\n");
  return 0;
}
