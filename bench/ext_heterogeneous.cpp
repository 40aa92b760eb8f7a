/// Extension experiment: heterogeneous fleets. Real clouds mix hardware
/// generations; the paper's claim that DPS "can be deployed on any cloud
/// system" implies it must handle units with different TDPs. Here cluster
/// A runs on full-size 165 W sockets and cluster B on small 125 W sockets
/// (its demand model scaled accordingly); the manager is told each unit's
/// TDP (ManagerContext::unit_tdp) so it never parks budget on a socket
/// that cannot draw it.
///
/// Expected: DPS's advantage survives heterogeneity, and a TDP-aware DPS
/// beats one that believes every socket can take 165 W (the unaware
/// variant strands budget on saturated small sockets).

#include <algorithm>
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

namespace {

using namespace dps;

/// Scales a workload's demand levels (small sockets draw less at the same
/// activity) without touching durations.
WorkloadSpec scale_power(WorkloadSpec spec, double factor) {
  for (auto& segment : spec.segments) {
    segment.start_power = kIdlePower +
                          (segment.start_power - kIdlePower) * factor;
    segment.end_power = kIdlePower +
                        (segment.end_power - kIdlePower) * factor;
  }
  return spec;
}

struct HeteroResult {
  double hmean_a = 0.0;
  double hmean_b = 0.0;
};

HeteroResult run(PowerManager& manager, bool tdp_aware, int repeats) {
  const auto big = workload_by_name("Kmeans");
  const auto small = scale_power(workload_by_name("GMM"), 0.72);

  Cluster cluster({GroupSpec{big, 10, 91}, GroupSpec{small, 10, 92}});
  SimulatedRapl rapl(cluster.total_units());

  ManagerContext ctx;
  ctx.num_units = cluster.total_units();
  // Budget: 2/3 of the heterogeneous fleet's aggregate TDP.
  ctx.total_budget = (10 * 165.0 + 10 * 125.0) * 2.0 / 3.0;
  ctx.tdp = 165.0;
  ctx.min_cap = rapl.min_cap();
  if (tdp_aware) {
    ctx.unit_tdp.assign(20, 165.0);
    for (int u = 10; u < 20; ++u) ctx.unit_tdp[u] = 125.0;
  }
  manager.reset(ctx);

  std::vector<Watts> caps(20, ctx.constant_cap());
  std::vector<Watts> power(20), measured(20);
  std::vector<Watts> effective(20);
  rapl.set_cap_batch(caps);
  while (cluster.min_completions() < repeats && cluster.now() < 60000.0) {
    rapl.effective_caps_batch(effective);
    cluster.step(1.0, effective, power);
    rapl.record_batch(power, 1.0);
    rapl.advance_step();
    rapl.read_power_batch(measured);
    manager.decide(measured, caps);
    rapl.set_cap_batch(caps);
  }

  HeteroResult result;
  std::vector<double> lat_a, lat_b;
  for (const auto& c : cluster.completions(0)) lat_a.push_back(c.latency());
  for (const auto& c : cluster.completions(1)) lat_b.push_back(c.latency());
  result.hmean_a = hmean_latency(lat_a);
  result.hmean_b = hmean_latency(lat_b);
  return result;
}

}  // namespace

int main() {
  using namespace dps;
  const int repeats = dps::bench::params_from_env().repeats;

  std::printf(
      "Extension: heterogeneous fleet — 10x165 W sockets (Kmeans) + "
      "10x125 W sockets\n(scaled GMM), budget = 2/3 of aggregate TDP. Pair "
      "hmean gain vs constant.\n\n");

  ConstantManager constant;
  const auto base = run(constant, /*tdp_aware=*/true, repeats);

  CsvWriter csv(dps::bench::out_dir() + "/ext_heterogeneous.csv");
  csv.write_header({"manager", "pair_gain"});
  Table table({"manager", "pair gain"});
  auto report = [&](const char* label, PowerManager& manager,
                    bool tdp_aware) {
    const auto result = run(manager, tdp_aware, repeats);
    const double gain = pair_hmean(base.hmean_a / result.hmean_a,
                                   base.hmean_b / result.hmean_b);
    table.add_row({label, dps::bench::percent(gain)});
    csv.write_row({label, format_double(gain, 4)});
  };

  SlurmStatelessManager slurm;
  report("slurm (tdp-aware)", slurm, true);
  DpsManager dps_unaware;
  report("dps (tdp-unaware)", dps_unaware, false);
  DpsManager dps_aware;
  report("dps (tdp-aware)", dps_aware, true);
  table.print();

  std::printf(
      "\nExpected: DPS leads SLURM under heterogeneity, and knowing the\n"
      "per-unit TDPs beats assuming 165 W everywhere (budget otherwise\n"
      "parks on saturated small sockets).\n");
  return 0;
}
