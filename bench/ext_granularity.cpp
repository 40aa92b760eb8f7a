/// Extension experiment: power-capping granularity. The paper manages at
/// socket granularity and notes (Section 3) that different machines
/// support different scales — cores, sockets, or whole nodes. Here DPS
/// manages the same 20-socket system at three granularities: per socket
/// (20 units), per dual-socket node (10 units), and per 4-socket chassis
/// (5 units); node-level caps are split across the node's sockets by the
/// firmware-style proportional divider in sim/granularity.hpp.
///
/// Expected shape: coarser units blur the per-socket dynamics (a node's
/// aggregated trace is smoother than its sockets'), so the manager's
/// fairness and gains degrade gently with granularity — and management at
/// any granularity still beats constant allocation.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/dps_manager.hpp"
#include "experiments/registry.hpp"
#include "managers/constant.hpp"
#include "metrics/metrics.hpp"
#include "sim/engine.hpp"
#include "sim/granularity.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

using namespace dps;

struct GranularityResult {
  double hmean_a = 0.0;
  double hmean_b = 0.0;
};

/// Manual engine loop with the aggregator between manager and hardware.
GranularityResult run_at_granularity(PowerManager& manager,
                                     int sockets_per_unit, int repeats) {
  Cluster cluster({GroupSpec{workload_by_name("Kmeans"), 10, 41},
                   GroupSpec{workload_by_name("GMM"), 10, 42}});
  const int sockets = cluster.total_units();
  SimulatedRapl rapl(sockets);
  UnitAggregator aggregator(sockets, sockets_per_unit);
  const int units = aggregator.num_units();

  ManagerContext ctx;
  ctx.num_units = units;
  ctx.total_budget = 110.0 * sockets;
  ctx.tdp = rapl.tdp() * sockets_per_unit;
  ctx.min_cap = rapl.min_cap() * sockets_per_unit;
  manager.reset(ctx);

  std::vector<Watts> unit_caps(units, ctx.constant_cap());
  std::vector<Watts> unit_power(units, 0.0);
  std::vector<Watts> socket_caps(sockets, 110.0);
  std::vector<Watts> socket_power(sockets, 0.0);
  std::vector<Watts> measured(sockets, 0.0);
  std::vector<Watts> effective(sockets, 0.0);

  rapl.set_cap_batch(socket_caps);

  const Seconds max_time = 40000.0;
  while (cluster.min_completions() < repeats && cluster.now() < max_time) {
    rapl.effective_caps_batch(effective);
    cluster.step(1.0, effective, socket_power);
    rapl.record_batch(socket_power, 1.0);
    rapl.advance_step();
    rapl.read_power_batch(measured);

    aggregator.aggregate(measured, unit_power);
    manager.decide(unit_power, unit_caps);
    aggregator.split_caps(unit_caps, measured, socket_caps);
    rapl.set_cap_batch(socket_caps);
  }

  GranularityResult result;
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
      "Extension: capping granularity — DPS managing 20 sockets as 20 / 10 "
      "/ 5 units\n(Kmeans + GMM; gains vs constant allocation at the same "
      "granularity).\n\n");

  // Task 0 is the constant baseline, tasks 1..3 the DPS runs at socket /
  // node / chassis granularity. Each task owns a private manager, so the
  // sweep is task-pure and the CSV is byte-identical at any DPS_JOBS.
  const std::vector<int> spus = {1, 2, 4};
  const auto results = sweep_ordered(spus.size() + 1, [&](std::size_t i) {
    if (i == 0) {
      ConstantManager constant;
      return run_at_granularity(constant, 1, repeats);
    }
    DpsManager dps;
    return run_at_granularity(dps, spus[i - 1], repeats);
  });
  const GranularityResult& base = results[0];

  CsvWriter csv(dps::bench::out_dir() + "/ext_granularity.csv");
  csv.write_header({"sockets_per_unit", "units", "pair_gain"});

  Table table({"granularity", "units", "Kmeans gain", "GMM gain",
               "pair gain"});
  for (std::size_t i = 0; i < spus.size(); ++i) {
    const int spu = spus[i];
    const GranularityResult& result = results[i + 1];
    const double gain_a = base.hmean_a / result.hmean_a;
    const double gain_b = base.hmean_b / result.hmean_b;
    const double pair = pair_hmean(gain_a, gain_b);
    table.add_row({spu == 1 ? "socket" : (spu == 2 ? "node" : "chassis"),
                   std::to_string(20 / spu), dps::bench::percent(gain_a),
                   dps::bench::percent(gain_b), dps::bench::percent(pair)});
    csv.write_row({std::to_string(spu), std::to_string(20 / spu),
                   format_double(pair, 4)});
  }
  table.print();

  std::printf(
      "\nExpected: positive gains at every granularity, degrading gently as\n"
      "units coarsen (aggregation smooths away the per-socket dynamics DPS\n"
      "feeds on).\n");
  return 0;
}
