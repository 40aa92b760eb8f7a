/// exp — the command-line experiment driver, mirroring the paper
/// artifact's exp.py: run any workload pair under any power management
/// system with any repeat count, and print the metrics the paper reports.
///
/// Usage:
///   exp --a <workload> --b <workload> [--manager constant|slurm|oracle|dps]
///       [--repeats N] [--seed S] [--budget W] [--sockets N]
///       [--trace out.csv] [--list]
///
/// Examples:
///   exp --list
///   exp --a Kmeans --b GMM --manager dps --repeats 3
///   exp --a LDA --b EP --manager slurm --trace slurm_lda_ep.csv

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "config/file_config.hpp"
#include "core/dps_manager.hpp"
#include "ctrl/tree.hpp"
#include "experiments/pair_runner.hpp"
#include "experiments/registry.hpp"
#include "managers/constant.hpp"
#include "managers/oracle.hpp"
#include "managers/slurm_stateless.hpp"
#include "sched/arrivals.hpp"
#include "sim/engine.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"
#include "workloads/npb_suite.hpp"
#include "workloads/spark_suite.hpp"

namespace {

using namespace dps;

struct Options {
  std::string a = "Kmeans";
  std::string b = "GMM";
  std::string manager = "dps";
  int repeats = 2;
  std::uint64_t seed = 42;
  double budget_per_socket = 110.0;
  int sockets = 10;
  std::optional<std::string> trace_path;
  std::string config_path;
  std::string obs_metrics_path, obs_events_path, obs_trace_path;
  // Job-schedule mode (src/sched/): active when --sched-policy or
  // --job-trace is given.
  std::optional<std::string> sched_policy;
  std::string job_trace;
  double arrival_rate = 5.0;
  int jobs = 40;
  int units = 20;
  // Hierarchical control plane (src/ctrl/): shard the units and run the
  // manager per shard under a DPS root tier. 0 = flat (default).
  int tree_shard = 0;
  int tree_jobs = 1;
  // Thermal coupling (src/thermal/): any --thermal* flag enables the RC
  // model + throttle governor; unset values come from the [thermal]
  // section or the defaults.
  bool thermal = false;
  std::optional<double> thermal_trip, thermal_clear, thermal_cap;
  bool list = false;
  bool help = false;

  bool sched_mode() const {
    return sched_policy.has_value() || !job_trace.empty();
  }

  bool obs_enabled() const {
    return !obs_metrics_path.empty() || !obs_events_path.empty() ||
           !obs_trace_path.empty();
  }

  bool thermal_flags() const {
    return thermal || thermal_trip.has_value() || thermal_clear.has_value() ||
           thermal_cap.has_value();
  }
};

void print_usage() {
  std::printf(
      "exp — run one workload pair under a power manager (see exp.py in\n"
      "the paper's artifact).\n\n"
      "  --a <name>        workload on cluster A            [Kmeans]\n"
      "  --b <name>        workload on cluster B            [GMM]\n"
      "  --manager <name>  constant | slurm | oracle | dps  [dps]\n"
      "  --repeats <n>     completed runs per workload      [2]\n"
      "  --seed <n>        jitter seed                      [42]\n"
      "  --budget <watts>  per-socket cluster budget        [110]\n"
      "  --sockets <n>     sockets per cluster              [10]\n"
      "  --trace <path>    dump per-step telemetry CSV\n"
      "  --config <file>   DPS INI file; exp uses [dps]/[stateless]/[obs]/\n"
      "                    [thermal] and validates every section, so one\n"
      "                    file can serve exp and the daemons\n"
      "  --obs-metrics <p> write Prometheus metrics of an observed run\n"
      "  --obs-events <p>  write the structured event-log CSV\n"
      "  --obs-trace <p>   write Chrome trace_event JSON (chrome://tracing)\n"
      "  --list            list the available workloads\n"
      "\nJob-schedule mode (open job stream instead of the static pair;\n"
      "--a/--b become the Poisson workload mix):\n"
      "  --sched-policy <p> fcfs | backfill | power\n"
      "  --arrival-rate <r> expected jobs per 1000 s          [5]\n"
      "  --jobs <n>         jobs in the generated stream      [40]\n"
      "  --job-trace <path> replay arrivals from a CSV trace\n"
      "  --units <n>        power-capping units in the machine [20]\n"
      "\nThermal coupling (src/thermal/; any of these enables the RC model\n"
      "and its throttle governor, defaults from [thermal] or built-ins):\n"
      "  --thermal          enable with the configured parameters\n"
      "  --thermal-trip <C> governor trip temperature\n"
      "  --thermal-clear <C> governor clear temperature\n"
      "  --thermal-cap <W>  cap forced while a unit is throttled\n"
      "\nHierarchical control plane (src/ctrl/, sim form; applies to\n"
      "job-schedule mode and the --trace/--obs re-run):\n"
      "  --tree-shard <k>   units per leaf shard; the chosen manager runs\n"
      "                     per shard under a DPS root tier  [0 = flat]\n"
      "  --tree-jobs <n>    threads for the leaf decides (decisions are\n"
      "                     identical at any value)          [1]\n");
}

std::optional<Options> parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--list") {
      options.list = true;
    } else if (arg == "--help" || arg == "-h") {
      options.help = true;
    } else if (arg == "--a") {
      const char* v = next();
      if (!v) return std::nullopt;
      options.a = v;
    } else if (arg == "--b") {
      const char* v = next();
      if (!v) return std::nullopt;
      options.b = v;
    } else if (arg == "--manager") {
      const char* v = next();
      if (!v) return std::nullopt;
      options.manager = v;
    } else if (arg == "--repeats") {
      const char* v = next();
      if (!v) return std::nullopt;
      options.repeats = std::atoi(v);
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return std::nullopt;
      options.seed = static_cast<std::uint64_t>(std::atoll(v));
    } else if (arg == "--budget") {
      const char* v = next();
      if (!v) return std::nullopt;
      options.budget_per_socket = std::atof(v);
    } else if (arg == "--sockets") {
      const char* v = next();
      if (!v) return std::nullopt;
      options.sockets = std::atoi(v);
    } else if (arg == "--trace") {
      const char* v = next();
      if (!v) return std::nullopt;
      options.trace_path = v;
    } else if (arg == "--config") {
      const char* v = next();
      if (!v) return std::nullopt;
      options.config_path = v;
    } else if (arg == "--obs-metrics") {
      const char* v = next();
      if (!v) return std::nullopt;
      options.obs_metrics_path = v;
    } else if (arg == "--obs-events") {
      const char* v = next();
      if (!v) return std::nullopt;
      options.obs_events_path = v;
    } else if (arg == "--obs-trace") {
      const char* v = next();
      if (!v) return std::nullopt;
      options.obs_trace_path = v;
    } else if (arg == "--sched-policy") {
      const char* v = next();
      if (!v) return std::nullopt;
      options.sched_policy = v;
    } else if (arg == "--arrival-rate") {
      const char* v = next();
      if (!v) return std::nullopt;
      options.arrival_rate = std::atof(v);
    } else if (arg == "--jobs") {
      const char* v = next();
      if (!v) return std::nullopt;
      options.jobs = std::atoi(v);
    } else if (arg == "--job-trace") {
      const char* v = next();
      if (!v) return std::nullopt;
      options.job_trace = v;
    } else if (arg == "--units") {
      const char* v = next();
      if (!v) return std::nullopt;
      options.units = std::atoi(v);
    } else if (arg == "--tree-shard") {
      const char* v = next();
      if (!v) return std::nullopt;
      options.tree_shard = std::atoi(v);
    } else if (arg == "--tree-jobs") {
      const char* v = next();
      if (!v) return std::nullopt;
      options.tree_jobs = std::atoi(v);
    } else if (arg == "--thermal") {
      options.thermal = true;
    } else if (arg == "--thermal-trip") {
      const char* v = next();
      if (!v) return std::nullopt;
      options.thermal_trip = std::atof(v);
    } else if (arg == "--thermal-clear") {
      const char* v = next();
      if (!v) return std::nullopt;
      options.thermal_clear = std::atof(v);
    } else if (arg == "--thermal-cap") {
      const char* v = next();
      if (!v) return std::nullopt;
      options.thermal_cap = std::atof(v);
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return std::nullopt;
    }
  }
  return options;
}

/// [thermal] section and --thermal* flags combined: flags win, any flag
/// alone enables the subsystem with defaults.
std::optional<ThermalConfig> resolve_thermal(const Options& options,
                                             const FileConfig& fc) {
  if (!fc.thermal_enabled && !options.thermal_flags()) return std::nullopt;
  ThermalConfig t = fc.thermal_enabled ? fc.thermal : ThermalConfig{};
  if (options.thermal_trip) t.trip_c = *options.thermal_trip;
  if (options.thermal_clear) t.clear_c = *options.thermal_clear;
  if (options.thermal_cap) t.throttle_cap_w = *options.thermal_cap;
  validate(t);
  return t;
}

ManagerKind manager_kind(const std::string& name) {
  if (name == "constant") return ManagerKind::kConstant;
  if (name == "slurm") return ManagerKind::kSlurm;
  if (name == "oracle") return ManagerKind::kOracle;
  if (name == "dps") return ManagerKind::kDps;
  throw std::invalid_argument("unknown manager: " + name);
}

/// --tree-shard: the chosen manager becomes the per-shard leaf of a
/// TreeController whose root tier runs DPS. Returns nullptr when flat.
std::unique_ptr<PowerManager> make_tree(const Options& options,
                                        const FileConfig& fc,
                                        ManagerKind kind) {
  if (options.tree_shard <= 0) return nullptr;
  if (kind == ManagerKind::kOracle) {
    throw std::invalid_argument(
        "--tree-shard: the oracle needs the global demand view and cannot "
        "be sharded");
  }
  CtrlConfig ctrl;
  ctrl.shard_size = options.tree_shard;
  ctrl.leaf_jobs = options.tree_jobs;
  auto leaf = [kind, dps = fc.dps,
               slurm = fc.stateless]() -> std::unique_ptr<PowerManager> {
    switch (kind) {
      case ManagerKind::kSlurm:
        return std::make_unique<SlurmStatelessManager>(slurm);
      case ManagerKind::kConstant:
        return std::make_unique<ConstantManager>();
      default:
        return std::make_unique<DpsManager>(dps);
    }
  };
  auto root = [dps = fc.dps]() -> std::unique_ptr<PowerManager> {
    return std::make_unique<DpsManager>(dps);
  };
  return std::make_unique<TreeController>(ctrl, leaf, root);
}

void list_workloads() {
  Table table({"workload", "suite", "power type", "nominal [s]",
               "paper latency [s]", "above 110W (paper)"});
  for (const auto& name : all_workload_names()) {
    const auto spec = workload_by_name(name);
    const auto paper = paper_stats_by_name(name);
    table.add_row({name,
                   spec.power_type == PowerType::kNpb ? "NPB" : "HiBench",
                   to_string(spec.power_type),
                   format_double(spec.nominal_duration(), 0),
                   format_double(paper.duration, 1),
                   format_double(paper.above_110_fraction * 100.0, 2) + "%"});
  }
  table.print();
}

/// Job-schedule mode: run an open job stream through the scheduling
/// subsystem instead of the static pair assignment.
void run_sched_mode(const Options& options, const FileConfig& fc) {
  sched::JobScheduleConfig js;
  if (options.sched_policy.has_value() &&
      !sched::sched_policy_from_string(*options.sched_policy, js.policy)) {
    throw std::invalid_argument("unknown --sched-policy: " +
                                *options.sched_policy);
  }
  js.seed = options.seed;
  js.arrival_rate_per_1000s = options.arrival_rate;
  js.job_count = options.jobs;
  js.workload_mix = {options.a, options.b};
  js.resolve = [](const std::string& name) { return workload_by_name(name); };
  if (!options.job_trace.empty()) {
    js.trace = sched::load_job_trace(options.job_trace);
  }

  EngineConfig config;
  config.total_budget = options.budget_per_socket * options.units;
  obs::ObsConfig obs_config = fc.obs;
  if (!options.obs_metrics_path.empty()) {
    obs_config.export_prometheus = options.obs_metrics_path;
  }
  if (!options.obs_events_path.empty()) {
    obs_config.export_events_csv = options.obs_events_path;
  }
  if (!options.obs_trace_path.empty()) {
    obs_config.export_trace_json = options.obs_trace_path;
  }
  if (options.obs_enabled()) obs_config.enabled = true;
  config.obs = obs::make_sink(obs_config);
  config.job_schedule = js;
  config.thermal = resolve_thermal(options, fc);

  DpsManager dps(fc.dps);
  SlurmStatelessManager slurm(fc.stateless);
  ConstantManager constant;
  PowerManager* manager = &dps;
  const auto kind = manager_kind(options.manager);
  if (kind == ManagerKind::kSlurm) manager = &slurm;
  if (kind == ManagerKind::kConstant) manager = &constant;
  if (kind == ManagerKind::kOracle) {
    throw std::invalid_argument(
        "job-schedule mode supports constant | slurm | dps");
  }
  const auto tree = make_tree(options, fc, kind);
  if (tree) manager = tree.get();

  const bool export_obs = obs_config.enabled && obs_config.any_export();
  const auto result = run_jobs(*manager, config, options.units);
  const auto& s = result.sched;
  std::printf("job stream under %s / %s policy (%d units, %.0f W budget, "
              "seed %llu)\n\n",
              options.manager.c_str(),
              sched::to_string(js.policy), options.units,
              config.total_budget,
              static_cast<unsigned long long>(options.seed));
  Table table({"KPI", "value"});
  table.add_row({"jobs submitted", std::to_string(s.submitted)});
  table.add_row({"jobs completed", std::to_string(s.completed)});
  table.add_row({"crash requeues", std::to_string(s.requeued)});
  table.add_row({"jobs abandoned", std::to_string(s.abandoned)});
  table.add_row({"jobs shrunk", std::to_string(s.shrunk)});
  table.add_row({"throttle stalls", std::to_string(s.throttle_stalls)});
  table.add_row({"mean wait [s]", format_double(s.mean_wait, 1)});
  table.add_row({"max wait [s]", format_double(s.max_wait, 1)});
  table.add_row({"mean bounded slowdown",
                 format_double(s.mean_bounded_slowdown, 3)});
  table.add_row({"mean utilization", format_double(s.mean_utilization, 3)});
  table.add_row({"max queue depth", std::to_string(s.max_queue_depth)});
  table.add_row({"elapsed [s]", format_double(result.elapsed, 0)});
  table.add_row({"timed out", result.timed_out ? "yes" : "no"});
  table.add_row({"peak cap sum [W]", format_double(result.peak_cap_sum, 1)});
  if (config.thermal.has_value()) {
    table.add_row(
        {"thermal throttles", std::to_string(result.thermal_throttle_events)});
    table.add_row(
        {"thermal shed [Ws]", format_double(result.thermal_shed_ws, 1)});
    table.add_row(
        {"peak temperature [C]", format_double(result.peak_temperature_c, 1)});
  }
  table.print();
  if (export_obs) {
    obs::export_all(config.obs, obs_config);
    std::printf("(observability exports written)\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = parse(argc, argv);
  if (!options) {
    print_usage();
    return 2;
  }
  if (options->help) {
    print_usage();
    return 0;
  }
  if (options->list) {
    list_workloads();
    return 0;
  }

  try {
    const FileConfig fc = load_file_config(options->config_path);
    if (options->sched_mode()) {
      run_sched_mode(*options, fc);
      return 0;
    }
    if (options->tree_shard > 0 && !options->trace_path &&
        !options->obs_enabled()) {
      throw std::invalid_argument(
          "--tree-shard applies to job-schedule mode (--sched-policy) or a "
          "--trace/--obs run; the paper's pair tables are flat-only");
    }
    ExperimentParams params;
    params.repeats = options->repeats;
    params.seed = options->seed;
    params.budget_per_socket = options->budget_per_socket;
    params.sockets_per_cluster = options->sockets;
    params.dps = fc.dps;
    params.slurm = fc.stateless;
    params.thermal = resolve_thermal(*options, fc);
    PairRunner runner(params);

    const auto workload_a = workload_by_name(options->a);
    const auto workload_b = workload_by_name(options->b);
    const auto kind = manager_kind(options->manager);
    const auto outcome = runner.run_pair(workload_a, workload_b, kind);

    std::printf("%s + %s under %s (%d repeats, %.0f W/socket, %d+%d "
                "sockets)\n\n",
                options->a.c_str(), options->b.c_str(),
                options->manager.c_str(), options->repeats,
                options->budget_per_socket, options->sockets,
                options->sockets);
    Table table({"metric", options->a, options->b});
    table.add_row({"runs completed", std::to_string(outcome.a.latencies.size()),
                   std::to_string(outcome.b.latencies.size())});
    table.add_row({"hmean latency [s]",
                   format_double(outcome.a.hmean_latency, 1),
                   format_double(outcome.b.hmean_latency, 1)});
    table.add_row({"speedup vs constant", format_double(outcome.a.speedup, 4),
                   format_double(outcome.b.speedup, 4)});
    table.add_row({"mean power [W]", format_double(outcome.a.mean_power, 1),
                   format_double(outcome.b.mean_power, 1)});
    table.add_row({"satisfaction", format_double(outcome.a.satisfaction, 3),
                   format_double(outcome.b.satisfaction, 3)});
    table.print();
    std::printf("\npair hmean speedup: %s   fairness: %s   peak cap sum: "
                "%.1f W (budget %.0f W)\n",
                format_double(outcome.pair_hmean, 4).c_str(),
                format_double(outcome.fairness, 4).c_str(),
                outcome.peak_cap_sum,
                options->budget_per_socket * 2 * options->sockets);
    if (params.thermal.has_value()) {
      std::printf("thermal: %d throttle engagements, %.1f Ws shed by the "
                  "governor, peak %.1f C (trip %.1f C)\n",
                  outcome.thermal_throttle_events, outcome.thermal_shed_ws,
                  outcome.peak_temperature_c, params.thermal->trip_c);
    }

    if (options->trace_path || options->obs_enabled()) {
      // Re-run with tracing / observability enabled through the
      // lower-level API.
      EngineConfig config;
      config.target_completions = 1;
      config.record_trace = options->trace_path.has_value();
      config.total_budget =
          options->budget_per_socket * 2 * options->sockets;
      config.max_time = 50000.0;
      obs::ObsConfig obs_config = fc.obs;
      obs_config.enabled = options->obs_enabled();
      if (!options->obs_metrics_path.empty()) {
        obs_config.export_prometheus = options->obs_metrics_path;
      }
      if (!options->obs_events_path.empty()) {
        obs_config.export_events_csv = options->obs_events_path;
      }
      if (!options->obs_trace_path.empty()) {
        obs_config.export_trace_json = options->obs_trace_path;
      }
      config.obs = obs::make_sink(obs_config);
      config.thermal = params.thermal;
      Cluster cluster(
          {GroupSpec{workload_a, options->sockets, options->seed},
           GroupSpec{workload_b, options->sockets, options->seed + 1}});
      SimulatedRapl rapl(cluster.total_units());
      DpsManager dps(fc.dps);
      SlurmStatelessManager slurm(fc.stateless);
      ConstantManager constant;
      OracleManager oracle(
          [&cluster](std::span<Watts> out) { cluster.true_demands(out); });
      PowerManager* manager = &dps;
      if (kind == ManagerKind::kSlurm) manager = &slurm;
      if (kind == ManagerKind::kConstant) manager = &constant;
      if (kind == ManagerKind::kOracle) manager = &oracle;
      const auto tree = make_tree(*options, fc, kind);
      if (tree) manager = tree.get();
      const auto result =
          SimulationEngine(config).run(cluster, rapl, *manager);
      if (options->trace_path) {
        std::printf("\n(writing telemetry trace to %s)\n",
                    options->trace_path->c_str());
        result.trace->write_csv(*options->trace_path);
      }
      if (options->obs_enabled()) {
        obs::export_all(config.obs, obs_config);
        std::printf("(observability exports written)\n");
      }
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return 0;
}
