/// dpsd — the central controller daemon: the production deployment shape
/// of Section 4.3. Listens for one TCP connection per power-capping unit,
/// then runs the one-second decision loop until SIGINT/SIGTERM, printing
/// periodic stats.
///
/// Usage:
///   dpsd --units N [--port P] [--budget W] [--tdp W] [--min-cap W]
///        [--manager dps|slurm|constant|p2p] [--config file.ini]
///        [--period seconds] [--bind-any] [--rounds N]
///
/// Example (one controller, 20 sockets, 2200 W cluster budget):
///   dpsd --units 20 --port 9571 --budget 2200

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "config/file_config.hpp"
#include "core/checkpoint.hpp"
#include "core/dps_manager.hpp"
#include "ctrl/aggregator.hpp"
#include "managers/constant.hpp"
#include "managers/slurm_stateless.hpp"
#include "net/net_config.hpp"
#include "net/server.hpp"
#include "obs/obs_config.hpp"
#include "p2p/p2p_manager.hpp"

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop = true; }

void print_usage() {
  std::printf(
      "dpsd — DPS central controller daemon\n\n"
      "  --units N          number of power-capping units (required)\n"
      "  --port P           TCP port                        [9571]\n"
      "  --budget W         cluster-wide budget in watts    [110 * units]\n"
      "  --tdp W            per-unit TDP                    [165]\n"
      "  --min-cap W        per-unit minimum cap            [40]\n"
      "  --manager M        dps | slurm | constant | p2p    [dps]\n"
      "  --config FILE      DPS INI file (see configs/dps.ini)\n"
      "  --period SECONDS   decision-loop period            [1.0]\n"
      "  --rounds N         stop after N rounds (0 = until signal)\n"
      "  --bind-any         listen on all interfaces, not just loopback\n"
      "  --round-deadline S collect-phase deadline per round; a client\n"
      "                     missing it is scored 0 W   [5.0, 0 = none]\n"
      "  --checkpoint FILE  write a controller state snapshot to FILE\n"
      "  --checkpoint-interval N\n"
      "                     snapshot every N rounds    [30]\n"
      "  --restore          restore state from --checkpoint FILE at start\n"
      "                     and resume the session (units/budget come from\n"
      "                     the snapshot)\n"
      "  --parent-host H    aggregator mode: report this shard's aggregate\n"
      "                     to a parent dpsd at H (see docs/deployment.md;\n"
      "                     the uplink carries per-unit means)\n"
      "  --parent-port P    parent's TCP port\n"
      "  --parent-unit U    slot to reclaim at the parent on a restart\n"
      "                     without --restore                [-1 = any]\n"
      "                     (in aggregator mode --checkpoint files use the\n"
      "                     tree snapshot format and also record this slot)\n"
      "  --obs-metrics F    write Prometheus metrics to F on shutdown\n"
      "  --obs-events F     write the event-log CSV to F on shutdown\n"
      "  --obs-trace F      write Chrome trace_event JSON to F on shutdown\n"
      "                     (any --obs-* flag enables observability; the\n"
      "                     [obs] section of --config sets the defaults)\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dps;

  int units = 0;
  int port = 9571;
  double budget = 0.0;
  double tdp = 165.0;
  double min_cap = 40.0;
  double period = 1.0;
  long max_rounds = 0;
  bool bind_any = false;
  bool restore = false;
  double round_deadline = -1.0;  // < 0: keep the config/default value
  long checkpoint_interval = 0;  // 0: keep the config/default value
  std::string checkpoint_path;
  std::string manager_name = "dps";
  std::string config_path;
  std::string parent_host;
  int parent_port = 0;
  int parent_unit = -2;  // -2: keep the config/default value
  std::string obs_metrics_path, obs_events_path, obs_trace_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--help" || arg == "-h") {
      print_usage();
      return 0;
    } else if (arg == "--units" && value()) {
      units = std::atoi(argv[i]);
    } else if (arg == "--port" && value()) {
      port = std::atoi(argv[i]);
    } else if (arg == "--budget" && value()) {
      budget = std::atof(argv[i]);
    } else if (arg == "--tdp" && value()) {
      tdp = std::atof(argv[i]);
    } else if (arg == "--min-cap" && value()) {
      min_cap = std::atof(argv[i]);
    } else if (arg == "--period" && value()) {
      period = std::atof(argv[i]);
    } else if (arg == "--rounds" && value()) {
      max_rounds = std::atol(argv[i]);
    } else if (arg == "--manager" && value()) {
      manager_name = argv[i];
    } else if (arg == "--config" && value()) {
      config_path = argv[i];
    } else if (arg == "--obs-metrics" && value()) {
      obs_metrics_path = argv[i];
    } else if (arg == "--obs-events" && value()) {
      obs_events_path = argv[i];
    } else if (arg == "--obs-trace" && value()) {
      obs_trace_path = argv[i];
    } else if (arg == "--bind-any") {
      bind_any = true;
    } else if (arg == "--round-deadline" && value()) {
      round_deadline = std::atof(argv[i]);
    } else if (arg == "--checkpoint" && value()) {
      checkpoint_path = argv[i];
    } else if (arg == "--checkpoint-interval" && value()) {
      checkpoint_interval = std::atol(argv[i]);
    } else if (arg == "--parent-host" && value()) {
      parent_host = argv[i];
    } else if (arg == "--parent-port" && value()) {
      parent_port = std::atoi(argv[i]);
    } else if (arg == "--parent-unit" && value()) {
      parent_unit = std::atoi(argv[i]);
    } else if (arg == "--restore") {
      restore = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      print_usage();
      return 2;
    }
  }
  if (units <= 0) {
    std::fprintf(stderr, "error: --units is required\n");
    print_usage();
    return 2;
  }
  if (budget <= 0.0) budget = 110.0 * units;

  try {
    const FileConfig file = load_file_config(config_path);
    const DpsConfig& dps_config = file.dps;
    obs::ObsConfig obs_config = file.obs;
    NetConfig net_config = file.net;
    CtrlConfig ctrl_config = file.ctrl;
    // Explicit flags override the [ctrl] section.
    if (!parent_host.empty()) ctrl_config.parent_host = parent_host;
    if (parent_port > 0) ctrl_config.parent_port = parent_port;
    if (parent_unit > -2) ctrl_config.parent_unit = parent_unit;
    validate_ctrl_config(ctrl_config);
    const bool aggregator_mode =
        !ctrl_config.parent_host.empty() && ctrl_config.parent_port != 0;
    // Explicit flags override the [net] section.
    if (round_deadline >= 0.0) net_config.round_deadline_s = round_deadline;
    if (!checkpoint_path.empty()) net_config.checkpoint_path = checkpoint_path;
    if (checkpoint_interval > 0) {
      net_config.checkpoint_interval_rounds =
          static_cast<std::size_t>(checkpoint_interval);
    }
    validate_net_config(net_config);
    if (restore && net_config.checkpoint_path.empty()) {
      std::fprintf(stderr, "error: --restore needs --checkpoint FILE\n");
      return 2;
    }
    // Any --obs-* flag both sets the export target and enables obs.
    if (!obs_metrics_path.empty()) {
      obs_config.export_prometheus = obs_metrics_path;
      obs_config.enabled = true;
    }
    if (!obs_events_path.empty()) {
      obs_config.export_events_csv = obs_events_path;
      obs_config.enabled = true;
    }
    if (!obs_trace_path.empty()) {
      obs_config.export_trace_json = obs_trace_path;
      obs_config.enabled = true;
    }
    const obs::ObsSink obs_sink = obs::make_sink(obs_config);

    std::unique_ptr<PowerManager> manager;
    if (manager_name == "dps") {
      manager = std::make_unique<DpsManager>(dps_config);
    } else if (manager_name == "slurm") {
      manager = std::make_unique<SlurmStatelessManager>();
    } else if (manager_name == "constant") {
      manager = std::make_unique<ConstantManager>();
    } else if (manager_name == "p2p") {
      manager = std::make_unique<P2pManager>();
    } else {
      std::fprintf(stderr, "error: unknown manager %s\n",
                   manager_name.c_str());
      return 2;
    }

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    ManagerContext ctx;
    ctx.num_units = units;
    ctx.total_budget = budget;
    ctx.tdp = tdp;
    ctx.min_cap = min_cap;
    ctx.dt = period;

    if (aggregator_mode) {
      AggregatorNode aggregator(*manager, ctx, ctrl_config, net_config,
                                static_cast<std::uint16_t>(port), bind_any);
      aggregator.set_obs(obs_sink);
      std::printf(
          "dpsd[aggregator]: %s manager, %d children, %.0f W initial "
          "budget, port %u, parent %s:%d\n",
          manager_name.c_str(), units, budget, aggregator.port(),
          ctrl_config.parent_host.c_str(), ctrl_config.parent_port);
      std::printf("dpsd[aggregator]: waiting for %d children...\n", units);
      aggregator.accept_children();
      if (restore) {
        const AggregatorCheckpoint ckpt =
            read_aggregator_checkpoint_file(net_config.checkpoint_path);
        aggregator.resume(ckpt);
        obs_sink.event(obs::EventKind::kCheckpointRestore, -1,
                       static_cast<double>(ckpt.inner.round));
        std::printf(
            "dpsd[aggregator]: restored checkpoint at round %llu "
            "(parent slot %d), resuming\n",
            static_cast<unsigned long long>(ckpt.inner.round),
            ckpt.parent_unit);
      } else {
        aggregator.begin();
      }
      aggregator.connect_parent();
      std::printf("dpsd[aggregator]: uplink connected as unit %d\n",
                  aggregator.parent_unit());

      long rounds = 0;
      const auto period_duration = std::chrono::duration<double>(period);
      auto next_tick = std::chrono::steady_clock::now();
      bool parent_shutdown = false;
      while (!g_stop && (max_rounds == 0 || rounds < max_rounds)) {
        parent_shutdown = !aggregator.run_round();
        ++rounds;
        if (!net_config.checkpoint_path.empty() &&
            aggregator.rounds() % net_config.checkpoint_interval_rounds ==
                0) {
          const AggregatorCheckpoint ckpt = aggregator.make_checkpoint();
          write_aggregator_checkpoint_file(net_config.checkpoint_path, ckpt);
          obs_sink.event(obs::EventKind::kCheckpointWrite, -1,
                         static_cast<double>(aggregator.rounds()),
                         static_cast<double>(ckpt.inner.manager_state.size()));
        }
        if (parent_shutdown) break;
        if (rounds % 60 == 0) {
          std::printf(
              "dpsd[aggregator]: round %ld, shard %.1f W under %.1f W "
              "budget, decide %.1f us/round\n",
              rounds, aggregator.last_aggregate_power(),
              aggregator.shard_budget(),
              1e-3 * static_cast<double>(aggregator.decide_ns()) / rounds);
        }
        next_tick += std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(period_duration);
        std::this_thread::sleep_until(next_tick);
      }

      std::printf("dpsd[aggregator]: shutting down after %ld rounds%s\n",
                  rounds, parent_shutdown ? " (parent shutdown)" : "");
      aggregator.shutdown_children();
      if (obs_sink.enabled() && obs_config.any_export()) {
        obs::export_all(obs_sink, obs_config);
        std::printf("dpsd[aggregator]: observability exports written\n");
      }
      return 0;
    }

    ControlServer server(static_cast<std::uint16_t>(port), units, bind_any,
                         net_config);
    server.set_obs(obs_sink);
    std::printf("dpsd: %s manager, %d units, %.0f W budget, port %u%s\n",
                manager_name.c_str(), units, budget, server.port(),
                bind_any ? " (all interfaces)" : " (loopback)");
    std::printf("dpsd: waiting for %d clients...\n", units);
    server.accept_all();
    std::printf("dpsd: all clients connected, starting the decision loop\n");

    if (restore) {
      const ControlCheckpoint ckpt =
          read_checkpoint_file(net_config.checkpoint_path);
      restore_manager(*manager, ckpt);
      ctx = ckpt.ctx;  // the snapshot is authoritative for the session shape
      server.resume_session(*manager, ctx, ckpt.round, ckpt.caps,
                            ckpt.previous_caps);
      obs_sink.event(obs::EventKind::kCheckpointRestore, -1,
                     static_cast<double>(ckpt.round));
      std::printf("dpsd: restored checkpoint at round %llu, resuming\n",
                  static_cast<unsigned long long>(ckpt.round));
    } else {
      server.begin_session(*manager, ctx);
    }

    std::uint64_t decide_ns = 0;
    long rounds = 0;
    const auto period_duration =
        std::chrono::duration<double>(period);
    auto next_tick = std::chrono::steady_clock::now();
    while (!g_stop && (max_rounds == 0 || rounds < max_rounds)) {
      decide_ns += server.run_round(*manager);
      ++rounds;
      if (!net_config.checkpoint_path.empty() &&
          server.rounds() % net_config.checkpoint_interval_rounds == 0) {
        const ControlCheckpoint ckpt = make_checkpoint(
            *manager, ctx, server.rounds(), server.last_caps(),
            server.previous_caps());
        write_checkpoint_file(net_config.checkpoint_path, ckpt);
        obs_sink.event(obs::EventKind::kCheckpointWrite, -1,
                       static_cast<double>(server.rounds()),
                       static_cast<double>(ckpt.manager_state.size()));
      }
      if (rounds % 60 == 0) {
        Watts total = 0.0;
        for (const Watts c : server.last_caps()) total += c;
        std::printf(
            "dpsd: round %ld, cap sum %.1f/%.0f W, decide %.1f us/round, "
            "writes %llu keeps %llu\n",
            rounds, total, budget,
            1e-3 * static_cast<double>(decide_ns) / rounds,
            static_cast<unsigned long long>(server.set_cap_messages()),
            static_cast<unsigned long long>(server.keep_cap_messages()));
      }
      next_tick += std::chrono::duration_cast<
          std::chrono::steady_clock::duration>(period_duration);
      std::this_thread::sleep_until(next_tick);
    }

    std::printf("dpsd: shutting down after %ld rounds\n", rounds);
    server.shutdown();
    if (obs_sink.enabled() && obs_config.any_export()) {
      obs::export_all(obs_sink, obs_config);
      std::printf("dpsd: observability exports written\n");
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "dpsd: fatal: %s\n", error.what());
    return 1;
  }
  return 0;
}
