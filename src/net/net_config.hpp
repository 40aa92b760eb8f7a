#pragma once

#include <cstddef>
#include <string>

#include "power/power_interface.hpp"
#include "util/ini.hpp"

namespace dps {

/// Control-plane hardening knobs, shared by the server (round deadline,
/// checkpointing) and the per-node clients (reconnect backoff, failsafe
/// cap). Loaded from the `[net]` INI section; unset keys keep their
/// defaults, so a deployment config only lists what it changes.
struct NetConfig {
  /// Collect-phase budget per round, seconds: a unit whose power report
  /// has not arrived this many seconds into the round is scored 0 W (dark)
  /// and receives no reply until its next report. 0 disables the deadline
  /// (a stalled client then blocks the round indefinitely — loopback
  /// benches only).
  double round_deadline_s = 5.0;
  /// First reconnect delay after a lost server connection, seconds. Each
  /// failed attempt doubles the delay (with jitter) up to the max.
  double reconnect_base_backoff_s = 0.05;
  double reconnect_max_backoff_s = 2.0;
  /// Connection attempts per connect()/reconnect cycle before giving up.
  int reconnect_max_attempts = 10;
  /// Cap a client self-applies when the server is unreachable, watts.
  /// Must be a value safe without coordination (at or below the unit's
  /// fair share of the cluster budget, never above TDP). 0 disables the
  /// failsafe — the unit keeps its last commanded cap.
  Watts failsafe_cap_w = 0.0;
  /// Controller snapshot file; empty disables checkpointing.
  std::string checkpoint_path;
  /// Snapshot every this many completed rounds.
  std::size_t checkpoint_interval_rounds = 30;
};

/// The [net] section's key table.
IniSection ini_section(NetConfig& config);

/// Throws ConfigError naming the offending [net] key unless
/// round_deadline_s >= 0, backoffs > 0 with max >= base, attempts >= 1,
/// failsafe_cap_w >= 0 and checkpoint_interval_rounds >= 1. Shared by the
/// INI loader, dpsd's flags and the server.
void validate_net_config(const NetConfig& config);

}  // namespace dps
