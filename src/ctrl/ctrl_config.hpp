#pragma once

#include <string>

#include "util/ini.hpp"

namespace dps {

/// Knobs of the hierarchical control plane (src/ctrl/), shared by the
/// in-sim tree controller and the TCP aggregator daemons. Loaded from the
/// `[ctrl]` INI section; unset keys keep their defaults, so a deployment
/// config only lists what it changes. Recognized layout:
///
///   [ctrl]
///   shard_size = 32            ; units per leaf shard
///   max_levels = 3             ; tree depth cap (2 = one root, one leaf tier)
///   leaf_jobs = 1              ; in-sim: threads for parallel leaf decides
///   parent_host = head0        ; aggregator mode: where the parent listens
///   parent_port = 9570         ; 0 = this process is the root
///   parent_unit = -1           ; slot to reclaim at the parent on restart
struct CtrlConfig {
  /// Units per leaf shard. The leaf tier runs the full stateless+stateful
  /// machinery over this many units; a root (or intermediate) tier sees
  /// each shard as one bigger virtual unit.
  int shard_size = 32;
  /// Maximum tree depth including the leaf tier. When one root level would
  /// itself exceed `shard_size` children, intermediate tiers are inserted
  /// up to this bound (2 = classic two-level, 1 = flat).
  int max_levels = 3;
  /// In-sim tree: worker threads for the leaf decides of one round. Leaves
  /// are independent (disjoint cap spans, private manager state), so any
  /// value produces bit-identical decisions; 1 runs them inline.
  int leaf_jobs = 1;
  /// TCP aggregator mode: the parent controller this process reports its
  /// shard aggregate to. Empty host / port 0 = no parent (root).
  std::string parent_host;
  int parent_port = 0;
  /// Parent-side slot to reclaim when this aggregator restarts from a
  /// checkpoint (-1 = ask for any free slot).
  int parent_unit = -1;
};

/// The [ctrl] section's key table.
IniSection ini_section(CtrlConfig& config);

/// Throws ConfigError naming the offending [ctrl] key unless
/// shard_size, max_levels and leaf_jobs are >= 1, parent_port is in
/// [0, 65535], parent_unit >= -1 and a parent_host comes with a
/// parent_port. Shared by the INI loader, dpsd's flags and the consumers.
void validate_ctrl_config(const CtrlConfig& config);

}  // namespace dps
