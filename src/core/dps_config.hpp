#pragma once

#include <cstddef>

#include "managers/mimd.hpp"

namespace dps {

/// All tunables of the DPS controller (paper Section 4.3). The defaults
/// follow the paper where it names a value (1 s decision loop, 20-step
/// estimated power history) and the artifact's configuration otherwise.
struct DpsConfig {
  /// Algorithm 1 parameters, shared with the SLURM baseline.
  MimdConfig mimd;

  /// Length of the estimated power history kept per unit, in decision
  /// steps ("default 20 time steps", Section 6.5).
  std::size_t history_length = 20;

  /// Kalman filter process variance Q: how fast the hidden power state is
  /// allowed to move between steps, in W².
  double kf_process_variance = 4.0;
  /// Kalman filter measurement variance R, in W². ~2 % noise on ~100 W
  /// readings gives a ~2 W std-dev, R = 4.
  double kf_measurement_variance = 4.0;

  // --- Priority module (Algorithm 2) ---

  /// Minimum topographic prominence for a power peak to count, in watts.
  double peak_prominence = 20.0;
  /// Number of prominent peaks within the history above which a unit is
  /// flagged as high-frequency.
  std::size_t peak_count_threshold = 2;
  /// Std-dev of the history below which a flagged high-frequency unit may
  /// be demoted again (the secondary check that catches fast change the
  /// peak counter misses), in watts.
  double std_threshold = 8.0;
  /// Derivative above this gets high priority (fast power increase), W/s.
  /// Deliberately sensitive: a unit whose demand jumps while it is capped
  /// can only raise its *measured* power up to its cap, so the visible
  /// rise is a few W/s even for a large hidden demand change.
  double deriv_inc_threshold = 2.0;
  /// Derivative below this gets low priority (fast power decrease), W/s.
  /// Asymmetric on purpose: a false *demotion* is far more damaging than a
  /// false promotion — a pinned-at-cap high-priority unit shows a flat
  /// power trace, so once a noise dip demotes it nothing can re-promote it.
  /// Real phase exits fall at 5+ W/s and still clear this threshold.
  double deriv_dec_threshold = -4.0;
  /// Number of most recent history samples the average derivative spans
  /// (Algorithm 2's direv_length). Short, so a cap-limited power rise is
  /// not averaged away before it crosses the increase threshold.
  std::size_t deriv_length = 3;
  /// Stale-priority demotion: a high-priority unit drawing less than this
  /// fraction of its cap for `idle_demote_steps` consecutive steps clearly
  /// is not using the power it was granted and drops to low priority.
  /// Catches noise-promoted idle units, which otherwise would stay high
  /// forever (their flat power never crosses the decrease threshold).
  double idle_demote_fraction = 0.65;
  std::size_t idle_demote_steps = 4;

  // --- Cap readjusting module (Algorithms 3 & 4) ---

  /// A unit counts as "consuming high power" for the restore check when its
  /// power exceeds this fraction of the constant cap (Algorithm 3 reuses
  /// the MIMD increase threshold for this; kept separate here so the
  /// ablation bench can move them independently).
  double restore_threshold = 0.95;

  // --- Resilience hardening (beyond the paper: see docs/architecture.md,
  // "Fault model & resilience") ---

  /// Evict persistently unresponsive units from the shared pool: a unit
  /// whose measured power stays below `unresponsive_power_floor` for
  /// `unresponsive_steps` consecutive steps is clearly not executing
  /// anything (a healthy idle socket still draws ~20 W of static power) —
  /// its cap is parked at the hardware minimum and the reclaimed watts are
  /// redistributed to the live units. The unit is re-admitted the moment
  /// its power comes back. Mirrors the dead-client handling of the TCP
  /// control plane (net/server.hpp).
  bool evict_unresponsive = true;
  /// Watts below which a unit counts as unresponsive. Must sit well under
  /// idle power (~22 W) so an idle-but-alive socket is never evicted, and
  /// above zero so a dead node's noise-free 0 W reading always qualifies.
  double unresponsive_power_floor = 8.0;
  /// Consecutive silent steps before eviction.
  std::size_t unresponsive_steps = 5;

  // --- Ablation switches (all on in the paper's system) ---
  bool use_kalman_filter = true;
  /// When the Kalman filter is off and this is positive, the history is
  /// fed exponentially-weighted moving averages instead of raw readings
  /// (estimate += alpha * (measurement - estimate)) — the cheapest
  /// alternative smoother, used by the filter ablation to show what the
  /// Kalman machinery actually buys.
  double ewma_alpha = 0.0;
  bool use_priority_module = true;
  bool use_restore = true;
  /// When false, spare budget is split equally among high-priority units
  /// instead of favouring those with lower caps.
  bool favor_low_caps = true;
};

/// Throws ConfigError naming the offending [dps] key unless
/// history_length >= 3 and both Kalman variances are >= 0. The [stateless]
/// part, `mimd`, has its own validate.
void validate(const DpsConfig& config);

}  // namespace dps
