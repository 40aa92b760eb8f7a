#pragma once

#include "faults/fault_injector.hpp"
#include "obs/sink.hpp"
#include "power/power_interface.hpp"
#include "util/rng.hpp"

namespace dps {

/// Decorator that applies the injector's active faults to any
/// PowerInterface (SimulatedRapl in experiments, SysfsRapl in a live fault
/// drill). Managers run against it completely unmodified — exactly the
/// point: DPS must survive hostile telemetry without knowing it exists.
///
/// Fault semantics on the manager-facing seam:
///  * crash          read_power -> 0 W (the node is dark); set_cap dropped.
///  * sensor dropout read_power -> last good value (stale forever).
///  * sensor garbage read_power -> deterministic garbage in [0, 2*tdp].
///  * cap stuck      set_cap silently dropped; the inner interface keeps
///                   enforcing the cap from before the fault hit.
///
/// Independent of faults, readings from the inner interface are
/// NaN/negative-guarded: a non-finite or negative value is replaced with
/// the last good reading, so a garbage backend can never poison a manager
/// with NaN (which would otherwise propagate through every Kalman state).
class FaultyPowerInterface final : public PowerInterface {
 public:
  /// `inner` and `injector` must outlive this object. `garbage_seed`
  /// determines the garbage-reading stream (bit-reproducible runs).
  FaultyPowerInterface(PowerInterface& inner, const FaultInjector& injector,
                       std::uint64_t garbage_seed = 0xbadc0de5ULL);

  int num_units() const override { return inner_.num_units(); }
  Watts cap(int unit) const override { return inner_.cap(unit); }
  Watts tdp() const override { return inner_.tdp(); }
  Watts min_cap() const override { return inner_.min_cap(); }
  /// With no fault active (the common case) a range passes straight to
  /// the inner interface, reads keeping only the NaN/negative guard; with
  /// any fault active each unit is routed on its own, since a fault decides
  /// whether the inner interface (and its noise stream) is consulted at
  /// all. Either way a range equals the same units read or set one by one.
  void read_power_range(int first, std::span<Watts> out) override;
  void set_cap_range(int first, std::span<const Watts> caps) override;

  /// set_cap requests swallowed by active faults so far (telemetry for
  /// tests and the resilience report).
  std::uint64_t dropped_cap_writes() const { return dropped_cap_writes_; }

  /// Emits a kCapDrop event (and counts cap_drops_total) for every
  /// swallowed set_cap — the observable difference between "the manager
  /// asked" and "the hardware obeyed".
  void set_obs(const obs::ObsSink& sink);

 private:
  /// `value` if finite and non-negative (remembered as the unit's last
  /// good reading), else that last good reading.
  Watts guarded(std::size_t unit, Watts value);

  PowerInterface& inner_;
  const FaultInjector& injector_;
  Rng garbage_;
  std::vector<Watts> last_good_;
  std::uint64_t dropped_cap_writes_ = 0;
  obs::ObsSink obs_;
  obs::Counter* obs_cap_drops_ = nullptr;
};

}  // namespace dps
