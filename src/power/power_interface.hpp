#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>

namespace dps {

/// Power in watts. All power values in the library are doubles in watts.
using Watts = double;
/// Wall-clock / simulated time in seconds.
using Seconds = double;
/// Energy in joules.
using Joules = double;

/// The two hardware abilities DPS needs (paper Section 4.2): reading a power
/// capping unit's recent average power and setting its power cap. The paper
/// implements this against Intel RAPL but explicitly notes DPS is not tied
/// to RAPL; this interface is that seam. The simulator, the loopback TCP
/// control plane, and the tests all provide implementations.
class PowerInterface {
 public:
  virtual ~PowerInterface() = default;

  /// Number of independently cappable units (sockets in the paper's setup).
  virtual int num_units() const = 0;

  /// The most recently requested (clamped) cap for `unit`.
  virtual Watts cap(int unit) const = 0;

  /// Thermal design power — the per-unit hardware maximum cap.
  virtual Watts tdp() const = 0;

  /// Lowest cap the hardware will honour (RAPL refuses caps below the
  /// minimum operating power).
  virtual Watts min_cap() const = 0;

  /// Average power of units first, first+1, ... (one per slot of `out`,
  /// ascending) over the window since each unit's previous read, in watts.
  /// May include measurement noise. Throws std::out_of_range when the
  /// range leaves [0, num_units()).
  virtual void read_power_range(int first, std::span<Watts> out) = 0;

  /// Requests caps[i] for unit first+i, ascending. Implementations clamp
  /// to [min_cap(), tdp()] and may apply a cap with actuation latency.
  virtual void set_cap_range(int first, std::span<const Watts> caps) = 0;

  // One unit, or units 0..span.size()-1: every unit for a span of
  // num_units() slots.
  Watts read_power(int unit) {
    Watts power;
    read_power_range(unit, {&power, 1});
    return power;
  }
  void set_cap(int unit, Watts cap) { set_cap_range(unit, {&cap, 1}); }
  void read_power_batch(std::span<Watts> out) { read_power_range(0, out); }
  void set_cap_batch(std::span<const Watts> caps) { set_cap_range(0, caps); }

 protected:
  /// Throws std::out_of_range unless units [first, first + count) exist.
  void check_range(int first, std::size_t count) const {
    if (first < 0 || static_cast<std::size_t>(first) + count >
                         static_cast<std::size_t>(num_units())) {
      throw std::out_of_range("PowerInterface: unit range out of bounds");
    }
  }
};

}  // namespace dps
