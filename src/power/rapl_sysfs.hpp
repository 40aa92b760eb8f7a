#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "power/power_interface.hpp"

namespace dps {

/// PowerInterface backed by the Linux powercap sysfs tree — the real RAPL
/// deployment path of Section 4.2. Discovers the package-level
/// `intel-rapl:N` domains under the given root, reads their wrapping
/// `energy_uj` counters to report average power per window, and writes
/// `constraint_0_power_limit_uw` to set caps.
///
/// The sysfs root and the clock are injectable so the backend is fully
/// testable against a synthetic tree (and so embedded deployments can
/// point it at a mounted powercap namespace). Requires root privileges to
/// set caps on a real system.
class SysfsRapl final : public PowerInterface {
 public:
  /// Seconds-resolution monotonic clock; defaults to steady_clock.
  using Clock = std::function<double()>;

  /// Throws std::runtime_error when the root contains no package domains.
  explicit SysfsRapl(const std::string& powercap_root = kDefaultRoot,
                     Clock clock = {});

  /// Absolute sysfs directory of unit `i`'s domain (for diagnostics).
  const std::string& domain_path(int unit) const;

  // --- PowerInterface ---
  int num_units() const override {
    return static_cast<int>(domains_.size());
  }
  Watts cap(int unit) const override;
  Watts tdp() const override { return tdp_; }
  Watts min_cap() const override { return min_cap_; }
  /// Touches only the domains in the range, so threads that each own one
  /// unit may read and cap their units concurrently.
  void read_power_range(int first, std::span<Watts> out) override;
  void set_cap_range(int first, std::span<const Watts> caps) override;

  static constexpr const char* kDefaultRoot = "/sys/class/powercap";

 private:
  struct Domain {
    std::string path;
    std::uint64_t max_energy_range_uj = 0;
    std::uint64_t last_energy_uj = 0;
    double last_read_time = 0.0;
    Watts last_power = 0.0;
    Watts requested_cap = 0.0;
  };

  std::vector<Domain> domains_;
  Clock clock_;
  Watts tdp_ = 0.0;
  Watts min_cap_ = 0.0;
};

/// Helpers shared with the tests (reading/writing single-value sysfs
/// attribute files).
std::uint64_t read_sysfs_u64(const std::string& path);
std::string read_sysfs_string(const std::string& path);
void write_sysfs_u64(const std::string& path, std::uint64_t value);

}  // namespace dps
