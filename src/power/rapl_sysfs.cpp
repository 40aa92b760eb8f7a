#include "power/rapl_sysfs.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace dps {
namespace {

double steady_now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool is_package_domain(const std::string& domain_dir) {
  // Package domains are "intel-rapl:N" (no sub-domain suffix) whose name
  // attribute starts with "package".
  const auto name_path = domain_dir + "/name";
  if (!std::filesystem::exists(name_path)) return false;
  const auto name = read_sysfs_string(name_path);
  return name.rfind("package", 0) == 0;
}

}  // namespace

std::uint64_t read_sysfs_u64(const std::string& path) {
  std::ifstream in(path);
  std::uint64_t value = 0;
  if (!(in >> value)) {
    throw std::runtime_error("SysfsRapl: cannot read " + path);
  }
  return value;
}

std::string read_sysfs_string(const std::string& path) {
  std::ifstream in(path);
  std::string value;
  if (!(in >> value)) {
    throw std::runtime_error("SysfsRapl: cannot read " + path);
  }
  return value;
}

void write_sysfs_u64(const std::string& path, std::uint64_t value) {
  std::ofstream out(path);
  out << value;
  if (!out) {
    throw std::runtime_error("SysfsRapl: cannot write " + path);
  }
}

SysfsRapl::SysfsRapl(const std::string& powercap_root, Clock clock)
    : clock_(clock ? std::move(clock) : Clock(steady_now_seconds)) {
  namespace fs = std::filesystem;
  std::vector<std::string> paths;
  if (fs::exists(powercap_root)) {
    for (const auto& entry : fs::directory_iterator(powercap_root)) {
      const auto dir = entry.path().filename().string();
      // "intel-rapl:0" yes; "intel-rapl:0:0" (dram/core subdomains) no.
      if (dir.rfind("intel-rapl:", 0) == 0 &&
          std::count(dir.begin(), dir.end(), ':') == 1 &&
          is_package_domain(entry.path().string())) {
        paths.push_back(entry.path().string());
      }
    }
  }
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) {
    throw std::runtime_error("SysfsRapl: no package domains under " +
                             powercap_root);
  }

  const double now = clock_();
  for (const auto& path : paths) {
    Domain domain;
    domain.path = path;
    domain.max_energy_range_uj =
        read_sysfs_u64(path + "/max_energy_range_uj");
    domain.last_energy_uj = read_sysfs_u64(path + "/energy_uj");
    domain.last_read_time = now;
    domain.requested_cap = static_cast<Watts>(read_sysfs_u64(
                               path + "/constraint_0_power_limit_uw")) /
                           1e6;
    domains_.push_back(std::move(domain));
  }

  // Hardware limits from the first package (homogeneous clusters).
  tdp_ = static_cast<Watts>(read_sysfs_u64(
             domains_.front().path + "/constraint_0_max_power_uw")) /
         1e6;
  // RAPL exposes no explicit minimum; a conservative floor keeps the caps
  // inside the range the firmware will actually honour.
  min_cap_ = std::max(1.0, tdp_ * 0.25);
}

const std::string& SysfsRapl::domain_path(int unit) const {
  return domains_.at(static_cast<std::size_t>(unit)).path;
}

void SysfsRapl::read_power_range(int first, std::span<Watts> out) {
  check_range(first, out.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    auto& domain = domains_[static_cast<std::size_t>(first) + i];
    const double now = clock_();
    const double elapsed = now - domain.last_read_time;
    if (elapsed > 0.0) {
      const std::uint64_t energy = read_sysfs_u64(domain.path + "/energy_uj");
      std::uint64_t delta;
      if (energy >= domain.last_energy_uj) {
        delta = energy - domain.last_energy_uj;
      } else {
        // Counter wrapped at max_energy_range_uj.
        delta = energy + (domain.max_energy_range_uj - domain.last_energy_uj);
      }
      domain.last_energy_uj = energy;
      domain.last_read_time = now;
      domain.last_power = static_cast<Watts>(delta) / 1e6 / elapsed;
    }
    out[i] = domain.last_power;
  }
}

void SysfsRapl::set_cap_range(int first, std::span<const Watts> caps) {
  check_range(first, caps.size());
  for (std::size_t i = 0; i < caps.size(); ++i) {
    auto& domain = domains_[static_cast<std::size_t>(first) + i];
    const Watts clamped = std::clamp(caps[i], min_cap_, tdp_);
    write_sysfs_u64(domain.path + "/constraint_0_power_limit_uw",
                    static_cast<std::uint64_t>(clamped * 1e6));
    domain.requested_cap = clamped;
  }
}

Watts SysfsRapl::cap(int unit) const {
  return domains_.at(static_cast<std::size_t>(unit)).requested_cap;
}

}  // namespace dps
