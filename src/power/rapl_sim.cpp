#include "power/rapl_sim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace dps {

SimulatedRapl::SimulatedRapl(int num_units, const RaplSimConfig& config)
    : config_(config), noise_(config.noise_seed) {
  if (num_units <= 0) {
    throw std::invalid_argument("SimulatedRapl: num_units must be > 0");
  }
  if (config_.min_cap <= 0.0 || config_.min_cap > config_.tdp) {
    throw std::invalid_argument("SimulatedRapl: need 0 < min_cap <= tdp");
  }
  units_.resize(static_cast<std::size_t>(num_units));
  for (auto& u : units_) {
    u.requested_cap = config_.tdp;
    u.effective_cap = config_.tdp;
  }
}

void SimulatedRapl::record_batch(std::span<const Watts> true_power,
                                 Seconds dt) {
  if (true_power.size() != units_.size()) {
    throw std::invalid_argument("record_batch: span size mismatch");
  }
  for (std::size_t i = 0; i < units_.size(); ++i) {
    auto& u = units_[i];
    const Joules joules = std::max(0.0, true_power[i]) * dt;
    u.energy_units += static_cast<std::uint64_t>(joules / config_.energy_unit);
    u.window_elapsed += dt;
  }
}

void SimulatedRapl::advance_step() {
  for (auto& u : units_) {
    if (!u.pending_caps.empty()) {
      u.effective_cap = u.pending_caps.front();
      u.pending_caps.erase(u.pending_caps.begin());
    }
  }
}

Watts SimulatedRapl::effective_cap(int unit) const {
  return units_.at(static_cast<std::size_t>(unit)).effective_cap;
}

std::uint32_t SimulatedRapl::raw_energy_counter(int unit) const {
  const auto& u = units_.at(static_cast<std::size_t>(unit));
  return static_cast<std::uint32_t>(u.energy_units);  // wraps at 2^32
}

void SimulatedRapl::set_obs(const obs::ObsSink& sink) {
  obs_reads_ = sink.counter("rapl_power_reads_total",
                            "read_power calls against the simulated RAPL");
  obs_cap_requests_ = sink.counter("rapl_cap_requests_total",
                                   "set_cap calls (including no-op re-sends)");
  obs_cap_changes_ = sink.counter(
      "rapl_cap_changes_total", "set_cap calls that moved the requested cap");
}

void SimulatedRapl::read_power_range(int first, std::span<Watts> out) {
  check_range(first, out.size());
  if (obs_reads_ != nullptr) obs_reads_->add(out.size());
  UnitState* units = units_.data() + first;
  for (std::size_t i = 0; i < out.size(); ++i) {
    UnitState& u = units[i];
    if (u.window_elapsed <= 0.0) {
      out[i] = u.last_power_reading;
      continue;
    }
    // Delta of the wrapped 32-bit counter; unsigned arithmetic handles one
    // wrap per window, as real RAPL readers must.
    const std::uint32_t now = static_cast<std::uint32_t>(u.energy_units);
    const std::uint32_t delta = now - u.last_read_counter;
    u.last_read_counter = now;

    const Joules joules = static_cast<Joules>(delta) * config_.energy_unit;
    Watts power = joules / u.window_elapsed;
    u.window_elapsed = 0.0;

    if (config_.noise_fraction > 0.0) {
      power *= 1.0 + noise_.normal(0.0, config_.noise_fraction);
      power = std::max(0.0, power);
    }
    u.last_power_reading = power;
    out[i] = power;
  }
}

void SimulatedRapl::set_cap_range(int first, std::span<const Watts> caps) {
  check_range(first, caps.size());
  UnitState* units = units_.data() + first;
  for (std::size_t i = 0; i < caps.size(); ++i) {
    UnitState& u = units[i];
    const Watts clamped = std::clamp(caps[i], config_.min_cap, config_.tdp);
    if (obs_cap_requests_ != nullptr) {
      obs_cap_requests_->add();
      if (clamped != u.requested_cap) obs_cap_changes_->add();
    }
    u.requested_cap = clamped;
    if (config_.actuation_delay_steps <= 0) {
      u.effective_cap = clamped;
      continue;
    }
    // Model a fixed-depth actuation pipeline: the request lands at the
    // back; advance_step() pops one entry per decision step.
    u.pending_caps.resize(
        static_cast<std::size_t>(config_.actuation_delay_steps),
        u.pending_caps.empty() ? u.effective_cap : u.pending_caps.back());
    u.pending_caps.back() = clamped;
  }
}

void SimulatedRapl::effective_caps_batch(std::span<Watts> out) const {
  if (out.size() != units_.size()) {
    throw std::invalid_argument("effective_caps_batch: span size mismatch");
  }
  for (std::size_t i = 0; i < units_.size(); ++i) {
    out[i] = units_[i].effective_cap;
  }
}

Watts SimulatedRapl::cap(int unit) const {
  return units_.at(static_cast<std::size_t>(unit)).requested_cap;
}

}  // namespace dps
