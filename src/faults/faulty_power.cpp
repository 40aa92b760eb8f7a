#include "faults/faulty_power.hpp"

#include <cmath>

namespace dps {

FaultyPowerInterface::FaultyPowerInterface(PowerInterface& inner,
                                           const FaultInjector& injector,
                                           std::uint64_t garbage_seed)
    : inner_(inner),
      injector_(injector),
      garbage_(garbage_seed),
      last_good_(static_cast<std::size_t>(inner.num_units()), 0.0) {}

Watts FaultyPowerInterface::guarded(std::size_t unit, Watts value) {
  if (!std::isfinite(value) || value < 0.0) return last_good_[unit];
  last_good_[unit] = value;
  return value;
}

void FaultyPowerInterface::read_power_range(int first, std::span<Watts> out) {
  check_range(first, out.size());
  const auto base = static_cast<std::size_t>(first);
  if (!injector_.any_active()) {
    inner_.read_power_range(first, out);
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = guarded(base + i, out[i]);
    }
    return;
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    const int unit = first + static_cast<int>(i);
    if (injector_.crashed(unit)) {
      out[i] = 0.0;
    } else if (injector_.sensor_dropout(unit)) {
      out[i] = last_good_[base + i];
    } else if (injector_.sensor_garbage(unit)) {
      // Deliberately *not* stored in last_good_: when the fault clears the
      // dropout fallback must not replay garbage.
      out[i] = garbage_.uniform(0.0, 2.0 * inner_.tdp());
    } else {
      out[i] = guarded(base + i, inner_.read_power(unit));
    }
  }
}

void FaultyPowerInterface::set_obs(const obs::ObsSink& sink) {
  obs_ = sink;
  obs_cap_drops_ = sink.counter(
      "cap_drops_total", "set_cap requests swallowed by active faults");
}

void FaultyPowerInterface::set_cap_range(int first,
                                         std::span<const Watts> caps) {
  check_range(first, caps.size());
  if (!injector_.any_active()) {
    inner_.set_cap_range(first, caps);
    return;
  }
  for (std::size_t i = 0; i < caps.size(); ++i) {
    const int unit = first + static_cast<int>(i);
    if (injector_.cap_stuck(unit) || injector_.crashed(unit)) {
      ++dropped_cap_writes_;
      if (obs_cap_drops_ != nullptr) {
        obs_cap_drops_->add();
        obs_.event(obs::EventKind::kCapDrop, unit, caps[i]);
      }
    } else {
      inner_.set_cap(unit, caps[i]);
    }
  }
}

}  // namespace dps
