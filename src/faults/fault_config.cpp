#include "faults/fault_config.hpp"

#include <algorithm>

namespace dps {

IniSection ini_section(FaultPlanConfig& c) {
  IniSection section{"faults", {{"seed", c.seed}, {"horizon", c.horizon}}};
  for (const FaultRate& r : kFaultRates) {
    section.keys.emplace_back(r.key, c.*r.rate);
  }
  section.keys.insert(section.keys.end(),
                      {{"min_duration", c.min_duration},
                       {"max_duration", c.max_duration},
                       {"sag_floor", c.sag_floor},
                       {"fan_degrade_min", c.fan_degrade_min},
                       {"fan_degrade_max", c.fan_degrade_max}});
  return section;
}

bool any_fault_rate(const FaultPlanConfig& config) {
  return std::any_of(
      std::begin(kFaultRates), std::end(kFaultRates),
      [&](const FaultRate& r) { return config.*r.rate > 0.0; });
}

}  // namespace dps
