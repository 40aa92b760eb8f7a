#pragma once

#include "faults/fault_plan.hpp"
#include "util/ini.hpp"

namespace dps {

/// The [faults] section: the random plan generator's knobs (see
/// configs/dps.ini). Rates are expected events per 1000 s, cluster-wide.
IniSection ini_section(FaultPlanConfig& config);

/// True when the config would generate any events at all (any rate > 0).
bool any_fault_rate(const FaultPlanConfig& config);

}  // namespace dps
