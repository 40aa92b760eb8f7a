#pragma once

#include "thermal/thermal_model.hpp"
#include "util/ini.hpp"

namespace dps {

/// The [thermal] section: the RC model and governor parameters (see
/// configs/dps.ini) plus `enabled`, which defaults to true — listing the
/// section turns the model on, `enabled = false` keeps it off.
IniSection ini_section(ThermalConfig& config, bool& enabled);

}  // namespace dps
