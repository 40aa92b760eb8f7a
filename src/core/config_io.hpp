#pragma once

#include "core/dps_config.hpp"
#include "util/ini.hpp"

namespace dps {

/// The [dps] section: DPS's own tunables — the C++ counterpart of the
/// paper artifact's src/DPS/config.py. configs/dps.ini lists every key.
IniSection ini_section(DpsConfig& config);

/// The [stateless] section: Algorithm 1's knobs of DPS's internal MIMD
/// instance (DpsConfig::mimd). The SLURM baseline keeps the plugin's
/// defaults (slurm_plugin_defaults).
IniSection ini_section(MimdConfig& config);

}  // namespace dps
