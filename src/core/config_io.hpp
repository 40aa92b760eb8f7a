#pragma once

#include "core/dps_config.hpp"
#include "util/ini.hpp"

namespace dps {

/// The [dps] section: DPS's own tunables — the C++ counterpart of the
/// paper artifact's src/DPS/config.py. configs/dps.ini lists every key.
IniSection ini_section(DpsConfig& config);

/// The [stateless] section: Algorithm 1's knobs, read both into DPS's
/// internal MIMD instance and into the SLURM baseline.
IniSection ini_section(MimdConfig& config);

}  // namespace dps
