#pragma once

#include <string>
#include <vector>

#include "core/dps_config.hpp"
#include "ctrl/ctrl_config.hpp"
#include "faults/fault_plan.hpp"
#include "net/net_config.hpp"
#include "obs/obs_config.hpp"
#include "sched/runtime.hpp"
#include "thermal/thermal_model.hpp"
#include "util/ini.hpp"

namespace dps {

/// Everything a DPS INI file (configs/dps.ini) configures, each field
/// starting from its built-in defaults. exp and dpsd load `--config`
/// through file_config_from_ini, and each uses the sections it needs. The
/// SLURM baseline is not configured here: it runs the plugin's defaults.
struct FileConfig {
  DpsConfig dps;                    // [dps]; [stateless] fills dps.mimd
  FaultPlanConfig faults;           // [faults]
  ThermalConfig thermal;            // [thermal]
  bool thermal_enabled = false;     // [thermal] listed, not enabled = false
  obs::ObsConfig obs;               // [obs]
  sched::JobScheduleConfig sched;   // [sched]
  NetConfig net;                    // [net]
  CtrlConfig ctrl;                  // [ctrl]
};

/// The eight sections a DPS INI file may contain, bound to `config`.
std::vector<IniSection> ini_sections(FileConfig& config);

/// Reads every section of `ini` and validates every config. Throws
/// ConfigError naming section, key and line for an unknown section or
/// key, a value that does not parse or fit its field, or a value out of
/// range.
FileConfig file_config_from_ini(const IniFile& ini);

/// file_config_from_ini of a file; an empty path gives the defaults.
FileConfig load_file_config(const std::string& path);

}  // namespace dps
