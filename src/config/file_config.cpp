#include "config/file_config.hpp"

#include "core/config_io.hpp"
#include "faults/fault_config.hpp"
#include "sched/sched_config.hpp"
#include "thermal/thermal_config.hpp"

namespace dps {

std::vector<IniSection> ini_sections(FileConfig& c) {
  return {ini_section(c.dps),
          ini_section(c.dps.mimd),
          ini_section(c.faults),
          ini_section(c.thermal, c.thermal_enabled),
          obs::ini_section(c.obs),
          sched::ini_section(c.sched),
          ini_section(c.net),
          ini_section(c.ctrl)};
}

FileConfig file_config_from_ini(const IniFile& ini) {
  FileConfig config;
  // `enabled` defaults to true once the [thermal] section is listed.
  config.thermal_enabled = true;
  read_sections(ini, ini_sections(config));
  read_section(ini, ini_section(config.stateless));
  config.thermal_enabled = config.thermal_enabled && ini.has_section("thermal");
  ini.blame_lines([&] {
    validate(config.faults);
    validate(config.thermal);
    obs::validate(config.obs);
    sched::validate(config.sched);
    validate_net_config(config.net);
    validate_ctrl_config(config.ctrl);
  });
  return config;
}

FileConfig load_file_config(const std::string& path) {
  return path.empty() ? FileConfig{} : file_config_from_ini(IniFile::load(path));
}

}  // namespace dps
