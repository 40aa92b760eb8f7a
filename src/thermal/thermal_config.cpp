#include "thermal/thermal_config.hpp"

namespace dps {

IniSection ini_section(ThermalConfig& c, bool& enabled) {
  return {"thermal",
          {{"enabled", enabled},
           {"ambient", c.ambient_c},
           {"resistance", c.resistance_c_per_w},
           {"time_constant", c.time_constant_s},
           {"trip", c.trip_c},
           {"clear", c.clear_c},
           {"throttle_cap", c.throttle_cap_w},
           {"jitter", c.jitter_fraction},
           {"seed", c.seed}}};
}

}  // namespace dps
