#include "core/config_io.hpp"

namespace dps {

IniSection ini_section(DpsConfig& c) {
  return {"dps",
          {{"history_length", c.history_length},
           {"kf_process_variance", c.kf_process_variance},
           {"kf_measurement_variance", c.kf_measurement_variance},
           {"peak_prominence", c.peak_prominence},
           {"peak_count_threshold", c.peak_count_threshold},
           {"std_threshold", c.std_threshold},
           {"deriv_inc_threshold", c.deriv_inc_threshold},
           {"deriv_dec_threshold", c.deriv_dec_threshold},
           {"deriv_length", c.deriv_length},
           {"idle_demote_fraction", c.idle_demote_fraction},
           {"idle_demote_steps", c.idle_demote_steps},
           {"restore_threshold", c.restore_threshold},
           {"evict_unresponsive", c.evict_unresponsive},
           {"unresponsive_power_floor", c.unresponsive_power_floor},
           {"unresponsive_steps", c.unresponsive_steps},
           {"use_kalman_filter", c.use_kalman_filter},
           {"ewma_alpha", c.ewma_alpha},
           {"use_priority_module", c.use_priority_module},
           {"use_restore", c.use_restore},
           {"favor_low_caps", c.favor_low_caps}}};
}

IniSection ini_section(MimdConfig& c) {
  return {"stateless",
          {{"inc_threshold", c.inc_threshold},
           {"dec_threshold", c.dec_threshold},
           {"inc_percentile", c.inc_percentile},
           {"dec_percentile", c.dec_percentile},
           {"dec_floor_margin", c.dec_floor_margin},
           {"decision_interval_steps", c.decision_interval_steps},
           {"dec_window_steps", c.dec_window_steps}}};
}

}  // namespace dps
