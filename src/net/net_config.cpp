#include "net/net_config.hpp"

namespace dps {

IniSection ini_section(NetConfig& c) {
  return {"net",
          {{"round_deadline_s", c.round_deadline_s},
           {"reconnect_base_backoff_s", c.reconnect_base_backoff_s},
           {"reconnect_max_backoff_s", c.reconnect_max_backoff_s},
           {"reconnect_max_attempts", c.reconnect_max_attempts},
           {"failsafe_cap_w", c.failsafe_cap_w},
           {"checkpoint_path", c.checkpoint_path},
           {"checkpoint_interval_rounds", c.checkpoint_interval_rounds}}};
}

void validate_net_config(const NetConfig& c) {
  auto fail = [](const char* key, const char* what) {
    throw ConfigError("net", key, what);
  };
  if (!(c.round_deadline_s >= 0.0)) fail("round_deadline_s", "must be >= 0");
  if (!(c.reconnect_base_backoff_s > 0.0)) {
    fail("reconnect_base_backoff_s", "must be > 0");
  }
  if (!(c.reconnect_max_backoff_s >= c.reconnect_base_backoff_s)) {
    fail("reconnect_max_backoff_s", "must be >= reconnect_base_backoff_s");
  }
  if (c.reconnect_max_attempts < 1) {
    fail("reconnect_max_attempts", "must be >= 1");
  }
  if (!(c.failsafe_cap_w >= 0.0)) fail("failsafe_cap_w", "must be >= 0");
  if (c.checkpoint_interval_rounds < 1) {
    fail("checkpoint_interval_rounds", "must be >= 1");
  }
}

}  // namespace dps
