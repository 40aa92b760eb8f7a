#include "ctrl/ctrl_config.hpp"

namespace dps {

IniSection ini_section(CtrlConfig& c) {
  return {"ctrl",
          {{"shard_size", c.shard_size},
           {"max_levels", c.max_levels},
           {"leaf_jobs", c.leaf_jobs},
           {"parent_host", c.parent_host},
           {"parent_port", c.parent_port},
           {"parent_unit", c.parent_unit}}};
}

void validate_ctrl_config(const CtrlConfig& c) {
  auto fail = [](const char* key, const char* what) {
    throw ConfigError("ctrl", key, what);
  };
  if (c.shard_size < 1) fail("shard_size", "must be >= 1");
  if (c.max_levels < 1) fail("max_levels", "must be >= 1");
  if (c.leaf_jobs < 1) fail("leaf_jobs", "must be >= 1");
  if (c.parent_port < 0 || c.parent_port > 65535) {
    fail("parent_port", "must be in [0, 65535]");
  }
  if (c.parent_unit < -1) fail("parent_unit", "must be >= -1");
  if (!c.parent_host.empty() && c.parent_port == 0) {
    fail("parent_host", "needs a parent_port");
  }
}

}  // namespace dps
