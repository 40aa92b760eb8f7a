#include "sched/sched_config.hpp"

#include <stdexcept>

namespace dps::sched {

IniSection ini_section(JobScheduleConfig& c) {
  return {"sched",
          {{"policy", c.policy},
           {"seed", c.seed},
           {"arrival_rate", c.arrival_rate_per_1000s},
           {"job_count", c.job_count},
           {"min_units", c.min_units},
           {"max_units", c.max_units},
           {"workload_mix", c.workload_mix},
           {"job_trace", c.trace},
           {"retry_cap", c.retry_cap},
           {"slowdown_bound", c.slowdown_bound},
           {"walltime_factor", c.walltime_factor},
           {"power_fit_fraction", c.power.fit_fraction},
           {"min_shrink_fraction", c.power.min_shrink_fraction}}};
}

void ini_read(const std::string& text, SchedPolicy& out) {
  if (!sched_policy_from_string(text, out)) {
    throw std::invalid_argument("unknown policy '" + text +
                                "' (fcfs | backfill | power)");
  }
}

std::string ini_write(SchedPolicy policy) { return to_string(policy); }

void ini_read(const std::string& text, std::vector<JobArrival>& out) {
  out = text.empty() ? std::vector<JobArrival>{} : load_job_trace(text);
}

std::string ini_write(const std::vector<JobArrival>& trace) {
  if (!trace.empty()) {
    throw ConfigError("sched", "job_trace",
                      "a loaded trace has no path to write");
  }
  return "";
}

}  // namespace dps::sched
