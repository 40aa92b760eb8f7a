#pragma once

#include <string>
#include <vector>

#include "sched/runtime.hpp"
#include "util/ini.hpp"

namespace dps::sched {

/// The [sched] section: the job stream and the policy knobs (see
/// configs/dps.ini). The workload resolver is never read from a file —
/// callers attach `workload_by_name` or their own table.
IniSection ini_section(JobScheduleConfig& config);

/// `policy`: fcfs | backfill | power, or a longer spelling
/// sched_policy_from_string accepts.
void ini_read(const std::string& text, SchedPolicy& out);
std::string ini_write(SchedPolicy policy);

/// `job_trace`: a CSV trace path, loaded on read; empty = Poisson mode.
/// Loaded records keep no path, so only an empty trace can be written.
void ini_read(const std::string& text, std::vector<JobArrival>& out);
std::string ini_write(const std::vector<JobArrival>& trace);

}  // namespace dps::sched
