#pragma once

#include <map>
#include <memory>
#include <span>

#include "obs/sink.hpp"
#include "sched/arrivals.hpp"
#include "sched/placement.hpp"
#include "sched/queue.hpp"
#include "sched/scheduler.hpp"

namespace dps::sched {

/// Everything the engine needs to run an open job stream instead of the
/// static group assignment (EngineConfig::job_schedule). The arrival
/// stream is either an explicit `trace` (wins when non-empty) or a
/// deterministic Poisson draw from the rate/count/mix knobs.
struct JobScheduleConfig {
  SchedPolicy policy = SchedPolicy::kFcfs;

  /// Explicit arrival records (trace replay); empty = generate Poisson.
  std::vector<JobArrival> trace;
  std::uint64_t seed = 2024;
  double arrival_rate_per_1000s = 5.0;
  int job_count = 40;
  std::vector<std::string> workload_mix = {"Kmeans", "GMM"};
  int min_units = 2;
  int max_units = 8;

  /// Workload-name resolution (pass `workload_by_name` or a test table).
  /// Required; the engine throws without it.
  WorkloadResolver resolve;

  /// Crash-requeues a job survives before it is abandoned.
  int retry_cap = 2;
  /// Bounded-slowdown runtime floor (the literature's common 10 s).
  Seconds slowdown_bound = 10.0;
  /// Walltime estimate for records that carry none:
  /// factor x the spec's nominal duration.
  double walltime_factor = 1.3;
  /// Power-aware policy knobs (ignored by the other policies).
  PowerAwareConfig power;
};

/// Throws ConfigError naming the offending [sched] key when a field is out
/// of range (non-positive rate or fractions, job_count or retry_cap < 0,
/// min_units < 1 or above max_units, an empty workload mix).
void validate(const JobScheduleConfig& config);

/// Drives one job-scheduled run: drains arrivals into the JobQueue, asks
/// the Scheduler for placements, binds them to units through the
/// PlacementMap / JobHost, requeues crash victims, and keeps the KPI
/// ledger. The engine calls begin_tick before advancing the cluster and
/// end_tick after it.
class SchedRuntime {
 public:
  SchedRuntime(const JobScheduleConfig& config, int total_units,
               const obs::ObsSink& obs);

  /// The run's natural end: arrival stream drained, queue empty, nothing
  /// running.
  bool finished() const {
    return arrivals_.exhausted() && queue_.empty() && running_.empty();
  }

  /// Pre-step scheduling round: syncs crash state (requeueing victims up
  /// to the retry cap), drains arrivals due at `now`, and starts the
  /// placements the policy picks given the budget and the manager's caps.
  void begin_tick(JobHost& host, Seconds now, Watts budget,
                  std::span<const Watts> caps);

  /// Post-step bookkeeping: charges busy-unit time and retires the jobs
  /// the host completed during the step.
  void end_tick(JobHost& host, Seconds now, Seconds dt);

  /// Finished jobs' lifecycle records, in completion order.
  const std::vector<JobOutcome>& outcomes() const { return outcomes_; }

  /// KPI rollup over the run ([0, elapsed] on total_units units).
  SchedStats stats(Seconds elapsed, int total_units) const;

  int busy_units() const { return placement_.busy_count(); }
  std::size_t queue_depth() const { return queue_.size(); }

 private:
  struct RunningEntry {
    Job job;
    int slot = -1;  // host handle
    Seconds start = 0.0;
    int granted = 0;
    Seconds expected_end = 0.0;
    Watts projected_demand = 0.0;  // granted x mean demand
  };

  void submit_due_arrivals(Seconds now);
  void requeue_crashed(JobHost& host, Seconds now);
  void start_job(JobHost& host, Job job, int granted, Seconds now);

  // Config subset the runtime needs after construction.
  WorkloadResolver resolve_;
  std::uint64_t seed_;
  int retry_cap_;
  Seconds slowdown_bound_;
  double walltime_factor_;

  ArrivalStream arrivals_;
  JobQueue queue_;
  std::unique_ptr<Scheduler> scheduler_;
  PlacementMap placement_;
  std::map<int, RunningEntry> running_;  // job id -> entry
  std::map<int, int> slot_to_job_;
  std::vector<JobOutcome> outcomes_;
  int next_job_id_ = 0;

  // KPI ledger.
  int submitted_ = 0, started_ = 0, requeued_ = 0, abandoned_ = 0;
  int throttle_stalls_ = 0, shrunk_ = 0, max_queue_depth_ = 0;
  double busy_unit_seconds_ = 0.0;

  obs::ObsSink obs_;
  obs::Counter* obs_submitted_ = nullptr;
  obs::Counter* obs_started_ = nullptr;
  obs::Counter* obs_completed_ = nullptr;
  obs::Counter* obs_requeued_ = nullptr;
  obs::Counter* obs_stalls_ = nullptr;
  obs::Gauge* obs_queue_depth_ = nullptr;
  obs::Histogram* obs_wait_ = nullptr;
};

}  // namespace dps::sched
