// Shared declarations of the end-to-end benchmark (see ../README.md).
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "managers/manager.hpp"
#include "sim/engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Which manager a case runs; every case also has constant and uncapped
/// baselines built from the same seed.
enum class ManagerKind { kDps, kTree, kConstant };

/// One engine run of a workload: a pair, the fleet, or the job stream.
struct Case {
  std::string label;
  /// Builds a fresh cluster (each pass starts from simulated time 0).
  std::function<std::unique_ptr<dps::Cluster>()> make_cluster;
  /// Units of the cluster make_cluster builds.
  int units = 0;
  dps::RaplSimConfig rapl;
  /// The run's engine settings; `obs` is left disabled here and replaced
  /// by a fresh in-memory sink per pass when `obs_enabled` is set.
  dps::EngineConfig config;
  bool obs_enabled = false;
  ManagerKind manager = ManagerKind::kDps;
};

std::unique_ptr<dps::PowerManager> make_manager(ManagerKind kind);

struct WorkloadDef {
  std::vector<Case> cases;
  /// Seconds spent building the workload's specs and first realizations
  /// during set-up (workload generation and trace conversion).
  double realize_s = 0.0;
};

/// Builds a workload's cases from the seed. `quick` shrinks every input
/// so the self-check runs in seconds.
WorkloadDef build_workload(const std::string& name, std::uint64_t seed,
                           bool quick);

/// What one engine run produced, in a form both the engine path and the
/// stage-by-stage replay fill in, so the two can be compared exactly.
struct RunOutcome {
  int steps = 0;
  double makespan = 0.0;
  bool timed_out = false;
  /// FNV-1a over the bit patterns of the manager's caps after every decide.
  std::uint64_t cap_digest = 0;
  /// Group mode: per group, the completed runs' (start, end).
  std::vector<std::vector<std::pair<double, double>>> runs;
  /// Job mode: the engine's job records.
  std::vector<dps::sched::JobOutcome> jobs;
  dps::sched::SchedStats sched;
  double peak_cap_sum = 0.0;
  int faults_injected = 0;
  int thermal_trips = 0;

  /// Digest of everything above except the scheduler's KPI rollup.
  std::uint64_t digest() const;
  /// Group runs (group mode) or submitted jobs (job mode).
  int operations() const;
};

RunOutcome outcome_of(const dps::EngineResult& r, std::uint64_t cap_digest);

inline constexpr std::uint64_t kFnvBasis = 14695981039346656037ULL;

/// One FNV-1a step over a whole 64-bit word: cheap enough to fold every
/// cap of every decide into a digest inside the timed passes.
inline std::uint64_t fold(std::uint64_t h, std::uint64_t word) {
  return (h ^ word) * 1099511628211ULL;
}
inline std::uint64_t fold(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return fold(h, bits);
}

/// Per-layer figures of one traced replay of a case.
struct LayerTimes {
  /// Wall time a layer's timed spans enclosed, and how many spans there
  /// were, so the cost of the timer itself can be taken off per span.
  struct Span {
    double ns = 0.0;
    long count = 0;
  };
  std::map<std::string, Span> ns;  // layer -> its spans
  long steps = 0;
  long unit_steps = 0;
  long high_priority_unit_steps = 0;
  long restore_steps = 0;
  long caps_written = 0;
  long caps_changed = 0;
  double critical_path_ns = 0.0;  // summed over steps (tree only)
  /// The first replay check that failed (energy ledger, composed DPS);
  /// empty while all hold.
  std::string failure;
};

/// What one timed span adds to its layer's total with nothing inside it:
/// the cost of reading the clock, in nanoseconds. The fastest of several
/// batches of empty spans, taken once per traced run.
double empty_span_ns();

/// Drives one case through the layers' public functions in the engine's
/// stage order, timing each call. Fills `out` and returns the outcome,
/// which must equal the engine's.
RunOutcome replay_case(const Case& c, LayerTimes& out);

}  // namespace perfbench
