#include "managers/mimd.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/ini.hpp"

namespace dps {

MimdConfig slurm_plugin_defaults() {
  MimdConfig config;
  config.inc_threshold = 0.95;
  config.dec_threshold = 0.90;
  config.inc_percentile = 1.20;
  config.dec_percentile = 0.50;
  config.dec_floor_margin = 1.0;
  config.decision_interval_steps = 1;
  config.dec_window_steps = 20;
  return config;
}

void validate(const MimdConfig& c) {
  auto fail = [](const char* key, const char* what) {
    throw ConfigError("stateless", key, what);
  };
  if (!(c.inc_threshold > c.dec_threshold)) {
    fail("inc_threshold", "must be > dec_threshold");
  }
  if (!(c.inc_percentile > 1.0)) fail("inc_percentile", "must be > 1");
  if (!(c.dec_percentile > 0.0 && c.dec_percentile < 1.0)) {
    fail("dec_percentile", "must be in (0, 1)");
  }
  if (c.decision_interval_steps < 1) {
    fail("decision_interval_steps", "must be >= 1");
  }
  if (c.dec_window_steps < 1) fail("dec_window_steps", "must be >= 1");
}

MimdController::MimdController(const MimdConfig& config)
    : config_(config), rng_(config.shuffle_seed) {
  validate(config_);
}

void MimdController::reset(const ManagerContext& ctx) {
  ctx_ = ctx;
  order_.resize(static_cast<std::size_t>(ctx.num_units));
  set_flags_.assign(static_cast<std::size_t>(ctx.num_units), false);
  power_windows_.clear();
  power_windows_.resize(
      static_cast<std::size_t>(ctx.num_units),
      RollingWindow(static_cast<std::size_t>(config_.dec_window_steps)));
  averaged_power_.assign(static_cast<std::size_t>(ctx.num_units), 0.0);
  steps_since_decision_ = 0;
}

void MimdController::save_state(ByteWriter& out) const {
  rng_.save(out);
  out.bools(set_flags_);
  out.doubles(averaged_power_);
  out.i64(steps_since_decision_);
  out.u64(power_windows_.size());
  for (const auto& window : power_windows_) window.save(out);
}

void MimdController::load_state(ByteReader& in) {
  rng_.load(in);
  set_flags_ = in.bools();
  averaged_power_ = in.doubles();
  steps_since_decision_ = static_cast<int>(in.i64());
  const std::uint64_t windows = in.u64();
  if (windows != power_windows_.size() ||
      set_flags_.size() != power_windows_.size() ||
      averaged_power_.size() != power_windows_.size()) {
    throw std::runtime_error("MimdController: snapshot unit count mismatch");
  }
  for (auto& window : power_windows_) window.load(in);
}

void MimdController::decide(std::span<const Watts> power,
                            std::span<Watts> caps) {
  const std::size_t n = caps.size();
  std::fill(set_flags_.begin(), set_flags_.end(), false);

  // Hardware sanity: no cap above its unit's TDP (matters on
  // heterogeneous fleets, where untouched caps could otherwise park budget
  // a small socket can never draw). Then shed any overshoot a runtime
  // budget cut left behind.
  for (std::size_t u = 0; u < n; ++u) {
    caps[u] = std::min(caps[u], ctx_.tdp_of(static_cast<int>(u)));
  }
  enforce_budget(caps, ctx_.total_budget, ctx_.min_cap);

  // Window-average the readings for the decrease side (the plugin lowers
  // caps from energy counters accumulated over its balance window, not
  // from instantaneous samples).
  for (std::size_t u = 0; u < n; ++u) {
    averaged_power_[u] = power_windows_[u].push_mean(power[u]);
  }

  // Coarse rebalance cadence (SLURM's balance_interval): off-cycle calls
  // leave the caps exactly as they are.
  if (++steps_since_decision_ < config_.decision_interval_steps) return;
  steps_since_decision_ = 0;

  // First loop: decrease caps of units whose *windowed* power sits below
  // the decrease threshold, but never below that average draw or the
  // hardware minimum. A unit pinned at its cap right now is exempt — its
  // window still remembers an idle stretch, but lowering a maxed-out unit
  // would fight the increase loop and throttle its recovery.
  for (std::size_t u = 0; u < n; ++u) {
    if (power[u] >= caps[u] * config_.inc_threshold) continue;
    if (averaged_power_[u] < caps[u] * config_.dec_threshold) {
      const Watts floor = averaged_power_[u] * config_.dec_floor_margin;
      const Watts lowered =
          std::min(caps[u], std::max(floor, caps[u] * config_.dec_percentile));
      caps[u] = std::clamp(lowered, ctx_.min_cap,
                            ctx_.tdp_of(static_cast<int>(u)));
      set_flags_[u] = true;
    }
  }

  // Second loop: spend freed budget on units pressing against their caps,
  // visiting units in random order so none is structurally favoured.
  Watts avail = ctx_.total_budget;
  for (std::size_t u = 0; u < n; ++u) avail -= caps[u];

  shuffle_indices(rng_, order_.data(), static_cast<std::uint32_t>(n));
  for (std::size_t i = 0; i < n && avail > 0.0; ++i) {
    const std::size_t u = order_[i];
    if (power[u] > caps[u] * config_.inc_threshold) {
      const Watts want = std::min(caps[u] * config_.inc_percentile,
                                  ctx_.tdp_of(static_cast<int>(u)));
      const Watts granted = std::min(want, caps[u] + avail);
      if (granted > caps[u]) {
        avail -= granted - caps[u];
        caps[u] = granted;
        set_flags_[u] = true;
      }
    }
  }
}

}  // namespace dps
