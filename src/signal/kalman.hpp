#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "util/bytes.hpp"

namespace dps {

/// A bank of independent one-dimensional Kalman filters in the standard
/// Welch & Bishop formulation (the paper's Section 4.3.2), sharing one
/// (Q, R) configuration. DPS treats each unit's true power draw as a hidden
/// variable observed through noisy RAPL measurements; filter i produces the
/// estimate that is pushed into unit i's power history. The state is four
/// contiguous arrays, so the per-step predict/update pass streams over
/// flat memory; a single filter is a bank of one.
///
/// Model: x_t = x_{t-1} + w  (random-walk process, w ~ N(0, Q))
///        z_t = x_t + v      (measurement,         v ~ N(0, R))
class KalmanBank {
 public:
  /// @param process_variance     Q — how much the hidden power is believed
  ///                             to move between decision steps. Larger Q
  ///                             tracks fast phase changes at the cost of
  ///                             noise.
  /// @param measurement_variance R — variance of RAPL's reading noise.
  /// Both must be >= 0; validate(DpsConfig) checks DPS's values.
  KalmanBank(double process_variance, double measurement_variance);

  /// (Re-)sizes to `n` fresh filters (x = initial_estimate,
  /// P = initial_variance, K = 0). A large initial variance makes the first
  /// update trust the measurement.
  void reset(std::size_t n, double initial_estimate = 0.0,
             double initial_variance = 1e6);

  /// Re-seeds every filter at the given estimates (P = initial_variance,
  /// K = 0) — the power history uses this to start each filter at its
  /// first reading instead of converging from zero.
  void seed(std::span<const double> estimates, double initial_variance);

  /// One predict + update cycle for every filter, ascending index order.
  void update(std::span<const double> measurements);

  std::size_t size() const { return x_.size(); }
  double estimate(std::size_t i) const { return x_[i]; }
  /// All posterior estimates, contiguous, indexed by filter.
  const std::vector<double>& estimates() const { return x_; }
  double variance(std::size_t i) const { return p_[i]; }
  double last_gain(std::size_t i) const { return k_[i]; }

  /// Checkpoint support: per filter, in index order, [x, P, K,
  /// initial_variance] as f64s. Q and R are configuration, not state.
  void save(ByteWriter& out) const;
  void load(ByteReader& in);

 private:
  double q_;
  double r_;
  std::vector<double> x_;
  std::vector<double> p_;
  std::vector<double> k_;
  std::vector<double> initial_variance_;
};

}  // namespace dps
