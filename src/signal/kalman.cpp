#include "signal/kalman.hpp"

#include <algorithm>
#include <stdexcept>

namespace dps {

KalmanBank::KalmanBank(double process_variance, double measurement_variance)
    : q_(process_variance), r_(measurement_variance) {}

void KalmanBank::reset(std::size_t n, double initial_estimate,
                       double initial_variance) {
  x_.assign(n, initial_estimate);
  p_.assign(n, initial_variance);
  k_.assign(n, 0.0);
  initial_variance_.assign(n, initial_variance);
}

void KalmanBank::seed(std::span<const double> estimates,
                      double initial_variance) {
  if (estimates.size() != x_.size()) {
    throw std::invalid_argument("KalmanBank::seed: size mismatch");
  }
  std::copy(estimates.begin(), estimates.end(), x_.begin());
  std::fill(p_.begin(), p_.end(), initial_variance);
  std::fill(k_.begin(), k_.end(), 0.0);
  std::fill(initial_variance_.begin(), initial_variance_.end(),
            initial_variance);
}

void KalmanBank::update(std::span<const double> measurements) {
  if (measurements.size() != x_.size()) {
    throw std::invalid_argument("KalmanBank::update: size mismatch");
  }
  // Predict: the random walk keeps x and inflates P by Q. Then update.
  const double q = q_;
  const double r = r_;
  const std::size_t n = x_.size();
  for (std::size_t i = 0; i < n; ++i) {
    double p = p_[i] + q;
    const double k = p / (p + r);
    const double x = x_[i] + k * (measurements[i] - x_[i]);
    p *= (1.0 - k);
    x_[i] = x;
    p_[i] = p;
    k_[i] = k;
  }
}

void KalmanBank::save(ByteWriter& out) const {
  for (std::size_t i = 0; i < x_.size(); ++i) {
    out.f64(x_[i]);
    out.f64(p_[i]);
    out.f64(k_[i]);
    out.f64(initial_variance_[i]);
  }
}

void KalmanBank::load(ByteReader& in) {
  for (std::size_t i = 0; i < x_.size(); ++i) {
    x_[i] = in.f64();
    p_[i] = in.f64();
    k_[i] = in.f64();
    initial_variance_[i] = in.f64();
  }
}

}  // namespace dps
