#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/dps_config.hpp"
#include "signal/kalman.hpp"
#include "signal/peaks.hpp"
#include "signal/rolling.hpp"
#include "util/ini.hpp"
#include "util/rng.hpp"

namespace dps {
namespace {

// --- Kalman filter (a bank of one) ---

KalmanBank one_filter(double q, double r, double x0 = 0.0, double p0 = 1e6) {
  KalmanBank kf(q, r);
  kf.reset(1, x0, p0);
  return kf;
}

double update(KalmanBank& kf, double measurement) {
  kf.update({&measurement, 1});
  return kf.estimate(0);
}

TEST(Kalman, ConvergesToConstantSignal) {
  KalmanBank kf = one_filter(0.01, 4.0, 0.0, 1e6);
  double estimate = 0.0;
  for (int i = 0; i < 200; ++i) estimate = update(kf, 100.0);
  EXPECT_NEAR(estimate, 100.0, 0.5);
}

TEST(Kalman, FirstUpdateTrustsMeasurementWithLargeInitialVariance) {
  KalmanBank kf = one_filter(1.0, 4.0, 0.0, 1e9);
  EXPECT_NEAR(update(kf, 150.0), 150.0, 0.01);
}

TEST(Kalman, SmoothsNoise) {
  Rng rng(42);
  KalmanBank kf = one_filter(0.5, 9.0, 100.0, 9.0);
  double sq_err_raw = 0.0, sq_err_filtered = 0.0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    const double truth = 100.0;
    const double measured = truth + rng.normal(0.0, 3.0);
    const double est = update(kf, measured);
    sq_err_raw += (measured - truth) * (measured - truth);
    sq_err_filtered += (est - truth) * (est - truth);
  }
  EXPECT_LT(sq_err_filtered, sq_err_raw * 0.5);
}

TEST(Kalman, TracksStepChangeWithinReasonableLag) {
  KalmanBank kf = one_filter(4.0, 4.0, 50.0, 4.0);
  for (int i = 0; i < 50; ++i) update(kf, 50.0);
  int steps = 0;
  while (kf.estimate(0) < 140.0 && steps < 100) {
    update(kf, 150.0);
    ++steps;
  }
  // Q=R means gain ~0.62 steady state; a 100 W step closes in a few steps.
  EXPECT_LE(steps, 8);
}

TEST(Kalman, GainWithinUnitInterval) {
  KalmanBank kf = one_filter(2.0, 3.0);
  for (int i = 0; i < 20; ++i) {
    update(kf, double(i));
    EXPECT_GT(kf.last_gain(0), 0.0);
    EXPECT_LE(kf.last_gain(0), 1.0);
  }
}

TEST(Kalman, VarianceShrinksFromInitial) {
  KalmanBank kf = one_filter(0.1, 4.0, 0.0, 1e6);
  for (int i = 0; i < 10; ++i) update(kf, 10.0);
  EXPECT_LT(kf.variance(0), 5.0);
}

TEST(Kalman, ResetRestoresInitialState) {
  KalmanBank kf = one_filter(1.0, 1.0, 5.0, 10.0);
  update(kf, 50.0);
  kf.reset(1, 5.0, 10.0);
  EXPECT_DOUBLE_EQ(kf.estimate(0), 5.0);
  EXPECT_DOUBLE_EQ(kf.variance(0), 10.0);
}

TEST(Kalman, RejectsNegativeVariances) {
  DpsConfig config;
  config.kf_process_variance = -1.0;
  EXPECT_THROW(validate(config), ConfigError);
  config = DpsConfig{};
  config.kf_measurement_variance = -1.0;
  EXPECT_THROW(validate(config), ConfigError);
}

// --- Prominent peaks ---

TEST(Peaks, EmptyAndTinySeriesHaveNoPeaks) {
  EXPECT_TRUE(find_prominent_peaks({}).empty());
  const std::vector<double> two = {1.0, 2.0};
  EXPECT_TRUE(find_prominent_peaks(two).empty());
}

TEST(Peaks, SingleTriangleHasOnePeakWithFullProminence) {
  const std::vector<double> series = {0, 5, 10, 5, 0};
  const auto peaks = find_prominent_peaks(series);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0].index, 2u);
  EXPECT_DOUBLE_EQ(peaks[0].value, 10.0);
  EXPECT_DOUBLE_EQ(peaks[0].prominence, 10.0);
}

TEST(Peaks, MonotoneSeriesHasNoPeaks) {
  const std::vector<double> up = {1, 2, 3, 4, 5};
  const std::vector<double> down = {5, 4, 3, 2, 1};
  EXPECT_TRUE(find_prominent_peaks(up).empty());
  EXPECT_TRUE(find_prominent_peaks(down).empty());
}

TEST(Peaks, PlateauReportsMiddleSample) {
  const std::vector<double> series = {0, 3, 3, 3, 0};
  const auto peaks = find_prominent_peaks(series);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0].index, 2u);
}

TEST(Peaks, MinorPeakHasProminenceToHigherNeighbour) {
  // Small bump (5) next to a big one (10): its prominence is limited by
  // the col between them (2).
  const std::vector<double> series = {0, 10, 2, 5, 2, 0};
  const auto peaks = find_prominent_peaks(series);
  ASSERT_EQ(peaks.size(), 2u);
  EXPECT_DOUBLE_EQ(peaks[0].prominence, 10.0);  // index 1
  EXPECT_DOUBLE_EQ(peaks[1].prominence, 3.0);   // 5 - max(2, 2)... 5-2=3
}

TEST(Peaks, CountRespectsThreshold) {
  const std::vector<double> series = {0, 10, 2, 5, 2, 12, 0};
  EXPECT_EQ(count_prominent_peaks(series, 2.9), 3u);
  EXPECT_EQ(count_prominent_peaks(series, 3.1), 2u);
  EXPECT_EQ(count_prominent_peaks(series, 11.0), 1u);
  EXPECT_EQ(count_prominent_peaks(series, 12.0), 0u);
}

TEST(Peaks, OscillationCountsEveryCycle) {
  std::vector<double> series;
  for (int i = 0; i < 5; ++i) {
    series.push_back(50.0);
    series.push_back(150.0);
    series.push_back(50.0);
  }
  EXPECT_EQ(count_prominent_peaks(series, 50.0), 5u);
}

TEST(Peaks, EndpointPeaksAreNotCounted) {
  // Local maxima at the window edges cannot be confirmed as peaks.
  const std::vector<double> series = {10, 2, 3, 2, 9};
  const auto peaks = find_prominent_peaks(series);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0].index, 2u);
}

// --- Rolling window ---

TEST(Rolling, EvictsOldestWhenFull) {
  RollingWindow w(3);
  w.push(1);
  w.push(2);
  w.push(3);
  w.push(4);
  EXPECT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w.at(0), 2.0);
  EXPECT_DOUBLE_EQ(w.at_back(0), 4.0);
  EXPECT_TRUE(w.full());
}

TEST(Rolling, MeanAndStddev) {
  RollingWindow w(10);
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) w.push(v);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_DOUBLE_EQ(w.stddev(), 2.0);  // classic example set
}

TEST(Rolling, MinMax) {
  RollingWindow w(4);
  for (double v : {3.0, -1.0, 7.0, 2.0}) w.push(v);
  EXPECT_DOUBLE_EQ(w.min(), -1.0);
  EXPECT_DOUBLE_EQ(w.max(), 7.0);
  w.push(10.0);  // evicts 3
  EXPECT_DOUBLE_EQ(w.max(), 10.0);
}

TEST(Rolling, AvgDerivativeMatchesSlope) {
  RollingWindow power(10), durations(10);
  // Power rising 5 W per 1 s step.
  for (int i = 0; i < 6; ++i) {
    power.push(100.0 + 5.0 * i);
    durations.push(1.0);
  }
  EXPECT_NEAR(power.avg_derivative(durations, 5), 5.0, 1e-9);
}

TEST(Rolling, AvgDerivativeUsesDurations) {
  RollingWindow power(10), durations(10);
  for (int i = 0; i < 4; ++i) {
    power.push(10.0 * i);
    durations.push(2.0);  // 2 s per step -> slope 5 W/s
  }
  EXPECT_NEAR(power.avg_derivative(durations, 4), 5.0, 1e-9);
}

TEST(Rolling, AvgDerivativeDegenerateCases) {
  RollingWindow power(5), durations(5);
  EXPECT_DOUBLE_EQ(power.avg_derivative(durations, 5), 0.0);
  power.push(10.0);
  durations.push(1.0);
  EXPECT_DOUBLE_EQ(power.avg_derivative(durations, 5), 0.0);
  EXPECT_DOUBLE_EQ(power.avg_derivative(durations, 1), 0.0);
}

TEST(Rolling, ContentsSpanIsOldestFirst) {
  RollingWindow w(3);
  w.push(1);
  w.push(2);
  w.push(3);
  w.push(4);
  const auto span = w.contents();
  ASSERT_EQ(span.size(), 3u);
  EXPECT_DOUBLE_EQ(span[0], 2.0);
  EXPECT_DOUBLE_EQ(span[2], 4.0);
}

TEST(Rolling, RejectsZeroCapacity) {
  EXPECT_THROW(RollingWindow(0), std::invalid_argument);
}

TEST(Rolling, ClearEmptiesWindow) {
  RollingWindow w(3);
  w.push(1);
  w.clear();
  EXPECT_TRUE(w.empty());
  EXPECT_DOUBLE_EQ(w.mean(), 0.0);
}

// --- Free-standing stats ---

TEST(Stats, HarmonicMeanBasics) {
  const std::vector<double> values = {1.0, 2.0, 4.0};
  EXPECT_NEAR(harmonic_mean(values), 3.0 / (1.0 + 0.5 + 0.25), 1e-12);
  const std::vector<double> single = {5.0};
  EXPECT_DOUBLE_EQ(harmonic_mean(single), 5.0);
  EXPECT_DOUBLE_EQ(harmonic_mean({}), 0.0);
}

TEST(Stats, HarmonicMeanRejectsNonPositive) {
  const std::vector<double> bad = {1.0, 0.0};
  EXPECT_THROW(harmonic_mean(bad), std::invalid_argument);
}

TEST(Stats, HarmonicMeanBelowArithmetic) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> values;
    for (int i = 0; i < 10; ++i) values.push_back(rng.uniform(1.0, 100.0));
    EXPECT_LE(harmonic_mean(values), mean_of(values) + 1e-9);
  }
}

}  // namespace
}  // namespace dps
