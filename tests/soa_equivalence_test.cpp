// Equivalence tests for the structure-of-arrays hot path: every batched
// path (PowerInterface unit ranges, KalmanBank, the fused peak counter)
// must be *bit-identical* to the scalar reference it stands for — the
// experiment CSVs are golden byte-for-byte, so "close enough" floating
// point is a regression here. All comparisons below are exact (EXPECT_EQ
// on doubles), never EXPECT_NEAR.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/dps_config.hpp"
#include "core/dps_manager.hpp"
#include "core/history.hpp"
#include "faults/fault_injector.hpp"
#include "faults/faulty_power.hpp"
#include "power/rapl_sim.hpp"
#include "signal/kalman.hpp"
#include "signal/peaks.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace dps {
namespace {

// Deterministic per-step true power: varied enough to move the energy
// counters and caps around, fully reproducible across the twin stacks.
Watts true_power_of(int unit, int step) {
  return 45.0 + 12.0 * unit + 20.0 * std::sin(0.37 * step + unit);
}

Watts cap_request_of(int unit, int step, Watts min_cap, Watts tdp) {
  const double span = tdp - min_cap;
  return min_cap + span * (0.15 + 0.08 * ((step * 3 + unit * 5) % 11));
}

// Drives two identically-seeded SimulatedRapl instances through the same
// record/set/read sequence — `batched` through one range of all units,
// `scalar` through ranges of one unit each — and requires every reading
// and cap to match bitwise: the shared noise stream must draw in the same
// order either way.
TEST(BatchEquivalence, SimulatedRaplOverridesMatchPerUnitCalls) {
  const int n = 6;
  const int steps = 60;
  RaplSimConfig config;  // defaults: 2% noise, seeded RNG
  SimulatedRapl batched(n, config);
  SimulatedRapl scalar(n, config);

  std::vector<Watts> truth(n), reads_a(n), reads_b(n), caps(n), eff(n);
  for (int step = 0; step < steps; ++step) {
    for (int u = 0; u < n; ++u) truth[u] = true_power_of(u, step);
    batched.record_batch(truth, 1.0);
    scalar.record_batch(truth, 1.0);
    batched.advance_step();
    scalar.advance_step();

    batched.read_power_batch(reads_a);
    for (int u = 0; u < n; ++u) reads_b[u] = scalar.read_power(u);
    for (int u = 0; u < n; ++u) {
      EXPECT_EQ(reads_a[u], reads_b[u]) << "unit " << u << " step " << step;
    }

    for (int u = 0; u < n; ++u) {
      caps[u] = cap_request_of(u, step, config.min_cap, config.tdp);
    }
    batched.set_cap_batch(caps);
    for (int u = 0; u < n; ++u) scalar.set_cap(u, caps[u]);

    batched.effective_caps_batch(eff);
    for (int u = 0; u < n; ++u) {
      EXPECT_EQ(eff[u], scalar.effective_cap(u));
      EXPECT_EQ(batched.cap(u), scalar.cap(u));
    }
  }
}

TEST(BatchEquivalence, FaultyPowerBatchMatchesPerUnitUnderActiveFaults) {
  const int n = 5;
  const int steps = 40;
  // One of every manager-facing fault kind, overlapping in time so the
  // batch path crosses fault activation/clearing boundaries mid-run.
  const FaultPlan plan({FaultEvent{5.0, 12.0, 1, FaultKind::kUnitCrash, 1.0},
                        FaultEvent{8.0, 10.0, 2, FaultKind::kSensorDropout, 1.0},
                        FaultEvent{3.0, 25.0, 3, FaultKind::kSensorGarbage, 1.0},
                        FaultEvent{6.0, 14.0, 0, FaultKind::kCapStuck, 1.0}},
                       n);
  RaplSimConfig config;
  SimulatedRapl inner_a(n, config);
  SimulatedRapl inner_b(n, config);
  FaultInjector injector_a(plan, n);
  FaultInjector injector_b(plan, n);
  FaultyPowerInterface faulty_a(inner_a, injector_a);
  FaultyPowerInterface faulty_b(inner_b, injector_b);

  std::vector<Watts> truth(n), reads_a(n), reads_b(n), caps(n);
  for (int step = 0; step < steps; ++step) {
    const Seconds now = static_cast<Seconds>(step);
    injector_a.advance(now);
    injector_b.advance(now);
    for (int u = 0; u < n; ++u) truth[u] = true_power_of(u, step);
    inner_a.record_batch(truth, 1.0);
    inner_b.record_batch(truth, 1.0);
    inner_a.advance_step();
    inner_b.advance_step();

    faulty_a.read_power_batch(reads_a);
    for (int u = 0; u < n; ++u) reads_b[u] = faulty_b.read_power(u);
    for (int u = 0; u < n; ++u) {
      EXPECT_EQ(reads_a[u], reads_b[u]) << "unit " << u << " step " << step;
    }

    for (int u = 0; u < n; ++u) {
      caps[u] = cap_request_of(u, step, config.min_cap, config.tdp);
    }
    faulty_a.set_cap_batch(caps);
    for (int u = 0; u < n; ++u) faulty_b.set_cap(u, caps[u]);
    for (int u = 0; u < n; ++u) {
      EXPECT_EQ(inner_a.cap(u), inner_b.cap(u)) << "unit " << u;
    }
    EXPECT_EQ(faulty_a.dropped_cap_writes(), faulty_b.dropped_cap_writes());
  }
  // The cap-stuck window must actually have dropped writes, or the test
  // never exercised the fault branch of the batch path.
  EXPECT_GT(faulty_a.dropped_cap_writes(), 0u);
}

// The scalar Welch & Bishop filter, x/P/K per the paper's Section 4.3.2:
// the reference every lane of a KalmanBank must reproduce bitwise.
struct ScalarKalman {
  double q, r, x = 0.0, p = 1e6, k = 0.0, initial_variance = 1e6;
  void update(double z) {
    p += q;
    k = p / (p + r);
    x += k * (z - x);
    p *= (1.0 - k);
  }
};

TEST(KalmanBankEquivalence, UpdatesMatchScalarFiltersBitwise) {
  const std::size_t n = 7;
  const double q = 2.0, r = 16.0;
  KalmanBank bank(q, r);
  bank.reset(n);
  std::vector<ScalarKalman> filters(n, ScalarKalman{q, r});

  Rng rng(1234);
  std::vector<double> measured(n);
  for (int step = 0; step < 300; ++step) {
    for (std::size_t u = 0; u < n; ++u) {
      measured[u] = 80.0 + 15.0 * static_cast<double>(u) +
                    rng.normal(0.0, 4.0);
    }
    bank.update(measured);
    for (std::size_t u = 0; u < n; ++u) filters[u].update(measured[u]);
    for (std::size_t u = 0; u < n; ++u) {
      EXPECT_EQ(bank.estimate(u), filters[u].x) << "u=" << u;
      EXPECT_EQ(bank.variance(u), filters[u].p) << "u=" << u;
      EXPECT_EQ(bank.last_gain(u), filters[u].k) << "u=" << u;
    }
  }
}

TEST(KalmanBankEquivalence, SeedMatchesScalarReset) {
  const std::size_t n = 4;
  KalmanBank bank(0.5, 9.0);
  bank.reset(n);
  const std::vector<double> first = {10.0, 20.0, 30.0, 40.0};
  bank.seed(first, 9.0);
  std::vector<ScalarKalman> filters;
  for (const double x : first) filters.push_back({0.5, 9.0, x, 9.0, 0.0, 9.0});

  std::vector<double> measured(n);
  for (int step = 0; step < 50; ++step) {
    for (std::size_t u = 0; u < n; ++u) {
      measured[u] = first[u] + 3.0 * std::sin(0.2 * step + u);
    }
    bank.update(measured);
    for (std::size_t u = 0; u < n; ++u) filters[u].update(measured[u]);
    for (std::size_t u = 0; u < n; ++u) {
      EXPECT_EQ(bank.estimate(u), filters[u].x);
    }
  }
}

TEST(KalmanBankEquivalence, CheckpointBytesMatchScalarLoopAndRoundTrip) {
  const std::size_t n = 5;
  const double q = 1.5, r = 25.0;
  KalmanBank bank(q, r);
  bank.reset(n);
  std::vector<ScalarKalman> filters(n, ScalarKalman{q, r});
  Rng rng(99);
  std::vector<double> measured(n);
  for (int step = 0; step < 37; ++step) {
    for (std::size_t u = 0; u < n; ++u) measured[u] = rng.normal(100.0, 10.0);
    bank.update(measured);
    for (std::size_t u = 0; u < n; ++u) filters[u].update(measured[u]);
  }

  // The checkpoint layout, field by field: per filter [x, P, K,
  // initial_variance] as f64s. Old checkpoints stay loadable only while
  // the bank writes exactly these bytes.
  ByteWriter bank_bytes, scalar_bytes;
  bank.save(bank_bytes);
  for (const auto& filter : filters) {
    scalar_bytes.f64(filter.x);
    scalar_bytes.f64(filter.p);
    scalar_bytes.f64(filter.k);
    scalar_bytes.f64(filter.initial_variance);
  }
  EXPECT_EQ(bank_bytes.bytes(), scalar_bytes.bytes());

  // Round trip into a fresh bank restores the exact state: subsequent
  // updates stay bitwise in lockstep with the originals.
  KalmanBank restored(q, r);
  restored.reset(n);
  ByteReader in(bank_bytes.bytes());
  restored.load(in);
  EXPECT_TRUE(in.exhausted());
  for (std::size_t u = 0; u < n; ++u) {
    EXPECT_EQ(restored.estimate(u), bank.estimate(u));
    EXPECT_EQ(restored.variance(u), bank.variance(u));
    EXPECT_EQ(restored.last_gain(u), bank.last_gain(u));
  }
  for (int step = 0; step < 10; ++step) {
    for (std::size_t u = 0; u < n; ++u) measured[u] = rng.normal(90.0, 5.0);
    bank.update(measured);
    restored.update(measured);
    for (std::size_t u = 0; u < n; ++u) {
      EXPECT_EQ(restored.estimate(u), bank.estimate(u));
    }
  }
}

std::vector<char> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// The control run tests/data/dps_checkpoint.bin records, written by the
// code as it stood before the Kalman state moved behind KalmanBank alone:
// a DpsManager on 4 units with a 440 W budget, 30 decisions over a fixed
// phased power feed (plain arithmetic, so every platform computes the
// same readings).
ControlCheckpoint fixture_run() {
  ManagerContext ctx;
  ctx.num_units = 4;
  ctx.total_budget = 440.0;
  DpsManager manager;
  manager.reset(ctx);
  std::vector<Watts> caps(4, ctx.constant_cap()), previous = caps;
  std::vector<Watts> measured(4);
  for (int step = 0; step < 30; ++step) {
    for (int u = 0; u < 4; ++u) {
      const bool busy = (step / (3 + u)) % 2 == 0;
      const Watts demand = busy ? 150.0 + u : 60.0 + 0.5 * (step % 5);
      measured[u] = std::min(demand, caps[u]);
    }
    previous = caps;
    manager.decide(measured, caps);
  }
  return make_checkpoint(manager, ctx, 30, caps, previous);
}

// An old checkpoint file stays loadable: restoring the committed fixture
// and saving again gives back the file byte for byte, and today's code
// replaying the same run writes the same bytes.
TEST(CheckpointFixture, CommittedDpsCheckpointLoadsAndResavesByteForByte) {
  const std::string fixture =
      std::string(DPS_SOURCE_DIR) + "/tests/data/dps_checkpoint.bin";
  const auto expected = file_bytes(fixture);
  ASSERT_FALSE(expected.empty());
  const ControlCheckpoint ckpt = read_checkpoint_file(fixture);
  DpsManager manager;
  restore_manager(manager, ckpt);

  const std::string out = testing::TempDir() + "/dps_checkpoint_resaved.bin";
  write_checkpoint_file(out, make_checkpoint(manager, ckpt.ctx, ckpt.round,
                                             ckpt.caps, ckpt.previous_caps));
  EXPECT_EQ(file_bytes(out), expected);

  write_checkpoint_file(out, fixture_run());
  EXPECT_EQ(file_bytes(out), expected);
}

TEST(HistorySharedDurations, AllUnitsSeeTheSameWindowAndBoundsAreKept) {
  DpsConfig config;
  EstimatedPowerHistory history(config);
  history.reset(3);
  std::vector<Watts> measured = {50.0, 60.0, 70.0};
  for (int step = 0; step < 5; ++step) {
    history.observe(measured, 1.0 + 0.1 * step);
  }
  const auto base = history.duration_history(0).contents();
  for (int u = 1; u < 3; ++u) {
    const auto other = history.duration_history(u).contents();
    ASSERT_EQ(base.size(), other.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(base[i], other[i]);
    }
  }
  // The former per-unit vector threw on out-of-range units; the shared
  // window must keep that contract.
  EXPECT_THROW(history.duration_history(-1), std::out_of_range);
  EXPECT_THROW(history.duration_history(3), std::out_of_range);
}

TEST(HistorySharedDurations, CheckpointRoundTripPreservesEstimates) {
  DpsConfig config;
  EstimatedPowerHistory history(config);
  history.reset(4);
  Rng rng(7);
  std::vector<Watts> measured(4);
  for (int step = 0; step < 12; ++step) {
    for (int u = 0; u < 4; ++u) measured[u] = rng.normal(100.0, 8.0);
    history.observe(measured, 1.0);
  }

  ByteWriter out;
  history.save(out);
  EstimatedPowerHistory restored(config);
  restored.reset(4);
  ByteReader in(out.bytes());
  restored.load(in);
  EXPECT_TRUE(in.exhausted());

  for (int u = 0; u < 4; ++u) {
    EXPECT_EQ(restored.estimate(u), history.estimate(u));
  }
  // Observations after the restore stay in bitwise lockstep.
  for (int step = 0; step < 6; ++step) {
    for (int u = 0; u < 4; ++u) measured[u] = rng.normal(95.0, 8.0);
    history.observe(measured, 1.0);
    restored.observe(measured, 1.0);
    for (int u = 0; u < 4; ++u) {
      EXPECT_EQ(restored.estimate(u), history.estimate(u));
      EXPECT_EQ(restored.power_history(u).contents().back(),
                history.power_history(u).contents().back());
    }
  }
}

// Reference count: find_prominent_peaks (unchanged slow path) filtered by
// prominence, capped at limit. count_prominent_peaks — including its
// bitmask fast path for plateau-free windows — must agree on every input.
std::size_t reference_count(std::span<const double> series,
                            double min_prominence, std::size_t limit) {
  std::size_t count = 0;
  for (const auto& peak : find_prominent_peaks(series)) {
    if (peak.prominence > min_prominence) {
      if (++count >= limit) break;
    }
  }
  return count;
}

TEST(PeakCountEquivalence, MatchesReferenceOnRandomAndPlateauedSeries) {
  Rng rng(2026);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t len = 3 + static_cast<std::size_t>(trial % 40);
    std::vector<double> series(len);
    const bool quantize = trial % 3 == 0;  // force exact-equality plateaus
    for (auto& v : series) {
      v = rng.normal(100.0, 25.0);
      if (quantize) v = std::floor(v / 20.0) * 20.0;
    }
    for (const double prominence : {0.0, 5.0, 30.0}) {
      for (const std::size_t limit : {std::size_t{1}, std::size_t{3},
                                      static_cast<std::size_t>(-1)}) {
        EXPECT_EQ(count_prominent_peaks(series, prominence, limit),
                  reference_count(series, prominence, limit))
            << "trial " << trial << " prominence " << prominence;
      }
    }
  }
}

TEST(PeakCountEquivalence, WindowsLongerThanTheMaskFallBackCorrectly) {
  Rng rng(31337);
  std::vector<double> series(90);  // > 64 relations: scalar path
  for (auto& v : series) v = rng.normal(50.0, 10.0);
  EXPECT_EQ(count_prominent_peaks(series, 4.0, static_cast<std::size_t>(-1)),
            reference_count(series, 4.0, static_cast<std::size_t>(-1)));
}

}  // namespace
}  // namespace dps
