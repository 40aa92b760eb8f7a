#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "config/file_config.hpp"
#include "core/cap_readjuster.hpp"
#include "core/dps_manager.hpp"
#include "core/history.hpp"
#include "core/priority_module.hpp"
#include "util/rng.hpp"

namespace dps {
namespace {

ManagerContext make_ctx(int units = 4, Watts budget_per_unit = 110.0) {
  ManagerContext ctx;
  ctx.num_units = units;
  ctx.total_budget = budget_per_unit * units;
  ctx.tdp = 165.0;
  ctx.min_cap = 40.0;
  ctx.dt = 1.0;
  return ctx;
}

Watts sum_of(const std::vector<Watts>& caps) {
  return std::accumulate(caps.begin(), caps.end(), 0.0);
}

// --- Estimated power history ---

TEST(History, SeedsAtFirstObservation) {
  DpsConfig config;
  EstimatedPowerHistory history(config);
  history.reset(2);
  const std::vector<Watts> measured = {120.0, 60.0};
  history.observe(measured, 1.0);
  EXPECT_NEAR(history.estimate(0), 120.0, 1e-9);
  EXPECT_NEAR(history.estimate(1), 60.0, 1e-9);
}

TEST(History, FiltersTowardsTruth) {
  DpsConfig config;
  EstimatedPowerHistory history(config);
  history.reset(1);
  Rng rng(31);
  double err = 0.0;
  std::vector<Watts> measured(1);
  for (int i = 0; i < 200; ++i) {
    measured[0] = 100.0 + rng.normal(0.0, 2.0);
    history.observe(measured, 1.0);
    if (i > 50) err += std::abs(history.estimate(0) - 100.0);
  }
  EXPECT_LT(err / 150.0, 1.5);  // estimates hug the hidden power
}

TEST(History, BoundedAtConfiguredLength) {
  DpsConfig config;
  config.history_length = 5;
  EstimatedPowerHistory history(config);
  history.reset(1);
  const std::vector<Watts> measured = {50.0};
  for (int i = 0; i < 12; ++i) history.observe(measured, 1.0);
  EXPECT_EQ(history.power_history(0).size(), 5u);
  EXPECT_EQ(history.duration_history(0).size(), 5u);
  EXPECT_TRUE(history.warmed_up());
}

TEST(History, AblationStoresRawMeasurements) {
  DpsConfig config;
  config.use_kalman_filter = false;
  EstimatedPowerHistory history(config);
  history.reset(1);
  std::vector<Watts> measured = {80.0};
  history.observe(measured, 1.0);
  measured[0] = 140.0;
  history.observe(measured, 1.0);
  EXPECT_DOUBLE_EQ(history.estimate(0), 140.0);  // no smoothing at all
}

TEST(History, EwmaAblationSmooths) {
  DpsConfig config;
  config.use_kalman_filter = false;
  config.ewma_alpha = 0.5;
  EstimatedPowerHistory history(config);
  history.reset(1);
  std::vector<Watts> measured = {100.0};
  history.observe(measured, 1.0);
  EXPECT_DOUBLE_EQ(history.estimate(0), 100.0);  // seeded
  measured[0] = 200.0;
  history.observe(measured, 1.0);
  EXPECT_DOUBLE_EQ(history.estimate(0), 150.0);  // halfway, alpha = 0.5
  history.observe(measured, 1.0);
  EXPECT_DOUBLE_EQ(history.estimate(0), 175.0);
}

TEST(History, EwmaConfigIoRoundTrip) {
  const auto config = file_config_from_ini(IniFile::parse(
      "[dps]\nuse_kalman_filter = false\newma_alpha = 0.3\n")).dps;
  EXPECT_FALSE(config.use_kalman_filter);
  EXPECT_DOUBLE_EQ(config.ewma_alpha, 0.3);
}

TEST(History, RejectsMismatchedObservation) {
  DpsConfig config;
  EstimatedPowerHistory history(config);
  history.reset(2);
  const std::vector<Watts> wrong = {1.0};
  EXPECT_THROW(history.observe(wrong, 1.0), std::invalid_argument);
}

TEST(History, RejectsTinyHistoryLength) {
  DpsConfig config;
  config.history_length = 2;
  EXPECT_THROW(EstimatedPowerHistory{config}, std::invalid_argument);
}

// --- Priority module ---

class PriorityFixture : public testing::Test {
 protected:
  PriorityFixture() : history_(config_), priority_(config_) {}

  void init(int units) {
    history_.reset(units);
    priority_.reset(units);
    caps_.assign(units, 110.0);
  }

  void observe_and_update(const std::vector<Watts>& measured) {
    history_.observe(measured, 1.0);
    priority_.update(history_, caps_);
  }

  DpsConfig config_ = [] {
    DpsConfig c;
    c.use_kalman_filter = false;  // deterministic histories for tests
    return c;
  }();
  EstimatedPowerHistory history_;
  PriorityModule priority_;
  std::vector<Watts> caps_;
};

TEST_F(PriorityFixture, FastRiseGetsHighPriority) {
  init(1);
  for (const Watts p : {50.0, 50.0, 50.0, 58.0, 66.0}) {
    observe_and_update({p});
  }
  EXPECT_TRUE(priority_.high_priority(0));
  EXPECT_FALSE(priority_.high_frequency(0));
}

TEST_F(PriorityFixture, FastFallGetsLowPriority) {
  init(1);
  for (const Watts p : {150.0, 150.0, 140.0, 128.0, 116.0}) {
    observe_and_update({p});
  }
  EXPECT_FALSE(priority_.high_priority(0));
}

TEST_F(PriorityFixture, SteadyPowerKeepsPriority) {
  init(1);
  // Rise to high priority, then hold steady: priority must stick for the
  // phase's whole duration (the paper's "until power changes again").
  for (const Watts p : {50.0, 58.0, 66.0}) observe_and_update({p});
  ASSERT_TRUE(priority_.high_priority(0));
  for (int i = 0; i < 10; ++i) observe_and_update({110.0});
  EXPECT_TRUE(priority_.high_priority(0));
}

TEST_F(PriorityFixture, OscillationFlagsHighFrequency) {
  init(1);
  for (int cycle = 0; cycle < 6; ++cycle) {
    observe_and_update({150.0});
    observe_and_update({150.0});
    observe_and_update({60.0});
    observe_and_update({60.0});
  }
  EXPECT_TRUE(priority_.high_frequency(0));
  EXPECT_TRUE(priority_.high_priority(0));
}

TEST_F(PriorityFixture, HighFrequencyDemotionNeedsCalmAndLowStd) {
  init(1);
  for (int cycle = 0; cycle < 6; ++cycle) {
    observe_and_update({150.0});
    observe_and_update({150.0});
    observe_and_update({60.0});
    observe_and_update({60.0});
  }
  ASSERT_TRUE(priority_.high_frequency(0));
  // Settle at a constant level near the window mean; the flag must clear
  // once both the peak count and the std-dev drop below threshold.
  for (int i = 0; i < 25; ++i) observe_and_update({105.0});
  EXPECT_FALSE(priority_.high_frequency(0));
  EXPECT_FALSE(priority_.high_priority(0));
}

TEST_F(PriorityFixture, StdDevGuardBlocksPrematureDemotion) {
  init(1);
  for (int cycle = 0; cycle < 6; ++cycle) {
    observe_and_update({150.0});
    observe_and_update({150.0});
    observe_and_update({60.0});
    observe_and_update({60.0});
  }
  ASSERT_TRUE(priority_.high_frequency(0));
  // One quiet stretch shorter than the window: std is still high because
  // the old oscillation is in history, so the unit must stay flagged.
  for (int i = 0; i < 5; ++i) observe_and_update({105.0});
  EXPECT_TRUE(priority_.high_frequency(0));
}

TEST_F(PriorityFixture, StaleHighPriorityIdleUnitDemoted) {
  init(1);
  for (const Watts p : {50.0, 58.0, 66.0}) observe_and_update({p});
  ASSERT_TRUE(priority_.high_priority(0));
  // Power settles far below the unit's 110 W cap: it clearly does not use
  // what it was granted, so after a few steps it must drop to low.
  for (int i = 0; i < 10; ++i) observe_and_update({30.0});
  EXPECT_FALSE(priority_.high_priority(0));
}

TEST_F(PriorityFixture, PinnedAtCapUnitIsNotDemoted) {
  init(1);
  caps_[0] = 80.0;
  for (const Watts p : {70.0, 75.0, 80.0}) observe_and_update({p});
  ASSERT_TRUE(priority_.high_priority(0));
  for (int i = 0; i < 20; ++i) observe_and_update({79.5});
  EXPECT_TRUE(priority_.high_priority(0));  // 79.5 >= 0.65 * 80
}

TEST_F(PriorityFixture, UnitsAreIndependent) {
  init(2);
  for (int i = 0; i < 3; ++i) {
    observe_and_update({50.0 + 8.0 * i, 150.0 - 8.0 * i});
  }
  EXPECT_TRUE(priority_.high_priority(0));
  EXPECT_FALSE(priority_.high_priority(1));
  EXPECT_EQ(priority_.count_high(), 1);
}

// --- Cap readjuster ---

TEST(Readjuster, RestoreFiresWhenAllQuiet) {
  DpsConfig config;
  CapReadjuster readjuster(config);
  readjuster.reset(make_ctx(3));
  std::vector<Watts> caps = {150.0, 60.0, 120.0};
  const std::vector<Watts> power = {40.0, 30.0, 50.0};
  const std::vector<bool> priorities = {false, false, false};
  EXPECT_TRUE(readjuster.apply(power, priorities, caps));
  for (const Watts c : caps) EXPECT_DOUBLE_EQ(c, 110.0);
}

TEST(Readjuster, RestoreBlockedByOneBusyUnit) {
  DpsConfig config;
  CapReadjuster readjuster(config);
  readjuster.reset(make_ctx(3));
  std::vector<Watts> caps = {150.0, 60.0, 120.0};
  const std::vector<Watts> power = {40.0, 30.0, 108.0};
  const std::vector<bool> priorities = {false, false, false};
  EXPECT_FALSE(readjuster.apply(power, priorities, caps));
  EXPECT_DOUBLE_EQ(caps[0], 150.0);  // untouched (no high priorities)
}

TEST(Readjuster, RestoreAblationDisablesIt) {
  DpsConfig config;
  config.use_restore = false;
  CapReadjuster readjuster(config);
  readjuster.reset(make_ctx(2));
  std::vector<Watts> caps = {150.0, 70.0};
  const std::vector<Watts> power = {30.0, 30.0};
  const std::vector<bool> priorities = {false, false};
  EXPECT_FALSE(readjuster.apply(power, priorities, caps));
  EXPECT_DOUBLE_EQ(caps[0], 150.0);
}

TEST(Readjuster, SpareBudgetGoesToHighPriorityUnits) {
  DpsConfig config;
  CapReadjuster readjuster(config);
  readjuster.reset(make_ctx(4));  // budget 440
  std::vector<Watts> caps = {60.0, 60.0, 110.0, 110.0};  // spare = 100
  const std::vector<Watts> power = {59.0, 59.0, 108.0, 108.0};
  const std::vector<bool> priorities = {true, false, true, false};
  readjuster.apply(power, priorities, caps);
  EXPECT_GT(caps[0], 60.0);
  EXPECT_DOUBLE_EQ(caps[1], 60.0);   // low priority untouched
  EXPECT_GT(caps[2], 110.0);
  EXPECT_DOUBLE_EQ(caps[3], 110.0);
  EXPECT_LE(sum_of(caps), 440.0 + 1e-9);
}

TEST(Readjuster, LowerCapsGetLargerShares) {
  DpsConfig config;
  CapReadjuster readjuster(config);
  readjuster.reset(make_ctx(4));
  std::vector<Watts> caps = {50.0, 100.0, 95.0, 95.0};  // spare = 100
  // One busy unit (108 W) keeps the restore check from firing.
  const std::vector<Watts> power = {49.0, 99.0, 94.0, 108.0};
  const std::vector<bool> priorities = {true, true, false, false};
  readjuster.apply(power, priorities, caps);
  const Watts gain0 = caps[0] - 50.0;
  const Watts gain1 = caps[1] - 100.0;
  EXPECT_GT(gain0, gain1);  // inverse-cap weighting favours the poor unit
}

TEST(Readjuster, EqualSplitAblation) {
  DpsConfig config;
  config.favor_low_caps = false;
  CapReadjuster readjuster(config);
  readjuster.reset(make_ctx(4));
  std::vector<Watts> caps = {50.0, 100.0, 95.0, 95.0};
  const std::vector<Watts> power = {49.0, 99.0, 94.0, 108.0};
  const std::vector<bool> priorities = {true, true, false, false};
  readjuster.apply(power, priorities, caps);
  EXPECT_NEAR(caps[0] - 50.0, caps[1] - 100.0, 1e-9);
}

TEST(Readjuster, SpareDistributionRespectsTdp) {
  DpsConfig config;
  CapReadjuster readjuster(config);
  readjuster.reset(make_ctx(3, 140.0));  // budget 420
  std::vector<Watts> caps = {160.0, 60.0, 60.0};  // spare 140
  const std::vector<Watts> power = {159.0, 59.0, 59.0};
  const std::vector<bool> priorities = {true, true, false};
  readjuster.apply(power, priorities, caps);
  EXPECT_LE(caps[0], 165.0);
  // Weight renormalization hands what unit 0 cannot take to unit 1.
  EXPECT_GT(caps[1], 100.0);
  EXPECT_LE(sum_of(caps), 420.0 + 1e-9);
}

TEST(Readjuster, ExhaustedBudgetEqualizesHighPriorityCaps) {
  DpsConfig config;
  CapReadjuster readjuster(config);
  readjuster.reset(make_ctx(4));  // budget 440
  std::vector<Watts> caps = {165.0, 55.0, 110.0, 110.0};  // sum = 440
  const std::vector<Watts> power = {160.0, 54.0, 108.0, 108.0};
  const std::vector<bool> priorities = {true, true, false, true};
  readjuster.apply(power, priorities, caps);
  const Watts equal = (165.0 + 55.0 + 110.0) / 3.0;
  EXPECT_NEAR(caps[0], equal, 1e-9);
  EXPECT_NEAR(caps[1], equal, 1e-9);
  EXPECT_NEAR(caps[3], equal, 1e-9);
  EXPECT_DOUBLE_EQ(caps[2], 110.0);  // low priority untouched
  EXPECT_NEAR(sum_of(caps), 440.0, 1e-9);
}

TEST(Readjuster, EpsilonSpareStillEqualizes) {
  // Float dust left by the stateless pass must not suppress equalization —
  // the exact failure observed in system bring-up.
  DpsConfig config;
  CapReadjuster readjuster(config);
  readjuster.reset(make_ctx(2));  // budget 220
  std::vector<Watts> caps = {165.0, 55.0 - 1e-9};
  const std::vector<Watts> power = {160.0, 54.0};
  const std::vector<bool> priorities = {true, true};
  readjuster.apply(power, priorities, caps);
  EXPECT_NEAR(caps[0], 110.0, 1e-6);
  EXPECT_NEAR(caps[1], 110.0, 1e-6);
}

TEST(Readjuster, NoHighPriorityUnitsNoChange) {
  DpsConfig config;
  CapReadjuster readjuster(config);
  readjuster.reset(make_ctx(2));
  std::vector<Watts> caps = {165.0, 55.0};
  const std::vector<Watts> power = {160.0, 54.0};
  const std::vector<bool> priorities = {false, false};
  readjuster.apply(power, priorities, caps);
  EXPECT_DOUBLE_EQ(caps[0], 165.0);
  EXPECT_DOUBLE_EQ(caps[1], 55.0);
}

TEST(Readjuster, LowerBoundGuarantee) {
  // The paper's key claim: when every unit is high priority and budget is
  // exhausted, equalization pays each at least the constant cap.
  DpsConfig config;
  CapReadjuster readjuster(config);
  const auto ctx = make_ctx(4);
  readjuster.reset(ctx);
  std::vector<Watts> caps = {160.0, 120.0, 90.0, 70.0};  // sum = 440
  const std::vector<Watts> power = {155.0, 118.0, 89.0, 69.0};
  const std::vector<bool> priorities = {true, true, true, true};
  readjuster.apply(power, priorities, caps);
  for (const Watts c : caps) {
    EXPECT_GE(c, ctx.constant_cap() - 1e-9);
  }
}

// --- DPS manager end-to-end control behaviour ---

TEST(DpsManager, NameAndReset) {
  DpsManager manager;
  EXPECT_EQ(manager.name(), "dps");
  manager.reset(make_ctx(2));
  EXPECT_FALSE(manager.last_step_restored());
}

TEST(DpsManager, BudgetInvariantUnderRandomTraffic) {
  DpsManager manager;
  const auto ctx = make_ctx(10);
  manager.reset(ctx);
  Rng rng(77);
  std::vector<Watts> caps(10, ctx.constant_cap());
  for (int step = 0; step < 1000; ++step) {
    std::vector<Watts> power(10);
    for (std::size_t u = 0; u < 10; ++u) {
      power[u] = std::min(caps[u], rng.uniform(15.0, 165.0));
    }
    manager.decide(power, caps);
    EXPECT_LE(sum_of(caps), ctx.total_budget + 1e-6);
    for (const Watts c : caps) {
      EXPECT_GE(c, ctx.min_cap - 1e-9);
      EXPECT_LE(c, ctx.tdp + 1e-9);
    }
  }
}

TEST(DpsManager, RestoresToConstantWhenSystemIdle) {
  DpsManager manager;
  const auto ctx = make_ctx(4);
  manager.reset(ctx);
  std::vector<Watts> caps(4, ctx.constant_cap());
  // Busy phase unbalances the caps.
  for (int step = 0; step < 20; ++step) {
    const std::vector<Watts> power = {std::min(caps[0], 160.0), 30.0, 30.0,
                                      30.0};
    manager.decide(power, caps);
  }
  EXPECT_GT(caps[0], 120.0);
  // Everything goes quiet: caps must snap back to the constant allocation.
  for (int step = 0; step < 3; ++step) {
    const std::vector<Watts> power = {25.0, 25.0, 25.0, 25.0};
    manager.decide(power, caps);
  }
  EXPECT_TRUE(manager.last_step_restored());
  for (const Watts c : caps) EXPECT_DOUBLE_EQ(c, ctx.constant_cap());
}

TEST(DpsManager, EscapesTheStatelessStarvationTrap) {
  // The motivating Figure 1 scenario, end to end: unit 0's demand rises
  // first and grabs the budget; when unit 1 rises later DPS must rebalance
  // where SLURM would starve it (see SlurmManager test).
  DpsManager manager;
  const auto ctx = make_ctx(2);
  manager.reset(ctx);
  std::vector<Watts> caps(2, ctx.constant_cap());
  // Unit 0 hot, unit 1 idle.
  for (int step = 0; step < 40; ++step) {
    const std::vector<Watts> power = {std::min(caps[0], 160.0) * 0.99, 30.0};
    manager.decide(power, caps);
  }
  EXPECT_GT(caps[0], 140.0);
  EXPECT_LT(caps[1], 70.0);
  // Unit 1's demand rises to 160 W; its visible power pins at its cap.
  for (int step = 0; step < 25; ++step) {
    const std::vector<Watts> power = {std::min(caps[0], 160.0) * 0.995,
                                      std::min(caps[1], 160.0) * 0.995};
    manager.decide(power, caps);
  }
  // DPS has equalized both high-priority units near the constant cap.
  EXPECT_GT(caps[1], ctx.constant_cap() * 0.9);
  EXPECT_NEAR(caps[0], caps[1], 15.0);
}

TEST(DpsManager, PriorityAblationReducesToStatelessPlusRestore) {
  DpsConfig config;
  config.use_priority_module = false;
  DpsManager manager(config);
  const auto ctx = make_ctx(2);
  manager.reset(ctx);
  std::vector<Watts> caps(2, ctx.constant_cap());
  for (int step = 0; step < 40; ++step) {
    const std::vector<Watts> power = {std::min(caps[0], 160.0) * 0.99, 30.0};
    manager.decide(power, caps);
  }
  for (int step = 0; step < 25; ++step) {
    const std::vector<Watts> power = {std::min(caps[0], 160.0) * 0.995,
                                      std::min(caps[1], 160.0) * 0.995};
    manager.decide(power, caps);
  }
  // Without priorities, the late riser stays starved (stateless trap).
  EXPECT_LT(caps[1], 80.0);
}

TEST(DpsManager, HighFrequencyUnitKeptProvisioned) {
  DpsManager manager;
  const auto ctx = make_ctx(2);
  manager.reset(ctx);
  std::vector<Watts> caps(2, ctx.constant_cap());
  // Unit 0 oscillates fast (4 s period), unit 1 holds high steadily.
  for (int step = 0; step < 120; ++step) {
    const Watts demand0 = (step / 2) % 2 == 0 ? 150.0 : 55.0;
    const std::vector<Watts> power = {std::min(caps[0], demand0),
                                      std::min(caps[1], 150.0) * 0.99};
    manager.decide(power, caps);
  }
  // The oscillator must not be squeezed below the constant allocation.
  EXPECT_GE(caps[0], ctx.constant_cap() * 0.9);
}

}  // namespace
}  // namespace dps
