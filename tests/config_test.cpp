#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>

#include "config/file_config.hpp"
#include "core/config_io.hpp"
#include "sched/sched_config.hpp"
#include "util/ini.hpp"

namespace dps {
namespace {

FileConfig load(const std::string& text) {
  return file_config_from_ini(IniFile::parse(text));
}

/// The ConfigError loading `text` throws; fails the test if none is thrown.
ConfigError error_of(const std::string& text) {
  try {
    load(text);
  } catch (const ConfigError& error) {
    return error;
  }
  ADD_FAILURE() << "no ConfigError for:\n" << text;
  return ConfigError("", "", "");
}

void expect_error(const std::string& text, const std::string& section,
                  const std::string& key, int line) {
  const ConfigError error = error_of(text);
  EXPECT_EQ(error.section(), section) << error.what();
  EXPECT_EQ(error.key(), key) << error.what();
  EXPECT_EQ(error.line(), line) << error.what();
  const std::string what = error.what();
  EXPECT_NE(what.find("[" + section + "] " + key), std::string::npos) << what;
  EXPECT_NE(what.find("at line " + std::to_string(line)), std::string::npos)
      << what;
}

/// Every field of the eight sections equal.
void expect_same(FileConfig a, FileConfig b) {
  const auto sa = ini_sections(a);
  const auto sb = ini_sections(b);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_TRUE(same_values(sa[i], sb[i]))
        << write_section(sa[i]) << "vs\n" << write_section(sb[i]);
  }
  EXPECT_EQ(a.dps.mimd.shuffle_seed, b.dps.mimd.shuffle_seed);
}

TEST(Ini, ParsesSectionsKeysAndComments) {
  const auto ini = IniFile::parse(
      "# leading comment\n"
      "top = 1\n"
      "[dps]\n"
      "history_length = 30   ; trailing comment\n"
      "\n"
      "use_restore = false\n"
      "[stateless]\n"
      "inc_percentile = 1.25\n");
  EXPECT_EQ(ini.get("", "top"), "1");
  EXPECT_EQ(ini.get("dps", "history_length"), "30");
  EXPECT_EQ(ini.get("dps", "use_restore"), "false");
  EXPECT_EQ(ini.get("stateless", "inc_percentile"), "1.25");
  EXPECT_EQ(ini.line_of("dps", "use_restore"), 6);
  EXPECT_TRUE(ini.has_section("dps"));
  EXPECT_FALSE(ini.has_section("nope"));
}

TEST(Ini, MissingKeysReturnNullopt) {
  const auto ini = IniFile::parse("[a]\nx = 1\n");
  EXPECT_FALSE(ini.get("a", "y").has_value());
  EXPECT_FALSE(ini.get("b", "x").has_value());
  EXPECT_EQ(ini.line_of("a", "y"), 0);
}

TEST(Ini, UnparsableValuesAreRejected) {
  int i = 7;
  double d = 7.0;
  bool b = true;
  EXPECT_THROW(ini_read("hello", i), std::invalid_argument);
  EXPECT_THROW(ini_read("1.5", i), std::invalid_argument);
  EXPECT_THROW(ini_read("hello", d), std::invalid_argument);
  EXPECT_THROW(ini_read("1.0.0", d), std::invalid_argument);
  EXPECT_THROW(ini_read("inf", d), std::invalid_argument);
  EXPECT_THROW(ini_read("", d), std::invalid_argument);
  EXPECT_THROW(ini_read("maybe", b), std::invalid_argument);
  // A rejected value leaves the field alone.
  EXPECT_EQ(i, 7);
  EXPECT_EQ(d, 7.0);
  EXPECT_TRUE(b);
}

TEST(Ini, BoolSpellings) {
  for (const char* yes : {"true", "YES", "on", "1"}) {
    bool b = false;
    ini_read(yes, b);
    EXPECT_TRUE(b) << yes;
  }
  for (const char* no : {"False", "off", "no", "0"}) {
    bool b = true;
    ini_read(no, b);
    EXPECT_FALSE(b) << no;
  }
}

TEST(Ini, MalformedLinesThrow) {
  EXPECT_THROW(IniFile::parse("[unterminated\n"), ConfigError);
  EXPECT_THROW(IniFile::parse("no equals sign\n"), ConfigError);
  EXPECT_THROW(IniFile::parse("= value without key\n"), ConfigError);
}

TEST(Ini, LoadMissingFileThrows) {
  EXPECT_THROW(IniFile::load("/no/such/config.ini"), std::runtime_error);
}

TEST(Ini, WriterRoundTripsValuesExactly) {
  struct Fields {
    double d = 0.1 + 0.2;
    double tiny = 5e-324;
    double neg = -1.0 / 3.0;
    std::uint64_t big = std::numeric_limits<std::uint64_t>::max();
    int low = std::numeric_limits<int>::min();
    bool flag = false;
    std::string text = "a b/c.csv";
    std::vector<std::string> list = {"LDA", "EP"};
  };
  Fields out;
  Fields in{0, 0, 0, 0, 0, true, "", {}};
  auto table = [](Fields& f) {
    return IniSection{"t",
                      {{"d", f.d},
                       {"tiny", f.tiny},
                       {"neg", f.neg},
                       {"big", f.big},
                       {"low", f.low},
                       {"flag", f.flag},
                       {"text", f.text},
                       {"list", f.list}}};
  };
  const std::string text = write_section(table(out));
  read_section(IniFile::parse(text), table(in));
  EXPECT_TRUE(same_values(table(out), table(in))) << text;
}

// --- Rejections: one error type naming section, key and line ---

TEST(ConfigErrors, MisspelledKeyInKnownSection) {
  expect_error("[ctrl]\nshard_sise = 8\n", "ctrl", "shard_sise", 2);
  expect_error("[dps]\nhistory_length = 20\nuse_restor = true\n", "dps",
               "use_restor", 3);
}

TEST(ConfigErrors, UnknownSectionThroughSharedLoader) {
  const std::string path = testing::TempDir() + "/unknown_section.ini";
  {
    std::ofstream out(path);
    out << "[dps]\nhistory_length = 20\n\n[dsp]\nhistory_length = 30\n";
  }
  try {
    load_file_config(path);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& error) {
    EXPECT_EQ(error.section(), "dsp");
    EXPECT_EQ(error.key(), "history_length");
    EXPECT_EQ(error.line(), 5);
    EXPECT_NE(std::string(error.what()).find("unknown section"),
              std::string::npos)
        << error.what();
  }
  // Keys outside any section configure nothing either.
  expect_error("history_length = 20\n", "", "history_length", 1);
}

TEST(ConfigErrors, ValueThatDoesNotParse) {
  expect_error("[faults]\ncrash_rate = 1.0.0\n", "faults", "crash_rate", 2);
  expect_error("[dps]\n\nuse_restore = treu\n", "dps", "use_restore", 3);
  expect_error("[sched]\npolicy = fifo\n", "sched", "policy", 2);
}

TEST(ConfigErrors, IntegerThatDoesNotFitItsField) {
  expect_error("[ctrl]\nshard_size = 4294967297\n", "ctrl", "shard_size", 2);
  expect_error("[faults]\nseed = 18446744073709551616\n", "faults", "seed", 2);
  expect_error("[thermal]\nseed = -1\n", "thermal", "seed", 2);
  expect_error("[dps]\nhistory_length = -20\n", "dps", "history_length", 2);
  // The largest seed does fit its 64-bit field and reads back exactly.
  EXPECT_EQ(load("[faults]\nseed = 18446744073709551615\n").faults.seed,
            std::numeric_limits<std::uint64_t>::max());
}

TEST(ConfigErrors, RangeChecksBlameTheKeyLine) {
  expect_error("[net]\n\nround_deadline_s = -1\n", "net", "round_deadline_s",
               3);
  expect_error("[obs]\nenabled = true\nevents_capacity = 0\n", "obs",
               "events_capacity", 3);
  expect_error("[stateless]\ninc_threshold = 0.5\n", "stateless",
               "inc_threshold", 2);
  expect_error("[dps]\n\nhistory_length = 2\n", "dps", "history_length", 3);
  expect_error("[dps]\nkf_measurement_variance = -4\n", "dps",
               "kf_measurement_variance", 2);
  // A flag path validates the same struct without a file: no line.
  NetConfig net;
  net.reconnect_max_attempts = 0;
  try {
    validate_net_config(net);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& error) {
    EXPECT_EQ(error.key(), "reconnect_max_attempts");
    EXPECT_EQ(error.line(), 0);
  }
}

// --- Shipped configs ---

TEST(FileConfig, ShippedConfigsLoadFieldForField) {
  // configs/dps.ini spells out the defaults, except for the fault drill
  // seed.
  FileConfig dps_ini;
  dps_ini.faults.seed = 4242;
  expect_same(load_file_config(std::string(DPS_SOURCE_DIR) +
                               "/configs/dps.ini"),
              dps_ini);

  FileConfig noisy;
  noisy.dps.kf_process_variance = 2.0;
  noisy.dps.kf_measurement_variance = 25.0;
  noisy.dps.deriv_inc_threshold = 3.0;
  noisy.dps.deriv_dec_threshold = -6.0;
  noisy.dps.std_threshold = 14.0;
  noisy.dps.peak_prominence = 30.0;
  expect_same(load_file_config(std::string(DPS_SOURCE_DIR) +
                               "/configs/dps_noisy_sensors.ini"),
              noisy);
}

TEST(FileConfig, EmptyPathGivesDefaults) {
  expect_same(load_file_config(""), FileConfig{});
}

// --- [dps] and [stateless] sections (src/core/config_io) ---

TEST(ConfigIo, DefaultsWhenEmpty) {
  const auto config = load("").dps;
  const DpsConfig defaults;
  EXPECT_EQ(config.history_length, defaults.history_length);
  EXPECT_DOUBLE_EQ(config.deriv_inc_threshold, defaults.deriv_inc_threshold);
  EXPECT_EQ(config.use_restore, defaults.use_restore);
  EXPECT_DOUBLE_EQ(config.mimd.inc_percentile, defaults.mimd.inc_percentile);
}

TEST(ConfigIo, OverridesListedKeysOnly) {
  const auto config = load(
                          "[dps]\n"
                          "history_length = 40\n"
                          "deriv_inc_threshold = 3.5\n"
                          "use_kalman_filter = false\n"
                          "[stateless]\n"
                          "dec_percentile = 0.9\n")
                          .dps;
  EXPECT_EQ(config.history_length, 40u);
  EXPECT_DOUBLE_EQ(config.deriv_inc_threshold, 3.5);
  EXPECT_FALSE(config.use_kalman_filter);
  EXPECT_DOUBLE_EQ(config.mimd.dec_percentile, 0.9);
  // Untouched keys keep defaults.
  const DpsConfig defaults;
  EXPECT_DOUBLE_EQ(config.std_threshold, defaults.std_threshold);
  EXPECT_DOUBLE_EQ(config.mimd.inc_threshold, defaults.mimd.inc_threshold);
}

TEST(ConfigIo, FromFileRoundTrip) {
  const std::string path = testing::TempDir() + "/dps_config.ini";
  {
    std::ofstream out(path);
    out << "[dps]\npeak_count_threshold = 5\nrestore_threshold = 0.9\n";
  }
  const auto config = load_file_config(path).dps;
  EXPECT_EQ(config.peak_count_threshold, 5u);
  EXPECT_DOUBLE_EQ(config.restore_threshold, 0.9);
}

TEST(ConfigIo, ShippedDefaultConfigMatchesBuiltInDefaults) {
  // configs/dps.ini documents the paper defaults; loading it must change
  // nothing. Keeps the sample file honest as code defaults evolve.
  DpsConfig config =
      load_file_config(std::string(DPS_SOURCE_DIR) + "/configs/dps.ini").dps;
  DpsConfig defaults;
  EXPECT_TRUE(same_values(ini_section(config), ini_section(defaults)));
  EXPECT_TRUE(same_values(ini_section(config.mimd), ini_section(defaults.mimd)));
}

TEST(ConfigIo, NoisySensorVariantLoadsCleanly) {
  const auto config = load_file_config(std::string(DPS_SOURCE_DIR) +
                                       "/configs/dps_noisy_sensors.ini")
                          .dps;
  EXPECT_DOUBLE_EQ(config.kf_measurement_variance, 25.0);
  EXPECT_DOUBLE_EQ(config.deriv_dec_threshold, -6.0);
  // Keys the variant does not set keep their defaults.
  EXPECT_EQ(config.history_length, DpsConfig{}.history_length);
}

TEST(ConfigIo, MimdBaseIsPreserved) {
  const auto base = DpsConfig{}.mimd;
  const auto config = load("[stateless]\ninc_percentile = 1.3\n").dps.mimd;
  EXPECT_DOUBLE_EQ(config.inc_percentile, 1.3);
  EXPECT_EQ(config.dec_window_steps, base.dec_window_steps);
  EXPECT_DOUBLE_EQ(config.dec_percentile, base.dec_percentile);
}

// --- [net] section (src/net/net_config) ---

TEST(NetConfig, DefaultsWhenEmpty) {
  NetConfig config = load("").net;
  NetConfig defaults;
  EXPECT_TRUE(same_values(ini_section(config), ini_section(defaults)));
}

TEST(NetConfig, RoundTripOverridesEveryKey) {
  const auto config = load(
                          "[net]\n"
                          "round_deadline_s = 2.5\n"
                          "reconnect_base_backoff_s = 0.1\n"
                          "reconnect_max_backoff_s = 4.0\n"
                          "reconnect_max_attempts = 7\n"
                          "failsafe_cap_w = 55.0\n"
                          "checkpoint_path = /tmp/dps.ckpt\n"
                          "checkpoint_interval_rounds = 12\n")
                          .net;
  EXPECT_DOUBLE_EQ(config.round_deadline_s, 2.5);
  EXPECT_DOUBLE_EQ(config.reconnect_base_backoff_s, 0.1);
  EXPECT_DOUBLE_EQ(config.reconnect_max_backoff_s, 4.0);
  EXPECT_EQ(config.reconnect_max_attempts, 7);
  EXPECT_DOUBLE_EQ(config.failsafe_cap_w, 55.0);
  EXPECT_EQ(config.checkpoint_path, "/tmp/dps.ckpt");
  EXPECT_EQ(config.checkpoint_interval_rounds, 12u);
}

TEST(NetConfig, ShippedIniMatchesBuiltInDefaults) {
  NetConfig config =
      load_file_config(std::string(DPS_SOURCE_DIR) + "/configs/dps.ini").net;
  NetConfig defaults;
  EXPECT_TRUE(same_values(ini_section(config), ini_section(defaults)));
}

TEST(NetConfig, RejectsInvalidValues) {
  EXPECT_THROW(load("[net]\nround_deadline_s = -1\n"), ConfigError);
  EXPECT_THROW(load("[net]\nreconnect_base_backoff_s = 0\n"), ConfigError);
  EXPECT_THROW(load("[net]\n"
                    "reconnect_base_backoff_s = 2.0\n"
                    "reconnect_max_backoff_s = 1.0\n"),
               ConfigError);
  EXPECT_THROW(load("[net]\nreconnect_max_attempts = 0\n"), ConfigError);
  EXPECT_THROW(load("[net]\nfailsafe_cap_w = -5\n"), ConfigError);
  EXPECT_THROW(load("[net]\ncheckpoint_interval_rounds = 0\n"), ConfigError);
}

// --- [sched] section (src/sched/sched_config) ---

TEST(SchedConfig, ShippedIniMatchesBuiltInDefaults) {
  // Shipped values must equal the code defaults; a drift means either the
  // docs/config or JobScheduleConfig changed without the other.
  sched::JobScheduleConfig config =
      load_file_config(std::string(DPS_SOURCE_DIR) + "/configs/dps.ini")
          .sched;
  sched::JobScheduleConfig defaults;
  EXPECT_TRUE(same_values(ini_section(config), ini_section(defaults)));
  EXPECT_TRUE(config.trace.empty());
}

TEST(SchedConfig, RoundTripOverridesEveryKey) {
  const auto config = load(
                          "[sched]\n"
                          "policy = backfill\n"
                          "seed = 99\n"
                          "arrival_rate = 12.5\n"
                          "job_count = 17\n"
                          "min_units = 1\n"
                          "max_units = 4\n"
                          "workload_mix = LDA, EP ,Sort\n"
                          "retry_cap = 5\n"
                          "slowdown_bound = 20\n"
                          "walltime_factor = 2.0\n"
                          "power_fit_fraction = 0.8\n"
                          "min_shrink_fraction = 0.25\n")
                          .sched;
  EXPECT_EQ(config.policy, sched::SchedPolicy::kEasyBackfill);
  EXPECT_EQ(config.seed, 99u);
  EXPECT_DOUBLE_EQ(config.arrival_rate_per_1000s, 12.5);
  EXPECT_EQ(config.job_count, 17);
  EXPECT_EQ(config.min_units, 1);
  EXPECT_EQ(config.max_units, 4);
  EXPECT_EQ(config.workload_mix,
            (std::vector<std::string>{"LDA", "EP", "Sort"}));
  EXPECT_EQ(config.retry_cap, 5);
  EXPECT_DOUBLE_EQ(config.slowdown_bound, 20.0);
  EXPECT_DOUBLE_EQ(config.walltime_factor, 2.0);
  EXPECT_DOUBLE_EQ(config.power.fit_fraction, 0.8);
  EXPECT_DOUBLE_EQ(config.power.min_shrink_fraction, 0.25);
}

TEST(SchedConfig, UnsetKeysKeepDefaults) {
  const auto config = load("[sched]\npolicy = power\n").sched;
  EXPECT_EQ(config.policy, sched::SchedPolicy::kPowerAware);
  EXPECT_EQ(config.job_count, sched::JobScheduleConfig{}.job_count);
}

TEST(SchedConfig, RejectsInvalidValues) {
  EXPECT_THROW(load("[sched]\npolicy = x\n"), ConfigError);
  EXPECT_THROW(load("[sched]\nmin_units = 6\nmax_units = 2\n"), ConfigError);
  EXPECT_THROW(load("[sched]\narrival_rate = 0\n"), ConfigError);
  EXPECT_THROW(load("[sched]\nmin_shrink_fraction = 1.5\n"), ConfigError);
  EXPECT_THROW(load("[sched]\nworkload_mix = ,\n"), ConfigError);
  EXPECT_THROW(load("[sched]\njob_trace = /no/such/trace.csv\n"),
               ConfigError);
}

}  // namespace
}  // namespace dps
