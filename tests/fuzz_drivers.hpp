#pragma once

/// Shared fuzz drivers: each driver consumes an arbitrary byte buffer and
/// exercises one parser/codec/subsystem, with the invariant that it either
/// succeeds or throws the documented exception type — never crashes, never
/// corrupts state. Two harnesses drive them:
///   * tests/fuzz_test.cpp — gtest loops over deterministic Rng-generated
///     buffers; always built, so tier-1 ctest exercises every driver.
///   * tests/fuzz_libfuzzer.cpp — LLVMFuzzerTestOneInput entry points,
///     built only with -DDPS_LIBFUZZER=ON (needs clang's libFuzzer).

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "config/file_config.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "net/protocol.hpp"
#include "util/csv_reader.hpp"
#include "util/ini.hpp"

namespace dps::fuzz {

/// Wire codec: whatever decodes must re-encode to the identical bytes.
/// Returns false on a round-trip mismatch (the only way to fail without
/// crashing, so both harnesses can assert on it).
inline bool drive_protocol(const std::uint8_t* data, std::size_t size) {
  if (size < kMessageSize) return true;
  WireBytes bytes = {data[0], data[1], data[2]};
  const auto message = decode(bytes);
  if (!message) return true;
  if (message->type == MessageType::kHello) {
    // A hello's payload is version/unit, not deciwatts — its round trip
    // goes through the handshake codec, which must be exact on any bytes.
    const auto hello = decode_hello(bytes);
    if (!hello) return false;
    const auto round = encode_hello(*hello);
    return round[0] == bytes[0] && round[1] == bytes[1] &&
           round[2] == bytes[2];
  }
  const auto round = encode(*message);
  return round[0] == bytes[0] && round[1] == bytes[1] && round[2] == bytes[2];
}

/// INI parser: parse + probe lookups; throwing ConfigError on malformed
/// text is the contract, anything else is a bug.
inline void drive_ini(const std::uint8_t* data, std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  try {
    const auto ini = IniFile::parse(text);
    (void)ini.get("a", "b");
    (void)ini.line_of("s", "k");
    (void)ini.has_section("s");
  } catch (const ConfigError&) {
  }
}

/// CSV parser: parse + probe every row; unterminated quotes throw.
inline void drive_csv(const std::uint8_t* data, std::size_t size) {
  const std::string text(reinterpret_cast<const char*>(data), size);
  try {
    const auto csv = CsvReader::parse(text);
    for (std::size_t r = 0; r < csv.num_rows(); ++r) {
      (void)csv.cell(r, std::string("a"));
      (void)csv.number(r, std::string("b"));
    }
    (void)csv.column_as_doubles("a");
  } catch (const std::runtime_error&) {
  }
}

/// Fault plans: arbitrary bytes become (a) generator knobs — generation
/// must always produce a valid, sorted plan — and (b) a raw event list —
/// construction either validates or throws std::invalid_argument. The
/// surviving plan is walked start to end through a FaultInjector, whose
/// per-unit fault counts must return to zero once every window has closed.
/// Returns false if any invariant breaks.
inline bool drive_fault_plan(const std::uint8_t* data, std::size_t size) {
  std::size_t pos = 0;
  auto next_byte = [&]() -> std::uint8_t {
    return pos < size ? data[pos++] : 0;
  };

  const int num_units = 1 + next_byte() % 32;

  FaultPlanConfig config;
  config.seed = next_byte() | (static_cast<std::uint64_t>(next_byte()) << 8);
  config.horizon = 1.0 + next_byte() * 16.0;
  config.crash_rate = next_byte() * 0.5;
  config.sensor_dropout_rate = next_byte() * 0.5;
  config.sensor_garbage_rate = next_byte() * 0.5;
  config.cap_stuck_rate = next_byte() * 0.5;
  config.budget_sag_rate = next_byte() * 0.5;
  config.fan_degrade_rate = next_byte() * 0.5;
  config.temp_stuck_rate = next_byte() * 0.5;
  // Strictly positive: a zero duration means "never clears", which would
  // (correctly) trip the all-windows-closed invariant below.
  config.min_duration = 0.25 + next_byte() * 0.25;
  config.max_duration = config.min_duration + next_byte() * 0.25;
  config.sag_floor = 0.05 + (next_byte() % 95) / 100.0;
  // Fan-degrade magnitudes are resistance multipliers, >= 1 by contract.
  config.fan_degrade_min = 1.0 + (next_byte() % 64) / 32.0;
  config.fan_degrade_max = config.fan_degrade_min + (next_byte() % 64) / 32.0;
  const auto generated = FaultPlan::generate(config, num_units);

  // Raw event list from the remaining bytes — mostly invalid on purpose.
  std::vector<FaultEvent> events;
  while (pos + 5 <= size && events.size() < 64) {
    FaultEvent e;
    e.at = static_cast<double>(next_byte()) - 8.0;  // sometimes negative
    e.duration = static_cast<double>(next_byte()) - 8.0;
    e.unit = static_cast<int>(next_byte()) - 8;  // sometimes out of range
    e.kind = static_cast<FaultKind>(next_byte() % 7);  // all seven kinds
    // In [-0.125, 3.86): straddles 1.0, so fan-degrade events land on both
    // sides of the magnitude-must-be->=1 validator.
    e.magnitude = (static_cast<double>(next_byte()) - 8.0) / 64.0;
    events.push_back(e);
  }
  try {
    const FaultPlan plan(events, num_units);
    if (plan.size() != events.size()) return false;
  } catch (const std::invalid_argument&) {
  }

  // Walk the generated plan to the end: all windows closed, nothing stuck.
  FaultInjector injector(generated, num_units);
  for (Seconds t = 0.0; t <= config.horizon; t += config.horizon / 64.0) {
    injector.advance(t);
  }
  injector.advance(config.horizon + config.max_duration + 1.0);
  if (injector.any_active()) return false;
  if (injector.budget_factor() != 1.0) return false;
  for (int u = 0; u < num_units; ++u) {
    if (injector.crashed(u) || injector.sensor_dropout(u) ||
        injector.sensor_garbage(u) || injector.cap_stuck(u) ||
        injector.temp_sensor_stuck(u)) {
      return false;
    }
    // Closed fan-degrade windows must restore the factor to exactly 1.0
    // (no residual multiplier drift from the overlap product).
    if (injector.fan_degrade_factor(u) != 1.0) return false;
  }
  return injector.activated_count() ==
         static_cast<int>(generated.size());
}

/// INI configs, driven by the declared key tables: one section per buffer
/// gets hostile values — numbers of either sign, garbage, integers past 32
/// and 64 bits, misspelled keys — while the others keep their defaults
/// spelled out or are left out. Loading must either produce a validated
/// FileConfig or throw a ConfigError naming the section and a key. A
/// config that loads must survive write_section -> file_config_from_ini
/// with every field equal. Returns false if either invariant breaks.
inline bool drive_config(const std::uint8_t* data, std::size_t size) {
  std::size_t pos = 0;
  auto next_byte = [&]() -> std::uint8_t {
    return pos < size ? data[pos++] : 0;
  };
  static const char* const kOddValues[] = {
      "",     "1.0.0",      "treu",       "off",        "yes",
      "nan",  "inf",        "fcfs",       "backfill",   "x",
      "-0",   "1e3",        "4294967297", "2147483648", "-2147483649",
      "host", "Kmeans, EP", ",",          "18446744073709551615",
      "18446744073709551616"};
  constexpr std::size_t kOdd = sizeof(kOddValues) / sizeof(kOddValues[0]);

  FileConfig defaults;
  const auto sections = ini_sections(defaults);
  const std::size_t target = next_byte() % sections.size();
  std::string text;
  for (std::size_t s = 0; s < sections.size(); ++s) {
    const bool hostile = s == target;
    if (!hostile && next_byte() % 2 == 0) continue;
    text += "[" + sections[s].name + "]\n";
    for (const IniKey& key : sections[s].keys) {
      // A trace path would be opened; its loading has its own tests.
      if (std::string(key.key()) == "job_trace") continue;
      const std::uint8_t control = hostile ? next_byte() % 8 : 4;
      if (control < 3) continue;  // omitted -> default
      std::string name = key.key();
      if (control == 3) name += "_";  // misspelled
      std::string value = key.write();
      if (control == 5) {
        value = std::to_string((static_cast<double>(next_byte()) - 64.0) * 0.5);
      } else if (control == 6) {
        value = std::to_string(static_cast<int>(next_byte()) - 16);
      } else if (control == 7) {
        value = kOddValues[next_byte() % kOdd];
      }
      text += name + " = " + value + "\n";
    }
  }
  if (next_byte() == 0xff) text += "[bogus]\nkey = 1\n";

  FileConfig loaded;
  try {
    loaded = file_config_from_ini(IniFile::parse(text));
  } catch (const ConfigError& error) {
    return !error.key().empty() &&
           std::string(error.what())
                   .rfind("[" + error.section() + "] " + error.key() + ": ",
                          0) == 0;
  }
  std::string dumped;
  for (const IniSection& section : ini_sections(loaded)) {
    dumped += write_section(section);
  }
  FileConfig again = file_config_from_ini(IniFile::parse(dumped));
  const auto a = ini_sections(loaded);
  const auto b = ini_sections(again);
  for (std::size_t s = 0; s < a.size(); ++s) {
    if (!same_values(a[s], b[s])) return false;
  }
  return true;
}

}  // namespace dps::fuzz
