#pragma once

#include <string>

#include "obs/sink.hpp"
#include "util/ini.hpp"

namespace dps::obs {

/// Configuration of the observability subsystem, the `[obs]` section of a
/// DPS INI file (see configs/dps.ini). Empty export paths skip that
/// exporter.
struct ObsConfig {
  bool enabled = false;
  std::size_t events_capacity = 65536;
  bool span_events = true;
  std::string export_prometheus;
  std::string export_metrics_csv;
  std::string export_events_csv;
  std::string export_trace_json;

  /// Any export target configured?
  bool any_export() const {
    return !export_prometheus.empty() || !export_metrics_csv.empty() ||
           !export_events_csv.empty() || !export_trace_json.empty();
  }
};

/// The [obs] section's key table.
IniSection ini_section(ObsConfig& config);

/// Throws ConfigError on an events_capacity of 0.
void validate(const ObsConfig& config);

/// A sink per the (validated) config: enabled ⇒ a fresh Observer,
/// otherwise the disabled (free) sink.
ObsSink make_sink(const ObsConfig& config);

/// Runs every configured exporter against the sink's observer. No-op on a
/// disabled sink. Throws std::runtime_error when a file cannot be written.
void export_all(const ObsSink& sink, const ObsConfig& config);

}  // namespace dps::obs
