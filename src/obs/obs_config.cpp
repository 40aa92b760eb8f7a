#include "obs/obs_config.hpp"

#include <fstream>
#include <stdexcept>

#include "obs/exporters.hpp"

namespace dps::obs {

IniSection ini_section(ObsConfig& c) {
  return {"obs",
          {{"enabled", c.enabled},
           {"events_capacity", c.events_capacity},
           {"span_events", c.span_events},
           {"export_prometheus", c.export_prometheus},
           {"export_metrics_csv", c.export_metrics_csv},
           {"export_events_csv", c.export_events_csv},
           {"export_trace_json", c.export_trace_json}}};
}

void validate(const ObsConfig& config) {
  if (config.events_capacity == 0) {
    throw ConfigError("obs", "events_capacity", "must be > 0");
  }
}

ObsSink make_sink(const ObsConfig& config) {
  validate(config);
  if (!config.enabled) return ObsSink();
  return ObsSink::create(config.events_capacity, config.span_events);
}

void export_all(const ObsSink& sink, const ObsConfig& config) {
  if (!sink.enabled()) return;
  Observer& observer = *sink.observer();
  if (!config.export_prometheus.empty()) {
    std::ofstream out(config.export_prometheus);
    if (!out) {
      throw std::runtime_error("cannot write " + config.export_prometheus);
    }
    observer.metrics().write_prometheus(out);
  }
  if (!config.export_metrics_csv.empty()) {
    observer.metrics().write_csv(config.export_metrics_csv);
  }
  if (!config.export_events_csv.empty()) {
    write_events_csv(observer.events(), config.export_events_csv);
  }
  if (!config.export_trace_json.empty()) {
    write_chrome_trace_file(observer.events(), config.export_trace_json);
  }
}

}  // namespace dps::obs
