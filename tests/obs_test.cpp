/// Tests of the observability subsystem (src/obs/): metrics registry
/// semantics (counter monotonicity, histogram `le` bucket edges, concurrent
/// updates), the bounded event ring, CSV/Prometheus/Chrome-trace exporters
/// (with schema-level JSON validation), the disabled-sink null behavior,
/// `[obs]` config parsing, and the cross-layer integration streams: a
/// faulted engine run must emit decision → cap write → fault begin →
/// eviction → fault end → re-admission in order, and a TCP control-plane
/// session must emit the comparable connect/decision/cap-write stream.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "config/file_config.hpp"
#include "core/dps_manager.hpp"
#include "faults/fault_plan.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/event_log.hpp"
#include "obs/exporters.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/obs_config.hpp"
#include "obs/sink.hpp"
#include "power/rapl_sim.hpp"
#include "sim/engine.hpp"
#include "workloads/synthetic.hpp"

namespace dps::obs {
namespace {

// --- A minimal JSON parser, enough to validate the Chrome trace format ---
// (no external JSON dependency in the toolchain; schema-level checks only
// need objects/arrays/strings/numbers/bools).

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool has(const std::string& key) const { return object.count(key) > 0; }
  const JsonValue& at(const std::string& key) const { return object.at(key); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  /// Parses the whole input; throws std::runtime_error on any syntax error
  /// or trailing garbage.
  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json: " + why + " at offset " +
                             std::to_string(pos_));
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }
  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }
  bool consume(const std::string& literal) {
    if (text_.compare(pos_, literal.size(), literal) != 0) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue value() {
    skip_ws();
    const char c = peek();
    JsonValue v;
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      v.type = JsonValue::Type::kString;
      v.string = string();
      return v;
    }
    if (consume("true")) {
      v.type = JsonValue::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (consume("false")) {
      v.type = JsonValue::Type::kBool;
      return v;
    }
    if (consume("null")) return v;
    return numberValue();
  }

  JsonValue object() {
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      const std::string key = string();
      skip_ws();
      expect(':');
      v.object[key] = value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("bad escape");
        const char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u':
            if (pos_ + 4 > text_.size()) fail("bad \\u escape");
            pos_ += 4;  // validated as hex, decoded as '?' (ASCII tests only)
            out += '?';
            break;
          default: fail("unknown escape");
        }
      } else {
        out += c;
      }
    }
  }

  JsonValue numberValue() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.number = std::stod(text_.substr(start, pos_ - start));
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

// --- MetricsRegistry ---

TEST(Metrics, CounterIsMonotonic) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Metrics, CounterConcurrentIncrementsAllLand) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, GaugeSetAndAdd) {
  Gauge g;
  g.set(110.0);
  EXPECT_DOUBLE_EQ(g.value(), 110.0);
  g.add(-10.5);
  EXPECT_DOUBLE_EQ(g.value(), 99.5);
}

TEST(Metrics, HistogramBucketEdgesArePrometheusLe) {
  Histogram h({1.0, 2.0, 5.0});
  // `le` semantics: an observation equal to a bound lands in that bound's
  // bucket; above the last bound lands in +Inf.
  h.observe(1.0);   // bucket le=1
  h.observe(1.5);   // bucket le=2
  h.observe(2.0);   // bucket le=2
  h.observe(5.0);   // bucket le=5
  h.observe(7.25);  // +Inf
  EXPECT_EQ(h.bucket_count(0), 1u);
  EXPECT_EQ(h.bucket_count(1), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // +Inf
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 1.0 + 1.5 + 2.0 + 5.0 + 7.25);
}

TEST(Metrics, HistogramRejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(Metrics, HistogramConcurrentObservationsAllLand) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  Histogram h({0.5});
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) h.observe(i % 2 == 0 ? 0.25 : 1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(h.bucket_count(0) + h.bucket_count(1), h.count());
  EXPECT_NEAR(h.sum(), kThreads * kPerThread * (0.25 + 1.0) / 2.0, 1e-6);
}

TEST(Metrics, DefaultLatencyBoundsAreStrictlyIncreasing) {
  const auto bounds = default_latency_bounds();
  ASSERT_GE(bounds.size(), 2u);
  EXPECT_DOUBLE_EQ(bounds.front(), 1e-6);
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(Metrics, RegistryReturnsStableHandlesAndValidatesNames) {
  MetricsRegistry registry;
  Counter& a = registry.counter("steps_total", "steps");
  Counter& b = registry.counter("steps_total");
  EXPECT_EQ(&a, &b);  // same metric, not a second one
  EXPECT_EQ(registry.size(), 1u);

  EXPECT_THROW(registry.counter("0bad"), std::invalid_argument);
  EXPECT_THROW(registry.counter("has space"), std::invalid_argument);
  EXPECT_THROW(registry.counter(""), std::invalid_argument);
  EXPECT_NO_THROW(registry.counter("ns:ok_name_2"));
}

TEST(Metrics, RegistryRejectsTypeConflicts) {
  MetricsRegistry registry;
  registry.counter("x_total");
  EXPECT_THROW(registry.gauge("x_total"), std::invalid_argument);
  EXPECT_THROW(registry.histogram("x_total", {1.0}), std::invalid_argument);

  registry.histogram("latency_seconds", {0.1, 1.0});
  // Same bounds: same histogram. Different bounds: a wiring bug, loudly.
  EXPECT_NO_THROW(registry.histogram("latency_seconds", {0.1, 1.0}));
  EXPECT_THROW(registry.histogram("latency_seconds", {0.5, 1.0}),
               std::invalid_argument);
}

TEST(Metrics, PrometheusExpositionIsCumulative) {
  MetricsRegistry registry;
  registry.counter("decisions_total", "decisions made").add(3);
  registry.gauge("budget_watts").set(2200.0);
  Histogram& h = registry.histogram("decide_seconds", {0.001, 0.01});
  h.observe(0.0005);
  h.observe(0.005);
  h.observe(0.5);

  std::ostringstream out;
  registry.write_prometheus(out);
  const std::string text = out.str();

  EXPECT_NE(text.find("# HELP decisions_total decisions made\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE decisions_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("decisions_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE budget_watts gauge\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE decide_seconds histogram\n"),
            std::string::npos);
  // Buckets must be cumulative on the way out: 1, 2, and 3 at +Inf.
  EXPECT_NE(text.find("decide_seconds_bucket{le=\"0.001\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("decide_seconds_bucket{le=\"0.01\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("decide_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("decide_seconds_count 3\n"), std::string::npos);
}

TEST(Metrics, CsvSnapshotRoundTripsThroughTheRepoReader) {
  MetricsRegistry registry;
  registry.counter("writes_total").add(7);
  registry.histogram("lat_seconds", {1.0}).observe(2.0);
  const std::string path = testing::TempDir() + "/obs_metrics.csv";
  registry.write_csv(path);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "metric,type,key,value");
  std::string body((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(body.find("writes_total,counter,,7"), std::string::npos);
  EXPECT_NE(body.find("lat_seconds,histogram,le=+Inf,1"), std::string::npos);
  EXPECT_NE(body.find("lat_seconds,histogram,count,1"), std::string::npos);
}

// --- EventLog ---

Event make_event(double t, EventKind kind = EventKind::kDecision) {
  Event e;
  e.time = t;
  e.kind = kind;
  return e;
}

TEST(EventLogTest, KeepsNewestOnOverflow) {
  EventLog log(4);
  for (int i = 0; i < 10; ++i) log.push(make_event(static_cast<double>(i)));
  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(events[i].time, 6.0 + i);  // oldest → newest, tail only
  }
  EXPECT_EQ(log.total_pushed(), 10u);
  EXPECT_EQ(log.dropped(), 6u);
}

TEST(EventLogTest, PartialFillSnapshotsInOrder) {
  EventLog log(8);
  log.push(make_event(1.0));
  log.push(make_event(2.0));
  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].time, 1.0);
  EXPECT_DOUBLE_EQ(events[1].time, 2.0);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(EventLogTest, ZeroCapacityThrows) {
  EXPECT_THROW(EventLog(0), std::invalid_argument);
}

TEST(EventLogTest, KindNamesRoundTrip) {
  for (const EventKind kind :
       {EventKind::kDecision, EventKind::kCapWrite, EventKind::kCapDrop,
        EventKind::kEvict, EventKind::kReadmit, EventKind::kFaultBegin,
        EventKind::kFaultEnd, EventKind::kBudgetChange,
        EventKind::kClientConnect, EventKind::kClientDisconnect,
        EventKind::kSpan, EventKind::kJobSubmit, EventKind::kJobStart,
        EventKind::kJobEnd, EventKind::kJobRequeue}) {
    EventKind back;
    ASSERT_TRUE(event_kind_from_string(to_string(kind), back))
        << to_string(kind);
    EXPECT_EQ(back, kind);
  }
  EventKind back;
  EXPECT_FALSE(event_kind_from_string("no_such_kind", back));
}

// --- Exporters ---

std::vector<Event> sample_events() {
  std::vector<Event> events;
  Event decision = make_event(1.0, EventKind::kDecision);
  decision.value = 440.0;
  decision.extra = 480.0;
  events.push_back(decision);
  Event write = make_event(1.0, EventKind::kCapWrite);
  write.unit = 3;
  write.value = 82.5;
  events.push_back(write);
  Event fault = make_event(60.0, EventKind::kFaultBegin);
  fault.unit = 0;
  fault.value = 1.0;
  fault.extra = 150.0;
  fault.detail = "unit_crash";
  events.push_back(fault);
  Event span = make_event(2.0, EventKind::kSpan);
  span.extra = 0.25;  // duration [s]
  span.detail = "decide";
  events.push_back(span);
  return events;
}

TEST(Exporters, EventsCsvRoundTrips) {
  const std::string path = testing::TempDir() + "/obs_events.csv";
  const auto events = sample_events();
  write_events_csv(events, path);
  const auto records = read_events_csv(path);
  ASSERT_EQ(records.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_NEAR(records[i].time, events[i].time, 1e-6);
    EXPECT_EQ(records[i].kind, to_string(events[i].kind));
    EXPECT_EQ(records[i].unit, events[i].unit);
    EXPECT_NEAR(records[i].value, events[i].value, 1e-6);
    EXPECT_NEAR(records[i].extra, events[i].extra, 1e-9);
  }
  EXPECT_EQ(records[2].detail, "unit_crash");
  EXPECT_EQ(records[3].detail, "decide");
}

TEST(Exporters, ReadRejectsMissingColumns) {
  const std::string path = testing::TempDir() + "/obs_bad_events.csv";
  std::ofstream(path) << "time,kind\n1.0,decision\n";
  EXPECT_THROW(read_events_csv(path), std::runtime_error);
}

TEST(Exporters, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("x\n\t"), "x\\n\\t");
  EXPECT_EQ(json_escape(std::string("\x01", 1)), "\\u0001");
}

TEST(Exporters, ChromeTraceIsSchemaValidJson) {
  std::ostringstream out;
  write_chrome_trace(sample_events(), out);

  const JsonValue root = JsonParser(out.str()).parse();
  ASSERT_EQ(root.type, JsonValue::Type::kObject);
  ASSERT_TRUE(root.has("traceEvents"));
  ASSERT_TRUE(root.has("displayTimeUnit"));
  EXPECT_EQ(root.at("displayTimeUnit").string, "ms");

  const auto& events = root.at("traceEvents").array;
  ASSERT_EQ(events.size(), 4u);
  for (const JsonValue& e : events) {
    ASSERT_EQ(e.type, JsonValue::Type::kObject);
    // Every trace event needs name/cat/ph/ts/pid/tid to render.
    for (const char* key : {"name", "cat", "ph", "ts", "pid", "tid"}) {
      EXPECT_TRUE(e.has(key)) << "missing " << key;
    }
    EXPECT_TRUE(e.has("args"));
  }

  // Instant events: ph "i" with global scope, ts in microseconds.
  const JsonValue& decision = events[0];
  EXPECT_EQ(decision.at("name").string, "decision");
  EXPECT_EQ(decision.at("ph").string, "i");
  EXPECT_EQ(decision.at("s").string, "g");
  EXPECT_NEAR(decision.at("ts").number, 1e6, 1.0);
  EXPECT_EQ(decision.at("tid").number, 0.0);  // run-wide track
  EXPECT_NEAR(decision.at("args").at("value").number, 440.0, 1e-9);

  // Unit-scoped events land on track unit+1.
  EXPECT_EQ(events[1].at("tid").number, 4.0);
  EXPECT_EQ(events[2].at("cat").string, "faults");
  EXPECT_EQ(events[2].at("args").at("detail").string, "unit_crash");

  // Spans are complete events with a microsecond duration.
  const JsonValue& span = events[3];
  EXPECT_EQ(span.at("ph").string, "X");
  EXPECT_EQ(span.at("cat").string, "prof");
  EXPECT_NEAR(span.at("dur").number, 0.25e6, 1.0);
  EXPECT_EQ(span.at("args").at("scope").string, "decide");
}

TEST(Exporters, CsvToTraceOfflinePathMatchesDirectExport) {
  // The obs_dump tool's code path: CSV → records → trace JSON must parse
  // to the same event list as the in-memory export.
  const std::string path = testing::TempDir() + "/obs_offline.csv";
  write_events_csv(sample_events(), path);
  std::ostringstream direct, offline;
  write_chrome_trace(sample_events(), direct);
  write_chrome_trace(read_events_csv(path), offline);
  const JsonValue a = JsonParser(direct.str()).parse();
  const JsonValue b = JsonParser(offline.str()).parse();
  ASSERT_EQ(a.at("traceEvents").array.size(), b.at("traceEvents").array.size());
  for (std::size_t i = 0; i < a.at("traceEvents").array.size(); ++i) {
    const auto& ea = a.at("traceEvents").array[i];
    const auto& eb = b.at("traceEvents").array[i];
    EXPECT_EQ(ea.at("name").string, eb.at("name").string);
    EXPECT_EQ(ea.at("ph").string, eb.at("ph").string);
    EXPECT_NEAR(ea.at("ts").number, eb.at("ts").number, 1.0);
  }
}

// --- Sink and spans ---

TEST(Sink, DisabledSinkIsInert) {
  ObsSink sink;
  EXPECT_FALSE(sink.enabled());
  EXPECT_EQ(sink.observer(), nullptr);
  EXPECT_EQ(sink.counter("c_total"), nullptr);
  EXPECT_EQ(sink.gauge("g"), nullptr);
  EXPECT_EQ(sink.histogram("h", {1.0}), nullptr);
  EXPECT_EQ(sink.latency_histogram("l_seconds"), nullptr);
  // All no-ops, no crashes:
  sink.set_time(10.0);
  sink.event(EventKind::kDecision);
  EXPECT_DOUBLE_EQ(sink.now(), 0.0);
  { ScopedSpan span(sink, nullptr, "noop"); }
}

TEST(Sink, DrivenClockStampsEvents) {
  ObsSink sink = ObsSink::create(16);
  sink.set_time(123.5);
  sink.event(EventKind::kDecision, -1, 440.0, 480.0);
  sink.set_time(124.5);
  sink.event(EventKind::kCapWrite, 2, 80.0);
  const auto events = sink.observer()->events().snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].time, 123.5);
  EXPECT_EQ(events[0].kind, EventKind::kDecision);
  EXPECT_DOUBLE_EQ(events[1].time, 124.5);
  EXPECT_EQ(events[1].unit, 2);
}

TEST(Sink, WallClockIsMonotonicWhenNotDriven) {
  ObsSink sink = ObsSink::create(16);
  const double a = sink.now();
  const double b = sink.now();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

TEST(Sink, ScopedSpanFeedsHistogramAndEventLog) {
  ObsSink sink = ObsSink::create(16);
  sink.set_time(42.0);
  Histogram* hist = sink.latency_histogram("work_seconds");
  ASSERT_NE(hist, nullptr);
  {
    ScopedSpan span(sink, hist, "work");
    volatile double sum = 0.0;
    for (int i = 0; i < 1000; ++i) sum = sum + i;
  }
  EXPECT_EQ(hist->count(), 1u);
  EXPECT_GE(hist->sum(), 0.0);
  const auto events = sink.observer()->events().snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, EventKind::kSpan);
  EXPECT_DOUBLE_EQ(events[0].time, 42.0);  // span start, driven time
  EXPECT_STREQ(events[0].detail, "work");
  EXPECT_GE(events[0].extra, 0.0);  // measured wall duration
}

TEST(Sink, SpanEventsCanBeDisabledIndependently) {
  ObsSink sink = ObsSink::create(16, /*span_events=*/false);
  Histogram* hist = sink.latency_histogram("work_seconds");
  { ScopedSpan span(sink, hist, "work"); }
  EXPECT_EQ(hist->count(), 1u);  // histogram still fed
  EXPECT_TRUE(sink.observer()->events().snapshot().empty());  // no kSpan
}

// --- [obs] configuration ---

TEST(ObsConfigTest, ParsesIniSection) {
  const auto ini = IniFile::parse(
      "[obs]\n"
      "enabled = true\n"
      "events_capacity = 128\n"
      "span_events = false\n"
      "export_prometheus = m.prom\n"
      "export_events_csv = e.csv\n"
      "export_trace_json = t.json\n");
  const ObsConfig config = file_config_from_ini(ini).obs;
  EXPECT_TRUE(config.enabled);
  EXPECT_EQ(config.events_capacity, 128u);
  EXPECT_FALSE(config.span_events);
  EXPECT_EQ(config.export_prometheus, "m.prom");
  EXPECT_EQ(config.export_events_csv, "e.csv");
  EXPECT_EQ(config.export_trace_json, "t.json");
  EXPECT_TRUE(config.export_metrics_csv.empty());
  EXPECT_TRUE(config.any_export());
}

TEST(ObsConfigTest, DefaultsWhenSectionAbsent) {
  const ObsConfig config = file_config_from_ini(IniFile::parse("")).obs;
  EXPECT_FALSE(config.enabled);
  EXPECT_EQ(config.events_capacity, 65536u);
  EXPECT_TRUE(config.span_events);
  EXPECT_FALSE(config.any_export());
  EXPECT_FALSE(make_sink(config).enabled());
}

TEST(ObsConfigTest, RejectsZeroCapacity) {
  EXPECT_THROW(
      file_config_from_ini(IniFile::parse("[obs]\nevents_capacity = 0\n")),
      ConfigError);
}

TEST(ObsConfigTest, ShippedConfigParsesWithObsOff) {
  const ObsConfig config =
      load_file_config(std::string(DPS_SOURCE_DIR) + "/configs/dps.ini").obs;
  EXPECT_FALSE(config.enabled);  // observability must default off
  EXPECT_EQ(config.events_capacity, 65536u);
  EXPECT_FALSE(config.any_export());
}

TEST(ObsConfigTest, ExportAllWritesEveryConfiguredTarget) {
  ObsConfig config;
  config.enabled = true;
  config.events_capacity = 64;
  config.export_prometheus = testing::TempDir() + "/obs_all.prom";
  config.export_metrics_csv = testing::TempDir() + "/obs_all_metrics.csv";
  config.export_events_csv = testing::TempDir() + "/obs_all_events.csv";
  config.export_trace_json = testing::TempDir() + "/obs_all_trace.json";
  const ObsSink sink = make_sink(config);
  ASSERT_TRUE(sink.enabled());
  sink.counter("c_total")->add(5);
  sink.set_time(1.0);
  sink.event(EventKind::kDecision, -1, 100.0, 120.0);
  export_all(sink, config);

  for (const std::string& path :
       {config.export_prometheus, config.export_metrics_csv,
        config.export_events_csv, config.export_trace_json}) {
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << path;
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_FALSE(content.empty()) << path;
  }
  // And the trace target is valid JSON.
  std::ifstream trace(config.export_trace_json);
  std::string json((std::istreambuf_iterator<char>(trace)),
                   std::istreambuf_iterator<char>());
  EXPECT_NO_THROW(JsonParser(json).parse());
}

// --- Cross-layer integration: the acceptance event stream ---

/// Index of the first event of `kind` at or after `from`; npos if none.
std::size_t first_index(const std::vector<Event>& events, EventKind kind,
                        std::size_t from = 0) {
  for (std::size_t i = from; i < events.size(); ++i) {
    if (events[i].kind == kind) return i;
  }
  return std::string::npos;
}

TEST(ObsIntegration, FaultedEngineRunEmitsOrderedCrossLayerStream) {
  // One unit crashes mid-run: the stream must show a decision, a cap
  // write, the fault beginning, DPS evicting the dark unit, the fault
  // clearing, and the unit's re-admission — in that order, stamped with
  // simulated time, through one sink shared by engine, manager, RAPL, and
  // fault machinery.
  constexpr int kUnits = 6;
  constexpr Seconds kCrashAt = 60.0;
  // Asymmetric demand (one oscillating group, one quiet group) so DPS
  // reallocates caps — the first cap write — well before the fault; the
  // crash then silences unit 0 regardless of its demand phase.
  Cluster cluster({GroupSpec{square_wave(20.0, 20.0, 140.0, 60.0, 10),
                             kUnits / 2, 5},
                   GroupSpec{flat(400.0, 60.0), kUnits - kUnits / 2, 6}});
  SimulatedRapl rapl(kUnits);

  EngineConfig config;
  config.total_budget = 80.0 * kUnits;
  config.target_completions = 100;  // run to max_time
  config.max_time = 400.0;
  config.fault_plan = std::make_shared<FaultPlan>(
      std::vector<FaultEvent>{
          FaultEvent{kCrashAt, 150.0, 0, FaultKind::kUnitCrash, 1.0}},
      kUnits);
  config.obs = ObsSink::create();

  DpsManager manager;
  const auto result = SimulationEngine(config).run(cluster, rapl, manager);
  ASSERT_TRUE(config.obs.enabled());
  const auto events = config.obs.observer()->events().snapshot();
  ASSERT_FALSE(events.empty());

  const std::size_t decision = first_index(events, EventKind::kDecision);
  const std::size_t cap_write = first_index(events, EventKind::kCapWrite);
  const std::size_t fault_begin = first_index(events, EventKind::kFaultBegin);
  const std::size_t evict = first_index(events, EventKind::kEvict);
  const std::size_t fault_end = first_index(events, EventKind::kFaultEnd);
  const std::size_t readmit = first_index(events, EventKind::kReadmit);
  ASSERT_NE(decision, std::string::npos);
  ASSERT_NE(cap_write, std::string::npos);
  ASSERT_NE(fault_begin, std::string::npos);
  ASSERT_NE(evict, std::string::npos);
  ASSERT_NE(fault_end, std::string::npos);
  ASSERT_NE(readmit, std::string::npos);
  EXPECT_LT(decision, cap_write);
  EXPECT_LT(cap_write, fault_begin);
  EXPECT_LT(fault_begin, evict);
  EXPECT_LT(evict, fault_end);
  EXPECT_LT(fault_end, readmit);

  // Events carry simulated (deterministic) stamps, not wall time.
  EXPECT_DOUBLE_EQ(events[fault_begin].time, kCrashAt);
  EXPECT_STREQ(events[fault_begin].detail, "unit_crash");
  EXPECT_EQ(events[fault_begin].unit, 0);
  EXPECT_EQ(events[evict].unit, 0);
  EXPECT_EQ(events[readmit].unit, 0);
  EXPECT_GT(events[evict].time, kCrashAt);
  EXPECT_GT(events[readmit].time, events[fault_end].time);
  // Timestamps are non-decreasing throughout (kSpan events are stamped at
  // their start, which is still the step's simulated time).
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].time, events[i - 1].time) << "at event " << i;
  }

  // Every instrumented layer fed the same registry.
  const ObsSink& sink = config.obs;
  ASSERT_NE(sink.counter("engine_steps_total"), nullptr);
  EXPECT_EQ(sink.counter("engine_steps_total")->value(),
            static_cast<std::uint64_t>(result.steps));
  EXPECT_GT(sink.counter("engine_cap_writes_total")->value(), 0u);
  EXPECT_GT(sink.counter("rapl_power_reads_total")->value(), 0u);
  EXPECT_GT(sink.counter("rapl_cap_requests_total")->value(), 0u);
  EXPECT_EQ(sink.counter("faults_activated_total")->value(), 1u);
  EXPECT_EQ(sink.counter("dps_evictions_total")->value(), 1u);
  EXPECT_EQ(sink.counter("dps_readmissions_total")->value(), 1u);
  EXPECT_EQ(sink.latency_histogram("engine_decide_seconds")->count(),
            static_cast<std::uint64_t>(result.steps));

  // The whole stream exports as schema-valid Chrome trace JSON.
  const std::string trace_path = testing::TempDir() + "/obs_run_trace.json";
  write_chrome_trace_file(sink.observer()->events(), trace_path);
  std::ifstream in(trace_path);
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const JsonValue root = JsonParser(json).parse();
  EXPECT_EQ(root.at("traceEvents").array.size(), events.size());
}

TEST(ObsIntegration, ObservedRunMatchesUnobservedRun) {
  // Attaching the sink must not change the physics: same completions,
  // steps, and peak cap sum as the unobserved twin.
  const auto spec_a = square_wave(40.0, 40.0, 140.0, 60.0, 10);
  const auto spec_b = flat(300.0, 120.0);
  EngineConfig config;
  config.target_completions = 1;
  config.max_time = 2000.0;

  DpsManager plain;
  const auto unobserved = run_pair(spec_a, spec_b, plain, config, 77);
  config.obs = ObsSink::create();
  DpsManager observed_manager;
  const auto observed = run_pair(spec_a, spec_b, observed_manager, config, 77);

  EXPECT_EQ(observed.steps, unobserved.steps);
  EXPECT_DOUBLE_EQ(observed.peak_cap_sum, unobserved.peak_cap_sum);
  ASSERT_EQ(observed.completions.size(), unobserved.completions.size());
  for (std::size_t g = 0; g < observed.completions.size(); ++g) {
    EXPECT_EQ(observed.completions[g].size(), unobserved.completions[g].size());
  }
  EXPECT_GT(config.obs.observer()->events().total_pushed(), 0u);
}

TEST(ObsIntegration, TcpControlPlaneEmitsComparableStream) {
  // The live path must speak the same event taxonomy as the simulation:
  // client connects, decisions, cap writes, and a disconnect when a client
  // dies mid-session.
  constexpr int kUnits = 3;
  ControlServer server(0, kUnits);
  const ObsSink sink = ObsSink::create();
  server.set_obs(sink);

  std::vector<std::thread> clients;
  for (int u = 0; u < kUnits; ++u) {
    clients.emplace_back([&server, u] {
      Watts cap = 110.0;
      NodeClient client([&cap] { return cap * 0.5; },
                        [&cap](Watts c) { cap = c; });
      client.connect(server.port());
      if (u == 1) {
        for (int r = 0; r < 2; ++r) client.run_round();
        return;  // client 1 dies after two rounds
      }
      client.run();
    });
  }
  server.accept_all();

  ManagerContext ctx;
  ctx.num_units = kUnits;
  ctx.total_budget = 110.0 * kUnits;
  ctx.tdp = 165.0;
  ctx.min_cap = 40.0;
  ctx.dt = 1.0;
  DpsManager manager;
  server.begin_session(manager, ctx);
  for (int r = 0; r < 8; ++r) server.run_round(manager);
  server.shutdown();
  for (auto& t : clients) t.join();

  const auto events = sink.observer()->events().snapshot();
  int connects = 0, decisions = 0, cap_writes = 0, disconnects = 0;
  for (const Event& e : events) {
    switch (e.kind) {
      case EventKind::kClientConnect: ++connects; break;
      case EventKind::kDecision: ++decisions; break;
      case EventKind::kCapWrite: ++cap_writes; break;
      case EventKind::kClientDisconnect: ++disconnects; break;
      default: break;
    }
  }
  EXPECT_EQ(connects, kUnits);
  EXPECT_EQ(decisions, 8);
  EXPECT_GT(cap_writes, 0);
  EXPECT_EQ(disconnects, 1);
  // The first connect precedes the first decision.
  EXPECT_LT(first_index(events, EventKind::kClientConnect),
            first_index(events, EventKind::kDecision));

  EXPECT_EQ(sink.counter("ctrl_rounds_total")->value(), 8u);
  EXPECT_EQ(sink.counter("ctrl_client_disconnects_total")->value(), 1u);
  EXPECT_EQ(sink.counter("ctrl_set_cap_messages_total")->value() +
                sink.counter("ctrl_keep_cap_messages_total")->value(),
            server.set_cap_messages() + server.keep_cap_messages());
  EXPECT_EQ(sink.latency_histogram("ctrl_decide_seconds")->count(), 8u);
}

}  // namespace
}  // namespace dps::obs
