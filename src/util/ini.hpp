#pragma once

#include <charconv>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace dps {

/// The one error type of the config layer: a malformed line, an unknown
/// section or key, a value that does not parse or fit its field, and a
/// value a config validator rejects. Carries where the problem is, so the
/// message reads "[section] key: detail at line N".
class ConfigError : public std::runtime_error {
 public:
  ConfigError(std::string section, std::string key, std::string detail,
              int line = 0);

  const std::string& section() const { return section_; }
  const std::string& key() const { return key_; }
  const std::string& detail() const { return detail_; }
  /// 1-based source line, 0 when the error did not come from a file.
  int line() const { return line_; }

 private:
  std::string section_, key_, detail_;
  int line_;
};

/// Minimal INI-style configuration parser (the C++ counterpart of the
/// paper artifact's config.py). Supports `[section]` headers, `key = value`
/// pairs, `#` / `;` comments, and blank lines. Keys outside any section go
/// into the "" section. Whitespace around keys and values is trimmed.
class IniFile {
 public:
  struct Value {
    std::string text;
    int line = 0;  // 1-based source line
  };
  /// (section, key) -> value; a repeated key keeps its last value.
  using Values = std::map<std::pair<std::string, std::string>, Value>;

  /// Parses the given text. Throws ConfigError on malformed lines.
  static IniFile parse(const std::string& text);

  /// Reads and parses a file. Throws std::runtime_error if unreadable.
  static IniFile load(const std::string& path);

  std::optional<std::string> get(const std::string& section,
                                 const std::string& key) const;
  bool has_section(const std::string& section) const;
  const Values& values() const { return values_; }

  /// 1-based line of the `key = value` pair in the parsed text, or 0 when
  /// the key is absent.
  int line_of(const std::string& section, const std::string& key) const;

  /// Runs a config validator; a ConfigError it throws is rethrown with the
  /// line of the blamed key in this file.
  template <class Validate>
  void blame_lines(Validate&& validate) const {
    try {
      validate();
    } catch (const ConfigError& error) {
      throw ConfigError(error.section(), error.key(), error.detail(),
                        line_of(error.section(), error.key()));
    }
  }

 private:
  Values values_;
};

// Value codecs: ini_read parses a value's text into a field, throwing
// std::invalid_argument when it does not parse or fit; ini_write formats a
// field so ini_read gives back the identical value. A subsystem with its
// own field type (an enum, say) adds both overloads in its namespace.

void ini_read(const std::string& text, double& out);
void ini_read(const std::string& text, bool& out);
void ini_read(const std::string& text, std::string& out);
/// Comma-separated; items are trimmed and empty items dropped.
void ini_read(const std::string& text, std::vector<std::string>& out);
/// Any integer field: rejects text that is not a base-10 integer or does
/// not fit the field's type.
template <class T>
  requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
void ini_read(const std::string& text, T& out) {
  const char* end = text.data() + text.size();
  T parsed{};
  const auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument(
        "'" + text + "' is not an integer in [" +
        std::to_string(std::numeric_limits<T>::min()) + ", " +
        std::to_string(std::numeric_limits<T>::max()) + "]");
  }
  out = parsed;
}

std::string ini_write(double value);
std::string ini_write(bool value);
std::string ini_write(const std::string& value);
std::string ini_write(const std::vector<std::string>& value);

template <class T>
  requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
std::string ini_write(T value) {
  return std::to_string(value);
}

/// One `key = value` line of a section, bound to the config field it sets.
/// Holds the field's address: the config must outlive the key.
class IniKey {
 public:
  template <class T>
  IniKey(const char* key, T& field)
      : key_(key),
        field_(&field),
        read_([](const std::string& text, void* f) {
          ini_read(text, *static_cast<T*>(f));
        }),
        write_([](const void* f) {
          return ini_write(*static_cast<const T*>(f));
        }),
        equal_([](const void* a, const void* b) {
          return *static_cast<const T*>(a) == *static_cast<const T*>(b);
        }) {}

  const char* key() const { return key_; }
  void read(const std::string& text) const { read_(text, field_); }
  std::string write() const { return write_(field_); }
  /// Same field value as `other`, a key of the same table over another
  /// config.
  bool same_value(const IniKey& other) const {
    return equal_(field_, other.field_);
  }

 private:
  const char* key_;
  void* field_;
  void (*read_)(const std::string&, void*);
  std::string (*write_)(const void*);
  bool (*equal_)(const void*, const void*);
};

/// A section's declared key table, bound to one config instance.
struct IniSection {
  std::string name;
  std::vector<IniKey> keys;
};

/// Fills the section's fields from `ini`; keys the file omits keep their
/// values. Throws ConfigError naming the section, key and line for a key
/// the table does not list and for a value that does not parse or fit.
void read_section(const IniFile& ini, const IniSection& section);

/// read_section for each of `sections`, after rejecting any section of
/// `ini` that none of them names.
void read_sections(const IniFile& ini, const std::vector<IniSection>& sections);

/// The section as INI text, every key explicit. Reading it back gives
/// every field its identical value.
std::string write_section(const IniSection& section);

/// Every field of `a` equals its counterpart in `b` (two bindings of one
/// table).
bool same_values(const IniSection& a, const IniSection& b);

}  // namespace dps
