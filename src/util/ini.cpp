#include "util/ini.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace dps {
namespace {

std::string trim(const std::string& text) {
  const auto begin = text.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = text.find_last_not_of(" \t\r");
  return text.substr(begin, end - begin + 1);
}

std::string lower(std::string text) {
  std::transform(text.begin(), text.end(), text.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return text;
}

std::string where(const std::string& section, const std::string& key) {
  return "[" + section + "]" + (key.empty() ? "" : " " + key);
}

}  // namespace

ConfigError::ConfigError(std::string section, std::string key,
                         std::string detail, int line)
    : std::runtime_error(where(section, key) + ": " + detail +
                         (line > 0 ? " at line " + std::to_string(line)
                                   : "")),
      section_(std::move(section)),
      key_(std::move(key)),
      detail_(std::move(detail)),
      line_(line) {}

IniFile IniFile::parse(const std::string& text) {
  IniFile ini;
  std::istringstream in(text);
  std::string line;
  std::string section;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    const auto comment = line.find_first_of("#;");
    if (comment != std::string::npos) line.erase(comment);
    line = trim(line);
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') {
        throw ConfigError(section, "", "unterminated section header",
                          line_number);
      }
      section = trim(line.substr(1, line.size() - 2));
      continue;
    }

    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      throw ConfigError(section, "", "expected key = value", line_number);
    }
    const std::string key = trim(line.substr(0, eq));
    if (key.empty()) {
      throw ConfigError(section, "", "empty key", line_number);
    }
    ini.values_[{section, key}] = {trim(line.substr(eq + 1)), line_number};
  }
  return ini;
}

IniFile IniFile::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("IniFile: cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

std::optional<std::string> IniFile::get(const std::string& section,
                                        const std::string& key) const {
  const auto it = values_.find({section, key});
  if (it == values_.end()) return std::nullopt;
  return it->second.text;
}

int IniFile::line_of(const std::string& section,
                     const std::string& key) const {
  const auto it = values_.find({section, key});
  return it == values_.end() ? 0 : it->second.line;
}

bool IniFile::has_section(const std::string& section) const {
  const auto it = values_.lower_bound({section, ""});
  return it != values_.end() && it->first.first == section;
}

void ini_read(const std::string& text, double& out) {
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0' || !std::isfinite(parsed)) {
    throw std::invalid_argument("'" + text + "' is not a finite number");
  }
  out = parsed;
}

void ini_read(const std::string& text, bool& out) {
  const std::string v = lower(text);
  if (v == "true" || v == "yes" || v == "on" || v == "1") {
    out = true;
  } else if (v == "false" || v == "no" || v == "off" || v == "0") {
    out = false;
  } else {
    throw std::invalid_argument(
        "'" + text + "' is not a boolean (true/false, yes/no, on/off, 1/0)");
  }
}

void ini_read(const std::string& text, std::string& out) { out = text; }

void ini_read(const std::string& text, std::vector<std::string>& out) {
  out.clear();
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    item = trim(item);
    if (!item.empty()) out.push_back(item);
  }
}

std::string ini_write(double value) {
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

std::string ini_write(bool value) { return value ? "true" : "false"; }

std::string ini_write(const std::string& value) { return value; }

std::string ini_write(const std::vector<std::string>& value) {
  std::string text;
  for (const auto& item : value) text += (text.empty() ? "" : ",") + item;
  return text;
}

void read_section(const IniFile& ini, const IniSection& section) {
  for (const auto& [at, value] : ini.values()) {
    if (at.first != section.name) continue;
    const auto key = std::find_if(
        section.keys.begin(), section.keys.end(),
        [&](const IniKey& k) { return at.second == k.key(); });
    if (key == section.keys.end()) {
      throw ConfigError(section.name, at.second, "unknown key", value.line);
    }
    try {
      key->read(value.text);
    } catch (const std::exception& error) {
      throw ConfigError(section.name, at.second, error.what(), value.line);
    }
  }
}

void read_sections(const IniFile& ini,
                   const std::vector<IniSection>& sections) {
  for (const auto& [at, value] : ini.values()) {
    if (std::none_of(sections.begin(), sections.end(),
                     [&](const IniSection& s) { return s.name == at.first; })) {
      throw ConfigError(at.first, at.second, "unknown section", value.line);
    }
  }
  for (const auto& section : sections) read_section(ini, section);
}

std::string write_section(const IniSection& section) {
  std::string text = "[" + section.name + "]\n";
  for (const auto& key : section.keys) {
    const std::string value = key.write();
    if (value != trim(value) ||
        value.find_first_of("#;\n") != std::string::npos) {
      throw ConfigError(section.name, key.key(),
                        "'" + value + "' cannot be written as an INI value");
    }
    text += std::string(key.key()) + " = " + value + "\n";
  }
  return text;
}

bool same_values(const IniSection& a, const IniSection& b) {
  return a.name == b.name && a.keys.size() == b.keys.size() &&
         std::equal(a.keys.begin(), a.keys.end(), b.keys.begin(),
                    [](const IniKey& x, const IniKey& y) {
                      return x.same_value(y);
                    });
}

}  // namespace dps
