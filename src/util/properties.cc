#include "util/properties.h"

#include <fstream>
#include <sstream>

#include "util/string_util.h"

namespace cloudybench::util {

namespace {

// Strips a trailing comment that is not inside a quoted string.
std::string_view StripComment(std::string_view line) {
  bool in_quote = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (c == '"') in_quote = !in_quote;
    if (!in_quote && (c == '#' || c == ';')) return line.substr(0, i);
  }
  return line;
}

// Unquotes "value" -> value; leaves bare strings alone.
std::string Unquote(std::string_view v) {
  v = TrimView(v);
  if (v.size() >= 2 && v.front() == '"' && v.back() == '"') {
    return std::string(v.substr(1, v.size() - 2));
  }
  return std::string(v);
}

// Splits a bracketed or bare comma list into trimmed, unquoted elements.
std::vector<std::string> SplitList(std::string_view raw) {
  std::string_view v = TrimView(raw);
  if (!v.empty() && v.front() == '[' && v.back() == ']') {
    v = v.substr(1, v.size() - 2);
  }
  if (TrimView(v).empty()) return {};
  std::vector<std::string> out;
  for (const std::string& piece : Split(v, ',')) {
    out.push_back(Unquote(piece));
  }
  return out;
}

}  // namespace

Status Properties::ParseString(std::string_view text) {
  std::string section;
  size_t line_no = 0;
  size_t start = 0;
  while (start <= text.size()) {
    size_t nl = text.find('\n', start);
    std::string_view line = text.substr(
        start, nl == std::string_view::npos ? std::string_view::npos : nl - start);
    start = nl == std::string_view::npos ? text.size() + 1 : nl + 1;
    ++line_no;

    line = TrimView(StripComment(line));
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') {
        return Status::InvalidArgument(
            StringPrintf("line %zu: unterminated section header", line_no));
      }
      section = Trim(line.substr(1, line.size() - 2));
      if (section.empty()) {
        return Status::InvalidArgument(
            StringPrintf("line %zu: empty section name", line_no));
      }
      continue;
    }

    size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument(
          StringPrintf("line %zu: expected key=value", line_no));
    }
    std::string key = Trim(line.substr(0, eq));
    if (key.empty()) {
      return Status::InvalidArgument(
          StringPrintf("line %zu: empty key", line_no));
    }
    if (!section.empty()) key = section + "." + key;

    std::string_view raw = TrimView(line.substr(eq + 1));
    if (!raw.empty() && raw.front() == '[') {
      values_[key] = std::string(raw);  // keep bracketed text for list getters
    } else {
      values_[key] = Unquote(raw);
    }
  }
  return Status::OK();
}

Status Properties::ParseFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open config file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return ParseString(buf.str());
}

void Properties::Set(const std::string& key, std::string value) {
  values_[key] = std::move(value);
}
void Properties::SetInt(const std::string& key, int64_t value) {
  values_[key] = std::to_string(value);
}

bool Properties::Has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::string Properties::GetString(const std::string& key,
                                  const std::string& dflt) const {
  auto it = values_.find(key);
  return it == values_.end() ? dflt : it->second;
}

int64_t Properties::GetInt(const std::string& key, int64_t dflt) const {
  auto it = values_.find(key);
  if (it == values_.end()) return dflt;
  int64_t v = 0;
  CB_CHECK(ParseInt64(it->second, &v))
      << "config key '" << key << "' is not an integer: " << it->second;
  return v;
}

double Properties::GetDouble(const std::string& key, double dflt) const {
  auto it = values_.find(key);
  if (it == values_.end()) return dflt;
  double v = 0;
  CB_CHECK(ParseDouble(it->second, &v))
      << "config key '" << key << "' is not a number: " << it->second;
  return v;
}

bool Properties::GetBool(const std::string& key, bool dflt) const {
  auto it = values_.find(key);
  if (it == values_.end()) return dflt;
  bool v = false;
  CB_CHECK(ParseBool(it->second, &v))
      << "config key '" << key << "' is not a boolean: " << it->second;
  return v;
}

std::vector<int64_t> Properties::GetIntList(const std::string& key,
                                            std::vector<int64_t> dflt) const {
  auto it = values_.find(key);
  if (it == values_.end()) return dflt;
  std::vector<int64_t> out;
  for (const std::string& piece : SplitList(it->second)) {
    int64_t v = 0;
    CB_CHECK(ParseInt64(piece, &v))
        << "config key '" << key << "' has non-integer element: " << piece;
    out.push_back(v);
  }
  return out;
}

std::vector<double> Properties::GetDoubleList(const std::string& key,
                                              std::vector<double> dflt) const {
  auto it = values_.find(key);
  if (it == values_.end()) return dflt;
  std::vector<double> out;
  for (const std::string& piece : SplitList(it->second)) {
    double v = 0;
    CB_CHECK(ParseDouble(piece, &v))
        << "config key '" << key << "' has non-numeric element: " << piece;
    out.push_back(v);
  }
  return out;
}

std::vector<std::string> Properties::GetStringList(
    const std::string& key, std::vector<std::string> dflt) const {
  auto it = values_.find(key);
  if (it == values_.end()) return dflt;
  return SplitList(it->second);
}

Result<std::string> Properties::RequireString(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    return Status::NotFound("missing required config key: " + key);
  }
  return it->second;
}

Result<int64_t> Properties::RequireInt(const std::string& key) const {
  CB_ASSIGN_OR_RETURN(std::string raw, RequireString(key));
  int64_t v = 0;
  if (!ParseInt64(raw, &v)) {
    return Status::InvalidArgument("config key '" + key +
                                   "' is not an integer: " + raw);
  }
  return v;
}

std::vector<std::string> Properties::KeysWithPrefix(
    const std::string& prefix) const {
  std::vector<std::string> out;
  for (auto it = values_.lower_bound(prefix); it != values_.end(); ++it) {
    if (!StartsWith(it->first, prefix)) break;
    out.push_back(it->first);
  }
  return out;
}

}  // namespace cloudybench::util
