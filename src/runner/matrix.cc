#include "runner/matrix.h"

#include "util/string_util.h"

namespace cloudybench::runner {

namespace {

/// Emits numbers-as-strings unquoted when they round-trip as plain JSON
/// numbers, so the artifact is directly loadable into pandas & friends.
bool LooksNumeric(std::string_view s) {
  double v = 0;
  return !s.empty() && util::ParseDouble(s, &v);
}

}  // namespace

std::string DefaultCellId(const CellSpec& spec) {
  return util::StringPrintf(
      "%s/sf%lld/%s/con%d/seed%llu", sut::SutName(spec.sut),
      static_cast<long long>(spec.scale_factor), spec.pattern.c_str(),
      spec.concurrency, static_cast<unsigned long long>(spec.seed));
}

void CellResult::AddText(std::string key, std::string value) {
  values.emplace_back(std::move(key), std::move(value));
}

void CellResult::AddMetric(const std::string& key, double value,
                           int precision) {
  numbers[key] = value;
  values.emplace_back(key, util::FormatDouble(value, precision));
}

std::string CellResult::Text(std::string_view key, std::string dflt) const {
  for (const auto& [k, v] : values) {
    if (k == key) return v;
  }
  return dflt;
}

double CellResult::Number(std::string_view key, double dflt) const {
  auto it = numbers.find(key);
  return it == numbers.end() ? dflt : it->second;
}

std::string ToJsonLine(const CellResult& result) {
  std::string out = "{\"cell\":\"" + util::JsonEscape(result.id) + "\"";
  out += util::StringPrintf(",\"index\":%zu", result.index);
  out += result.ok ? ",\"ok\":true" : ",\"ok\":false";
  if (!result.error.empty()) {
    out += ",\"error\":\"" + util::JsonEscape(result.error) + "\"";
  }
  out += ",\"sim_seconds\":" + util::FormatDouble(result.sim_seconds, 3);
  for (const auto& [key, value] : result.values) {
    out += ",\"" + util::JsonEscape(key) + "\":";
    if (LooksNumeric(value)) {
      out += value;
    } else {
      out += "\"" + util::JsonEscape(value) + "\"";
    }
  }
  out += "}";
  return out;
}

namespace {
/// '/' and ' ' would split a templated path ("AWS RDS/sf1/...") into
/// surprise directories; fold them to '-'.
std::string PathSafe(std::string s) {
  for (char& c : s) {
    if (c == '/' || c == ' ') c = '-';
  }
  return s;
}
}  // namespace

std::string ExpandCellTemplate(std::string_view tmpl, const CellSpec& spec,
                               size_t index) {
  std::string id = PathSafe(spec.id.empty() ? DefaultCellId(spec) : spec.id);
  std::string out;
  out.reserve(tmpl.size() + id.size());
  size_t i = 0;
  while (i < tmpl.size()) {
    if (tmpl[i] != '{') {
      out += tmpl[i++];
      continue;
    }
    size_t close = tmpl.find('}', i);
    if (close == std::string_view::npos) {
      out += tmpl.substr(i);
      break;
    }
    std::string_view name = tmpl.substr(i + 1, close - i - 1);
    if (name == "id") {
      out += id;
    } else if (name == "index") {
      out += std::to_string(index);
    } else if (name == "sut") {
      out += PathSafe(sut::SutName(spec.sut));
    } else if (name == "sf") {
      out += std::to_string(spec.scale_factor);
    } else if (name == "con") {
      out += std::to_string(spec.concurrency);
    } else if (name == "pattern") {
      out += spec.pattern;
    } else if (name == "seed") {
      out += std::to_string(spec.seed);
    } else {
      // Unknown placeholder: keep it literal so typos are visible in the
      // produced path rather than silently dropped.
      out += tmpl.substr(i, close - i + 1);
    }
    i = close + 1;
  }
  return out;
}

}  // namespace cloudybench::runner
