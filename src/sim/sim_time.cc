#include "sim/sim_time.h"

#include <cstdlib>
#include <sstream>

namespace cloudybench::sim {

using util::Result;
using util::Status;

Result<SimTime> ParseDuration(std::string_view text) {
  size_t digits = 0;
  double scale = 0.0;
  if (text.size() > 2 && text.substr(text.size() - 2) == "us") {
    digits = text.size() - 2;
    scale = 1.0;
  } else if (text.size() > 2 && text.substr(text.size() - 2) == "ms") {
    digits = text.size() - 2;
    scale = 1e3;
  } else if (text.size() > 1 && text.back() == 's') {
    digits = text.size() - 1;
    scale = 1e6;
  } else {
    return Status::InvalidArgument("duration '" + std::string(text) +
                                   "' needs an s/ms/us suffix");
  }
  std::string number(text.substr(0, digits));
  char* end = nullptr;
  double value = std::strtod(number.c_str(), &end);
  if (end != number.c_str() + number.size() || number.empty()) {
    return Status::InvalidArgument("malformed duration '" + std::string(text) +
                                   "'");
  }
  if (value < 0.0) {
    return Status::InvalidArgument("negative duration '" + std::string(text) +
                                   "'");
  }
  return SimTime{static_cast<int64_t>(value * scale)};
}

std::string FormatDuration(SimTime t) {
  std::ostringstream out;
  if (t.us % 1000000 == 0) {
    out << t.us / 1000000 << "s";
  } else if (t.us % 1000 == 0) {
    out << t.us / 1000 << "ms";
  } else {
    out << t.us << "us";
  }
  return out.str();
}

}  // namespace cloudybench::sim
