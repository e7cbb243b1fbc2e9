#include "util/table_printer.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/logging.h"

namespace cloudybench::util {

namespace {
constexpr const char kSeparatorSentinel[] = "\x01--";
}

TablePrinter::TablePrinter(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  CB_CHECK(!headers_.empty());
}

void TablePrinter::AddRow(std::vector<std::string> cells) {
  CB_CHECK_EQ(cells.size(), headers_.size());
  rows_.push_back(std::move(cells));
}

void TablePrinter::AddSeparator() {
  rows_.push_back({kSeparatorSentinel});
}

std::string TablePrinter::ToString() const {
  std::vector<size_t> widths(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    if (row.size() == 1 && row[0] == kSeparatorSentinel) continue;
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto rule = [&]() {
    std::string s = "+";
    for (size_t w : widths) {
      s += std::string(w + 2, '-');
      s += "+";
    }
    s += "\n";
    return s;
  };
  auto line = [&](const std::vector<std::string>& cells) {
    std::string s = "|";
    for (size_t c = 0; c < cells.size(); ++c) {
      s += " ";
      s += cells[c];
      s += std::string(widths[c] - cells[c].size() + 1, ' ');
      s += "|";
    }
    s += "\n";
    return s;
  };

  std::string out = rule() + line(headers_) + rule();
  for (const auto& row : rows_) {
    if (row.size() == 1 && row[0] == kSeparatorSentinel) {
      out += rule();
    } else {
      out += line(row);
    }
  }
  out += rule();
  return out;
}

void TablePrinter::Print(const std::string& title) const {
  if (!title.empty()) std::printf("%s\n", title.c_str());
  std::fputs(ToString().c_str(), stdout);
}

}  // namespace cloudybench::util
