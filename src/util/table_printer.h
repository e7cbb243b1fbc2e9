#ifndef CLOUDYBENCH_UTIL_TABLE_PRINTER_H_
#define CLOUDYBENCH_UTIL_TABLE_PRINTER_H_

#include <string>
#include <vector>

namespace cloudybench::util {

/// Renders aligned ASCII tables for the benchmark harness so every bench
/// binary prints the same rows the paper's tables report.
///
///   TablePrinter t({"System", "RO", "RW", "WO"});
///   t.AddRow({"AWS RDS", "505538", "283350", "346174"});
///   std::cout << t.ToString();
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void AddRow(std::vector<std::string> cells);
  /// Inserts a horizontal rule before the next row.
  void AddSeparator();

  std::string ToString() const;

  /// Convenience: prints to stdout with an optional title line.
  void Print(const std::string& title = "") const;

 private:
  std::vector<std::string> headers_;
  // A row with the single sentinel cell "\x01--" renders as a separator.
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace cloudybench::util

#endif  // CLOUDYBENCH_UTIL_TABLE_PRINTER_H_
