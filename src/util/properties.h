#ifndef CLOUDYBENCH_UTIL_PROPERTIES_H_
#define CLOUDYBENCH_UTIL_PROPERTIES_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace cloudybench::util {

/// Configuration store for the testbed, in the spirit of the paper's `props`
/// file and `stmt_db.toml` (§II). Parses a TOML subset:
///
///   # comment
///   [elasticity]                 ; section -> "elasticity." key prefix
///   elastic_testTime = 3
///   first_con  = 11
///   pattern    = "spike"         ; quoted or bare strings
///   slots      = [11, 88, 11]    ; arrays of scalars
///
/// Keys are case-sensitive. Later assignments override earlier ones, so a
/// user file can be layered on top of a defaults file with ParseString().
class Properties {
 public:
  Properties() = default;

  /// Parses `text` and merges it into this object.
  Status ParseString(std::string_view text);

  /// Reads and parses a file.
  Status ParseFile(const std::string& path);

  /// Programmatic assignment (same override semantics as parsing).
  void Set(const std::string& key, std::string value);
  void SetInt(const std::string& key, int64_t value);

  bool Has(const std::string& key) const;

  /// Typed getters with defaults. A present-but-malformed value is an error
  /// worth failing loudly on; use the Result variants to handle it.
  std::string GetString(const std::string& key, const std::string& dflt) const;
  int64_t GetInt(const std::string& key, int64_t dflt) const;
  double GetDouble(const std::string& key, double dflt) const;
  bool GetBool(const std::string& key, bool dflt) const;
  std::vector<int64_t> GetIntList(const std::string& key,
                                  std::vector<int64_t> dflt) const;
  std::vector<double> GetDoubleList(const std::string& key,
                                    std::vector<double> dflt) const;
  std::vector<std::string> GetStringList(
      const std::string& key, std::vector<std::string> dflt) const;

  /// Strict getters: error if missing or malformed.
  Result<std::string> RequireString(const std::string& key) const;
  Result<int64_t> RequireInt(const std::string& key) const;

  /// All keys with the given prefix (used to enumerate tenants, statements).
  std::vector<std::string> KeysWithPrefix(const std::string& prefix) const;

  size_t size() const { return values_.size(); }

 private:
  // Raw string values; arrays are stored in their bracketed text form and
  // re-parsed by the typed list getters.
  std::map<std::string, std::string> values_;
};

}  // namespace cloudybench::util

#endif  // CLOUDYBENCH_UTIL_PROPERTIES_H_
