#ifndef EAFE_CORE_FLAGS_H_
#define EAFE_CORE_FLAGS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "core/status.h"

namespace eafe {

/// Minimal command-line flag parser for the benchmark/example binaries.
/// Accepts `--name=value`, `--name value`, and bare boolean `--name`.
/// Unknown flags are an error so typos fail loudly.
class FlagParser {
 public:
  /// Declares a flag with a default; returns *this for chaining.
  FlagParser& AddString(const std::string& name, const std::string& def,
                        const std::string& help);
  /// Parse rejects a value outside the inclusive range [min, max].
  FlagParser& AddInt(const std::string& name, int64_t def,
                     const std::string& help,
                     int64_t min = std::numeric_limits<int64_t>::min(),
                     int64_t max = std::numeric_limits<int64_t>::max());
  FlagParser& AddDouble(const std::string& name, double def,
                        const std::string& help);
  FlagParser& AddBool(const std::string& name, bool def,
                      const std::string& help);

  /// Declares the standard `--threads` flag (worker-pool size for the
  /// concurrent evaluation runtime). Defaults to the hardware thread
  /// count; 1 selects the fully serial path, and values below 1 fail
  /// Parse. Callers pass GetInt("threads") to runtime::SetGlobalThreads
  /// after Parse.
  FlagParser& AddThreads();

  /// Parses argv (skipping argv[0]). On `--help`, prints usage and returns
  /// a NotFound status the caller can treat as "exit 0".
  Status Parse(int argc, char** argv);

  std::string GetString(const std::string& name) const;
  int64_t GetInt(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  bool GetBool(const std::string& name) const;

  /// Usage text assembled from the declared flags.
  std::string Usage(const std::string& program) const;

 private:
  enum class Type { kString, kInt, kDouble, kBool };
  struct Flag {
    Type type;
    std::string value;
    std::string help;
    /// Inclusive bounds of an int flag.
    int64_t min = std::numeric_limits<int64_t>::min();
    int64_t max = std::numeric_limits<int64_t>::max();
  };

  Status SetValue(const std::string& name, const std::string& value);

  std::map<std::string, Flag> flags_;
  std::vector<std::string> order_;
};

}  // namespace eafe

#endif  // EAFE_CORE_FLAGS_H_
