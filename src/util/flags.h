// Tiny command-line flag parser for the benchmark/example binaries.
// Supports --name=value, --name value, and boolean --name / --no-name.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace acp::util {

class Flags {
 public:
  /// Parses argv; unknown flags are kept and reported by unknown_flags().
  Flags(int argc, const char* const* argv);

  std::string get_string(const std::string& name, const std::string& def) const;
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;

  bool has(const std::string& name) const { return values_.count(name) > 0; }

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags that were never read by a get_* call — useful for typo warnings.
  std::vector<std::string> unknown_flags() const;

  /// Fails fast on a flag this binary does not read: prints
  /// "error: unknown flag --X" for each, then every flag a get_* call has
  /// asked for, and exits with status 2. Call after the last get_*, before
  /// any work starts.
  void exit_on_unknown_flags() const;

  /// Validates a path-valued flag at startup so a bad output destination
  /// fails before the run instead of after it. Exits with a usage error
  /// when the flag was given without a value (a bare "--trace-out" parses
  /// as the boolean string "true") or the path cannot be opened for
  /// writing. Empty path means the flag was not given; that is fine.
  static void require_writable_path(const std::string& flag, const std::string& path);

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> read_;
  std::vector<std::string> positional_;
};

}  // namespace acp::util
