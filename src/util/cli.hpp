// Tiny flag parser for the example and bench executables.
//
// Supports `--name value` and `--name=value`; unknown flags are reported so a
// typo cannot silently fall back to defaults, and numeric getters validate
// the FULL value string — `--k 2x` or `--limit abc` throw CliUsageError
// naming the flag and the offending value instead of silently running with
// garbage budgets. unused() is the flag-level half: the command layer
// (app/command.hpp) reports any flag no parser read as unknown.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace satdiag {

/// A flag value that cannot be interpreted as the requested type. Carries a
/// user-facing message like "--k: expected an integer, got '2x'"; the CLI
/// turns it into exit 2, the serve daemon into a structured "bad_request"
/// reply.
class CliUsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class CliArgs {
 public:
  /// Parses argv; returns false (and fills `error`) on malformed input
  /// (currently: a `--` flag token with an empty name, e.g. "--" or "--=v").
  bool parse(int argc, const char* const* argv, std::string& error);

  bool has(const std::string& name) const;
  std::string get_string(const std::string& name, std::string def) const;
  /// Strict base-10 integer; throws CliUsageError unless the whole value
  /// parses (optional sign, digits, in std::int64_t range).
  std::int64_t get_int(const std::string& name, std::int64_t def) const;
  /// Strict double; throws CliUsageError unless strtod consumes the whole
  /// value (inf/nan spellings are rejected — they are never valid budgets).
  double get_double(const std::string& name, double def) const;
  bool get_bool(const std::string& name, bool def) const;

  /// Flags that were parsed but never queried (typo detection for drivers).
  std::vector<std::string> unused() const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Every parsed flag with its raw value (config echo for run reports).
  /// Does not mark anything as queried.
  const std::map<std::string, std::string>& raw_values() const {
    return values_;
  }

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> queried_;
  std::vector<std::string> positional_;
};

/// The flag front end of the bench drivers, which have no command layer:
/// parses argv into `args`, then runs `read_flags`, which reads every flag
/// the driver knows. A malformed flag token, a value a getter rejects
/// (CliUsageError), a positional argument or a flag read_flags never read
/// is printed to stderr as "<argv[0]>: <problem naming the flag>" and the
/// call returns false: the driver exits 2 before doing any work.
bool read_driver_flags(int argc, const char* const* argv, CliArgs& args,
                       const std::function<void()>& read_flags);

}  // namespace satdiag
