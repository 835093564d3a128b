#include "util/cli.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace satdiag {

bool CliArgs::parse(int argc, const char* const* argv, std::string& error) {
  error.clear();
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    const std::size_t eq = arg.find('=');
    const std::string name = eq == std::string::npos ? arg : arg.substr(0, eq);
    if (name.empty()) {
      error = "malformed flag '" + std::string(argv[i]) + "' (empty name)";
      return false;
    }
    if (eq != std::string::npos) {
      values_[name] = arg.substr(eq + 1);
      continue;
    }
    // `--flag value`, or a bare boolean `--flag` when followed by another
    // flag / end of argv.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[name] = argv[++i];
    } else {
      values_[name] = "true";
    }
  }
  return true;
}

bool CliArgs::has(const std::string& name) const {
  queried_[name] = true;
  return values_.count(name) != 0;
}

std::string CliArgs::get_string(const std::string& name, std::string def) const {
  queried_[name] = true;
  auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

std::int64_t CliArgs::get_int(const std::string& name, std::int64_t def) const {
  queried_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& value = it->second;
  // strtoll with a null endptr silently accepted "2x" as 2 and "abc" as 0;
  // require the whole token to parse and be in range.
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(value.c_str(), &end, 10);
  if (value.empty() || end != value.c_str() + value.size() || errno == ERANGE ||
      std::isspace(static_cast<unsigned char>(value[0]))) {
    throw CliUsageError("--" + name + ": expected an integer, got '" + value +
                        "'");
  }
  return parsed;
}

double CliArgs::get_double(const std::string& name, double def) const {
  queried_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& value = it->second;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  // Full-string parse, finite result; strtod's inf/nan/hex spellings are
  // never meaningful budgets or scales, so they are rejected too.
  const bool overflowed = errno == ERANGE && std::abs(parsed) == HUGE_VAL;
  if (value.empty() || end != value.c_str() + value.size() || overflowed ||
      !std::isfinite(parsed) ||
      std::isspace(static_cast<unsigned char>(value[0])) ||
      value.find('x') != std::string::npos ||
      value.find('X') != std::string::npos) {
    throw CliUsageError("--" + name + ": expected a number, got '" + value +
                        "'");
  }
  return parsed;
}

bool CliArgs::get_bool(const std::string& name, bool def) const {
  queried_[name] = true;
  auto it = values_.find(name);
  if (it == values_.end()) return def;
  return it->second != "false" && it->second != "0";
}

std::vector<std::string> CliArgs::unused() const {
  std::vector<std::string> out;
  for (const auto& [key, value] : values_) {
    (void)value;
    if (!queried_.count(key)) out.push_back(key);
  }
  return out;
}

bool read_driver_flags(int argc, const char* const* argv, CliArgs& args,
                       const std::function<void()>& read_flags) {
  try {
    std::string error;
    if (!args.parse(argc, argv, error)) throw CliUsageError(error);
    read_flags();
    if (!args.positional().empty()) {
      throw CliUsageError("unexpected argument '" + args.positional().front() +
                          "'");
    }
    const std::vector<std::string> unused = args.unused();
    if (!unused.empty()) throw CliUsageError("unknown flag --" + unused.front());
  } catch (const CliUsageError& e) {
    std::fprintf(stderr, "%s: %s\n", argc > 0 ? argv[0] : "driver", e.what());
    return false;
  }
  return true;
}

}  // namespace satdiag
