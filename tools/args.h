#ifndef VS_TOOLS_ARGS_H_
#define VS_TOOLS_ARGS_H_

/// \file args.h
/// \brief The `--key=value` flag parser every command-line tool shares.
///
/// Arguments not starting with `--` are ignored.  A bare `--flag` parses
/// as "true"; a repeated flag keeps its last value.  Typed getters fall
/// back to the default when the flag is absent or does not parse.

#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <string>

#include "common/string_util.h"

namespace vs::tools {

class Args {
 public:
  /// Parses argv[first..argc).  Tools with a subcommand (`viewseeker
  /// serve ...`) pass first = 2 to skip it.
  Args(int argc, char** argv, int first = 1) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (!StartsWith(arg, "--")) continue;
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)] = "true";
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    }
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  int64_t GetInt(const std::string& key, int64_t fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    return ParseInt64(it->second).ValueOr(fallback);
  }

  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    return ParseDouble(it->second).ValueOr(fallback);
  }

  /// Bare flags (--no-fsync) parse as "true"; --key=false opts out.
  bool GetBool(const std::string& key, bool fallback = false) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    return it->second != "false" && it->second != "0";
  }

  /// Warns on stderr for every parsed flag not in \p known — catches typos
  /// like --fliter that would otherwise silently fall back to defaults.
  /// Returns the number of unrecognized flags.
  int WarnUnrecognized(std::initializer_list<const char*> known) const {
    int unrecognized = 0;
    for (const auto& [key, value] : values_) {
      bool found = false;
      for (const char* k : known) {
        if (key == k) {
          found = true;
          break;
        }
      }
      if (!found) {
        ++unrecognized;
        std::fprintf(stderr, "warning: unrecognized flag --%s (ignored)\n",
                     key.c_str());
      }
    }
    return unrecognized;
  }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace vs::tools

#endif  // VS_TOOLS_ARGS_H_
