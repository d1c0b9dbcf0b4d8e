// Tiny command-line flag parser for the slim tools: --key=value and
// --key value forms, with typed getters and an automatic usage dump.
#ifndef SLIM_TOOLS_FLAGS_H_
#define SLIM_TOOLS_FLAGS_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/strings.h"
#include "lsh/signature.h"

namespace slim::tools {

/// Parsed command line: --flag=value / --flag value pairs plus positionals.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        positional_.push_back(std::move(arg));
        continue;
      }
      arg = arg.substr(2);
      const size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "true";  // boolean flag
      }
    }
  }

  bool Has(const std::string& key) const { return values_.count(key) > 0; }

  std::string GetString(const std::string& key,
                        const std::string& def) const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }

  int64_t GetInt(const std::string& key, int64_t def) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return def;
    auto v = ParseInt64(it->second);
    if (!v.ok()) Fail("flag --" + key + " expects an integer");
    return *v;
  }

  double GetDouble(const std::string& key, double def) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return def;
    auto v = ParseDouble(it->second);
    if (!v.ok()) Fail("flag --" + key + " expects a number");
    return *v;
  }

  bool GetBool(const std::string& key, bool def) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return def;
    return it->second == "true" || it->second == "1" || it->second == "yes";
  }

  const std::vector<std::string>& positional() const { return positional_; }

  [[noreturn]] static void Fail(const std::string& message) {
    std::fprintf(stderr, "error: %s\n", message.c_str());
    std::exit(2);
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// Reads the --lsh_level/--lsh_step/--lsh_threshold/--lsh_buckets flags
/// with the defaults slim_link and slim_serve share. When the LSH generator
/// runs (`check`), ValidateLshConfig checks them against the history leaf
/// level first, and a bad value is a usage error.
inline LshConfig LshFlags(const Flags& flags, bool check, int leaf_level) {
  // Clamped, never wrapped: -5 buckets must not become 2^64 - 5.
  const auto get = [&](const char* key, int64_t def, int64_t lo, int64_t hi) {
    return std::clamp<int64_t>(flags.GetInt(key, def), lo, hi);
  };
  constexpr int64_t kIntMin = std::numeric_limits<int>::min();
  constexpr int64_t kIntMax = std::numeric_limits<int>::max();
  LshConfig lsh;
  lsh.signature_spatial_level =
      static_cast<int>(get("lsh_level", 10, kIntMin, kIntMax));
  lsh.temporal_step_windows =
      static_cast<int>(get("lsh_step", 8, kIntMin, kIntMax));
  lsh.similarity_threshold = flags.GetDouble("lsh_threshold", 0.5);
  lsh.num_buckets = static_cast<size_t>(
      get("lsh_buckets", 4096, 0, std::numeric_limits<int64_t>::max()));
  if (check) {
    const Status st = ValidateLshConfig(lsh, leaf_level);
    if (!st.ok()) Flags::Fail(st.message());
  }
  return lsh;
}

}  // namespace slim::tools

#endif  // SLIM_TOOLS_FLAGS_H_
