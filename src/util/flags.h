// Minimal command-line flag parsing for the CLI tools and benchmark
// harnesses. Supports --name=value, --name value, and bare --bool-flag;
// everything left over is a positional argument.

#ifndef INFOSHIELD_UTIL_FLAGS_H_
#define INFOSHIELD_UTIL_FLAGS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace infoshield {

class FlagParser {
 public:
  FlagParser() = default;

  // Registers a flag with a default value and help text. Returns *this
  // for chaining. Types: string, int64, double, bool.
  FlagParser& AddString(const std::string& name, std::string default_value,
                        std::string help);
  FlagParser& AddInt(const std::string& name, int64_t default_value,
                     std::string help);
  FlagParser& AddDouble(const std::string& name, double default_value,
                        std::string help);
  FlagParser& AddBool(const std::string& name, bool default_value,
                      std::string help);

  // Parses argv (skipping argv[0]); unknown flags or malformed values
  // produce an error Status. May be called once.
  Status Parse(int argc, const char* const* argv);

  // Accessors; the flag must have been registered (checked).
  const std::string& GetString(const std::string& name) const;
  int64_t GetInt(const std::string& name) const;
  double GetDouble(const std::string& name) const;
  bool GetBool(const std::string& name) const;

  const std::vector<std::string>& positional() const { return positional_; }

  // Usage text listing every flag, its type, the default it was
  // registered with (not the parsed value), and its help string.
  std::string Usage(const std::string& program_name) const;

 private:
  enum class FlagType { kString, kInt, kDouble, kBool };

  struct Flag {
    FlagType type;
    std::string help;
    std::string string_value;
    int64_t int_value = 0;
    double double_value = 0.0;
    bool bool_value = false;
    // The registered default as Usage prints it.
    std::string default_repr;
  };

  FlagParser& Register(const std::string& name, Flag flag);
  Status SetFromString(const std::string& name, const std::string& value);
  const Flag& Get(const std::string& name, FlagType expected) const;

  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace infoshield

#endif  // INFOSHIELD_UTIL_FLAGS_H_
