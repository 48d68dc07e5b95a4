#pragma once
// Tiny declarative command-line parser for the rooftune CLI.
//
// Supports "--name value", "--name=value", boolean "--flag", and the
// paper's short "-t <seconds>" timeout alias.  Unknown options are errors;
// positional arguments are collected in order.

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace rooftune::cli {

class ArgParser {
 public:
  /// Register a value option (with optional short alias, e.g. "t").
  void add_option(const std::string& name, const std::string& help,
                  const std::string& short_alias = "");

  /// Register a boolean flag.
  void add_flag(const std::string& name, const std::string& help);

  /// Register an option whose value is optional: bare "--name" enables it
  /// (has() turns true, the stored value is empty), "--name=0.1" or
  /// "--name 0.1" supply a value.  A following token is consumed only when
  /// it parses fully as a number, so "--name --other" never swallows the
  /// next option.
  void add_optional_value(const std::string& name, const std::string& help);

  /// Parse argv (excluding the program/subcommand name).  Throws
  /// std::invalid_argument with a message on malformed input.
  void parse(const std::vector<std::string>& args);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::optional<std::string> get(const std::string& name) const;
  [[nodiscard]] std::string get_or(const std::string& name,
                                   const std::string& fallback) const;
  /// The option's whole value as a number; a value with anything else in
  /// it (a suffix, a '+', whitespace) throws std::invalid_argument, and so
  /// does NaN for get_double.
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

  /// Usage text listing all registered options.
  [[nodiscard]] std::string help() const;

 private:
  struct Spec {
    std::string help;
    bool is_flag = false;
    std::string short_alias;
    bool optional_value = false;
  };

  std::map<std::string, Spec> specs_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// The integer option `name` (`fallback` when absent).  A value outside
/// [min, max] is refused by name ("--name must be >= min") instead of
/// wrapping or narrowing where the caller stores it.
std::int64_t int_option(const ArgParser& parser, const std::string& name,
                        std::int64_t fallback, std::int64_t min,
                        std::int64_t max = std::numeric_limits<std::int64_t>::max());

/// An integer option stored in an unsigned count: int_option from 0, so a
/// negative value never wraps to a huge cap.
std::uint64_t count_option(const ArgParser& parser, const std::string& name,
                           std::int64_t fallback);

}  // namespace rooftune::cli
