#include "cli/args.hpp"

#include <charconv>
#include <cmath>
#include <stdexcept>

#include "util/strings.hpp"

namespace rooftune::cli {

void ArgParser::add_option(const std::string& name, const std::string& help,
                           const std::string& short_alias) {
  specs_[name] = Spec{help, false, short_alias};
}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  specs_[name] = Spec{help, true, "", false};
}

void ArgParser::add_optional_value(const std::string& name,
                                   const std::string& help) {
  specs_[name] = Spec{help, false, "", true};
}

namespace {

/// The whole token as a number, or nullopt when any character of it is
/// not part of one (std::from_chars: no whitespace, no '+', no suffix).
template <typename T>
std::optional<T> parse_number(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end) return std::nullopt;
  return value;
}

/// Whole-token numeric test: decides whether the token after an
/// optional-value option is its value or the next option/positional.
bool numeric_token(const std::string& text) {
  return parse_number<double>(text).has_value();
}

}  // namespace

void ArgParser::parse(const std::vector<std::string>& args) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (util::starts_with(arg, "--")) {
      std::string name = arg.substr(2);
      std::string inline_value;
      bool has_inline = false;
      if (const auto eq = name.find('='); eq != std::string::npos) {
        inline_value = name.substr(eq + 1);
        name = name.substr(0, eq);
        has_inline = true;
      }
      const auto it = specs_.find(name);
      if (it == specs_.end()) throw std::invalid_argument("unknown option --" + name);
      if (it->second.is_flag) {
        if (has_inline) throw std::invalid_argument("--" + name + " takes no value");
        values_[name] = "true";
      } else if (has_inline) {
        values_[name] = inline_value;
      } else if (it->second.optional_value) {
        if (i + 1 < args.size() && numeric_token(args[i + 1])) {
          values_[name] = args[++i];
        } else {
          values_[name] = "";
        }
      } else {
        if (i + 1 >= args.size()) throw std::invalid_argument("--" + name + " needs a value");
        values_[name] = args[++i];
      }
    } else if (arg.size() >= 2 && arg[0] == '-' && arg != "-") {
      const std::string alias = arg.substr(1);
      std::string name;
      for (const auto& [n, spec] : specs_) {
        if (spec.short_alias == alias) {
          name = n;
          break;
        }
      }
      if (name.empty()) throw std::invalid_argument("unknown option -" + alias);
      if (specs_[name].is_flag) {
        values_[name] = "true";
      } else {
        if (i + 1 >= args.size()) throw std::invalid_argument("-" + alias + " needs a value");
        values_[name] = args[++i];
      }
    } else {
      positional_.push_back(arg);
    }
  }
}

bool ArgParser::has(const std::string& name) const { return values_.contains(name); }

std::optional<std::string> ArgParser::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string ArgParser::get_or(const std::string& name, const std::string& fallback) const {
  return get(name).value_or(fallback);
}

std::int64_t ArgParser::get_int(const std::string& name, std::int64_t fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  const auto value = parse_number<std::int64_t>(*v);
  if (!value) throw std::invalid_argument("--" + name + ": '" + *v + "' is not an integer");
  return *value;
}

double ArgParser::get_double(const std::string& name, double fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  if (v->empty()) return fallback;  // bare optional-value option
  const auto value = parse_number<double>(*v);
  if (!value || std::isnan(*value)) {
    throw std::invalid_argument("--" + name + ": '" + *v + "' is not a number");
  }
  return *value;
}

std::int64_t int_option(const ArgParser& parser, const std::string& name,
                        std::int64_t fallback, std::int64_t min, std::int64_t max) {
  const std::int64_t value = parser.get_int(name, fallback);
  if (value < min) {
    throw std::invalid_argument("--" + name + " must be >= " + std::to_string(min));
  }
  if (value > max) {
    throw std::invalid_argument("--" + name + " must be <= " + std::to_string(max));
  }
  return value;
}

std::uint64_t count_option(const ArgParser& parser, const std::string& name,
                           std::int64_t fallback) {
  return static_cast<std::uint64_t>(int_option(parser, name, fallback, 0));
}

std::string ArgParser::help() const {
  std::string out;
  for (const auto& [name, spec] : specs_) {
    out += "  --" + name;
    if (!spec.short_alias.empty()) out += " (-" + spec.short_alias + ")";
    if (spec.optional_value) {
      out += " [value]";
    } else if (!spec.is_flag) {
      out += " <value>";
    }
    out += "\n      " + spec.help + "\n";
  }
  return out;
}

}  // namespace rooftune::cli
