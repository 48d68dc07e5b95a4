#include "core/search_space.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "util/json.hpp"
#include "util/json_parse.hpp"
#include "util/rng.hpp"

namespace rooftune::core {
namespace {

// Distinct stream tags so the sampler, the Latin-hypercube permutations and
// the dense-fallback shuffle never share a SplitMix64 stream.
constexpr std::uint64_t kSampleStream = 0x5A3D1E5ull;
constexpr std::uint64_t kLhsStream = 0x1A71C4BEull;
constexpr std::uint64_t kFallbackStream = 0xFA11BACCull;

}  // namespace

ParameterRange::ParameterRange(std::string name, std::vector<std::int64_t> values)
    : name_(std::move(name)), values_(std::move(values)) {
  if (values_.empty()) {
    throw std::invalid_argument("ParameterRange '" + name_ + "': empty value list");
  }
}

ParameterRange ParameterRange::powers_of_two(std::string name, std::int64_t lo,
                                             std::int64_t hi) {
  if (lo <= 0 || hi < lo) {
    throw std::invalid_argument("powers_of_two: need 0 < lo <= hi");
  }
  if ((lo & (lo - 1)) != 0 || (hi & (hi - 1)) != 0) {
    throw std::invalid_argument("powers_of_two: bounds must be powers of two");
  }
  std::vector<std::int64_t> values;
  for (std::int64_t v = lo; v <= hi; v *= 2) values.push_back(v);
  return ParameterRange(std::move(name), std::move(values));
}

ParameterRange ParameterRange::doubling(std::string name, std::int64_t base,
                                        std::size_t count) {
  if (base <= 0 || count == 0) {
    throw std::invalid_argument("doubling: need base > 0 and count > 0");
  }
  std::vector<std::int64_t> values;
  std::int64_t v = base;
  for (std::size_t i = 0; i < count; ++i, v *= 2) values.push_back(v);
  return ParameterRange(std::move(name), std::move(values));
}

const char* to_string(ConstraintSpec::Op op) {
  switch (op) {
    case ConstraintSpec::Op::Eq: return "==";
    case ConstraintSpec::Op::Ne: return "!=";
    case ConstraintSpec::Op::Lt: return "<";
    case ConstraintSpec::Op::Le: return "<=";
    case ConstraintSpec::Op::Gt: return ">";
    case ConstraintSpec::Op::Ge: return ">=";
  }
  return "?";
}

std::string ConstraintSpec::name() const {
  return lhs + to_string(op) +
         (rhs_param.empty() ? std::to_string(rhs_value) : rhs_param);
}

bool ConstraintSpec::holds(const Configuration& config) const {
  const std::int64_t a = config.at(lhs);
  const std::int64_t b = rhs_param.empty() ? rhs_value : config.at(rhs_param);
  switch (op) {
    case Op::Eq: return a == b;
    case Op::Ne: return a != b;
    case Op::Lt: return a < b;
    case Op::Le: return a <= b;
    case Op::Gt: return a > b;
    case Op::Ge: return a >= b;
  }
  return false;
}

std::uint64_t SearchSpace::cartesian_cardinality() const {
  std::uint64_t n = 1;
  for (const auto& r : ranges_) n *= r.size();
  return n;
}

std::uint64_t SearchSpace::cardinality() const {
  if (ranges_.empty()) return 0;
  if (!has_constraints()) return cartesian_cardinality();
  std::uint64_t n = 0;
  const std::uint64_t total = cartesian_cardinality();
  for (std::uint64_t i = 0; i < total; ++i) {
    if (admits(config_at(i))) ++n;
  }
  return n;
}

bool SearchSpace::admits(const Configuration& config) const {
  return std::all_of(constraints_.begin(), constraints_.end(),
                     [&](const Constraint& c) { return c.predicate(config); }) &&
         std::all_of(specs_.begin(), specs_.end(),
                     [&](const ConstraintSpec& s) { return s.holds(config); });
}

void SearchSpace::require_admissible(const Configuration& config) const {
  for (const auto& c : constraints_) {
    if (!c.predicate(config)) {
      throw std::invalid_argument("constraint '" + c.name + "' rejects " +
                                  config.to_string());
    }
  }
  for (const auto& s : specs_) {
    if (!s.holds(config)) {
      throw std::invalid_argument("constraint '" + s.name() + "' rejects " +
                                  config.to_string());
    }
  }
}

Configuration SearchSpace::config_at(std::uint64_t cartesian_index) const {
  if (ranges_.empty() || cartesian_index >= cartesian_cardinality()) {
    throw std::out_of_range("SearchSpace::config_at: index " +
                            std::to_string(cartesian_index) + " out of range");
  }
  // Mixed-radix decode, last range fastest (= least significant digit), so
  // index i yields exactly the i-th configuration of the enumerate() odometer.
  std::vector<Parameter> params(ranges_.size());
  std::uint64_t rest = cartesian_index;
  for (std::size_t d = ranges_.size(); d > 0; --d) {
    const auto& range = ranges_[d - 1];
    const std::uint64_t digit = rest % range.size();
    rest /= range.size();
    params[d - 1] = {range.name(), range.values()[digit]};
  }
  return Configuration(std::move(params));
}

std::uint64_t SearchSpace::index_of(const Configuration& config) const {
  std::uint64_t index = 0;
  for (const auto& range : ranges_) {
    if (!config.has(range.name())) {
      throw std::invalid_argument("SearchSpace::index_of: parameter '" +
                                  range.name() + "' missing from " +
                                  config.to_string());
    }
    const std::int64_t value = config.at(range.name());
    const auto& values = range.values();
    const auto it = std::find(values.begin(), values.end(), value);
    if (it == values.end()) {
      throw std::invalid_argument(
          "SearchSpace::index_of: value " + std::to_string(value) +
          " not in range '" + range.name() + "' for " + config.to_string());
    }
    index = index * values.size() + static_cast<std::uint64_t>(it - values.begin());
  }
  return index;
}

std::vector<Configuration> SearchSpace::enumerate() const {
  std::vector<Configuration> out;
  if (ranges_.empty()) return out;
  out.reserve(cartesian_cardinality());

  std::vector<std::size_t> idx(ranges_.size(), 0);
  for (;;) {
    std::vector<Parameter> params;
    params.reserve(ranges_.size());
    for (std::size_t d = 0; d < ranges_.size(); ++d) {
      params.push_back({ranges_[d].name(), ranges_[d].values()[idx[d]]});
    }
    Configuration config(std::move(params));
    if (admits(config)) out.push_back(std::move(config));

    // Odometer increment, last range fastest.
    std::size_t d = ranges_.size();
    while (d > 0) {
      --d;
      if (++idx[d] < ranges_[d].size()) break;
      idx[d] = 0;
      if (d == 0) return out;
    }
  }
}

std::vector<std::uint64_t> SearchSpace::admissible_indices() const {
  std::vector<std::uint64_t> out;
  if (ranges_.empty()) return out;
  const std::uint64_t total = cartesian_cardinality();
  const bool constrained = has_constraints();
  out.reserve(constrained ? 0 : total);
  for (std::uint64_t i = 0; i < total; ++i) {
    if (!constrained || admits(config_at(i))) out.push_back(i);
  }
  return out;
}

std::vector<std::uint64_t> SearchSpace::sample_indices(std::size_t count,
                                                       std::uint64_t seed) const {
  std::vector<std::uint64_t> out;
  if (ranges_.empty() || count == 0) return out;
  const std::uint64_t total = cartesian_cardinality();
  const bool constrained = has_constraints();
  std::unordered_set<std::uint64_t> seen;

  // Counter-seeded rejection: candidate j is hash(seed, j) mod |S|, a pure
  // function of (seed, j).  The modulo bias is negligible for sampling and
  // costs nothing in determinism.  The attempt cap bounds the worst case
  // (tight budgets on heavily constrained spaces) before the dense fallback.
  const std::uint64_t cap = 64 * total + 1024;
  for (std::uint64_t j = 0; j < cap && out.size() < count; ++j) {
    const std::uint64_t idx = util::hash_seed(seed, kSampleStream, j) % total;
    if (!seen.insert(idx).second) continue;
    if (constrained && !admits(config_at(idx))) continue;
    out.push_back(idx);
  }
  if (out.size() < count) {
    // Dense fallback: shuffle the admissible indices we have not yet drawn.
    auto rest = admissible_indices();
    std::erase_if(rest, [&](std::uint64_t i) { return seen.contains(i); });
    util::Xoshiro256 rng(util::hash_seed(seed, kFallbackStream));
    for (std::size_t i = rest.size(); i > 1; --i) {
      std::swap(rest[i - 1], rest[rng.below(i)]);
    }
    for (const std::uint64_t idx : rest) {
      if (out.size() == count) break;
      out.push_back(idx);
    }
  }
  return out;
}

std::vector<std::uint64_t> SearchSpace::latin_hypercube_indices(
    std::size_t count, std::uint64_t seed) const {
  std::vector<std::uint64_t> out;
  if (ranges_.empty() || count == 0) return out;

  // One seeded permutation of [0, count) per dimension; sample i takes
  // stratum perm_d[i] on axis d, mapped to the stratum-center value index.
  std::vector<std::vector<std::size_t>> perms(ranges_.size());
  for (std::size_t d = 0; d < ranges_.size(); ++d) {
    auto& perm = perms[d];
    perm.resize(count);
    for (std::size_t i = 0; i < count; ++i) perm[i] = i;
    util::Xoshiro256 rng(util::hash_seed(seed, kLhsStream, d));
    for (std::size_t i = count; i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.below(i)]);
    }
  }

  const bool constrained = has_constraints();
  std::unordered_set<std::uint64_t> seen;
  for (std::size_t i = 0; i < count; ++i) {
    std::uint64_t idx = 0;
    for (std::size_t d = 0; d < ranges_.size(); ++d) {
      const std::size_t size = ranges_[d].size();
      // Center of stratum perm[i]: floor((p + 0.5) * size / count), in
      // integer arithmetic so the mapping is exact on every platform.
      std::size_t vi = ((2 * perms[d][i] + 1) * size) / (2 * count);
      if (vi >= size) vi = size - 1;
      idx = idx * size + vi;
    }
    if (!seen.insert(idx).second) continue;
    if (constrained && !admits(config_at(idx))) continue;
    out.push_back(idx);
  }

  if (out.size() < count) {
    // Strata lost to collisions (axes shorter than count) or constraints:
    // top up from the counter-seeded sample stream, skipping what we hold.
    for (const std::uint64_t idx : sample_indices(count, seed)) {
      if (out.size() == count) break;
      if (seen.insert(idx).second) out.push_back(idx);
    }
  }
  return out;
}

std::string SearchSpace::to_json() const {
  if (!constraints_.empty()) {
    throw std::invalid_argument(
        "SearchSpace::to_json: opaque predicate constraint '" +
        constraints_.front().name +
        "' is not serializable (declare it as a ConstraintSpec)");
  }
  util::JsonWriter w;
  w.begin_object();
  w.key("params").begin_array();
  for (const auto& r : ranges_) {
    w.begin_object();
    w.key("name").value(r.name());
    w.key("values").begin_array();
    for (const std::int64_t v : r.values()) w.value(static_cast<long long>(v));
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.key("constraints").begin_array();
  for (const auto& s : specs_) {
    w.begin_object();
    w.key("lhs").value(s.lhs);
    w.key("op").value(to_string(s.op));
    if (s.rhs_param.empty()) {
      w.key("rhs").value(static_cast<long long>(s.rhs_value));
    } else {
      w.key("rhs").value(s.rhs_param);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return std::move(w).str();
}

namespace {

ConstraintSpec::Op op_from(std::string_view text) {
  if (text == "==") return ConstraintSpec::Op::Eq;
  if (text == "!=") return ConstraintSpec::Op::Ne;
  if (text == "<") return ConstraintSpec::Op::Lt;
  if (text == "<=") return ConstraintSpec::Op::Le;
  if (text == ">") return ConstraintSpec::Op::Gt;
  if (text == ">=") return ConstraintSpec::Op::Ge;
  throw std::invalid_argument("SearchSpace::from_json: unknown operator '" +
                              std::string(text) + "'");
}

}  // namespace

SearchSpace SearchSpace::from_json(const util::JsonValue& value) {
  SearchSpace space;
  for (const util::JsonValue& p : value.at("params").as_array()) {
    const auto list = p.at("values").as_array();
    std::vector<std::int64_t> values;
    values.reserve(list.size());
    for (const util::JsonValue& v : list) values.push_back(v.as_int());
    space.add_range(ParameterRange(p.at("name").as_string(), std::move(values)));
  }
  if (value.has("constraints")) {
    for (const util::JsonValue& c : value.at("constraints").as_array()) {
      ConstraintSpec spec;
      spec.lhs = c.at("lhs").as_string();
      spec.op = op_from(c.at("op").as_string());
      const util::JsonValue rhs = c.at("rhs");
      if (rhs.type() == util::JsonValue::Type::String) {
        spec.rhs_param = rhs.as_string();
      } else {
        spec.rhs_value = rhs.as_int();
      }
      space.add_constraint(std::move(spec));
    }
  }
  return space;
}

SearchSpace SearchSpace::from_json(const std::string& json) {
  util::JsonDocument parsed;
  util::parse_located<std::invalid_argument>(parsed, json,
                                             "SearchSpace::from_json: malformed JSON");
  return from_json(parsed.root());
}

const char* to_string(SearchOrder order) {
  switch (order) {
    case SearchOrder::Forward: return "forward";
    case SearchOrder::Reverse: return "reverse";
    case SearchOrder::Random: return "random";
  }
  return "?";
}

std::vector<Configuration> ordered(std::vector<Configuration> configs, SearchOrder order,
                                   std::uint64_t seed) {
  switch (order) {
    case SearchOrder::Forward:
      break;
    case SearchOrder::Reverse:
      std::reverse(configs.begin(), configs.end());
      break;
    case SearchOrder::Random: {
      util::Xoshiro256 rng(seed);
      // Fisher–Yates with our deterministic generator (std::shuffle's result
      // is implementation-defined across standard libraries).
      for (std::size_t i = configs.size(); i > 1; --i) {
        std::swap(configs[i - 1], configs[rng.below(i)]);
      }
      break;
    }
  }
  return configs;
}

SpaceView::SpaceView(const SearchSpace& space, SearchOrder order, std::uint64_t seed)
    : space_(&space) {
  if (!space.has_constraints() && order != SearchOrder::Random) {
    // Pure bijection walk: rank -> index needs no storage at all.
    lazy_ = true;
    reverse_ = (order == SearchOrder::Reverse);
    cartesian_ = space.ranges().empty() ? 0 : space.cartesian_cardinality();
    return;
  }
  indices_ = space.admissible_indices();
  if (order == SearchOrder::Reverse) {
    std::reverse(indices_.begin(), indices_.end());
  } else if (order == SearchOrder::Random) {
    // The same Fisher–Yates sequence ordered() applies to configurations:
    // the swap schedule depends only on (seed, size), so a view and the
    // materialized path visit identical configuration sequences.
    util::Xoshiro256 rng(seed);
    for (std::size_t i = indices_.size(); i > 1; --i) {
      std::swap(indices_[i - 1], indices_[rng.below(i)]);
    }
  }
}

SpaceView::SpaceView(const SearchSpace& space, std::vector<std::uint64_t> indices)
    : space_(&space), indices_(std::move(indices)) {}

std::size_t SpaceView::size() const {
  return lazy_ ? static_cast<std::size_t>(cartesian_) : indices_.size();
}

std::uint64_t SpaceView::index_at(std::size_t rank) const {
  if (rank >= size()) {
    throw std::out_of_range("SpaceView::index_at: rank " + std::to_string(rank) +
                            " out of range");
  }
  if (lazy_) {
    return reverse_ ? cartesian_ - 1 - rank : static_cast<std::uint64_t>(rank);
  }
  return indices_[rank];
}

Configuration SpaceView::at(std::size_t rank) const {
  return space_->config_at(index_at(rank));
}

}  // namespace rooftune::core
