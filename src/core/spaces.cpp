#include "core/spaces.hpp"

#include <cmath>
#include <stdexcept>

namespace rooftune::core {

namespace {

/// Geometric grid over `octaves` doublings of `base`, each octave split
/// into `scale` steps.  At step boundaries that are whole octaves the value
/// is exact (2^j is exact in double), so scale == 1 degenerates to the
/// original power ladder; intermediate values round to the nearest integer
/// and adjacent duplicates (possible for tiny bases) collapse.
ParameterRange scaled_octaves(std::string name, std::int64_t base, int octaves,
                              int scale) {
  std::vector<std::int64_t> values;
  for (int i = 0; i <= octaves * scale; ++i) {
    const std::int64_t v = std::llround(
        static_cast<double>(base) *
        std::exp2(static_cast<double>(i) / static_cast<double>(scale)));
    if (values.empty() || values.back() != v) values.push_back(v);
  }
  return {std::move(name), std::move(values)};
}

}  // namespace

SearchSpace dgemm_initial_space() {
  SearchSpace space;
  space.add_range(ParameterRange::powers_of_two("n", 64, 4096));
  space.add_range(ParameterRange::powers_of_two("m", 64, 4096));
  space.add_range(ParameterRange::powers_of_two("k", 2, 2048));
  return space;
}

SearchSpace dgemm_narrowed_space() {
  SearchSpace space;
  space.add_range(ParameterRange::powers_of_two("n", 512, 4096));
  space.add_range(ParameterRange::powers_of_two("m", 512, 4096));
  space.add_range(ParameterRange::powers_of_two("k", 64, 2048));
  return space;
}

SearchSpace dgemm_reduced_space() {
  SearchSpace space;
  space.add_range(ParameterRange::doubling("n", 500, 4));
  space.add_range(ParameterRange::powers_of_two("m", 512, 4096));
  space.add_range(ParameterRange::powers_of_two("k", 64, 2048));
  return space;
}

SearchSpace dgemm_scaled_space(int grid_scale) {
  if (grid_scale < 1) {
    throw std::invalid_argument("dgemm_scaled_space: grid_scale must be >= 1");
  }
  SearchSpace space;
  space.add_range(scaled_octaves("n", 500, 3, grid_scale));
  space.add_range(scaled_octaves("m", 512, 3, grid_scale));
  space.add_range(scaled_octaves("k", 64, 5, grid_scale));
  return space;
}

SearchSpace dgemm_square_space() {
  SearchSpace space = dgemm_narrowed_space();
  space.add_constraint({"m==n", [](const Configuration& c) {
                          return c.at("m") == c.at("n");
                        }});
  return space;
}

SearchSpace triad_space(util::Bytes min_working_set, util::Bytes max_working_set) {
  // Working set = 3 vectors * 8 bytes * N; N doubles from the smallest value
  // whose working set is >= min up to the largest <= max.
  std::vector<std::int64_t> lengths;
  // Compared by division so that bounds near 2^64 bytes cannot overflow.
  for (std::int64_t n = 8; static_cast<std::uint64_t>(n) <= max_working_set.value / 24;
       n *= 2) {
    const std::uint64_t ws = 24ull * static_cast<std::uint64_t>(n);
    if (ws > min_working_set.value / 2) lengths.push_back(n);  // first N with ws >= min/2
  }
  SearchSpace space;
  space.add_range(ParameterRange("N", std::move(lengths)));
  return space;
}

SearchSpace triad_store_policy_space(util::Bytes min_working_set,
                                     util::Bytes max_working_set) {
  SearchSpace space = triad_space(min_working_set, max_working_set);
  space.add_range(ParameterRange("nt", {0, 1}));
  return space;
}

util::Bytes triad_working_set(const Configuration& config) {
  return util::Bytes{24ull * static_cast<std::uint64_t>(config.at("N"))};
}

SearchSpace spmv_space() {
  SearchSpace space;
  space.add_range(ParameterRange::powers_of_two("rows", 4096, 1048576));
  space.add_range(ParameterRange("format", {0, 1, 2}));
  space.add_range(ParameterRange("block", {1, 2, 4, 8}));
  return space;
}

SearchSpace stencil_space() {
  SearchSpace space;
  space.add_range(ParameterRange::powers_of_two("ti", 8, 1024));
  space.add_range(ParameterRange::powers_of_two("tj", 4, 512));
  space.add_range(ParameterRange("unroll", {1, 2, 4, 8}));
  space.add_constraint(ConstraintSpec{
      .lhs = "unroll", .op = ConstraintSpec::Op::Le, .rhs_param = "tj"});
  return space;
}

}  // namespace rooftune::core
