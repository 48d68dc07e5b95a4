// The trace report's cells are appended in place (util::append_*) instead
// of going through a format string per cell; each must print exactly what
// snprintf prints for the spec the report's columns were defined with.

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/strings.hpp"

namespace rooftune::util {
namespace {

/// Doubles across the magnitudes a report shows and past them: rounding
/// ties at two and four decimals, signed zeros, huge, tiny and non-finite
/// values.
std::vector<double> cell_values() {
  std::mt19937_64 rng(0x5EED);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<double> values = {0.0,
                                -0.0,
                                0.005,
                                0.015,
                                0.125,
                                -0.125,
                                0.00005,
                                2.675,
                                1e15,
                                1e20,
                                1e300,
                                std::numeric_limits<double>::max(),
                                -std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::denorm_min(),
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN(),
                                -std::numeric_limits<double>::quiet_NaN()};
  for (int i = 0; i < 20000; ++i) {
    const double magnitude = std::pow(10.0, static_cast<int>(rng() % 24) - 8);
    values.push_back((rng() % 2 ? 1.0 : -1.0) * unit(rng) * magnitude);
  }
  for (int i = 0; i < 2000; ++i) {
    // Exact ties in binary: n/8 and n/32 at the last printed digit.
    values.push_back(static_cast<double>(rng() % 100000) / 8.0);
    values.push_back(static_cast<double>(rng() % 100000) / 32.0);
  }
  return values;
}

template <typename Append, typename Value>
void expect_cells_match(const char* spec, const std::vector<Value>& values, Append append) {
  std::size_t mismatches = 0;
  std::string first;
  for (const Value& v : values) {
    std::vector<char> expected(1024);
    if constexpr (std::is_same_v<Value, std::string>) {
      std::snprintf(expected.data(), expected.size(), spec, v.c_str());
    } else {
      std::snprintf(expected.data(), expected.size(), spec, v);
    }
    std::string got = "|";  // appends after existing text
    append(got, v);
    if (std::string_view(got).substr(1) != std::string_view(expected.data())) {
      if (mismatches++ == 0) first = std::string(expected.data()) + " vs " + got;
    }
  }
  EXPECT_EQ(mismatches, 0u) << spec << " first: " << first;
}

TEST(TraceReport, CellsMatchPrintf) {
  const std::vector<double> doubles = cell_values();
  expect_cells_match("%12.2f", doubles,
                     [](std::string& out, double v) { append_fixed(out, v, 12, 2); });
  expect_cells_match("%10.4f", doubles,
                     [](std::string& out, double v) { append_fixed(out, v, 10, 4); });

  std::mt19937_64 rng(0xCE11);
  std::vector<unsigned long long> counts = {0, 1, 9, 10, 99999, 100000, 99999999,
                                            100000000, ULLONG_MAX};
  for (int i = 0; i < 20000; ++i) counts.push_back(rng() >> (rng() % 64));
  expect_cells_match("%5llu", counts, [](std::string& out, unsigned long long v) {
    append_uint(out, v, 5);
  });
  expect_cells_match("%8llu", counts, [](std::string& out, unsigned long long v) {
    append_uint(out, v, 8);
  });

  std::vector<std::string> texts = {"", "n=500,m=512,k=64", std::string(28, 'x'),
                                    std::string(29, 'y'), "caf\xc3\xa9"};
  for (int i = 0; i < 5000; ++i) {
    std::string text(rng() % 40, ' ');
    for (char& c : text) c = static_cast<char>(' ' + rng() % 95);
    texts.push_back(text);
  }
  expect_cells_match("%-28s", texts, [](std::string& out, const std::string& v) {
    append_left(out, v, 28);
  });
  expect_cells_match("%12s", texts, [](std::string& out, const std::string& v) {
    append_right(out, v, 12);
  });
}

}  // namespace
}  // namespace rooftune::util
