#pragma once
// Strong unit types used throughout rooftune.
//
// The benchmarking pipeline mixes quantities that are all "double" at the
// machine level — seconds, bytes, FLOP counts, GFLOP/s, GB/s — and mixing
// them up silently is a classic source of wrong speedup tables.  Each
// quantity gets a tiny strong type with only the arithmetic that makes
// dimensional sense.  The types are aggregates of one double and compile to
// nothing.

#include <cstdint>
#include <string>

namespace rooftune::util {

/// A span of time in seconds.  Virtual and wall clocks both report Seconds.
struct Seconds {
  double value{0.0};

  constexpr Seconds() = default;
  constexpr explicit Seconds(double s) : value(s) {}

  constexpr Seconds operator+(Seconds o) const { return Seconds{value + o.value}; }
  constexpr Seconds operator-(Seconds o) const { return Seconds{value - o.value}; }
  constexpr Seconds& operator+=(Seconds o) { value += o.value; return *this; }
  constexpr Seconds operator*(double f) const { return Seconds{value * f}; }
  constexpr Seconds operator/(double f) const { return Seconds{value / f}; }
  constexpr double operator/(Seconds o) const { return value / o.value; }
  constexpr auto operator<=>(const Seconds&) const = default;
};

/// A byte count (memory traffic, working-set size, buffer size).
struct Bytes {
  std::uint64_t value{0};

  constexpr Bytes() = default;
  constexpr explicit Bytes(std::uint64_t b) : value(b) {}

  constexpr Bytes operator+(Bytes o) const { return Bytes{value + o.value}; }
  constexpr Bytes operator*(std::uint64_t f) const { return Bytes{value * f}; }
  constexpr auto operator<=>(const Bytes&) const = default;

  static constexpr Bytes KiB(std::uint64_t n) { return Bytes{n * 1024ull}; }
  static constexpr Bytes MiB(std::uint64_t n) { return Bytes{n * 1024ull * 1024ull}; }
  static constexpr Bytes GiB(std::uint64_t n) { return Bytes{n * 1024ull * 1024ull * 1024ull}; }
};

/// A count of double-precision floating-point operations.
struct Flops {
  double value{0.0};

  constexpr Flops() = default;
  constexpr explicit Flops(double f) : value(f) {}

  constexpr Flops operator+(Flops o) const { return Flops{value + o.value}; }
  constexpr auto operator<=>(const Flops&) const = default;
};

/// Compute rate in GFLOP/s — the Y axis of the roofline graph.
struct GFlops {
  double value{0.0};

  constexpr GFlops() = default;
  constexpr explicit GFlops(double g) : value(g) {}
  constexpr auto operator<=>(const GFlops&) const = default;
};

/// Memory bandwidth in GB/s (decimal GB, as STREAM and vendors report it).
struct GBps {
  double value{0.0};

  constexpr GBps() = default;
  constexpr explicit GBps(double g) : value(g) {}
  constexpr auto operator<=>(const GBps&) const = default;
};

/// Operational intensity in FLOP/byte — the X axis of the roofline graph.
struct Intensity {
  double value{0.0};

  constexpr Intensity() = default;
  constexpr explicit Intensity(double i) : value(i) {}
  constexpr auto operator<=>(const Intensity&) const = default;
};

/// GFLOP/s achieved when `flops` of work took `elapsed` time.
constexpr GFlops rate(Flops flops, Seconds elapsed) {
  return GFlops{flops.value / 1e9 / elapsed.value};
}

/// GB/s achieved when `traffic` bytes moved in `elapsed` time.
constexpr GBps bandwidth(Bytes traffic, Seconds elapsed) {
  return GBps{static_cast<double>(traffic.value) / 1e9 / elapsed.value};
}

/// Operational intensity of a kernel: work over memory traffic (Eq. 1).
constexpr Intensity intensity(Flops work, Bytes traffic) {
  return Intensity{work.value / static_cast<double>(traffic.value)};
}

/// "3KiB", "768MiB", "1.5GiB", "4096" → Bytes.  Throws std::invalid_argument
/// on malformed input, and on NaN, infinity or sizes of 2^64 bytes or more.
/// Accepted suffixes: B, KiB/K, MiB/M, GiB/G (binary).
Bytes parse_bytes(const std::string& text);

/// Human-readable byte count, e.g. "768.0 MiB".
std::string format_bytes(Bytes b);

/// "12.5ms" / "3.42s" / "2m07s" style duration formatting.
std::string format_seconds(Seconds s);

}  // namespace rooftune::util
