#pragma once
// Small integer/floating-point helpers shared across modules.

#include <bit>
#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace cstuner {

constexpr bool is_pow2(std::uint64_t x) { return x != 0 && (x & (x - 1)) == 0; }

/// floor(log2(x)) for x >= 1.
constexpr int ilog2(std::uint64_t x) {
  return 63 - std::countl_zero(x | 1ULL);
}

/// Smallest power of two >= x (x >= 1).
constexpr std::uint64_t next_pow2(std::uint64_t x) {
  return std::bit_ceil(x);
}

template <typename T>
constexpr T ceil_div(T a, T b) {
  return (a + b - 1) / b;
}

/// Round `a` up to a multiple of `b`.
template <typename T>
constexpr T round_up(T a, T b) {
  return ceil_div(a, b) * b;
}

template <typename T>
constexpr T clamp(T v, T lo, T hi) {
  return v < lo ? lo : (v > hi ? hi : v);
}

/// Powers of two in [1, max_value] inclusive: at most 63 values, since
/// doubling stops before it could pass max_value (or overflow int64).
inline std::vector<std::int64_t> pow2_range(std::int64_t max_value) {
  CSTUNER_CHECK(max_value >= 1);
  std::vector<std::int64_t> out{1};
  while (out.back() <= max_value / 2) out.push_back(out.back() * 2);
  return out;
}

}  // namespace cstuner
