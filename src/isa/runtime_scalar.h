// Scalar runtime-library semantics shared verbatim by the reference
// interpreter and the VM, so the two execution paths cannot drift apart on
// pure functions. Memory-touching library functions (memmove, strlen, ...)
// live with their respective memory models.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

namespace patchecko::rt {

inline std::int64_t abs64(std::int64_t a) {
  return a < 0 ? static_cast<std::int64_t>(
                     0 - static_cast<std::uint64_t>(a))
               : a;
}

inline std::int64_t imin(std::int64_t a, std::int64_t b) {
  return a < b ? a : b;
}

inline std::int64_t imax(std::int64_t a, std::int64_t b) {
  return a > b ? a : b;
}

inline std::int64_t clamp64(std::int64_t v, std::int64_t lo,
                            std::int64_t hi) {
  return imin(imax(v, lo), hi);
}

/// sqrt with the domain error removed deterministically.
inline double fsqrt(double v) { return v <= 0.0 ? 0.0 : std::sqrt(v); }

/// pow with non-finite results collapsed to 0 so all targets agree.
inline double fpow(double a, double b) {
  const double r = std::pow(a, b);
  return std::isfinite(r) ? r : 0.0;
}

inline double ffloor(double v) { return std::floor(v); }

inline std::uint64_t byte_swap(std::uint64_t v) {
  v = ((v & 0x00ff00ff00ff00ffULL) << 8) | ((v >> 8) & 0x00ff00ff00ff00ffULL);
  v = ((v & 0x0000ffff0000ffffULL) << 16) |
      ((v >> 16) & 0x0000ffff0000ffffULL);
  return (v << 32) | (v >> 32);
}

/// Saturating signed add: overflow yields INT64_MAX / INT64_MIN.
inline std::int64_t checked_add(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  if (__builtin_add_overflow(a, b, &out))
    return b > 0 ? std::numeric_limits<std::int64_t>::max()
                 : std::numeric_limits<std::int64_t>::min();
  return out;
}

/// CRC-32 (IEEE polynomial, bitwise) step over one byte.
inline std::uint32_t crc32_step(std::uint32_t crc, std::uint8_t byte) {
  crc ^= byte;
  for (int k = 0; k < 8; ++k)
    crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
  return crc;
}

/// Wrap-around signed multiply/add/sub helpers (two's complement).
inline std::int64_t wrap_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t wrap_sub(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) -
                                   static_cast<std::uint64_t>(b));
}
inline std::int64_t wrap_mul(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) *
                                   static_cast<std::uint64_t>(b));
}

/// malloc clamps each request to [0, malloc_max] bytes. A chunk of n bytes
/// takes heap_footprint(n) of the run's heap, and the call that would take
/// the heap past heap_limit traps as out-of-bounds: a malloc loop cannot
/// grow host memory without bound. Both execution paths charge the same.
constexpr std::int64_t malloc_max = 1 << 16;
constexpr std::int64_t heap_limit = 1 << 20;
inline std::int64_t heap_footprint(std::int64_t n) {
  return n == 0 ? 64 : (n + 63) & ~std::int64_t{63};
}

/// Shift counts are masked to [0,63] so all targets agree.
inline std::int64_t wrap_shl(std::int64_t a, std::int64_t s) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a)
                                   << (static_cast<std::uint64_t>(s) & 63u));
}
inline std::int64_t wrap_shr(std::int64_t a, std::int64_t s) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) >>
                                   (static_cast<std::uint64_t>(s) & 63u));
}

}  // namespace patchecko::rt
