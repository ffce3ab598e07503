// Frequency-grid conventions shared by kernels and transforms.
#pragma once

#include <cstddef>

#include "tensor/grid.hpp"

namespace lc::fft {

/// Signed integer frequency of DFT bin j on an n-point transform:
/// j in [0, n/2] maps to j, bins above n/2 map to the negative alias j - n.
[[nodiscard]] constexpr i64 signed_frequency(i64 j, i64 n) noexcept {
  return (j <= n / 2) ? j : j - n;
}

/// DFT bin of the negated frequency: (n − j) mod n on every axis. A real
/// field's spectrum is conjugate-symmetric under this map,
/// F(mirror_bin(ξ)) = conj F(ξ).
[[nodiscard]] constexpr Index3 mirror_bin(const Index3& bin,
                                          const Grid3& g) noexcept {
  return {(g.nx - bin.x) % g.nx, (g.ny - bin.y) % g.ny,
          (g.nz - bin.z) % g.nz};
}

/// Angular frequency (radians per sample) of bin j: 2π·signed_frequency/n.
[[nodiscard]] double angular_frequency(i64 j, i64 n) noexcept;

/// 3D frequency vector of bin (jx, jy, jz) on grid g, in cycles-per-domain
/// units (each component is the signed integer frequency).
struct Freq3 {
  double x = 0.0;
  double y = 0.0;
  double z = 0.0;

  [[nodiscard]] double norm_sq() const noexcept { return x * x + y * y + z * z; }
};

[[nodiscard]] Freq3 frequency_vector(const Index3& bin, const Grid3& g) noexcept;

}  // namespace lc::fft
