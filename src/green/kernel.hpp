// Convolution-kernel abstraction (paper §3.2 "Choice of convolution kernel").
//
// Kernels are evaluated in the frequency domain, bin by bin, so the slab
// pipeline can multiply spectra on the fly without ever materialising an
// N^3 kernel array — the paper's "the closed form of the Green's function
// ... can be computed on-the-fly during convolution, further reducing
// memory requirement".
#pragma once

#include <complex>
#include <memory>
#include <span>
#include <string>

#include "fft/fft3d.hpp"
#include "tensor/field.hpp"

namespace lc::green {

using cplx = std::complex<double>;

/// A scalar convolution kernel given by its DFT on an N^3 grid.
///
/// Contract: the spectrum is conjugate-symmetric on every grid it accepts,
/// eval(fft::mirror_bin(ξ, g), g) == conj(eval(ξ, g)) — the spatial kernel
/// is real. The local convolver runs the r2c/c2r half-spectrum pipeline,
/// which evaluates only the bins with x ∈ [0, nx/2] and lets c2r supply the
/// mirror half (DESIGN.md §16). A kernel whose closed form breaks the
/// symmetry (a binned Nyquist convention, a measured spectrum) must return
/// its Hermitian part (K(ξ) + conj K(mirror ξ)) / 2, which gives the same
/// real part of the convolution of any real input.
class KernelSpectrum {
 public:
  virtual ~KernelSpectrum() = default;

  /// Spectrum value at DFT bin (jx, jy, jz) of grid `g`.
  [[nodiscard]] virtual cplx eval(const Index3& bin, const Grid3& g) const = 0;

  /// Fill out[t] = eval({start.x, start.y, start.z + t}, g) for a run of
  /// bins along z. The default loops eval(); kernels whose spectrum is a
  /// table lookup or factorises per axis (Gaussian, dense) override it so
  /// the slab pipeline's per-bin multiply becomes one vectorized pass per
  /// pencil instead of nz virtual calls.
  virtual void eval_z_run(const Index3& start, const Grid3& g,
                          std::span<cplx> out) const {
    for (std::size_t t = 0; t < out.size(); ++t) {
      out[t] = eval({start.x, start.y, start.z + static_cast<i64>(t)}, g);
    }
  }

  /// Human-readable kernel name (for bench output).
  [[nodiscard]] virtual std::string name() const = 0;

  /// Identity string for resource caching (runtime::ConvolutionService):
  /// two kernels with the same cache_key are assumed interchangeable, so
  /// parameterised kernels MUST fold every parameter into the key (the
  /// default is name(), which suffices only for parameter-free kernels).
  [[nodiscard]] virtual std::string cache_key() const { return name(); }

  /// Materialise the full dense spectrum (dense baselines, tests, and the
  /// input of a DenseSpectrum).
  [[nodiscard]] ComplexField materialize(const Grid3& g) const;
};

/// Dense spectrum: a precomputed spectrum (e.g. a numerically transformed
/// kernel) behind the KernelSpectrum interface. Stores the Hermitian part
/// K_h(ξ) = (K(ξ) + conj K(mirror ξ)) / 2 of the given full spectrum on the
/// (nx/2 + 1) × ny × nz half grid — half the bytes of the full field — and
/// serves the bins past nx/2 by conjugation. A spectrum that is already
/// conjugate-symmetric is stored unchanged (to rounding).
class DenseSpectrum final : public KernelSpectrum {
 public:
  explicit DenseSpectrum(const ComplexField& spectrum,
                         std::string name = "dense");

  [[nodiscard]] cplx eval(const Index3& bin, const Grid3& g) const override;
  void eval_z_run(const Index3& start, const Grid3& g,
                  std::span<cplx> out) const override;
  [[nodiscard]] std::string name() const override { return name_; }

  /// The stored bins x ∈ [0, nx/2] of the logical grid.
  [[nodiscard]] const ComplexField& half_spectrum() const noexcept {
    return hat_;
  }

 private:
  ComplexField hat_;  // (nx/2+1) × ny × nz, x-fastest
  Grid3 full_;        // logical full grid
  std::string name_;
};

}  // namespace lc::green
