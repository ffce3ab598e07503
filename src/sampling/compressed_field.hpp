// CompressedField: the octree-sampled representation of a convolution
// result (paper §4, "Octrees for adaptive sampling").
//
// Payload layout: samples are stored cell by cell in octree order; within a
// cell, sample (ix, iy, iz) of the (side/rate)^3 lattice is at
// sample_offset + (iz·e + iy)·e + ix with e = side/rate, x fastest —
// mirroring the dense field layout so plane-by-plane writers stream.
#pragma once

#include <memory>

#include "comm/wire_codec.hpp"
#include "common/aligned.hpp"
#include "sampling/octree.hpp"
#include "sampling/row_interp.hpp"
#include "tensor/field.hpp"

namespace lc::sampling {

/// Reconstruction order. Trilinear matches the paper's POC; tricubic
/// (Catmull-Rom) is the higher-order option the paper's future-work
/// section anticipates — noticeably lower error on smooth far fields for
/// the same sample payload (see bench_ablation_sampling).
enum class Interpolation {
  kTrilinear,
  kTricubic,
};

/// Trilinear interpolation over one lattice cube [corner, corner + rate)³
/// from its 8 corner values s[dx + 2·dy + 4·dz], added into `out` (tight
/// x-fastest storage of `region`) over `overlap`, a sub-box of the cube.
/// Each point's value depends only on s and its offset from `corner`, never
/// on `region` or `overlap`. `xfrac` is caller scratch.
void add_cube_trilinear(const double* s, const Index3& corner, i64 rate,
                        std::span<double> out, const Box3& region,
                        const Box3& overlap, AlignedVector<double>& xfrac);

/// Per-cell reconstruction: adds one octree cell's interpolated values over
/// its overlap with a region into tight x-fastest storage of that region.
/// `samples` is the cell's own payload (cell.sample_count() values, laid out
/// as in CompressedField). Holds the row engine's scratch, reused across
/// cells; one instance per thread.
class CellReconstructor {
 public:
  explicit CellReconstructor(Interpolation interp) : interp_(interp) {}

  [[nodiscard]] Interpolation interpolation() const noexcept {
    return interp_;
  }

  /// The vectorized engine: per-axis weight/index tables built once per
  /// cell overlap (row_interp.hpp), sample rows combined with SIMD fmadd
  /// kernels, whole x-rows evaluated per (rate, phase) run.
  void add_rows(const OctreeCell& cell, std::span<const double> samples,
                std::span<double> out, const Box3& region);

  /// The scalar per-point reference (one interpolation per grid point).
  void add_scalar(const OctreeCell& cell, std::span<const double> samples,
                  std::span<double> out, const Box3& region) const;

  /// add_rows, or add_scalar when the build forces LC_SIMD=off.
  void add(const OctreeCell& cell, std::span<const double> samples,
           std::span<double> out, const Box3& region) {
#if defined(LC_SIMD_SCALAR)
    add_scalar(cell, samples, out, region);
#else
    add_rows(cell, samples, out, region);
#endif
  }

 private:
  Interpolation interp_;
  // `crow` holds one y/z-combined sample row with one front and two back
  // guard elements so the 4-tap x kernel never reads out of bounds; guard
  // taps carry exact zero weights, so their (finite) contents never
  // contribute.
  detail::AxisTable xt_;
  detail::AxisTable yt_;
  detail::AxisTable zt_;
  AlignedVector<double> crow_;
  AlignedVector<double> xfrac_;
};

/// An adaptively sampled scalar field: shared octree + sample payload.
class CompressedField {
 public:
  /// Zero-initialised payload over `tree`'s sampling pattern.
  explicit CompressedField(std::shared_ptr<const Octree> tree);

  /// Sample a dense field through the octree (gathers the retained lattice).
  static CompressedField compress(const RealField& full,
                                  std::shared_ptr<const Octree> tree);

  [[nodiscard]] const Octree& octree() const noexcept { return *tree_; }
  [[nodiscard]] std::shared_ptr<const Octree> octree_ptr() const noexcept {
    return tree_;
  }
  [[nodiscard]] std::span<double> samples() noexcept {
    return {samples_.data(), samples_.size()};
  }
  [[nodiscard]] std::span<const double> samples() const noexcept {
    return {samples_.data(), samples_.size()};
  }

  /// Raw payload size in bytes (every sample as a full double — the
  /// in-memory representation, and the wire format of the off codec).
  [[nodiscard]] std::size_t sample_bytes() const noexcept {
    return samples_.size() * sizeof(double);
  }
  /// Payload size in bytes as `codec` encodes it (per-cell q16 scale
  /// headers included; wire padding happens per bundle, not per field).
  /// Equals sample_bytes() for WireCodec::kOff — the codec-aware figure
  /// comm-volume reports quote instead of hardcoding sizeof(double).
  [[nodiscard]] std::size_t encoded_sample_bytes(
      comm::WireCodec codec) const noexcept {
    return samples_.size() * comm::codec_sample_bytes(codec) +
           tree_->cells().size() * comm::codec_cell_header_bytes(codec);
  }
  /// Octree cell count (per-cell sample counts live on octree().cells()).
  [[nodiscard]] std::size_t cell_count() const noexcept {
    return tree_->cells().size();
  }
  /// Metadata size in bytes (5 int32 per cell).
  [[nodiscard]] std::size_t metadata_bytes() const noexcept {
    return tree_->cells().size() * 5 * sizeof(std::int32_t);
  }

  /// Interpolated value at grid point p (within p's cell; tricubic clamps
  /// its 4-point stencil at cell faces, degrading gracefully to lower
  /// order there).
  [[nodiscard]] double value_at(
      const Index3& p, Interpolation interp = Interpolation::kTrilinear) const;

  /// Add the interpolated reconstruction over `region` into `out`, where
  /// `out` is a tight field covering exactly `region` of the global grid.
  /// Dispatches to the vectorized row engine (reconstruct_add_rows), or to
  /// the scalar per-point reference when the build forces LC_SIMD=off.
  void reconstruct_add(RealField& out, const Box3& region,
                       Interpolation interp = Interpolation::kTrilinear) const;

  /// Raw-span variant of reconstruct_add for external tilers (the z-slab
  /// workers of core::accumulate_region): `out` is x-fastest tight storage
  /// of exactly region.volume() doubles covering `region`.
  void reconstruct_add_into(std::span<double> out, const Box3& region,
                            Interpolation interp) const;

  /// The vectorized engine (CellReconstructor::add_rows over every cell).
  void reconstruct_add_rows(std::span<double> out, const Box3& region,
                            Interpolation interp) const;

  /// The scalar per-point reference path (one interpolate_in_cell call per
  /// grid point). Kept callable in every build: it is the ground truth the
  /// row engine is property-tested against, and the default path under
  /// LC_SIMD=off.
  void reconstruct_add_scalar(std::span<double> out, const Box3& region,
                              Interpolation interp) const;

  /// Reconstruct the full grid (dense); convenience for error measurement.
  [[nodiscard]] RealField reconstruct(
      Interpolation interp = Interpolation::kTrilinear) const;

 private:
  std::shared_ptr<const Octree> tree_;
  AlignedVector<double> samples_;
};

}  // namespace lc::sampling
