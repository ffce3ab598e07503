// Accumulation of sub-domain results (paper §3.2 step 4, Algorithm 2 line 6):
// every sub-domain's compressed convolution contribution is interpolated
// onto each target region and summed. By linearity of convolution the sum
// over all sub-domain contributions equals the full convolution.
//
// Sum before interpolating: trilinear interpolation is linear, and a coarse
// octree cell of rate r is r-aligned (octree.hpp), so it tiles into r-aligned
// lattice cubes whose 8 corners are stored samples. Every source sampled at
// rate r over the same cube is therefore summed first (8 corner adds per
// cube) and the cube is interpolated once per rate — instead of once per
// source. Dense cells are added straight into the tile. Tricubic stencils
// are clamped to each cell's own lattice, so tricubic cells keep the
// per-cell row (or scalar) reconstruction.
//
// Determinism: a point's sum is its dense contributions in arrival order,
// then one interpolated cube per rate in ascending rate order, each cube's
// corner sums in arrival order. None of that depends on the region or on a
// slab split, so tiled, slab-parallel and streamed accumulation of the same
// (source, cell) sequence are bit-identical.
//
// Threading contract: when a pool is supplied, accumulate_region splits the
// output region into z-slab tiles dispatched on
// ThreadPool::parallel_for_blocks, one Accumulator per tile; tiles are
// disjoint contiguous spans of the output (x-fastest layout makes z-slabs
// contiguous), so workers never share a write destination and no atomics
// are needed. Calls from inside a pool worker (e.g. the runtime service's
// accumulate tasks, SimCluster ranks) degrade to serial automatically.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/thread_pool.hpp"
#include "sampling/compressed_field.hpp"

namespace lc::core {

/// Sum of interpolated contributions over one region, fed cell by cell.
/// One instance per thread; finish() once.
class Accumulator {
 public:
  /// Accumulate onto `region` (non-empty) with reconstruction order `interp`.
  Accumulator(const Box3& region, sampling::Interpolation interp);

  /// Add one octree cell's contribution; `samples` is the cell's own payload
  /// (cell.sample_count() values). Cells that miss the region are ignored.
  void add_cell(const sampling::OctreeCell& cell,
                std::span<const double> samples);

  /// add_cell over every cell of `field` that meets the region, in octree
  /// order.
  void add(const sampling::CompressedField& field);

  /// Interpolate the pre-reduced cubes (ascending rate) and return the
  /// region's tile. The accumulator is spent afterwards.
  [[nodiscard]] RealField finish();

 private:
  /// Per-rate corner sums of the r-aligned cubes covering the region,
  /// allocated when the first cell of that rate arrives.
  struct CubeSums {
    i64 rate = 0;
    Index3 first;  ///< lattice index of the first cube (region.lo / rate)
    Grid3 count;   ///< cubes per axis
    /// corner[dx + 2·dy + 4·dz][cube], cube x-fastest over `count`.
    std::array<AlignedVector<double>, 8> corner;
    std::vector<std::uint8_t> touched;
  };

  CubeSums& cubes_for(i64 rate);
  void add_coarse_cell(const sampling::OctreeCell& cell,
                       std::span<const double> samples, const Box3& overlap);
  void interpolate(const CubeSums& cubes);

  Box3 region_;
  RealField tile_;
  sampling::CellReconstructor cells_;
  std::vector<CubeSums> rates_;  ///< ascending rate
  AlignedVector<double> xfrac_;  ///< add_cube_trilinear scratch
  std::vector<std::size_t> overlapping_;  ///< add() cell-index scratch
};

/// Sum the interpolated reconstructions of `contributions` over `region`,
/// returning a tight field covering the region. `pool` enables z-slab
/// parallel accumulation (nullptr → serial).
[[nodiscard]] RealField accumulate_region(
    const std::vector<sampling::CompressedField>& contributions,
    const Box3& region,
    sampling::Interpolation interp = sampling::Interpolation::kTrilinear,
    ThreadPool* pool = nullptr);

/// Assemble a full dense grid by accumulating every contribution everywhere
/// (test/verification path; a production run only accumulates the regions
/// it owns).
[[nodiscard]] RealField accumulate_full(
    const std::vector<sampling::CompressedField>& contributions,
    const Grid3& grid,
    sampling::Interpolation interp = sampling::Interpolation::kTrilinear,
    ThreadPool* pool = nullptr);

}  // namespace lc::core
