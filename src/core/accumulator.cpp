#include "core/accumulator.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/timer.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace lc::core {

Accumulator::Accumulator(const Box3& region, sampling::Interpolation interp)
    : region_(region), tile_(region.extents(), 0.0), cells_(interp) {
  LC_CHECK_ARG(!region.empty(), "empty accumulation region");
}

void Accumulator::add_cell(const sampling::OctreeCell& cell,
                           std::span<const double> samples) {
  const Box3 overlap = cell.box().intersect(region_);
  if (overlap.empty()) return;
  LC_CHECK_ARG(samples.size() == cell.sample_count(),
               "cell payload size mismatch");
  if (cell.rate == 1 ||
      cells_.interpolation() == sampling::Interpolation::kTricubic) {
    cells_.add(cell, samples, tile_.span(), region_);
    return;
  }
  add_coarse_cell(cell, samples, overlap);
}

void Accumulator::add(const sampling::CompressedField& field) {
  LC_CHECK_ARG(Box3::of(field.octree().grid()).contains(region_),
               "region outside compressed grid");
  const auto payload = field.samples();
  const auto cells = field.octree().cells();
  field.octree().cells_overlapping(region_, overlapping_);
  for (const std::size_t i : overlapping_) {
    add_cell(cells[i],
             payload.subspan(cells[i].sample_offset, cells[i].sample_count()));
  }
}

Accumulator::CubeSums& Accumulator::cubes_for(i64 rate) {
  auto it = std::find_if(rates_.begin(), rates_.end(),
                         [&](const CubeSums& c) { return c.rate >= rate; });
  if (it != rates_.end() && it->rate == rate) return *it;
  CubeSums c;
  c.rate = rate;
  c.first = {region_.lo.x / rate, region_.lo.y / rate, region_.lo.z / rate};
  c.count = {(region_.hi.x - 1) / rate - c.first.x + 1,
             (region_.hi.y - 1) / rate - c.first.y + 1,
             (region_.hi.z - 1) / rate - c.first.z + 1};
  for (auto& plane : c.corner) plane.assign(c.count.size(), 0.0);
  c.touched.assign(c.count.size(), 0);
  return *rates_.insert(it, std::move(c));
}

void Accumulator::add_coarse_cell(const sampling::OctreeCell& cell,
                                  std::span<const double> samples,
                                  const Box3& overlap) {
  const i64 r = cell.rate;
  LC_CHECK(cell.corner.x % r == 0 && cell.corner.y % r == 0 &&
               cell.corner.z % r == 0,
           "coarse octree cell is not aligned to its rate");
  CubeSums& cubes = cubes_for(r);
  const i64 e = cell.samples_per_edge();
  // Lattice intervals [i0, i1] of the cell whose cubes meet the overlap.
  const i64 ix0 = (overlap.lo.x - cell.corner.x) / r;
  const i64 ix1 = (overlap.hi.x - 1 - cell.corner.x) / r;
  const i64 iy0 = (overlap.lo.y - cell.corner.y) / r;
  const i64 iy1 = (overlap.hi.y - 1 - cell.corner.y) / r;
  const i64 iz0 = (overlap.lo.z - cell.corner.z) / r;
  const i64 iz1 = (overlap.hi.z - 1 - cell.corner.z) / r;
  const auto len = static_cast<std::size_t>(ix1 - ix0 + 1);
  const double* s = samples.data();
  for (i64 iz = iz0; iz <= iz1; ++iz) {
    for (i64 iy = iy0; iy <= iy1; ++iy) {
      const std::size_t b = cubes.count.index(
          cell.corner.x / r + ix0 - cubes.first.x,
          cell.corner.y / r + iy - cubes.first.y,
          cell.corner.z / r + iz - cubes.first.z);
      // Cube (ix, iy, iz)'s corner (dx, dy, dz) is lattice sample
      // (ix + dx, iy + dy, iz + dz): one row add per corner and cube row.
      for (int dz = 0; dz < 2; ++dz) {
        for (int dy = 0; dy < 2; ++dy) {
          const double* row =
              s + static_cast<std::size_t>(((iz + dz) * e + iy + dy) * e + ix0);
          for (int dx = 0; dx < 2; ++dx) {
            double* sum = cubes.corner[static_cast<std::size_t>(
                                           dx + 2 * dy + 4 * dz)]
                              .data() +
                          b;
            for (std::size_t i = 0; i < len; ++i) sum[i] += row[i + dx];
          }
        }
      }
      std::fill_n(cubes.touched.data() + b, len, std::uint8_t{1});
    }
  }
}

void Accumulator::interpolate(const CubeSums& cubes) {
  const i64 r = cubes.rate;
  std::array<double, 8> s{};
  std::size_t b = 0;
  for (i64 cz = 0; cz < cubes.count.nz; ++cz) {
    for (i64 cy = 0; cy < cubes.count.ny; ++cy) {
      for (i64 cx = 0; cx < cubes.count.nx; ++cx, ++b) {
        if (cubes.touched[b] == 0) continue;
        const Index3 corner{(cubes.first.x + cx) * r,
                            (cubes.first.y + cy) * r,
                            (cubes.first.z + cz) * r};
        for (std::size_t k = 0; k < 8; ++k) s[k] = cubes.corner[k][b];
        sampling::add_cube_trilinear(
            s.data(), corner, r, tile_.span(), region_,
            Box3::cube_at(corner, r).intersect(region_), xfrac_);
      }
    }
  }
}

RealField Accumulator::finish() {
  for (const CubeSums& cubes : rates_) interpolate(cubes);
  rates_.clear();
  return std::move(tile_);
}

RealField accumulate_region(
    const std::vector<sampling::CompressedField>& contributions,
    const Box3& region, sampling::Interpolation interp, ThreadPool* pool) {
  LC_TRACE("accumulate.region");
  static obs::Histogram& region_seconds =
      obs::Registry::global().histogram("accumulate.region_seconds");
  ScopedTimer region_timer(region_seconds);
  LC_CHECK_ARG(!region.empty(), "empty accumulation region");
  const auto accumulate = [&](const Box3& box) {
    Accumulator acc(box, interp);
    for (const auto& c : contributions) acc.add(c);
    return acc.finish();
  };
  const Grid3 ext = region.extents();
  const auto nz = static_cast<std::size_t>(ext.nz);
  if (pool == nullptr || pool->size() <= 1 || nz <= 1 ||
      pool->on_worker_thread()) {
    return accumulate(region);
  }

  // One z-slab of the region per task: a contiguous, exclusively-owned
  // span of `out`.
  RealField out(ext);
  const std::size_t plane =
      static_cast<std::size_t>(ext.nx) * static_cast<std::size_t>(ext.ny);
  pool->parallel_for_blocks(0, nz, [&](std::size_t zlo, std::size_t zhi) {
    LC_TRACE("accumulate.slab");
    const RealField slab = accumulate(
        {{region.lo.x, region.lo.y, region.lo.z + static_cast<i64>(zlo)},
         {region.hi.x, region.hi.y, region.lo.z + static_cast<i64>(zhi)}});
    std::copy(slab.span().begin(), slab.span().end(),
              out.span().begin() + static_cast<std::ptrdiff_t>(zlo * plane));
  });
  return out;
}

RealField accumulate_full(
    const std::vector<sampling::CompressedField>& contributions,
    const Grid3& grid, sampling::Interpolation interp, ThreadPool* pool) {
  for (const auto& c : contributions) {
    LC_CHECK_ARG(c.octree().grid() == grid, "contribution grid mismatch");
  }
  return accumulate_region(contributions, Box3::of(grid), interp, pool);
}

}  // namespace lc::core
