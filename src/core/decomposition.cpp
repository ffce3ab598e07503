#include "core/decomposition.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "common/check.hpp"

namespace lc::core {

namespace {

/// Interleave the low 21 bits of (x, y, z) into one Morton key. per-axis
/// coordinates here are sub-domain block coordinates (< 2^21 always).
std::uint64_t morton3(std::uint64_t x, std::uint64_t y, std::uint64_t z) {
  std::uint64_t key = 0;
  for (int b = 0; b < 21; ++b) {
    key |= ((x >> b) & 1u) << (3 * b);
    key |= ((y >> b) & 1u) << (3 * b + 1);
    key |= ((z >> b) & 1u) << (3 * b + 2);
  }
  return key;
}

}  // namespace

DomainDecomposition::DomainDecomposition(const Grid3& grid, i64 k)
    : grid_(grid), k_(k) {
  LC_CHECK_ARG(grid.nx == grid.ny && grid.ny == grid.nz,
               "decomposition requires a cubic grid");
  LC_CHECK_ARG(k >= 1 && k <= grid.nx, "sub-domain size outside grid");
  LC_CHECK_ARG(grid.nx % k == 0, "grid side must be divisible by k");
  const i64 per_axis = grid.nx / k;
  boxes_.reserve(static_cast<std::size_t>(per_axis * per_axis * per_axis));
  for (i64 z = 0; z < per_axis; ++z) {
    for (i64 y = 0; y < per_axis; ++y) {
      for (i64 x = 0; x < per_axis; ++x) {
        boxes_.push_back(Box3::cube_at({x * k, y * k, z * k}, k));
      }
    }
  }
  // Morton (octant-interleaved) order of the boxes: the sort key interleaves
  // the block coordinates, so consecutive positions are spatial neighbours.
  morton_order_.resize(boxes_.size());
  std::iota(morton_order_.begin(), morton_order_.end(), std::size_t{0});
  std::sort(morton_order_.begin(), morton_order_.end(),
            [&](std::size_t a, std::size_t b) {
              const Index3& la = boxes_[a].lo;
              const Index3& lb = boxes_[b].lo;
              return morton3(static_cast<std::uint64_t>(la.x / k),
                             static_cast<std::uint64_t>(la.y / k),
                             static_cast<std::uint64_t>(la.z / k)) <
                     morton3(static_cast<std::uint64_t>(lb.x / k),
                             static_cast<std::uint64_t>(lb.y / k),
                             static_cast<std::uint64_t>(lb.z / k));
            });
}

std::vector<std::size_t> DomainDecomposition::assigned_to(int rank,
                                                          int workers) const {
  LC_CHECK_ARG(workers >= 1 && rank >= 0 && rank < workers,
               "bad rank/worker count");
  // Contiguous Morton runs per rank; consecutive ranks' runs are adjacent,
  // so rank blocks (= nodes under Topology::grouped) cluster too.
  const std::size_t count = boxes_.size();
  const std::size_t p = static_cast<std::size_t>(workers);
  const std::size_t r = static_cast<std::size_t>(rank);
  const std::size_t begin = count * r / p;
  const std::size_t end = count * (r + 1) / p;
  std::vector<std::size_t> mine(
      morton_order_.begin() + static_cast<std::ptrdiff_t>(begin),
      morton_order_.begin() + static_cast<std::ptrdiff_t>(end));
  std::sort(mine.begin(), mine.end());
  return mine;
}

}  // namespace lc::core
