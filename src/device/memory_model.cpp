#include "device/memory_model.hpp"

#include <complex>

namespace lc::device {

namespace {

constexpr std::size_t kReal = sizeof(double);
constexpr std::size_t kComplex = sizeof(std::complex<double>);

std::size_t cube(i64 n) {
  return static_cast<std::size_t>(n) * static_cast<std::size_t>(n) *
         static_cast<std::size_t>(n);
}

std::size_t square(i64 n) {
  return static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
}

}  // namespace

std::size_t traditional_fft_bytes(i64 n) { return kReal * cube(n); }

std::size_t local_fft_slab_bytes(i64 n, i64 k) {
  return kReal * square(n) * static_cast<std::size_t>(k);
}

namespace {

/// Elements per spectral z-slice: the Hermitian half plane (nx/2+1)·N.
/// Must mirror LocalConvolver's `spec_elems` exactly (the device tests and
/// bench_table4 assert measured peak == planned actual).
std::size_t spec_plane_elems(i64 n) {
  return (static_cast<std::size_t>(n) / 2 + 1) * static_cast<std::size_t>(n);
}

/// Transform workspace: 2× the slab for the batched 2D plan, one pencil
/// batch for the z plan, and the c2r store lane's N² real plane.
std::size_t plan_workspace_bytes(const PipelinePlan& plan, i64 n) {
  return 2 * plan.slab_bytes + plan.pencil_bytes / 2 + kReal * square(n);
}

}  // namespace

std::size_t local_fft_spectrum_bytes(i64 n, i64 k) {
  return kComplex * spec_plane_elems(n) * static_cast<std::size_t>(k);
}

PipelinePlan plan_local_pipeline(i64 n, i64 k,
                                 const sampling::SamplingPolicy& policy,
                                 std::size_t batch) {
  LC_CHECK_ARG(k >= 1 && k <= n, "sub-domain size outside grid");
  const Grid3 grid = Grid3::cube(n);
  // Octree construction touches only cell metadata (no dense arrays), so
  // planning at paper-scale N (up to 8192³) is cheap.
  const sampling::Octree tree(grid, Box3::cube_at({0, 0, 0}, k), policy);

  PipelinePlan plan;
  plan.chunk_bytes = kReal * cube(k);
  plan.slab_bytes = local_fft_spectrum_bytes(n, k);
  plan.staging_bytes =
      kComplex * spec_plane_elems(n) * tree.retained_z_planes().size();
  plan.pencil_bytes = 2 * kComplex * batch * static_cast<std::size_t>(n);
  plan.payload_bytes = kReal * tree.total_samples();
  plan.metadata_bytes = tree.cells().size() * 5 * sizeof(std::int32_t);
  // cuFFT-like workspace: double-precision plans may require scratch up to
  // twice the transform size. This is the paper's "temporaries in the midst
  // of calculations" (Table 4).
  plan.workspace_bytes = plan_workspace_bytes(plan, n);
  return plan;
}

i64 planning_far_rate(i64 n, i64 k) {
  LC_CHECK_ARG(k >= 1 && n >= k, "bad (n, k)");
  std::size_t r = 2;
  while (r < static_cast<std::size_t>(n / k) && r < 128) r *= 2;
  return static_cast<i64>(r);
}

i64 max_allowable_k(i64 n, const DeviceSpec& spec, std::size_t batch) {
  i64 best = 0;
  for (i64 k = 2; k <= n; k *= 2) {
    const auto policy =
        sampling::SamplingPolicy::uniform(planning_far_rate(n, k));
    const PipelinePlan plan = plan_local_pipeline(n, k, policy, batch);
    if (plan.actual_total() <= spec.capacity_bytes) best = k;
  }
  return best;
}

}  // namespace lc::device
