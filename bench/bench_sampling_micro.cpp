// Micro-benchmarks of the sampling substrate: octree construction,
// metadata codec, compression (gather) and reconstruction (interpolate).
//
// Modes:
//   (default)      google-benchmark suite
//   --json-probe   deterministic scalar/rows reconstruction timings and the
//                  accumulate_region ceiling, written to
//                  BENCH_sampling_micro.json for the CI perf gate
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string_view>
#include <vector>

#include "bench_json.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/accumulator.hpp"
#include "core/decomposition.hpp"
#include "sampling/compressed_field.hpp"
#include "sampling/octree.hpp"

namespace {

using namespace lc;
using namespace lc::sampling;

void BM_OctreeBuild(benchmark::State& state) {
  const i64 n = state.range(0);
  const Grid3 g = Grid3::cube(n);
  const i64 k = n / 4;
  const Box3 dom = Box3::cube_at({k, k, k}, k);
  const SamplingPolicy policy = SamplingPolicy::paper_default(k, 16, 2);
  for (auto _ : state) {
    Octree tree(g, dom, policy);
    benchmark::DoNotOptimize(tree.total_samples());
  }
}
BENCHMARK(BM_OctreeBuild)->Arg(64)->Arg(128)->Arg(512)->Arg(2048);

void BM_MetadataCodec(benchmark::State& state) {
  const Grid3 g = Grid3::cube(128);
  const Octree tree(g, Box3::cube_at({32, 32, 32}, 32),
                    SamplingPolicy::paper_default(32, 16, 2));
  for (auto _ : state) {
    const auto meta = tree.encode_metadata();
    const Octree back = Octree::decode_metadata(g, meta, tree.total_samples());
    benchmark::DoNotOptimize(back.cells().data());
  }
}
BENCHMARK(BM_MetadataCodec);

void BM_Compress(benchmark::State& state) {
  const i64 n = state.range(0);
  const Grid3 g = Grid3::cube(n);
  auto tree = std::make_shared<Octree>(
      g, Box3::cube_at({n / 4, n / 4, n / 4}, n / 4),
      SamplingPolicy::paper_default(n / 4, 16, 2));
  RealField f(g);
  SplitMix64 rng(1);
  for (auto& v : f.span()) v = rng.uniform(-1, 1);
  for (auto _ : state) {
    auto c = CompressedField::compress(f, tree);
    benchmark::DoNotOptimize(c.samples().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.size()));
}
BENCHMARK(BM_Compress)->Arg(64)->Arg(128);

void BM_Reconstruct(benchmark::State& state) {
  const i64 n = state.range(0);
  const Grid3 g = Grid3::cube(n);
  auto tree = std::make_shared<Octree>(
      g, Box3::cube_at({n / 4, n / 4, n / 4}, n / 4),
      SamplingPolicy::paper_default(n / 4, 16, 2));
  RealField f(g);
  SplitMix64 rng(2);
  for (auto& v : f.span()) v = rng.uniform(-1, 1);
  const CompressedField c = CompressedField::compress(f, tree);
  for (auto _ : state) {
    RealField out = c.reconstruct();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(g.size()));
}
BENCHMARK(BM_Reconstruct)->Arg(64)->Arg(128);

void BM_ReconstructRegion(benchmark::State& state) {
  // The accumulation inner op: reconstruct one k³ region.
  const i64 n = 128;
  const i64 k = 32;
  const Grid3 g = Grid3::cube(n);
  auto tree = std::make_shared<Octree>(
      g, Box3::cube_at({32, 32, 32}, k),
      SamplingPolicy::paper_default(k, 16, 2));
  RealField f(g);
  SplitMix64 rng(3);
  for (auto& v : f.span()) v = rng.uniform(-1, 1);
  const CompressedField c = CompressedField::compress(f, tree);
  const Box3 region = Box3::cube_at({64, 64, 64}, k);
  RealField out(region.extents());
  for (auto _ : state) {
    out.fill(0.0);
    c.reconstruct_add(out, region);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ReconstructRegion);

// ---------------------------------------------------------------------------
// --json-probe: deterministic scalar/rows reconstruction timings for the
// CI gate (same shape as bench_fft_micro's probe).

/// Best-of-runs throughput of `op` over `items` grid points.
double probe_mitems(const std::function<void()>& op, std::size_t items) {
  using clock = std::chrono::steady_clock;
  op();  // warm caches and scratch
  auto t0 = clock::now();
  op();
  double once = std::chrono::duration<double>(clock::now() - t0).count();
  const int reps = std::max(1, static_cast<int>(0.03 / std::max(once, 1e-7)));
  double best = 0.0;
  for (int run = 0; run < 3; ++run) {
    t0 = clock::now();
    for (int r = 0; r < reps; ++r) op();
    const double dt = std::chrono::duration<double>(clock::now() - t0).count();
    const double rate = static_cast<double>(items) * reps / dt / 1e6;
    best = std::max(best, rate);
  }
  return best;
}

int run_json_probe() {
  lc::bench::JsonWriter json("sampling_micro");
  json.meta("simd_backend", std::string(simd::kBackend));
  json.meta("units", "mitems_per_s");
  // "gated" marks the rows the regression checker enforces (the vectorized
  // reconstruction path); scalar rows are the informational baseline.
  json.header({"case", "n", "batch", "path", "mitems_per_s", "gated"});

  const i64 n = 128;
  const Grid3 g = Grid3::cube(n);
  auto tree = std::make_shared<Octree>(
      g, Box3::cube_at({n / 4, n / 4, n / 4}, n / 4),
      SamplingPolicy::paper_default(n / 4, 16, 2));
  RealField f(g);
  SplitMix64 rng(2);
  for (auto& v : f.span()) v = rng.uniform(-1, 1);
  const CompressedField c = CompressedField::compress(f, tree);
  const Box3 region = Box3::of(g);
  std::vector<double> out(static_cast<std::size_t>(g.size()));

  struct Case {
    const char* name;
    Interpolation interp;
  };
  for (const auto& cs : {Case{"reconstruct_trilinear", Interpolation::kTrilinear},
                         Case{"reconstruct_tricubic", Interpolation::kTricubic}}) {
    double scalar_rate = 0.0;
    const auto run_path = [&](const char* path, bool gated, auto&& op) {
      const double rate =
          probe_mitems(op, static_cast<std::size_t>(g.size()));
      char num[32];
      std::snprintf(num, sizeof(num), "%.1f", rate);
      json.row({cs.name, std::to_string(n), "1", path, num,
                gated ? "1" : "0"});
      std::printf("%-22s n=%-4lld %-7s %8.1f Mitems/s\n", cs.name,
                  static_cast<long long>(n), path, rate);
      return rate;
    };
    scalar_rate = run_path("scalar", false, [&] {
      std::fill(out.begin(), out.end(), 0.0);
      c.reconstruct_add_scalar(out, region, cs.interp);
    });
    const double rows_rate = run_path("rows", true, [&] {
      std::fill(out.begin(), out.end(), 0.0);
      c.reconstruct_add_rows(out, region, cs.interp);
    });
    std::printf("%-22s rows/scalar speedup: %.2fx\n", cs.name,
                rows_rate / scalar_rate);
  }

  // Accumulate ceiling: one owned 32³ box of the conv-flat shape (N=128,
  // k=32, far rate 8, dense halo 2, no boundary shell) summing all 64
  // sub-domain contributions. "batch" is the contribution count; items are
  // (point, contribution) pairs.
  {
    const i64 k = 32;
    const core::DomainDecomposition decomp(g, k);
    const SamplingPolicy policy = SamplingPolicy::paper_default(k, 8, 0, 2);
    std::vector<CompressedField> contributions;
    for (std::size_t d = 0; d < decomp.count(); ++d) {
      contributions.push_back(CompressedField::compress(
          f, std::make_shared<Octree>(g, decomp.subdomain(d), policy)));
    }
    const Box3 box = Box3::cube_at({32, 32, 32}, k);
    const std::size_t items = box.volume() * contributions.size();
    const double rate = probe_mitems(
        [&] {
          const RealField tile = core::accumulate_region(contributions, box);
          benchmark::DoNotOptimize(tile.data());
        },
        items);
    char num[32];
    std::snprintf(num, sizeof(num), "%.1f", rate);
    json.row({"accumulate_region", std::to_string(n),
              std::to_string(contributions.size()), "rows", num, "1"});
    std::printf("%-22s n=%-4lld %-7s %8.1f Mitems/s\n", "accumulate_region",
                static_cast<long long>(n), "rows", rate);
  }

  const std::string path = json.write();
  if (path.empty()) {
    std::fprintf(stderr, "failed to write BENCH_sampling_micro.json\n");
    return 1;
  }
  std::printf("[json] wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--json-probe") return run_json_probe();
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
