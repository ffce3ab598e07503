// Tests for the low-communication convolution core: decomposition, local
// convolver, accumulation, the end-to-end pipeline, and hyperparameters.
//
// The central correctness property: with rate-1 (lossless) sampling the
// sum of per-sub-domain local convolutions equals the dense convolution to
// machine precision; with real compression the error stays small for
// decaying kernels and shrinks as rates shrink.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "baseline/dense.hpp"
#include "common/rng.hpp"
#include "core/decomposition.hpp"
#include "core/hyperparams.hpp"
#include "core/pipeline.hpp"
#include "device/memory_model.hpp"
#include "fft/convolution.hpp"
#include "green/gaussian.hpp"
#include "green/poisson.hpp"

namespace lc::core {
namespace {

RealField random_field(const Grid3& g, std::uint64_t seed) {
  RealField f(g);
  SplitMix64 rng(seed);
  for (auto& v : f.span()) v = rng.uniform(-1.0, 1.0);
  return f;
}

TEST(Decomposition, SplitsGridExactly) {
  const DomainDecomposition d(Grid3::cube(64), 16);
  EXPECT_EQ(d.count(), 64u);  // 4³
  std::size_t vol = 0;
  for (const auto& b : d.subdomains()) {
    EXPECT_EQ(b.extents(), Grid3::cube(16));
    vol += b.volume();
  }
  EXPECT_EQ(vol, Grid3::cube(64).size());
}

TEST(Decomposition, SingleDomainWhenKEqualsN) {
  const DomainDecomposition d(Grid3::cube(32), 32);
  EXPECT_EQ(d.count(), 1u);
  EXPECT_EQ(d.subdomain(0), Box3::of(Grid3::cube(32)));
}

TEST(Decomposition, AssignmentsCoverAllWithoutOverlap) {
  const DomainDecomposition d(Grid3::cube(64), 16);
  std::vector<int> owner(d.count(), -1);
  for (int r = 0; r < 3; ++r) {
    for (const auto i : d.assigned_to(r, 3)) {
      EXPECT_EQ(owner[i], -1);
      owner[i] = r;
    }
  }
  for (const int o : owner) EXPECT_NE(o, -1);
}

TEST(Decomposition, BlockedMortonAssignmentIsSpatiallyCompact) {
  // 64 sub-domains over 8 ranks: each rank's blocked-Morton share must be
  // one 2x2x2 octant (a 32-cube). Compactness is what makes node-grouped
  // ranks share octree cells — the locality the hierarchical exchange and
  // the planner's node-dedup model rely on.
  const DomainDecomposition d(Grid3::cube(64), 16);
  for (int r = 0; r < 8; ++r) {
    const auto mine = d.assigned_to(r, 8);
    ASSERT_EQ(mine.size(), 8u);
    Box3 hull = d.subdomain(mine.front());
    for (const auto i : mine) {
      const Box3& b = d.subdomain(i);
      hull.lo = {std::min(hull.lo.x, b.lo.x), std::min(hull.lo.y, b.lo.y),
                 std::min(hull.lo.z, b.lo.z)};
      hull.hi = {std::max(hull.hi.x, b.hi.x), std::max(hull.hi.y, b.hi.y),
                 std::max(hull.hi.z, b.hi.z)};
    }
    EXPECT_EQ(hull.extents().size(), Grid3::cube(32).size())
        << "rank " << r << " does not own a compact octant";
  }
}

TEST(Hyperparams, SubdomainDivisorsDescendAndDivide) {
  const auto divs = core::subdomain_divisors(96);
  ASSERT_FALSE(divs.empty());
  EXPECT_EQ(divs.front(), 96);
  EXPECT_EQ(divs.back(), 2);
  for (std::size_t i = 0; i + 1 < divs.size(); ++i) {
    EXPECT_GT(divs[i], divs[i + 1]);
  }
  for (const i64 k : divs) EXPECT_EQ(96 % k, 0);
}

TEST(Decomposition, RejectsIndivisibleShapes) {
  EXPECT_THROW(DomainDecomposition(Grid3::cube(64), 17), InvalidArgument);
  EXPECT_THROW(DomainDecomposition(Grid3{64, 64, 32}, 16), InvalidArgument);
  EXPECT_THROW(DomainDecomposition(Grid3::cube(64), 128), InvalidArgument);
}

// --- Local convolver ------------------------------------------------------

/// Dense oracle for one sub-domain: the chunk zero-embedded at `corner` of
/// grid `g`, convolved by baseline::dense_convolve (complex 3D FFT, real
/// part kept).
RealField dense_reference(const Grid3& g, const green::KernelSpectrum& kernel,
                          const RealField& chunk, const Index3& corner) {
  RealField padded(g, 0.0);
  padded.insert(chunk, corner);
  return baseline::dense_convolve(padded, kernel);
}

/// Every retained sample is an exact convolution value, so each must equal
/// the dense oracle at its grid point to 1e-12·max|want|.
void expect_samples_match(const sampling::CompressedField& got,
                          const RealField& want) {
  double scale = 0.0;
  for (const double v : want.span()) scale = std::max(scale, std::abs(v));
  const double tol = 1e-12 * scale;
  const Grid3& g = want.grid();
  const auto samples = got.samples();
  for (const auto& c : got.octree().cells()) {
    const i64 e = c.samples_per_edge();
    for (i64 iz = 0; iz < e; ++iz) {
      for (i64 iy = 0; iy < e; ++iy) {
        for (i64 ix = 0; ix < e; ++ix) {
          const Index3 p{(c.corner.x + ix * c.rate) % g.nx,
                         (c.corner.y + iy * c.rate) % g.ny,
                         (c.corner.z + iz * c.rate) % g.nz};
          ASSERT_NEAR(samples[c.sample_offset + c.sample_index(ix, iy, iz)],
                      want(p), tol)
              << p.str();
        }
      }
    }
  }
}

class LocalConvolverTest : public ::testing::Test {
 protected:
  static constexpr i64 kN = 32;
  Grid3 grid_ = Grid3::cube(kN);
  std::shared_ptr<green::GaussianSpectrum> kernel_ =
      std::make_shared<green::GaussianSpectrum>(grid_, 1.5);

  RealField reference(const RealField& chunk, const Index3& corner) {
    return dense_reference(grid_, *kernel_, chunk, corner);
  }
};

TEST_F(LocalConvolverTest, LosslessSamplingMatchesDenseReferenceExactly) {
  const i64 k = 8;
  const Index3 corner{8, 16, 4};
  const RealField chunk = random_field(Grid3::cube(k), 11);
  auto tree = std::make_shared<sampling::Octree>(
      grid_, Box3::cube_at(corner, k), sampling::SamplingPolicy::uniform(1));

  LocalConvolver conv(grid_, kernel_);
  const auto compressed = conv.convolve_subdomain(chunk, corner, tree);
  const RealField got = compressed.reconstruct();
  const RealField want = reference(chunk, corner);
  EXPECT_LT(max_abs_error(got.span(), want.span()), 1e-10);
}

TEST_F(LocalConvolverTest, SubdomainRegionIsExactEvenWithCompression) {
  const i64 k = 8;
  const Index3 corner{16, 8, 16};
  const Box3 dom = Box3::cube_at(corner, k);
  const RealField chunk = random_field(Grid3::cube(k), 12);
  auto tree = std::make_shared<sampling::Octree>(
      grid_, dom, sampling::SamplingPolicy::paper_default(k, 8, 0));

  LocalConvolver conv(grid_, kernel_);
  const auto compressed = conv.convolve_subdomain(chunk, corner, tree);
  const RealField want = reference(chunk, corner);
  // The sub-domain is rate-1: samples there are exact convolution values.
  for_each_point(dom, [&](const Index3& p) {
    EXPECT_NEAR(compressed.value_at(p), want(p), 1e-10) << p.str();
  });
}

TEST_F(LocalConvolverTest, CompressedApproximationIsAccurateForDecayingKernel) {
  const i64 k = 8;
  const Index3 corner{12, 12, 12};
  const RealField chunk = random_field(Grid3::cube(k), 13);
  // Halo 3: the paper tunes the sampling to its ≤3% tolerance (§5.3).
  auto tree = std::make_shared<sampling::Octree>(
      grid_, Box3::cube_at(corner, k),
      sampling::SamplingPolicy::paper_default(k, 8, 0, 3));

  LocalConvolver conv(grid_, kernel_);
  const auto compressed = conv.convolve_subdomain(chunk, corner, tree);
  const RealField got = compressed.reconstruct();
  const RealField want = reference(chunk, corner);
  EXPECT_LT(relative_l2_error(got.span(), want.span()), 0.03);
}

TEST_F(LocalConvolverTest, BatchSizeDoesNotChangeTheResult) {
  const i64 k = 8;
  const Index3 corner{0, 0, 0};
  const RealField chunk = random_field(Grid3::cube(k), 14);
  auto tree = std::make_shared<sampling::Octree>(
      grid_, Box3::cube_at(corner, k), sampling::SamplingPolicy::uniform(2));

  LocalConvolverConfig small;
  small.batch = 16;
  LocalConvolverConfig big;
  big.batch = 4096;
  const auto a = LocalConvolver(grid_, kernel_, small)
                     .convolve_subdomain(chunk, corner, tree);
  const auto b = LocalConvolver(grid_, kernel_, big)
                     .convolve_subdomain(chunk, corner, tree);
  const auto sa = a.samples();
  const auto sb = b.samples();
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_NEAR(sa[i], sb[i], 1e-12);
  }
}

TEST_F(LocalConvolverTest, SerialMatchesPooled) {
  const i64 k = 8;
  const Index3 corner{24, 0, 8};
  const RealField chunk = random_field(Grid3::cube(k), 15);
  auto tree = std::make_shared<sampling::Octree>(
      grid_, Box3::cube_at(corner, k), sampling::SamplingPolicy::uniform(4));

  LocalConvolverConfig serial;
  serial.pool = nullptr;
  const auto a =
      LocalConvolver(grid_, kernel_).convolve_subdomain(chunk, corner, tree);
  const auto b = LocalConvolver(grid_, kernel_, serial)
                     .convolve_subdomain(chunk, corner, tree);
  const auto sa = a.samples();
  const auto sb = b.samples();
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_NEAR(sa[i], sb[i], 1e-12);
  }
}

TEST_F(LocalConvolverTest, RegistersPipelineBuffersOnDevice) {
  const i64 k = 8;
  device::DeviceContext ctx(device::DeviceSpec::unlimited());
  LocalConvolverConfig cfg;
  cfg.device = &ctx;
  cfg.batch = 64;
  auto tree = std::make_shared<sampling::Octree>(
      grid_, Box3::cube_at({0, 0, 0}, k),
      sampling::SamplingPolicy::paper_default(k, 8, 0));
  const RealField chunk = random_field(Grid3::cube(k), 16);
  (void)LocalConvolver(grid_, kernel_, cfg)
      .convolve_subdomain(chunk, {0, 0, 0}, tree);
  EXPECT_EQ(ctx.used_bytes(), 0u);  // everything released
  // The memory model prices exactly what the engine registers.
  EXPECT_EQ(ctx.peak_bytes(),
            device::plan_local_pipeline(
                kN, k, sampling::SamplingPolicy::paper_default(k, 8, 0),
                cfg.batch)
                .actual_total());
}

TEST_F(LocalConvolverTest, FailsWhenDeviceTooSmall) {
  const i64 k = 8;
  device::DeviceContext ctx({"tiny", 1 << 10});
  LocalConvolverConfig cfg;
  cfg.device = &ctx;
  auto tree = std::make_shared<sampling::Octree>(
      grid_, Box3::cube_at({0, 0, 0}, k), sampling::SamplingPolicy::uniform(4));
  const RealField chunk = random_field(Grid3::cube(k), 17);
  EXPECT_THROW((void)LocalConvolver(grid_, kernel_, cfg)
                   .convolve_subdomain(chunk, {0, 0, 0}, tree),
               ResourceExhausted);
  EXPECT_EQ(ctx.used_bytes(), 0u);  // partial reservations rolled back
}

TEST_F(LocalConvolverTest, RejectsMismatchedOctree) {
  const RealField chunk = random_field(Grid3::cube(8), 18);
  auto wrong = std::make_shared<sampling::Octree>(
      grid_, Box3::cube_at({8, 8, 8}, 8), sampling::SamplingPolicy::uniform(2));
  LocalConvolver conv(grid_, kernel_);
  EXPECT_THROW((void)conv.convolve_subdomain(chunk, {0, 0, 0}, wrong),
               InvalidArgument);
}

// --- Hermitian half-spectrum pipeline ----------------------------------------

/// Six independent Gaussian channels through the default per-bin
/// apply_z_pencil path (no cross-channel mixing).
struct DiagGaussOp final : SpectralOperator {
  std::shared_ptr<const green::GaussianSpectrum> k_;
  explicit DiagGaussOp(std::shared_ptr<const green::GaussianSpectrum> k)
      : k_(std::move(k)) {}
  [[nodiscard]] std::size_t channels() const override { return 6; }
  void apply(const Index3& bin, const Grid3& g,
             std::span<cplx> values) const override {
    const cplx v = k_->eval(bin, g);
    for (auto& x : values) x *= v;
  }
  [[nodiscard]] std::string name() const override { return "diag-gauss"; }
};

TEST_F(LocalConvolverTest, RealPathMatchesComplexPathAndDenseReference) {
  const i64 k = 8;
  const Index3 corner{8, 16, 4};
  const RealField chunk = random_field(Grid3::cube(k), 31);
  auto tree = std::make_shared<sampling::Octree>(
      grid_, Box3::cube_at(corner, k), sampling::SamplingPolicy::uniform(1));
  const auto a =
      LocalConvolver(grid_, kernel_).convolve_subdomain(chunk, corner, tree);
  const RealField want = dense_reference(grid_, *kernel_, chunk, corner);
  expect_samples_match(a, want);
  EXPECT_LT(max_abs_error(a.reconstruct().span(), want.span()), 1e-10);
}

TEST(LocalConvolverReal, MatchesComplexPathAcrossGridSizes) {
  for (const i64 n : {16, 64}) {
    SCOPED_TRACE(n);
    const Grid3 g = Grid3::cube(n);
    const i64 k = 8;
    const Index3 corner{n / 2, 0, n / 4};
    auto kernel = std::make_shared<green::GaussianSpectrum>(g, 1.5);
    const RealField chunk = random_field(Grid3::cube(k), 32);
    auto tree = std::make_shared<sampling::Octree>(
        g, Box3::cube_at(corner, k), sampling::SamplingPolicy::uniform(2));
    const auto a =
        LocalConvolver(g, kernel).convolve_subdomain(chunk, corner, tree);
    expect_samples_match(a, dense_reference(g, *kernel, chunk, corner));
  }
}

TEST_F(LocalConvolverTest, RealPathHandlesPartialBatchTiles) {
  // batch=37 leaves ragged SoA tiles at every stage boundary.
  const i64 k = 8;
  const Index3 corner{24, 8, 0};
  const RealField chunk = random_field(Grid3::cube(k), 33);
  auto tree = std::make_shared<sampling::Octree>(
      grid_, Box3::cube_at(corner, k), sampling::SamplingPolicy::uniform(2));
  LocalConvolverConfig ragged;
  ragged.batch = 37;
  const auto a = LocalConvolver(grid_, kernel_, ragged)
                     .convolve_subdomain(chunk, corner, tree);
  expect_samples_match(a, dense_reference(grid_, *kernel_, chunk, corner));
}

TEST_F(LocalConvolverTest, RealPathMultiChannelMatchesComplexPath) {
  const i64 k = 8;
  const Index3 corner{0, 16, 8};
  auto op = std::make_shared<DiagGaussOp>(kernel_);
  std::vector<RealField> chunks;
  for (std::size_t c = 0; c < op->channels(); ++c) {
    chunks.push_back(random_field(Grid3::cube(k), 40 + c));
  }
  auto tree = std::make_shared<sampling::Octree>(
      grid_, Box3::cube_at(corner, k), sampling::SamplingPolicy::uniform(1));
  const auto a =
      LocalConvolver(grid_, op).convolve_channels(chunks, corner, tree);
  ASSERT_EQ(a.size(), chunks.size());
  for (std::size_t c = 0; c < a.size(); ++c) {
    SCOPED_TRACE(c);
    expect_samples_match(a[c],
                         dense_reference(grid_, *kernel_, chunks[c], corner));
  }
}

// --- End-to-end pipeline ---------------------------------------------------

TEST(LowCommPipeline, LosslessModeMatchesDenseConvolution) {
  const Grid3 g = Grid3::cube(16);
  auto kernel = std::make_shared<green::GaussianSpectrum>(g, 1.2);
  const RealField input = random_field(g, 21);

  LowCommParams params;
  params.subdomain = 8;
  params.uniform_rate = 1;  // lossless
  const LowCommConvolution engine(g, kernel, params);
  const LowCommResult result = engine.convolve(input);

  const RealField want = baseline::dense_convolve(input, *kernel);
  EXPECT_LT(max_abs_error(result.output.span(), want.span()), 1e-9);
}

TEST(LowCommPipeline, CompressedModeWithinPaperErrorTolerance) {
  const Grid3 g = Grid3::cube(32);
  auto kernel = std::make_shared<green::GaussianSpectrum>(g, 1.5);
  const RealField input = random_field(g, 22);

  LowCommParams params;
  params.subdomain = 8;
  params.far_rate = 8;
  params.dense_halo = 3;  // tuned to the paper's tolerance (§5.3)
  const LowCommConvolution engine(g, kernel, params);
  const LowCommResult result = engine.convolve(input);

  const RealField want = baseline::dense_convolve(input, *kernel);
  // Paper §5.3: approximation error ≤ 3%.
  EXPECT_LT(relative_l2_error(result.output.span(), want.span()), 0.03);
  EXPECT_GT(result.compression_ratio, 1.0);
  EXPECT_EQ(result.exchanged_bytes, result.compressed_samples * 8);
}

TEST(LowCommPipeline, ErrorDecreasesWithRate) {
  const Grid3 g = Grid3::cube(32);
  auto kernel = std::make_shared<green::GaussianSpectrum>(g, 1.5);
  const RealField input = random_field(g, 23);
  const RealField want = baseline::dense_convolve(input, *kernel);

  double prev_err = -1.0;
  for (const i64 rate : {8, 4, 2, 1}) {
    LowCommParams params;
    params.subdomain = 8;
    params.uniform_rate = rate;
    const auto result = LowCommConvolution(g, kernel, params).convolve(input);
    const double err = relative_l2_error(result.output.span(), want.span());
    if (prev_err >= 0.0) EXPECT_LE(err, prev_err + 1e-12) << rate;
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-9);  // rate 1 is exact
}

TEST(LowCommPipeline, PoissonKernelAlsoWorks) {
  // The "similar PDE solvers benefit" claim: same pipeline, Poisson kernel.
  const Grid3 g = Grid3::cube(32);
  auto kernel = std::make_shared<green::PoissonGreenSpectrum>(true);
  RealField input = random_field(g, 24);
  // Zero-mean source (Poisson solvability on the torus).
  double mean = 0.0;
  for (const auto v : input.span()) mean += v;
  mean /= static_cast<double>(g.size());
  for (auto& v : input.span()) v -= mean;

  LowCommParams params;
  params.subdomain = 8;
  params.uniform_rate = 1;
  const auto result = LowCommConvolution(g, kernel, params).convolve(input);
  const RealField want = baseline::dense_convolve(input, *kernel);
  EXPECT_LT(max_abs_error(result.output.span(), want.span()), 1e-9);
}

TEST(LowCommPipeline, DistributedMatchesSingleProcess) {
  const Grid3 g = Grid3::cube(16);
  auto kernel = std::make_shared<green::GaussianSpectrum>(g, 1.2);
  const RealField input = random_field(g, 25);

  LowCommParams params;
  params.subdomain = 8;
  params.far_rate = 4;
  params.batch = 64;
  const auto single = LowCommConvolution(g, kernel, params).convolve(input);

  comm::SimCluster cluster(4);
  const RealField dist =
      distributed_lowcomm_convolve(cluster, input, g, kernel, params);
  EXPECT_LT(max_abs_error(dist.span(), single.output.span()), 1e-10);
  // Exactly one collective round: the sparse accumulation exchange.
  EXPECT_EQ(cluster.stats().collective_rounds.load(), 1u);
}

TEST(LowCommPipeline, DistributedExchangesOnlyCompressedBytes) {
  const Grid3 g = Grid3::cube(16);
  auto kernel = std::make_shared<green::GaussianSpectrum>(g, 1.2);
  const RealField input = random_field(g, 26);

  LowCommParams params;
  params.subdomain = 8;
  params.far_rate = 4;
  params.batch = 64;
  const LowCommConvolution engine(g, kernel, params);
  std::size_t full_payload_bytes = 0;
  for (std::size_t d = 0; d < engine.decomposition().count(); ++d) {
    full_payload_bytes += engine.octree_for(d)->total_samples() * sizeof(double);
  }

  comm::SimCluster cluster(2);
  (void)distributed_lowcomm_convolve(cluster, input, g, kernel, params);
  // The personalised exchange moves exactly the needed-cell bytes, which is
  // at most one copy of every payload (2 ranks) and usually less.
  EXPECT_EQ(cluster.stats().bytes_sent.load(),
            lowcomm_exchange_bytes(engine, 2));
  EXPECT_LE(cluster.stats().bytes_sent.load(), full_payload_bytes);
}

// The streamed unpack (each received cell decoded once and handed to the
// accumulator of every owned box it overlaps) must equal, bit for bit, the
// public replay: accumulate_region per box over convolve_one fields in
// (source rank, assigned_to(source)) order — on a flat and on a grouped
// hierarchical run, with the bit-exact codec.
TEST(LowCommPipeline, MatchesPublicAccumulateBitwise) {
  const Grid3 g = Grid3::cube(32);
  auto kernel = std::make_shared<green::GaussianSpectrum>(g, 2.0);
  const RealField input = random_field(g, 27);

  LowCommParams params;
  params.subdomain = 8;
  params.far_rate = 8;
  params.boundary_band = 0;
  params.batch = 64;
  params.wire = comm::WireCodec::kOff;
  LocalConvolverConfig cfg;
  cfg.batch = params.batch;
  const LowCommConvolution engine(g, kernel, params, cfg);
  const auto& decomp = engine.decomposition();

  struct Run {
    comm::Topology topo;
    ExchangeRoute route;
  };
  for (const Run& run : {Run{comm::Topology::flat(4), ExchangeRoute::kFlat},
                         Run{comm::Topology::grouped(4, 2),
                             ExchangeRoute::kHierarchical}}) {
    const int workers = run.topo.ranks();
    std::vector<sampling::CompressedField> contributions;
    for (int src = 0; src < workers; ++src) {
      for (const std::size_t d : decomp.assigned_to(src, workers)) {
        contributions.push_back(engine.convolve_one(input, d));
      }
    }
    RealField want(g, 0.0);
    for (std::size_t d = 0; d < decomp.count(); ++d) {
      const Box3& box = decomp.subdomain(d);
      want.insert(accumulate_region(contributions, box, params.interpolation),
                  box.lo);
    }

    comm::SimCluster cluster(run.topo);
    const RealField got = distributed_lowcomm_convolve(cluster, input, g,
                                                       kernel, params,
                                                       run.route);
    ASSERT_EQ(got.span().size(), want.span().size());
    for (std::size_t i = 0; i < want.span().size(); ++i) {
      ASSERT_EQ(got.span()[i], want.span()[i])
          << run.topo.ranks() << "x" << run.topo.nodes() << " at " << i;
    }
  }
}

// --- Hyperparameters --------------------------------------------------------

TEST(Hyperparams, BatchRecommendationClampsAndGrows) {
  EXPECT_EQ(recommended_batch(64), 512u);
  EXPECT_EQ(recommended_batch(1024), 1024u);
  EXPECT_EQ(recommended_batch(100000), 32768u);
  EXPECT_GE(recommended_batch(2048), recommended_batch(256));
}

TEST(Hyperparams, BatchRecommendationBoundaries) {
  // Below the floor, at the pow2 fixpoint, and above the ceiling.
  EXPECT_EQ(recommended_batch(1), 512u);
  EXPECT_EQ(recommended_batch(512), 512u);
  EXPECT_EQ(recommended_batch(513), 1024u);   // next_pow2 rounding
  EXPECT_EQ(recommended_batch(32768), 32768u);
  EXPECT_EQ(recommended_batch(32769), 32768u);  // clamp high
}

// --- Accumulator -------------------------------------------------------------

TEST(Accumulator, SumsContributions) {
  const Grid3 g = Grid3::cube(16);
  auto tree = std::make_shared<sampling::Octree>(
      g, Box3::cube_at({0, 0, 0}, 8), sampling::SamplingPolicy::uniform(1));
  RealField ones(g, 1.0);
  RealField twos(g, 2.0);
  std::vector<sampling::CompressedField> contributions;
  contributions.push_back(sampling::CompressedField::compress(ones, tree));
  contributions.push_back(sampling::CompressedField::compress(twos, tree));
  const RealField full = accumulate_full(contributions, g);
  for (const auto v : full.span()) EXPECT_DOUBLE_EQ(v, 3.0);

  const Box3 region{{4, 4, 4}, {12, 12, 12}};
  const RealField tile = accumulate_region(contributions, region);
  EXPECT_EQ(tile.grid(), region.extents());
  for (const auto v : tile.span()) EXPECT_DOUBLE_EQ(v, 3.0);
}

// Slab-parallel accumulation is bit-identical to serial, and accumulating a
// partition of the grid region by region reproduces one accumulate_full —
// for both interpolation orders, and for a uniform r=16 policy whose coarse
// cubes the tile split cuts through (z at 7, y at 13).
TEST(Accumulator, RegionTilingMatchesFullAndParallelIsBitIdentical) {
  const Grid3 g = Grid3::cube(32);
  const RealField input = random_field(g, 17);
  ThreadPool pool(4);
  const std::vector<Box3> tiles = {
      {{0, 0, 0}, {32, 32, 7}},
      {{0, 0, 7}, {32, 13, 32}},
      {{0, 13, 7}, {32, 32, 32}},
  };
  for (const auto& policy : {sampling::SamplingPolicy::paper_default(16, 8),
                             sampling::SamplingPolicy::uniform(16)}) {
    std::vector<sampling::CompressedField> contributions;
    for (const i64 corner : {i64{0}, i64{16}}) {
      auto tree = std::make_shared<sampling::Octree>(
          g, Box3::cube_at({corner, corner, corner}, 16), policy);
      contributions.push_back(sampling::CompressedField::compress(input, tree));
    }
    for (const auto interp : {sampling::Interpolation::kTrilinear,
                              sampling::Interpolation::kTricubic}) {
      SCOPED_TRACE("far rate " + std::to_string(policy.far_rate()) +
                   (interp == sampling::Interpolation::kTricubic
                        ? " tricubic"
                        : " trilinear"));
      const RealField serial_full = accumulate_full(contributions, g, interp);
      const RealField parallel_full =
          accumulate_full(contributions, g, interp, &pool);
      for (std::size_t i = 0; i < serial_full.span().size(); ++i) {
        ASSERT_EQ(serial_full.span()[i], parallel_full.span()[i]) << i;
      }

      // Partition the grid into uneven boxes; slab-parallel
      // accumulate_region over each tile, stitched together, must equal the
      // serial full result.
      RealField stitched(g, 0.0);
      for (const Box3& tile : tiles) {
        stitched.insert(accumulate_region(contributions, tile, interp, &pool),
                        tile.lo);
      }
      for (std::size_t i = 0; i < serial_full.span().size(); ++i) {
        ASSERT_EQ(serial_full.span()[i], stitched.span()[i]) << i;
      }

      // A trilinear point's value does not depend on where its x-row
      // starts either: split at x = 13, inside a coarse cube. (The
      // tricubic per-cell row engine sums a row's scalar tail in another
      // order than its vector lanes, so only y/z splits hold there.)
      if (interp != sampling::Interpolation::kTrilinear) continue;
      RealField x_stitched(g, 0.0);
      for (const Box3& tile : {Box3{{0, 0, 0}, {13, 32, 32}},
                               Box3{{13, 0, 0}, {32, 32, 32}}}) {
        x_stitched.insert(accumulate_region(contributions, tile, interp),
                          tile.lo);
      }
      for (std::size_t i = 0; i < serial_full.span().size(); ++i) {
        ASSERT_EQ(serial_full.span()[i], x_stitched.span()[i]) << i;
      }
    }
  }
}

/// Contributions over a 64³ grid covering every coarse-rate shape the
/// accumulator pre-reduces: banded policies with far rate 8 and 16, uniform
/// rates 2/4/8/16, dense boundary shells, and sub-domains at the grid top
/// whose coarse cells wrap their top lattice plane to index 0.
std::vector<sampling::CompressedField> pre_reduction_contributions(
    const Grid3& g) {
  using sampling::SamplingPolicy;
  const RealField input = random_field(g, 41);
  struct Source {
    Index3 corner;
    i64 k;
    SamplingPolicy policy;
  };
  const std::vector<Source> sources = {
      {{16, 16, 16}, 8, SamplingPolicy::paper_default(8, 8, 0, 2)},
      {{56, 56, 56}, 8, SamplingPolicy::paper_default(8, 8, 3, 2)},
      {{0, 0, 0}, 4, SamplingPolicy::paper_default(4, 16, 2, 1)},
      {{28, 8, 48}, 4, SamplingPolicy::paper_default(4, 16, 0, 2)},
      {{8, 40, 24}, 8, SamplingPolicy::uniform(2)},
      {{32, 32, 32}, 8, SamplingPolicy::uniform(4, 2)},
      {{48, 0, 16}, 16, SamplingPolicy::uniform(8)},
      {{48, 48, 48}, 16, SamplingPolicy::uniform(16, 1)},
      {{0, 32, 0}, 16, SamplingPolicy::uniform(16)},
  };
  std::vector<sampling::CompressedField> out;
  for (const Source& src : sources) {
    out.push_back(sampling::CompressedField::compress(
        input, std::make_shared<sampling::Octree>(
                   g, Box3::cube_at(src.corner, src.k), src.policy)));
  }
  return out;
}

// Property test for cube pre-reduction: summing same-rate corner samples per
// lattice cube and interpolating once must match the sum of per-field
// scalar reconstructions to rounding, for both orders and for regions at
// odd, rate-unaligned offsets.
TEST(Accumulator, PreReductionMatchesScalarReference) {
  const Grid3 g = Grid3::cube(64);
  const auto contributions = pre_reduction_contributions(g);
  const std::vector<Box3> regions = {
      Box3::of(g),
      {{3, 5, 1}, {61, 60, 63}},      // odd offsets: every (rate, phase)
      {{7, 9, 11}, {21, 30, 64}},     // rate-unaligned, reaches the top
      {{0, 0, 59}, {64, 64, 64}},     // thin slab under the wrapping plane
      {{33, 17, 45}, {34, 18, 46}},   // single point
  };
  for (std::size_t ri = 0; ri < regions.size(); ++ri) {
    const Box3& region = regions[ri];
    for (const auto interp : {sampling::Interpolation::kTrilinear,
                              sampling::Interpolation::kTricubic}) {
      std::vector<double> want(region.volume(), 0.0);
      for (const auto& c : contributions) {
        c.reconstruct_add_scalar(want, region, interp);
      }
      Accumulator acc(region, interp);
      for (const auto& c : contributions) acc.add(c);
      const RealField got = acc.finish();
      ASSERT_EQ(got.grid(), region.extents());
      double scale = 1.0;
      for (const double v : want) scale = std::max(scale, std::abs(v));
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_NEAR(got.span()[i], want[i], 1e-12 * scale)
            << "region " << ri << " interp " << static_cast<int>(interp)
            << " flat index " << i;
      }
    }
  }
}

// Feeding a field cell by cell (the streamed exchange path) is the same
// computation as adding the whole field, bit for bit; cells that miss the
// region are ignored.
TEST(Accumulator, CellByCellEqualsWholeField) {
  const Grid3 g = Grid3::cube(64);
  const auto contributions = pre_reduction_contributions(g);
  const Box3 region{{5, 12, 30}, {45, 64, 61}};
  for (const auto interp : {sampling::Interpolation::kTrilinear,
                            sampling::Interpolation::kTricubic}) {
    Accumulator whole(region, interp);
    Accumulator streamed(region, interp);
    for (const auto& c : contributions) {
      whole.add(c);
      for (const auto& cell : c.octree().cells()) {
        streamed.add_cell(
            cell, c.samples().subspan(cell.sample_offset, cell.sample_count()));
      }
    }
    const RealField a = whole.finish();
    const RealField b = streamed.finish();
    for (std::size_t i = 0; i < a.span().size(); ++i) {
      ASSERT_EQ(a.span()[i], b.span()[i]) << static_cast<int>(interp) << " " << i;
    }
  }
}

TEST(Accumulator, RejectsEmptyRegion) {
  std::vector<sampling::CompressedField> none;
  EXPECT_THROW((void)accumulate_region(none, Box3{{1, 1, 1}, {1, 2, 2}}),
               InvalidArgument);
}

}  // namespace
}  // namespace lc::core
