// massif: MASSIF Algorithm 2 (LowCommGreenBackend) — the paper's use case,
// and the only workload on the complex six-channel Γ̂ path. It has no comm
// at all, so exchange changes should leave it unchanged.
//
// N=64, k=32, far rate 4, halo 4; a seeded two-phase random-sphere
// microstructure (stiffness contrast 4), basic Moulinec–Suquet scheme,
// tolerance 5e-3. A dense Algorithm-1 solve gives the reference strain.
//
// Why k=32: low-comm MASSIF levels off and then diverges at k=16 (see
// README.md, "Known defect"): N=32/k=16/tol 1e-4 bottoms out near 2.3e-3
// around iteration 20 and ends at max_iterations with 362% strain error;
// N=64/k=16/tol 5e-3 flattens near 6.6e-3 and diverges the same way. A
// diverging solve has no time-to-solution to measure, so the workload
// uses k=32 and leaves the fix to the accuracy-contract work.
#include <array>
#include <memory>

#include "bench_common.hpp"
#include "core/accumulator.hpp"
#include "massif/solver.hpp"

namespace perfbench {
namespace {

using namespace lc;
using massif::GreenConvolutionBackend;
using massif::LowCommGreenBackend;

struct MassifShape {
  Grid3 grid;
  LowCommGreenBackend::Params params;
  massif::SolverOptions options;
  double radius = 4.0;
  std::uint64_t micro_seed = 0;
};

MassifShape massif_shape(const Options& opt) {
  MassifShape s{Grid3::cube(opt.tiny ? 32 : 64), {}, {}};
  s.params.subdomain = opt.tiny ? 16 : 32;
  s.params.far_rate = 4;
  s.params.dense_halo = 4;
  s.params.pool = &worker_pool();
  s.options.tolerance = 5e-3;
  s.options.max_iterations = 50;
  s.options.scheme = massif::Scheme::kBasic;
  s.radius = opt.tiny ? 3.0 : 4.0;
  s.micro_seed = derive_seed(opt.seed, 3);
  return s;
}

massif::Microstructure make_micro(const MassifShape& s) {
  const auto matrix = massif::Phase::isotropic("matrix", 100.0, 0.35);
  const auto inclusion = massif::Phase::isotropic("inclusion", 400.0, 0.22);
  return massif::Microstructure::random_spheres(s.grid, matrix, inclusion, 0.2,
                                                s.radius, s.micro_seed);
}

Sym2 macro_strain() {
  Sym2 e;
  e.at(0, 0) = 0.01;  // uniaxial E_xx = 1%
  return e;
}

bool identical(const SymTensorField& a, const SymTensorField& b) {
  for (std::size_t c = 0; c < 6; ++c) {
    if (!bit_identical(a.component(c), b.component(c))) return false;
  }
  return true;
}

/// Forwarding decorator: times every apply of the wrapped backend.
class TimedBackend final : public GreenConvolutionBackend {
 public:
  explicit TimedBackend(std::shared_ptr<GreenConvolutionBackend> inner)
      : inner_(std::move(inner)) {}
  void apply(const SymTensorField& sigma, SymTensorField& delta_eps) override {
    const Clock::time_point t = Clock::now();
    inner_->apply(sigma, delta_eps);
    seconds.push_back(seconds_since(t));
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  std::vector<double> seconds;

 private:
  std::shared_ptr<GreenConvolutionBackend> inner_;
};

/// LowCommGreenBackend::apply rebuilt from public calls (LocalConvolver on
/// the elastic Γ̂ operator, per-sub-domain octrees, accumulate_full), with a
/// span around each layer. Must stay bit-identical to the library backend.
class TracedLowCommBackend final : public GreenConvolutionBackend {
 public:
  TracedLowCommBackend(const Grid3& grid, const Lame& reference,
                       const LowCommGreenBackend::Params& p, SpanLog& log)
      : decomp_(grid, p.subdomain), params_(p), log_(log) {
    Clock::time_point t = Clock::now();
    core::LocalConvolverConfig cfg;
    cfg.batch = p.batch;
    cfg.pool = p.pool;
    cfg.device = p.device;
    convolver_ = std::make_unique<core::LocalConvolver>(
        grid, std::make_shared<massif::ElasticGreenOperator>(reference), cfg);
    engine_build_s = seconds_since(t);
    t = Clock::now();
    const auto policy = sampling::SamplingPolicy::paper_default(
        p.subdomain, p.far_rate, /*boundary_band=*/0, p.dense_halo);
    for (std::size_t d = 0; d < decomp_.count(); ++d) {
      octrees_.push_back(
          std::make_shared<sampling::Octree>(grid, decomp_.subdomain(d), policy));
    }
    octree_build_s = seconds_since(t);
  }

  /// Spans of the following applies belong to operation `op` under `parent`.
  void attach(int op, int parent) {
    op_ = op;
    parent_ = parent;
  }

  void apply(const SymTensorField& sigma, SymTensorField& delta_eps) override {
    const ScopedSpan apply_span(log_, "massif.apply", parent_, op_, -1);
    std::array<std::vector<sampling::CompressedField>, 6> contributions;
    for (std::size_t d = 0; d < decomp_.count(); ++d) {
      LayerSpans layer(log_, apply_span.id(), op_, static_cast<int>(d));
      layer.enter("core.extract");
      const Box3& box = decomp_.subdomain(d);
      std::vector<RealField> chunks;
      chunks.reserve(6);
      for (std::size_t a = 0; a < 6; ++a) {
        chunks.push_back(sigma.component(a).extract(box));
      }
      layer.enter("core.local_convolve");
      auto results = convolver_->convolve_channels(chunks, box.lo, octrees_[d]);
      for (std::size_t a = 0; a < 6; ++a) {
        contributions[a].push_back(std::move(results[a]));
      }
    }
    const ScopedSpan acc(log_, "core.accumulate", apply_span.id(), op_, -1);
    for (std::size_t a = 0; a < 6; ++a) {
      delta_eps.component(a) = core::accumulate_full(
          contributions[a], decomp_.grid(), params_.interpolation, params_.pool);
    }
  }
  [[nodiscard]] std::string name() const override { return "lowcomm-traced"; }

  [[nodiscard]] const core::DomainDecomposition& decomposition() const {
    return decomp_;
  }
  [[nodiscard]] const std::vector<std::shared_ptr<const sampling::Octree>>&
  octrees() const {
    return octrees_;
  }

  double engine_build_s = 0.0;
  double octree_build_s = 0.0;

 private:
  core::DomainDecomposition decomp_;
  LowCommGreenBackend::Params params_;
  SpanLog& log_;
  std::unique_ptr<core::LocalConvolver> convolver_;
  std::vector<std::shared_ptr<const sampling::Octree>> octrees_;
  int op_ = 0;
  int parent_ = -1;
};

/// Per-layer metrics from the traced solves in `log`.
void layer_metrics(const SpanLog& log, int subdomains, Values& v) {
  const std::vector<Span> spans = log.spans();
  const std::vector<double> self = log.self_seconds();
  std::map<int, double> local_of_apply;
  std::map<int, std::vector<double>> lanes_of_apply;
  std::map<int, double> acc_of_apply;
  std::map<int, double> solve_apply_self;  // op → Σ massif.apply self time
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.op < 0) continue;  // the fidelity-check apply, outside any solve
    const std::string name = s.name;
    if (name == "massif.apply") {
      solve_apply_self[s.op] += self[i];
    } else if (name == "core.local_convolve") {
      local_of_apply[s.parent] += s.seconds();
      auto& lanes = lanes_of_apply[s.parent];
      lanes.resize(static_cast<std::size_t>(subdomains), 0.0);
      lanes[static_cast<std::size_t>(s.lane)] += s.seconds();
    } else if (name == "core.accumulate") {
      acc_of_apply[s.parent] += s.seconds();
    }
  }
  std::vector<double> unattributed;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::string(spans[i].name) != "solve") continue;
    unattributed.push_back(solve_apply_self[spans[i].op] / spans[i].seconds());
  }
  std::vector<double> local;
  std::vector<double> imbalance;
  std::vector<double> acc;
  for (const auto& [id, s] : local_of_apply) local.push_back(s);
  for (const auto& [id, lanes] : lanes_of_apply) {
    imbalance.push_back(max_of(lanes) / mean(lanes));
  }
  for (const auto& [id, s] : acc_of_apply) acc.push_back(s);
  v["core.local_convolve_s"] = median(local);
  v["core.local_convolve_imbalance"] = median(imbalance);
  v["core.accumulate_s"] = median(acc);
  v["trace.unattributed_share"] = median(unattributed);
}

}  // namespace

Result run_massif(const Options& opt) {
  const MassifShape s = massif_shape(opt);
  const massif::Microstructure micro = make_micro(s);
  const Lame ref = micro.reference_medium();
  const Sym2 macro = macro_strain();
  Result r;
  Values v;

  // Cold start: backend build (octrees, FFT plans) plus the first apply.
  const Clock::time_point t_setup = Clock::now();
  const auto backend = std::make_shared<LowCommGreenBackend>(s.grid, ref, s.params);
  const massif::MassifSolver initial(micro, macro, backend, s.options);
  SymTensorField first_apply(s.grid);
  backend->apply(initial.stress(), first_apply);
  v["setup_s"] = seconds_since(t_setup);
  if (opt.setup_only) return setup_result(v["setup_s"]);

  // Algorithm 1 reference (dense FFT Γ̂ convolution); its median solve
  // time is the baseline.
  const auto dense = std::make_shared<massif::DenseGreenBackend>(s.grid, ref, &worker_pool());
  std::unique_ptr<massif::MassifSolver> dense_solver;
  massif::SolveReport dense_report;
  std::vector<double> dense_solve_s;
  for (int i = 0; i < (opt.trace ? 1 : 2); ++i) {
    dense_solver = std::make_unique<massif::MassifSolver>(micro, macro, dense, s.options);
    const Clock::time_point t = Clock::now();
    dense_report = dense_solver->solve();
    dense_solve_s.push_back(seconds_since(t));
    r.check(dense_report.converged, "dense reference solve did not converge");
  }
  const double dense_s = median(dense_solve_s);

  const auto timed = std::make_shared<TimedBackend>(backend);
  std::vector<double> solve_s;
  double err = 0.0;
  int iterations = 0;
  std::unique_ptr<SymTensorField> first_strain;
  const auto solve_once = [&]() {
    massif::MassifSolver solver(micro, macro, timed, s.options);
    const Clock::time_point t = Clock::now();
    const massif::SolveReport rep = solver.solve();
    solve_s.push_back(seconds_since(t));
    err = solver.strain().relative_error_to(dense_solver->strain());
    iterations = rep.iterations;
    if (!first_strain) first_strain = std::make_unique<SymTensorField>(solver.strain());
    r.check(rep.converged && err <= 0.03 && identical(solver.strain(), *first_strain),
            "massif solve: converged=" + std::to_string(rep.converged) +
                " iterations=" + std::to_string(rep.iterations) +
                " strain rel_l2=" + std::to_string(err));
  };

  if (!opt.trace) {
    const Clock::time_point t_loop = Clock::now();
    while (solve_s.size() < 2 || seconds_since(t_loop) < opt.seconds) solve_once();
    const double loop_s = seconds_since(t_loop);
    v["op_s"] = median(solve_s);
    v["op_p90_s"] = quantile(solve_s, 0.9);
    v["ops_per_s"] = static_cast<double>(solve_s.size()) / loop_s;
    v["baseline_s"] = dense_s;
    v["rel_l2_error"] = err;
    v["wire_bytes"] = static_cast<double>(backend->exchange_bytes_per_apply());
    v["peak_rss_mb"] = peak_rss_mb();
    emit_metrics(r, false, v);
    std::fprintf(stderr,
                 "massif: dense %d iterations %.4f s; strain rel_l2 %.4g; %zu "
                 "solves of %d iterations (s):",
                 dense_report.iterations, dense_s, err, solve_s.size(), iterations);
    for (const double x : solve_s) std::fprintf(stderr, " %.3f", x);
    std::fprintf(stderr, "\n");
    return r;
  }

  // Traced run: one untraced solve through the forwarding decorator (the
  // library's own apply and update times, and the overhead baseline), then
  // traced solves through the rebuilt backend, checked bit-for-bit.
  solve_once();
  double apply_total = 0.0;
  for (const double a : timed->seconds) apply_total += a;
  v["massif.apply_s"] = median(timed->seconds);
  v["massif.update_s"] = solve_s.back() - apply_total;  // solve outside apply
  SpanLog log;
  const auto traced = std::make_shared<TracedLowCommBackend>(s.grid, ref, s.params, log);
  {
    SymTensorField out(s.grid);
    traced->attach(-1, -1);
    traced->apply(initial.stress(), out);
    r.check(identical(out, first_apply),
            "traced apply differs from LowCommGreenBackend::apply");
  }
  std::vector<double> traced_s;
  const Clock::time_point t_traced = Clock::now();
  for (int op = 0; op < 1 || seconds_since(t_traced) < opt.seconds; ++op) {
    massif::MassifSolver solver(micro, macro, traced, s.options);
    const ScopedSpan solve_span(log, "solve", -1, op, -1);
    traced->attach(op, solve_span.id());
    const Clock::time_point t = Clock::now();
    const massif::SolveReport rep = solver.solve();
    traced_s.push_back(seconds_since(t));
    r.check(rep.iterations == iterations && identical(solver.strain(), *first_strain),
            "traced solve differs from the LowCommGreenBackend solve");
  }
  layer_metrics(log, static_cast<int>(traced->decomposition().count()), v);
  v["trace.overhead_ratio"] = median(traced_s) / median(solve_s);
  v["massif.iterations"] = iterations;
  v["massif.exchange_bytes_per_apply"] =
      static_cast<double>(backend->exchange_bytes_per_apply());
  v["baseline.dense_ref_s"] = dense_s;
  v["core.engine_build_s"] = traced->engine_build_s;
  v["sampling.octree_build_s"] = traced->octree_build_s;
  double cells = 0.0;
  double samples = 0.0;
  for (const auto& tree : traced->octrees()) {
    cells += static_cast<double>(tree->cells().size());
    samples += static_cast<double>(tree->total_samples());
  }
  const auto count = static_cast<double>(traced->decomposition().count());
  v["core.subdomains"] = count;
  v["sampling.cells"] = cells;
  v["sampling.samples"] = samples;
  v["sampling.compression_ratio"] =
      count * static_cast<double>(s.grid.size()) / samples;
  emit_metrics(r, true, v);
  if (!log.write(opt.out_dir + "/trace-massif.json")) {
    std::fprintf(stderr, "warning: could not write the trace file\n");
  }
  return r;
}

}  // namespace perfbench
