// service-mix: ConvolutionService in a closed loop — one generator thread
// keeps 4 requests outstanding, planner at its default. Without it runtime
// and planner go unmeasured; it is the only workload where work is shared
// across requests (result, engine and plan caches), so cache changes show
// here and nowhere else.
//
// Mix: N=128/k=32 single-sub-domain requests with fresh content over two
// Gaussian kernels (σ 2 and 4) and random sub-domain indices; about 1 in 4
// an exact repeat of an earlier request; about 1 in 8 an N=64 whole-field
// request with params.subdomain = 0 (auto-planned).
#include <deque>
#include <future>
#include <memory>
#include <optional>

#include "baseline/dense.hpp"
#include "bench_common.hpp"
#include "green/gaussian.hpp"
#include "obs/trace.hpp"
#include "runtime/service.hpp"

namespace perfbench {
namespace {

using namespace lc;

constexpr std::size_t kOutstanding = 4;
constexpr std::size_t kRepeatPool = 32;  // recent fresh requests a repeat draws from
constexpr std::size_t kCheckedSingles = 4;
constexpr std::size_t kCheckedWholes = 8;
// baseline_s: timed dense references of one sub-domain request, after the
// accuracy check has warmed the N=128 FFT plans; at least this many, for at
// least this long, so each process samples the host over a stretch of time.
constexpr std::size_t kBaselineMinReps = 10;
constexpr double kBaselineWindowS = 1.5;

struct Spec {
  bool whole = false;          // N=64 whole-field, auto-planned
  bool repeat = false;         // exact repeat of an earlier request
  std::uint64_t content = 0;   // input field seed
  std::size_t subdomain = 0;   // single-sub-domain requests only
  int kernel = 0;              // 0: σ=2, 1: σ=4
};

class Mix {
 public:
  Mix(const Options& opt)
      : big_(Grid3::cube(opt.tiny ? 32 : 128)),
        small_(Grid3::cube(opt.tiny ? 32 : 64)),
        k_(opt.tiny ? 16 : 32),
        rng_(derive_seed(opt.seed, 4)) {
    for (const double sigma : {2.0, 4.0}) {
      big_kernels_.push_back(std::make_shared<green::GaussianSpectrum>(big_, sigma));
      small_kernels_.push_back(
          std::make_shared<green::GaussianSpectrum>(small_, sigma));
    }
  }

  [[nodiscard]] std::size_t subdomains() const {
    const auto per_axis = static_cast<std::size_t>(big_.nx / k_);
    return per_axis * per_axis * per_axis;
  }

  /// The next request of the mix. `fresh_history` holds recent fresh
  /// single-sub-domain specs that a repeat may copy.
  Spec next(const std::deque<Spec>& fresh_history) {
    Spec s;
    const std::uint64_t roll = rng_.below(8);
    if (roll == 0) {
      s.whole = true;
    } else if (roll <= 2 && !fresh_history.empty()) {
      s = fresh_history[rng_.below(fresh_history.size())];
      s.repeat = true;
      return s;
    }
    s.content = rng_.next();
    s.kernel = static_cast<int>(rng_.below(2));
    if (!s.whole) s.subdomain = rng_.below(subdomains());
    return s;
  }

  [[nodiscard]] RealField input(const Spec& s) const {
    return random_sign_field(s.whole ? small_ : big_, s.content);
  }
  [[nodiscard]] std::shared_ptr<const green::KernelSpectrum> kernel(const Spec& s) const {
    return (s.whole ? small_kernels_ : big_kernels_)[static_cast<std::size_t>(s.kernel)];
  }

  [[nodiscard]] runtime::ConvolutionRequest request(const Spec& s) const {
    runtime::ConvolutionRequest req;
    req.input = input(s);
    req.kernel = kernel(s);
    req.params.far_rate = 8;
    req.params.dense_halo = 2;
    req.params.wire = comm::WireCodec::kOff;
    if (s.whole) {
      req.params.subdomain = 0;  // ask the planner for a full search
    } else {
      req.params.subdomain = k_;
      req.subdomain = s.subdomain;
    }
    return req;
  }

  /// Exact expected output: dense convolution of the sub-domain's input
  /// (single requests: the tile over its own box) or of the whole field.
  [[nodiscard]] RealField reference(const Spec& s, double* seconds) const {
    if (s.whole) {
      const RealField in = input(s);
      const Clock::time_point t = Clock::now();
      RealField out = baseline::dense_convolve_r2c(in, *kernel(s), &worker_pool());
      *seconds = seconds_since(t);
      return out;
    }
    const RealField masked = masked_input(s);
    const Clock::time_point t = Clock::now();
    const RealField out = baseline::dense_convolve_r2c(masked, *kernel(s), &worker_pool());
    *seconds = seconds_since(t);
    return out.extract(box(s));
  }

  /// A single-sub-domain request's sub-domain box and its input zeroed
  /// outside that box: the dense alternative convolves the latter.
  [[nodiscard]] Box3 box(const Spec& s) const {
    return core::DomainDecomposition(big_, k_).subdomain(s.subdomain);
  }
  [[nodiscard]] RealField masked_input(const Spec& s) const {
    const Box3 b = box(s);
    RealField masked(big_, 0.0);
    masked.insert(input(s).extract(b), b.lo);
    return masked;
  }

  [[nodiscard]] const Grid3& big() const { return big_; }
  [[nodiscard]] i64 k() const { return k_; }

 private:
  Grid3 big_;
  Grid3 small_;
  i64 k_;
  SplitMix64 rng_;
  std::vector<std::shared_ptr<const green::KernelSpectrum>> big_kernels_;
  std::vector<std::shared_ptr<const green::KernelSpectrum>> small_kernels_;
};

struct Completed {
  runtime::RequestStats stats;
  double exchanged_bytes = 0.0;
};

/// The closed-loop generator and its checks.
class ClosedLoop {
 public:
  ClosedLoop(Mix& mix, runtime::ConvolutionService& svc, Result& r)
      : mix_(mix), svc_(svc), r_(r) {}

  /// Run the loop for `window` seconds, then drain. Returns the wall time
  /// from the first submit to the last response.
  double run(double window, SpanLog* log) {
    struct Pending {
      std::future<runtime::ConvolutionResponse> response;
      Spec spec;
      int span = -1;
    };
    std::deque<Pending> pending;
    const Clock::time_point t0 = Clock::now();
    while (true) {
      const bool open = seconds_since(t0) < window;
      while (open && pending.size() < kOutstanding) {
        const Spec spec = mix_.next(fresh_);
        auto req = mix_.request(spec);
        const int span =
            log ? log->open("request", -1, static_cast<int>(done_.size() + pending.size()), -1)
                : -1;
        pending.push_back({svc_.submit(std::move(req)), spec, span});
      }
      if (pending.empty()) break;
      Pending p = std::move(pending.front());
      pending.pop_front();
      try {
        runtime::ConvolutionResponse resp = p.response.get();
        if (log) log->close(p.span);
        handle(p.spec, std::move(resp));
      } catch (const std::exception& e) {
        r_.check(false, std::string("request failed: ") + e.what());
      }
    }
    return seconds_since(t0);
  }

  /// Handle one response: bit-identity for repeats, store samples for the
  /// accuracy check.
  void handle(const Spec& spec, runtime::ConvolutionResponse resp) {
    const RealField& out = resp.result.output;
    done_.push_back({resp.stats, static_cast<double>(resp.result.exchanged_bytes)});
    if (spec.repeat) {
      const RealField* first = nullptr;
      for (const auto& [s, field] : first_outputs_) {
        if (s.content == spec.content && s.subdomain == spec.subdomain &&
            s.kernel == spec.kernel) {
          first = &field;
        }
      }
      r_.check(first != nullptr && bit_identical(out, *first),
               "repeat response differs from the first response");
      return;
    }
    r_.check(!out.empty(), "empty response");
    if (!spec.whole) {
      fresh_.push_back(spec);
      if (fresh_.size() > kRepeatPool) fresh_.pop_front();
      // Outputs outlive their history entry by the requests in flight, so
      // a repeat drawn just before its original left the pool still finds it.
      first_outputs_.emplace_back(spec, out);
      if (first_outputs_.size() > kRepeatPool + 2 * kOutstanding) {
        first_outputs_.pop_front();
      }
    }
    auto& checked = spec.whole ? wholes_ : singles_;
    if (checked.size() < (spec.whole ? kCheckedWholes : kCheckedSingles)) {
      checked.emplace_back(spec, out);
    }
  }

  /// Dense-reference check of the sampled responses. Returns the errors of
  /// the whole-field ones: a sub-domain tile lies inside its own dense halo,
  /// so its error is rounding only. `dense_s` collects the timings of the
  /// N=128 references.
  std::vector<double> check_accuracy(std::vector<double>& dense_s) {
    std::vector<double> errors;
    for (const auto* list : {&singles_, &wholes_}) {
      for (const auto& [spec, out] : *list) {
        double seconds = 0.0;
        const RealField ref = mix_.reference(spec, &seconds);
        if (!spec.whole) dense_s.push_back(seconds);
        const double err = relative_l2_error(out.span(), ref.span());
        if (spec.whole) errors.push_back(err);
        std::fprintf(stderr, "checked %s response: rel_l2 %.4g\n",
                     spec.whole ? "whole-field" : "sub-domain", err);
        r_.check(err <= 0.03, std::string(spec.whole ? "whole-field" : "sub-domain") +
                                  " response rel_l2=" + std::to_string(err));
      }
    }
    return errors;
  }

  /// Median wall time of the dense convolve behind the first checked
  /// sub-domain request's reference, the dense alternative to one request.
  double baseline_seconds() {
    if (singles_.empty()) return 0.0;
    const Spec& spec = singles_.front().first;
    const RealField masked = mix_.masked_input(spec);
    RealField first;
    std::vector<double> dense_s;
    const Clock::time_point t0 = Clock::now();
    while (dense_s.size() < kBaselineMinReps || seconds_since(t0) < kBaselineWindowS) {
      const Clock::time_point t = Clock::now();
      RealField out = baseline::dense_convolve_r2c(masked, *mix_.kernel(spec), &worker_pool());
      dense_s.push_back(seconds_since(t));
      if (first.empty()) {
        first = std::move(out);
      } else {
        r_.check(bit_identical(out, first), "dense baseline differs between repetitions");
      }
    }
    std::fprintf(stderr, "baseline: %zu dense convolves, median %.4f s\n", dense_s.size(),
                 median(dense_s));
    return median(dense_s);
  }

  [[nodiscard]] const std::vector<Completed>& done() const { return done_; }

 private:
  Mix& mix_;
  runtime::ConvolutionService& svc_;
  Result& r_;
  std::deque<Spec> fresh_;
  std::deque<std::pair<Spec, RealField>> first_outputs_;
  std::vector<std::pair<Spec, RealField>> singles_;
  std::vector<std::pair<Spec, RealField>> wholes_;
  std::vector<Completed> done_;
};

std::vector<double> latencies(const std::vector<Completed>& done) {
  std::vector<double> out;
  for (const auto& c : done) out.push_back(c.stats.queue_seconds + c.stats.run_seconds);
  return out;
}

/// Library spans of the traced half, read back from the global tracer and
/// moved onto the benchmark's clock (lane = tracer thread id). A wave's
/// spans share its ordinal as their op id; admission, convolve and
/// accumulate are children of their wave, tasks of their convolve wave.
void import_library_spans(SpanLog& log, std::int64_t offset_ns) {
  struct Event {
    std::string name;
    const char* literal;
    std::int64_t start;
    std::int64_t end;
    int lane;
  };
  std::vector<Event> events;
  for (const auto& thread : obs::Tracer::global().snapshot()) {
    for (const auto& ev : thread.events) {
      const std::string name = ev.name;
      if (ev.phase != 'X' || name.rfind("service.", 0) != 0) continue;
      events.push_back({name, ev.name, ev.start_ns + offset_ns,
                        ev.start_ns + ev.dur_ns + offset_ns,
                        static_cast<int>(thread.tid)});
    }
  }
  // Parents first: waves, then the spans they contain, then tasks.
  const auto rank = [](const std::string& name) {
    return name == "service.wave" ? 0 : name == "service.task" ? 2 : 1;
  };
  std::stable_sort(events.begin(), events.end(), [&](const Event& a, const Event& b) {
    return std::make_pair(rank(a.name), a.start) < std::make_pair(rank(b.name), b.start);
  });
  struct Placed {
    std::int64_t start;
    std::int64_t end;
    int id;
    int op;
  };
  std::vector<Placed> waves;
  std::vector<Placed> convolves;
  const auto enclosing = [](const std::vector<Placed>& in, const Event& e) {
    for (const Placed& p : in) {
      if (p.start <= e.start && e.end <= p.end) return p;
    }
    return Placed{0, 0, -1, -1};
  };
  for (const Event& e : events) {
    if (e.name == "service.wave") {
      const int op = static_cast<int>(waves.size());
      waves.push_back({e.start, e.end, log.add(e.literal, e.start, e.end, -1, op, e.lane), op});
      continue;
    }
    const Placed parent = enclosing(e.name == "service.task" ? convolves : waves, e);
    const int id = log.add(e.literal, e.start, e.end, parent.id, parent.op, e.lane);
    if (e.name == "service.convolve_wave") convolves.push_back({e.start, e.end, id, parent.op});
  }
}

void layer_metrics(const SpanLog& log, Values& v) {
  const std::vector<Span> spans = log.spans();
  std::vector<double> convolve;
  std::vector<double> accumulate;
  std::map<int, std::vector<double>> tasks_of;  // convolve wave id → task times
  double wave_total = 0.0;
  double wave_children = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string name = s.name;
    if (name == "service.wave") {
      wave_total += s.seconds();
    } else if (name == "service.task") {
      tasks_of[s.parent].push_back(s.seconds());
    } else if (name == "service.admission" || name == "service.convolve_wave" ||
               name == "service.accumulate_wave") {
      wave_children += s.seconds();
      if (name == "service.convolve_wave") convolve.push_back(s.seconds());
      if (name == "service.accumulate_wave") accumulate.push_back(s.seconds());
    }
  }
  std::vector<double> imbalance;
  for (const auto& [id, tasks] : tasks_of) {
    if (id >= 0 && tasks.size() > 1) imbalance.push_back(max_of(tasks) / mean(tasks));
  }
  v["core.local_convolve_s"] = median(convolve);
  v["core.local_convolve_imbalance"] = imbalance.empty() ? 1.0 : median(imbalance);
  v["core.accumulate_s"] = median(accumulate);
  v["trace.unattributed_share"] = wave_total > 0.0 ? 1.0 - wave_children / wave_total : 0.0;
}

}  // namespace

Result run_service(const Options& opt) {
  Mix mix(opt);
  Result r;
  Values v;
  const std::deque<Spec> none;
  const Spec first_spec = mix.next(none);  // never a repeat: no history yet
  runtime::ConvolutionRequest first_req = mix.request(first_spec);

  // Cold start: service construction to the first response.
  const Clock::time_point t_setup = Clock::now();
  runtime::ServiceConfig config;
  config.pool = &worker_pool();
  runtime::ConvolutionService svc(config);
  runtime::ConvolutionResponse first = svc.run(std::move(first_req));
  v["setup_s"] = seconds_since(t_setup);
  if (opt.setup_only) return setup_result(v["setup_s"]);

  ClosedLoop loop(mix, svc, r);
  loop.handle(first_spec, std::move(first));
  const std::size_t warm_from = loop.done().size();
  SpanLog log;
  double wall = 0.0;
  std::size_t traced_from = 0;
  if (!opt.trace) {
    wall = loop.run(opt.seconds, nullptr);
  } else {
    // Untraced first half (overhead baseline), traced second half.
    wall = loop.run(opt.seconds / 2, nullptr);
    traced_from = loop.done().size();
    obs::Tracer::global().clear();
    obs::Tracer::global().enable();
    const std::int64_t offset = log.now_ns() - obs::Tracer::global().now_ns();
    loop.run(opt.seconds / 2, &log);
    obs::Tracer::global().disable();
    import_library_spans(log, offset);
  }
  svc.wait_idle();
  const runtime::ServiceStats stats = svc.stats();
  const std::size_t rejected = stats.rejected_queue_full + stats.rejected_deadline;
  r.check(stats.failed == 0 && rejected == 0,
          "service counted " + std::to_string(stats.failed) + " failed and " +
              std::to_string(rejected) + " rejected requests");

  // Read before the dense references below allocate their own fields.
  v["peak_rss_mb"] = peak_rss_mb();
  std::vector<double> dense_s;
  const std::vector<double> errors = loop.check_accuracy(dense_s);
  const std::vector<Completed> warm(loop.done().begin() + static_cast<std::ptrdiff_t>(warm_from),
                                    loop.done().end());

  if (!opt.trace) {
    const std::vector<double> lat = latencies(warm);
    std::vector<double> bytes;
    for (const auto& c : warm) bytes.push_back(c.exchanged_bytes);
    v["op_s"] = median(lat);
    v["op_p90_s"] = quantile(lat, 0.9);
    v["ops_per_s"] = static_cast<double>(warm.size()) / wall;
    v["baseline_s"] = loop.baseline_seconds();
    v["rel_l2_error"] = median(errors);
    v["wire_bytes"] = median(bytes);
    emit_metrics(r, false, v);
    std::fprintf(stderr,
                 "service-mix: %zu requests in %.2f s, p50 %.4f s, p90 %.4f s, "
                 "result hits %zu, waves %zu\n",
                 warm.size(), wall, v["op_s"], v["op_p90_s"], stats.result_hits,
                 stats.waves);
    return r;
  }

  const auto split = static_cast<std::ptrdiff_t>(traced_from - warm_from);
  const std::vector<Completed> untraced(warm.begin(), warm.begin() + split);
  const std::vector<Completed> traced(warm.begin() + split, warm.end());
  layer_metrics(log, v);
  v["trace.overhead_ratio"] = median(latencies(traced)) / median(latencies(untraced));
  std::vector<double> queue_s;
  std::vector<double> run_s;
  double result_hits = 0.0;
  double engine_hits = 0.0;
  double plan_hits = 0.0;
  double executed = 0.0;
  double subdomains = 0.0;
  for (const auto& c : warm) {
    queue_s.push_back(c.stats.queue_seconds);
    run_s.push_back(c.stats.run_seconds);
    plan_hits += c.stats.plan_cache_hit ? 1.0 : 0.0;
    if (c.stats.result_cache_hit) {
      result_hits += 1.0;
      continue;
    }
    executed += 1.0;
    engine_hits += c.stats.engine_cache_hit ? 1.0 : 0.0;
    subdomains += static_cast<double>(c.stats.subdomains);
  }
  const auto n = static_cast<double>(warm.size());
  v["runtime.queue_s"] = median(queue_s);
  v["runtime.run_s"] = median(run_s);
  v["runtime.result_hit_ratio"] = result_hits / n;
  v["runtime.engine_hit_ratio"] = executed > 0.0 ? engine_hits / executed : 0.0;
  v["runtime.tasks_per_wave"] =
      stats.waves > 0 ? static_cast<double>(stats.wave_tasks) / static_cast<double>(stats.waves)
                      : 0.0;
  v["runtime.rejected"] = static_cast<double>(rejected);
  v["planner.plan_hit_ratio"] = plan_hits / n;
  v["planner.drift_p50"] = stats.drift_p50_ratio;
  v["device.peak_bytes"] = static_cast<double>(stats.device_peak_bytes);
  v["core.subdomains"] = executed > 0.0 ? subdomains / executed : 0.0;
  v["baseline.dense_ref_s"] = median(dense_s);

  // Sampling census of one N=128 request's sub-domain octree.
  core::LowCommParams params = mix.request(Spec{}).params;
  const core::DomainDecomposition decomp(mix.big(), mix.k());
  std::vector<double> build_s;
  std::shared_ptr<const sampling::Octree> tree;
  for (int i = 0; i < 3; ++i) {
    const Clock::time_point t = Clock::now();
    tree = std::make_shared<sampling::Octree>(mix.big(), decomp.subdomain(0),
                                              params.make_policy());
    build_s.push_back(seconds_since(t));
  }
  v["sampling.octree_build_s"] = median(build_s);
  v["sampling.cells"] = static_cast<double>(tree->cells().size());
  v["sampling.samples"] = static_cast<double>(tree->total_samples());
  v["sampling.compression_ratio"] = tree->compression_ratio();
  emit_metrics(r, true, v);
  if (!log.write(opt.out_dir + "/trace-service-mix.json")) {
    std::fprintf(stderr, "warning: could not write the trace file\n");
  }
  return r;
}

}  // namespace perfbench
