// lc_e2e: end-to-end, layer-by-layer benchmark of the low-communication
// convolution library. One process runs one workload:
//
//   lc_e2e --workload conv-flat|conv-grouped|massif|service-mix
//          --seed N --seconds S [--trace 0|1] [--setup-only] [--tiny]
//          [--out DIR]
//
// and prints, as its last stdout line, one JSON object:
//   {"attempted": n, "failed": n, "metrics": {name: {"value", "unit"}},
//    "failures": [...]}
// perfbench/run.py drives it (build, repeated cold starts, final record).
// The workloads and every metric are described in perfbench/README.md.
#include <sys/resource.h>

#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>

#include "bench_common.hpp"

namespace perfbench {

lc::ThreadPool& worker_pool() {
  static lc::ThreadPool pool(4);
  return pool;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss in KiB
}

lc::RealField random_sign_field(const lc::Grid3& grid, std::uint64_t seed) {
  lc::RealField f(grid, 0.0);
  lc::SplitMix64 rng(seed);
  for (double& x : f.span()) x = (rng.next() >> 63) != 0 ? 1.0 : -1.0;
  return f;
}

bool bit_identical(const lc::RealField& a, const lc::RealField& b) {
  const auto sa = a.span();
  const auto sb = b.span();
  return sa.size() == sb.size() &&
         std::memcmp(sa.data(), sb.data(), sa.size() * sizeof(double)) == 0;
}

std::vector<double> SpanLog::self_seconds() const {
  const std::vector<Span> all = spans();
  std::vector<double> self(all.size());
  for (std::size_t i = 0; i < all.size(); ++i) self[i] = all[i].seconds();
  for (const Span& s : all) {
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.seconds();
  }
  return self;
}

bool SpanLog::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<Span> all = spans();
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"op\":%d}}",
                 i == 0 ? "" : ",", s.name, s.op, s.lane + 1,
                 static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                 s.parent, s.op);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

std::vector<std::vector<double>> per_op_lane_seconds(
    const std::vector<Span>& spans, const char* name, int ops, int lanes) {
  std::vector<std::vector<double>> out(
      static_cast<std::size_t>(ops),
      std::vector<double>(static_cast<std::size_t>(lanes), 0.0));
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) != 0 || s.op < 0 || s.op >= ops ||
        s.lane < 0 || s.lane >= lanes) {
      continue;
    }
    out[static_cast<std::size_t>(s.op)][static_cast<std::size_t>(s.lane)] +=
        s.seconds();
  }
  return out;
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The catalogue mirrors BENCHMARK.json (run.py checks the two agree).
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"op_s", "s"},
    {"op_p90_s", "s"},         {"ops_per_s", "1/s"},
    {"baseline_s", "s"},       {"rel_l2_error", "ratio"},
    {"wire_bytes", "B"},       {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"core.local_convolve_s", "s"},
    {"core.local_convolve_imbalance", "ratio"},
    {"core.accumulate_s", "s"},
    {"core.engine_build_s", "s"},
    {"core.subdomains", "count"},
    {"sampling.octree_build_s", "s"},
    {"sampling.cells", "count"},
    {"sampling.samples", "count"},
    {"sampling.compression_ratio", "ratio"},
    {"comm.pack_s", "s"},
    {"comm.schedule_s", "s"},
    {"comm.exchange_s", "s"},
    {"comm.unpack_s", "s"},
    {"comm.recv_wait_s", "s"},
    {"comm.barrier_wait_s", "s"},
    {"comm.intra_bytes", "B"},
    {"comm.inter_bytes", "B"},
    {"comm.intra_msgs", "count"},
    {"comm.inter_msgs", "count"},
    {"comm.modeled_over_measured", "ratio"},
    {"comm.encoded_over_raw", "ratio"},
    {"comm.max_quant_error", "abs"},
    {"baseline.slab_bytes", "B"},
    {"baseline.slab_rounds", "count"},
    {"baseline.dense_ref_s", "s"},
    {"massif.apply_s", "s"},
    {"massif.update_s", "s"},
    {"massif.iterations", "count"},
    {"massif.exchange_bytes_per_apply", "B"},
    {"runtime.queue_s", "s"},
    {"runtime.run_s", "s"},
    {"runtime.result_hit_ratio", "ratio"},
    {"runtime.engine_hit_ratio", "ratio"},
    {"runtime.tasks_per_wave", "count"},
    {"runtime.rejected", "count"},
    {"planner.plan_hit_ratio", "ratio"},
    {"planner.drift_p50", "ratio"},
    {"device.peak_bytes", "B"},
    {"trace.unattributed_share", "ratio"},
    {"trace.overhead_ratio", "ratio"},
};

}  // namespace

void emit_metrics(Result& r, bool trace, const Values& values) {
  if (!trace) {
    for (const MetricDef& m : kEndToEnd) {
      const auto it = values.find(m.name);
      if (it == values.end()) {
        throw std::logic_error(std::string("end-to-end metric not measured: ") +
                               m.name);
      }
      r.add(m.name, it->second, m.unit);
    }
    return;
  }
  for (const MetricDef& m : kPerLayer) {
    const auto it = values.find(m.name);
    r.add(m.name, it == values.end() ? 0.0 : it->second, m.unit);
  }
}

namespace {

void print_json(const Result& r) {
  std::printf("{\"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}, \"failures\": [");
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    std::string escaped;
    for (const char c : r.failures[i]) {
      if (c == '"' || c == '\\') escaped += '\\';
      escaped += (c == '\n') ? ' ' : c;
    }
    std::printf("%s\"%s\"", i == 0 ? "" : ", ", escaped.c_str());
  }
  std::printf("]}\n");
  std::fflush(stdout);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::stoull(value());
    } else if (a == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (a == "--trace") {
      opt.trace = value() != "0";
    } else if (a == "--out") {
      opt.out_dir = value();
    } else if (a == "--setup-only") {
      opt.setup_only = true;
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  if (opt.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  return opt;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  try {
    const Options opt = parse(argc, argv);
    Result r;
    if (opt.workload == "conv-flat") {
      r = run_conv(opt, /*grouped=*/false);
    } else if (opt.workload == "conv-grouped") {
      r = run_conv(opt, /*grouped=*/true);
    } else if (opt.workload == "massif") {
      r = run_massif(opt);
    } else if (opt.workload == "service-mix") {
      r = run_service(opt);
    } else {
      throw std::invalid_argument("unknown workload '" + opt.workload + "'");
    }
    // Failed checks are reported in the record (run.py turns them into
    // "correct": false); the exit code only signals that no record exists.
    print_json(r);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lc_e2e: %s\n", e.what());
    return 2;
  }
}
