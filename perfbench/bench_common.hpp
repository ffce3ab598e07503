// Shared pieces of the end-to-end benchmark: options, the result record
// every workload fills, the in-memory span log of the traced runs, and
// small statistics / input helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "tensor/field.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Command-line options of one benchmark process.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;  ///< measure cold start to first result, then exit
  bool tiny = false;        ///< self-test problem sizes (seconds-scale runs)
  std::string out_dir = ".";
};

/// What one workload run reports. Metrics are emitted in insertion order.
struct Result {
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Count one checked operation; `ok == false` records it as failed.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.size() < 8) failures.push_back(what);
    }
  }
};

/// Sample statistics over a copy (inputs stay in measurement order).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
inline double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}
inline double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

/// The benchmark's worker pool: 4 threads on any machine, passed
/// explicitly wherever the library would otherwise size a pool to the
/// host's core count.
lc::ThreadPool& worker_pool();

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

/// Deterministic per-workload seed: the user seed mixed with a salt so the
/// same --seed gives each workload its own inputs.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  lc::SplitMix64 mix(seed ^ (salt * 0x9E3779B97F4A7C15ULL));
  return mix.next();
}

/// Random ±1 field on an N³ grid.
lc::RealField random_sign_field(const lc::Grid3& grid, std::uint64_t seed);

/// True iff both fields hold bit-identical samples.
bool bit_identical(const lc::RealField& a, const lc::RealField& b);

/// One recorded span of a traced run. Times in ns since the log's epoch;
/// `op` groups every span of one convolve / solve / request, `parent` is
/// the index of the enclosing span (-1 for a root) and `lane` the rank or
/// sub-domain the span ran for (-1 when not applicable).
struct Span {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  int op = 0;
  int lane = -1;
  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

/// In-memory span log, written out once when the benchmark ends. Spans
/// are coarse (layer boundaries, a few dozen per operation), so a mutex
/// is cheap enough for the rank threads that share it.
class SpanLog {
 public:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }
  int open(const char* name, int parent, int op, int lane) {
    const std::int64_t t = now_ns();
    std::lock_guard lock(mutex_);
    spans_.push_back(Span{name, t, t, parent, op, lane});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) {
    const std::int64_t t = now_ns();
    std::lock_guard lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end_ns = t;
  }
  /// Record an already-measured interval (e.g. spans read back from the
  /// library's own tracer).
  int add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, int op, int lane) {
    std::lock_guard lock(mutex_);
    spans_.push_back(Span{name, start_ns, end_ns, parent, op, lane});
    return static_cast<int>(spans_.size() - 1);
  }
  [[nodiscard]] std::vector<Span> spans() const {
    std::lock_guard lock(mutex_);
    return spans_;
  }
  /// Self time of every span: its duration minus its children's.
  [[nodiscard]] std::vector<double> self_seconds() const;
  /// Chrome trace-event JSON (one track per lane). Returns false on I/O
  /// failure.
  bool write(const std::string& path) const;

 private:
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span on a SpanLog.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, int parent, int op, int lane)
      : log_(log), id_(log.open(name, parent, op, lane)) {}
  ~ScopedSpan() { log_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

/// Consecutive layer spans under one parent: enter() closes the current
/// span and opens the next one; the destructor closes the last.
class LayerSpans {
 public:
  LayerSpans(SpanLog& log, int parent, int op, int lane)
      : log_(log), parent_(parent), op_(op), lane_(lane) {}
  ~LayerSpans() { close(); }
  LayerSpans(const LayerSpans&) = delete;
  LayerSpans& operator=(const LayerSpans&) = delete;
  void enter(const char* name) {
    close();
    id_ = log_.open(name, parent_, op_, lane_);
  }
  void close() {
    if (id_ >= 0) log_.close(id_);
    id_ = -1;
  }

 private:
  SpanLog& log_;
  int parent_;
  int op_;
  int lane_;
  int id_ = -1;
};

/// Sum of span durations per (op, lane) for spans named `name`.
/// Returns per-op vectors indexed by lane in [0, lanes).
std::vector<std::vector<double>> per_op_lane_seconds(
    const std::vector<Span>& spans, const char* name, int ops, int lanes);

/// Measured values of one run, keyed by metric name.
using Values = std::map<std::string, double>;

/// Append the run's metric set to `r`: every end-to-end metric (trace off)
/// or every per-layer metric (trace on), in catalogue order. An end-to-end
/// metric missing from `values` is a benchmark bug (throws); a per-layer
/// metric of a layer the workload does not exercise reads 0.
void emit_metrics(Result& r, bool trace, const Values& values);

/// The record of a --setup-only process: the cold start time alone.
inline Result setup_result(double seconds) {
  Result r;
  r.attempted = 1;
  r.add("setup_s", seconds, "s");
  return r;
}

// Workload entry points (one translation unit each).
Result run_conv(const Options& opt, bool grouped);
Result run_massif(const Options& opt);
Result run_service(const Options& opt);

}  // namespace perfbench
