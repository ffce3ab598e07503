// Auto-tuning planner bench + smoke gate (DESIGN.md §15, README
// "Auto-tuning").
//
// Default mode: plan the paper-scale serving shape — N = 128, P = 64 ranks
// on 8 nodes of 8 — print the ranked candidate table, then gate the
// acceptance criterion: the planner's pick must land within 10% of the best
// EXACT-priced total over an exhaustive sweep of the feasible block
// candidates (the planner only exact-prices its closed-form shortlist, so
// this checks the screening, not the sort).
//
// --json-probe: plan N ∈ {64, 128}, emit BENCH_planner.json rows with the
// MODELED throughput of each pick (deterministic — the gate catches cost
// model drift, not machine noise) and die on any infeasible selection or a
// >10% gap.
//
// --fit-calibration HISTORY.jsonl [--calibration-out cal.json]
// [--drift-gate [--drift-against FRESH.jsonl]]: close the telemetry loop
// (DESIGN.md §18). Fits a compute rate + per-level α-β from a
// plan-vs-actual history, optionally saves the fit, and with --drift-gate
// checks (1) the calibrated compute prediction lands at most half as far
// from executed measurements (held-out records when --drift-against names a
// post-fit re-run) as the static-DeviceSpec default, and (2) the pick
// re-ranked under the fit stays within 10% of the exhaustive exact sweep.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "bench_json.hpp"
#include "common/table.hpp"
#include "obs/telemetry.hpp"
#include "planner/calibration.hpp"
#include "planner/planner.hpp"

namespace {

using namespace lc;

/// Exact-priced total (real octree traffic walk + the candidate's modeled
/// compute) — the oracle the acceptance gate compares against.
double exact_total(const planner::PlanRequest& req,
                   const planner::RankedCandidate& rc) {
  const auto traffic = core::lowcomm_exchange_traffic(
      Grid3::cube(req.n), rc.candidate.params, req.topology,
      rc.candidate.route);
  return rc.cost.compute_seconds +
         comm::predict_exchange_times(traffic, req.links).total_seconds();
}

planner::PlanRequest paper_request(i64 n, int ranks, int per_node) {
  planner::PlanRequest req;
  req.n = n;
  req.ranks = ranks;
  req.topology = comm::Topology::grouped(ranks, per_node);
  req.device = device::DeviceSpec::v100_32gb();
  // The planner applies LC_CALIBRATION internally; pre-applying here keeps
  // the bench's own exact_total pricing (which reads req.links directly) on
  // the same fitted link model the planner ranked with. No-op when unset.
  return planner::apply_calibration(req, planner::calibration_from_env());
}

/// Sweep floor: the exact traffic walk builds one octree per sub-domain, so
/// k below 16 at N = 128 (4096+ sub-domains) would turn a smoke bench into
/// minutes. The planner itself still enumerates every divisor.
constexpr i64 kSweepMinSubdomain = 16;

struct GateResult {
  bool ok = true;
  double pick_total = 0.0;
  double best_total = 0.0;
};

GateResult gate_pick_vs_exhaustive(const planner::PlanRequest& req,
                                   const planner::ExecutionPlan& plan) {
  GateResult gate;
  double best = std::numeric_limits<double>::infinity();
  std::size_t swept = 0, skipped = 0;
  for (const auto& rc : plan.ranked) {
    if (rc.candidate.kind != planner::DecompKind::kBlock ||
        !rc.cost.feasible) {
      continue;
    }
    if (rc.candidate.params.subdomain < kSweepMinSubdomain) {
      ++skipped;
      continue;
    }
    best = std::min(best, exact_total(req, rc));
    ++swept;
  }
  planner::RankedCandidate picked;
  picked.candidate = plan.choice;
  picked.cost = plan.cost;
  gate.pick_total = exact_total(req, picked);
  gate.best_total = best;
  if (skipped > 0) {
    std::printf("  (sweep covered %zu candidates; %zu below k=%lld skipped "
                "— octree walk cost, not a gate exemption)\n",
                swept, skipped,
                static_cast<long long>(kSweepMinSubdomain));
  }
  if (!(gate.pick_total <= 1.10 * best)) {
    std::printf("FAIL: pick %s exact total %.6f s vs sweep best %.6f s "
                "(>10%% gap)\n",
                plan.choice.name().c_str(), gate.pick_total, best);
    gate.ok = false;
  }
  if (plan.cost.memory_bytes > req.device.capacity_bytes) {
    std::printf("FAIL: pick is memory-infeasible (%zu > %zu bytes)\n",
                plan.cost.memory_bytes, req.device.capacity_bytes);
    gate.ok = false;
  }
  return gate;
}

void print_ranked(const planner::PlanRequest& req,
                  const planner::ExecutionPlan& plan, std::size_t top) {
  TextTable table("Ranked candidates, N=" + std::to_string(req.n) + ", P=" +
                  std::to_string(req.ranks) + ", " +
                  std::to_string(req.topology.nodes()) + " nodes");
  table.header({"candidate", "feasible", "mem GB", "pred err", "wire MB",
                "wire ms", "compute s", "total s", "priced"});
  std::size_t shown = 0;
  for (const auto& rc : plan.ranked) {
    if (shown++ >= top) break;
    table.row(
        {rc.candidate.name(),
         rc.cost.feasible ? "yes" : "no: " + rc.cost.infeasible_reason,
         format_fixed(static_cast<double>(rc.cost.memory_bytes) / (1u << 30),
                      2),
         format_fixed(rc.cost.predicted_rel_error, 4),
         format_fixed(rc.cost.exchange_bytes / 1e6, 1),
         format_fixed(rc.cost.wire.total_seconds() * 1e3, 3),
         format_fixed(rc.cost.compute_seconds, 4),
         format_fixed(rc.cost.total_seconds(), 4),
         rc.cost.exact_traffic ? "exact" : "model"});
  }
  table.print();
}

int run_json_probe() {
  bench::JsonTable table("planner",
                         "Planner picks, modeled throughput (deterministic)");
  table.header({"case", "n", "batch", "path", "mitems_per_s", "feasible",
                "gated"});
  table.meta("units", "mitems_per_s (modeled)");

  bool ok = true;
  for (const i64 n : {i64{64}, i64{128}}) {
    const planner::PlanRequest req = paper_request(n, 64, 8);
    const planner::Planner planner;
    const planner::ExecutionPlan plan = planner.plan(req);
    const GateResult gate = gate_pick_vs_exhaustive(req, plan);
    ok = ok && gate.ok;

    const bool feasible =
        plan.cost.feasible &&
        plan.cost.memory_bytes <= req.device.capacity_bytes;
    if (!feasible) {
      std::printf("FAIL: N=%lld pick infeasible\n", static_cast<long long>(n));
      ok = false;
    }
    const double mitems =
        static_cast<double>(Grid3::cube(n).size()) /
        std::max(plan.cost.total_seconds(), 1e-12) / 1e6;
    table.row({"planner_pick", std::to_string(n),
               std::to_string(plan.params().batch), "modeled",
               format_fixed(mitems, 1), feasible ? "1" : "0", "1"});
    // Informational row: the best baseline-FFT variant the pick beat.
    for (const auto& rc : plan.ranked) {
      if (rc.candidate.kind == planner::DecompKind::kBlock) continue;
      const double base_mitems =
          static_cast<double>(Grid3::cube(n).size()) /
          std::max(rc.cost.total_seconds(), 1e-12) / 1e6;
      table.row({"baseline_" + rc.candidate.name(), std::to_string(n),
                 std::to_string(plan.params().batch), "modeled",
                 format_fixed(base_mitems, 1), rc.cost.feasible ? "1" : "0",
                 "0"});
    }
  }
  table.print();
  return ok ? 0 : 1;
}

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// --fit-calibration: fit from a telemetry history, print/save the fit, and
/// (with --drift-gate) check the closed loop actually tightened compute
/// predictions. Prediction error is evaluated against EXECUTED records —
/// the held-out file from --drift-against when given (a re-run after the
/// fit: the honest closed loop), else the fit history itself. A serial
/// micro-probe would not do here: the history's measured compute includes
/// the concurrency the real runs execute under, which is exactly the
/// machine behaviour the calibration exists to capture.
int run_calibration(const std::string& history, const std::string& out,
                    bool drift_gate, const std::string& eval_path) {
  const planner::Calibration cal = planner::fit_calibration_file(history);
  if (!cal.valid) {
    std::printf("FAIL: %s yielded no usable fit (%d samples, min %d)\n",
                history.c_str(), cal.samples,
                planner::kMinCalibrationSamples);
    return 1;
  }
  const double static_rate = planner::PlanRequest{}.compute_rate_pps;
  std::printf(
      "calibration fit from %s:\n"
      "  samples      %d\n"
      "  rate_pps     %.6g point-passes/s (static default %.6g)\n"
      "  intra (α,β)  (%.4g s/msg, %.4g s/B)\n"
      "  inter (α,β)  (%.4g s/msg, %.4g s/B)\n",
      history.c_str(), cal.samples, cal.rate_pps, static_rate,
      cal.intra_alpha, cal.intra_beta, cal.inter_alpha, cal.inter_beta);
  if (!out.empty()) {
    if (!planner::save_calibration(cal, out)) {
      std::printf("FAIL: cannot write calibration to %s\n", out.c_str());
      return 1;
    }
    std::printf("  saved to     %s\n", out.c_str());
  }
  if (!drift_gate) return 0;
  bool ok = true;

  // Gate 1: calibrated compute predictions must sit at most half as far
  // from the executed measurement as the static-DeviceSpec rate (median
  // relative error over the distributed records), unless the static rate
  // was already accurate (<5%: nothing worth halving).
  const std::string eval_file = eval_path.empty() ? history : eval_path;
  std::vector<double> errs_cal, errs_static;
  for (const obs::PlanOutcome& r : obs::read_plan_outcomes(eval_file)) {
    if (r.aborted || r.ranks <= 1 || r.meas_compute_s <= 0.0 ||
        r.pred_point_passes <= 0.0) {
      continue;
    }
    const auto rel_err = [&](double rate) {
      return std::abs(r.pred_point_passes / rate - r.meas_compute_s) /
             r.meas_compute_s;
    };
    errs_cal.push_back(rel_err(cal.rate_pps));
    errs_static.push_back(rel_err(static_rate));
  }
  if (errs_cal.empty()) {
    std::printf("FAIL: %s has no distributed records to evaluate against\n",
                eval_file.c_str());
    return 1;
  }
  const double med_cal = median_of(errs_cal);
  const double med_static = median_of(errs_static);
  const bool drift_ok = med_static < 0.05 || med_cal <= 0.5 * med_static;
  std::printf(
      "\ndrift gate vs %s (%zu records%s): median compute error "
      "static %.1f%%, calibrated %.1f%% %s\n",
      eval_file.c_str(), errs_cal.size(),
      eval_path.empty() ? ", self-eval" : ", held out", 100.0 * med_static,
      100.0 * med_cal, drift_ok ? "OK" : "FAIL");
  ok = ok && drift_ok;

  // Gate 2: re-ranked under the fitted rates, the pick must still land
  // within 10% of the exhaustive exact sweep on the paper shapes.
  for (const i64 n : {i64{64}, i64{128}}) {
    const planner::PlanRequest cal_req =
        planner::apply_calibration(paper_request(n, 64, 8), cal);
    const planner::Planner planner;
    const planner::ExecutionPlan plan = planner.plan(cal_req);
    const GateResult gate = gate_pick_vs_exhaustive(cal_req, plan);
    std::printf("N=%lld calibrated pick %s: exact total %.6f s, sweep best "
                "%.6f s %s\n",
                static_cast<long long>(n), plan.choice.name().c_str(),
                gate.pick_total, gate.best_total, gate.ok ? "OK" : "FAIL");
    ok = ok && gate.ok;
  }
  if (ok) {
    std::puts("\ndrift gate: the fitted calibration halves compute "
              "prediction error on\nexecuted runs and keeps the re-ranked "
              "pick within 10% of the sweep.");
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string fit_path, cal_out, drift_against;
  bool drift_gate = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--fit-calibration") == 0 && i + 1 < argc) {
      fit_path = argv[i + 1];
    }
    if (std::strcmp(argv[i], "--calibration-out") == 0 && i + 1 < argc) {
      cal_out = argv[i + 1];
    }
    if (std::strcmp(argv[i], "--drift-against") == 0 && i + 1 < argc) {
      drift_against = argv[i + 1];
    }
    if (std::strcmp(argv[i], "--drift-gate") == 0) drift_gate = true;
  }
  if (!fit_path.empty()) {
    return run_calibration(fit_path, cal_out, drift_gate, drift_against);
  }

  const bool json_probe =
      argc > 1 && std::any_of(argv + 1, argv + argc, [](const char* a) {
        return std::strcmp(a, "--json-probe") == 0;
      });
  if (json_probe) return run_json_probe();

  const planner::PlanRequest req = paper_request(128, 64, 8);
  const planner::Planner planner;
  const planner::ExecutionPlan plan = planner.plan(req);

  std::printf("pick: %s\n\n", plan.choice.name().c_str());
  print_ranked(req, plan, 12);
  std::puts("");

  const GateResult gate = gate_pick_vs_exhaustive(req, plan);
  std::printf("acceptance: pick exact total %.6f s, sweep best %.6f s "
              "(gap %.1f%%)\n\n",
              gate.pick_total, gate.best_total,
              100.0 * (gate.pick_total / gate.best_total - 1.0));

  std::puts(
      "Shape check: the pick is a feasible block plan within 10% of the\n"
      "exhaustive exact sweep.");
  return gate.ok ? 0 : 1;
}
