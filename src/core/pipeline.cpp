#include "core/pipeline.hpp"

#include <atomic>
#include <cmath>
#include <functional>
#include <optional>
#include <span>

#include "comm/hierarchical.hpp"
#include "comm/wire_codec.hpp"
#include "common/check.hpp"
#include "common/timer.hpp"
#include "device/memory_model.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "sampling/octree.hpp"

namespace lc::core {

namespace {

// End-to-end pipeline metrics: one "pipeline.convolve_seconds" sample per
// convolve() call; the counters accumulate the compressed-exchange volume
// the comm-volume report reads back per run.
struct PipelineMetrics {
  obs::Histogram& convolve_seconds = obs::Registry::global().histogram(
      "pipeline.convolve_seconds");
  obs::Counter& subdomains = obs::Registry::global().counter(
      "pipeline.subdomains");
  obs::Counter& compressed_samples = obs::Registry::global().counter(
      "pipeline.compressed_samples");
  obs::Counter& exchanged_bytes = obs::Registry::global().counter(
      "pipeline.exchanged_bytes");

  static PipelineMetrics& get() {
    static PipelineMetrics m;
    return m;
  }
};

}  // namespace

sampling::SamplingPolicy LowCommParams::make_policy() const {
  if (uniform_rate.has_value()) {
    return sampling::SamplingPolicy::uniform(*uniform_rate, boundary_band);
  }
  return sampling::SamplingPolicy::paper_default(subdomain, far_rate,
                                                 boundary_band, dense_halo);
}

LowCommConvolution::LowCommConvolution(
    const Grid3& grid, std::shared_ptr<const green::KernelSpectrum> kernel,
    LowCommParams params, LocalConvolverConfig config)
    : decomp_(grid, params.subdomain),
      params_(params),
      convolver_(grid, std::move(kernel), config),
      octrees_(decomp_.count()) {}

std::shared_ptr<const sampling::Octree> LowCommConvolution::octree_for(
    std::size_t subdomain_index) const {
  LC_CHECK_ARG(subdomain_index < decomp_.count(), "sub-domain index range");
  OctreeSlot& slot = octrees_[subdomain_index];
  std::call_once(slot.once, [&] {
    slot.tree = std::make_shared<sampling::Octree>(
        decomp_.grid(), decomp_.subdomain(subdomain_index),
        params_.make_policy());
  });
  return slot.tree;
}

void LowCommConvolution::seed_octree(
    std::size_t subdomain_index,
    std::shared_ptr<const sampling::Octree> tree) const {
  LC_CHECK_ARG(subdomain_index < decomp_.count(), "sub-domain index range");
  LC_CHECK_ARG(tree != nullptr, "null octree");
  LC_CHECK_ARG(tree->grid() == decomp_.grid() &&
                   tree->subdomain() == decomp_.subdomain(subdomain_index),
               "seeded octree does not match the sub-domain");
  OctreeSlot& slot = octrees_[subdomain_index];
  std::call_once(slot.once, [&] { slot.tree = std::move(tree); });
}

sampling::CompressedField LowCommConvolution::convolve_one(
    const RealField& input, std::size_t subdomain_index) const {
  LC_TRACE("pipeline.subdomain");
  LC_CHECK_ARG(input.grid() == decomp_.grid(), "input grid mismatch");
  const Box3& box = decomp_.subdomain(subdomain_index);
  const RealField chunk = input.extract(box);
  return convolver_.convolve_subdomain(chunk, box.lo,
                                       octree_for(subdomain_index));
}

LowCommResult LowCommConvolution::convolve(const RealField& input) const {
  LC_TRACE("pipeline.convolve");
  ScopedTimer convolve_timer(PipelineMetrics::get().convolve_seconds);
  const std::size_t count = decomp_.count();
  ThreadPool* pool = convolver_.config().pool;
  std::vector<std::optional<sampling::CompressedField>> slots(count);
  auto run = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t d = lo; d < hi; ++d) {
      slots[d].emplace(convolve_one(input, d));
    }
  };
  // Outer parallelism over sub-domains: the local convolver detects it is
  // running on one of the pool's own workers and degrades its internal
  // stages to serial, so each worker owns one sub-domain end to end.
  if (pool == nullptr || pool->size() <= 1 || count <= 1 ||
      pool->on_worker_thread()) {
    run(0, count);
  } else {
    pool->parallel_for_blocks(0, count, run);
  }

  std::vector<sampling::CompressedField> contributions;
  contributions.reserve(count);
  std::size_t samples = 0;
  std::size_t bytes = 0;
  for (auto& slot : slots) {
    samples += slot->samples().size();
    bytes += slot->encoded_sample_bytes(params_.wire);
    contributions.push_back(std::move(*slot));
  }
  PipelineMetrics& metrics = PipelineMetrics::get();
  metrics.subdomains.add(count);
  metrics.compressed_samples.add(samples);
  metrics.exchanged_bytes.add(bytes);
  LowCommResult result{accumulate_full(contributions, decomp_.grid(),
                                       params_.interpolation, pool),
                       samples, bytes, 0.0};
  // Ratio versus storing every sub-domain's full-resolution N³ result.
  result.compression_ratio =
      static_cast<double>(decomp_.count()) *
      static_cast<double>(decomp_.grid().size()) /
      static_cast<double>(samples);
  return result;
}

namespace {

/// Per-cell lane bitmask for one octree: bit l of mask(cell) is set iff the
/// cell's box overlaps a sub-domain whose lane is l. Built in ONE pass over
/// (cells × sub-domains) and queried O(1) afterwards.
class LaneMasks {
 public:
  LaneMasks(const sampling::Octree& tree, const DomainDecomposition& decomp,
            std::span<const int> lane_of, int lanes) {
    const auto cells = tree.cells();
    words_ = (static_cast<std::size_t>(lanes) + 63) / 64;
    bits_.assign(cells.size() * words_, 0);
    for (std::size_t ci = 0; ci < cells.size(); ++ci) {
      const Box3 box = cells[ci].box();
      for (std::size_t d = 0; d < decomp.count(); ++d) {
        if (box.intersect(decomp.subdomain(d)).empty()) continue;
        const auto l = static_cast<std::size_t>(lane_of[d]);
        bits_[ci * words_ + l / 64] |= std::uint64_t{1} << (l % 64);
      }
    }
  }

  [[nodiscard]] bool needed(std::size_t cell, int lane) const noexcept {
    const auto l = static_cast<std::size_t>(lane);
    return (bits_[cell * words_ + l / 64] >> (l % 64)) & 1u;
  }

 private:
  std::size_t words_ = 0;
  std::vector<std::uint64_t> bits_;
};

/// Source of per-sub-domain octrees for build_schedule: an engine's cached
/// slots, or trees built on the fly from (grid, params).
using OctreeSource =
    std::function<std::shared_ptr<const sampling::Octree>(std::size_t)>;

OctreeSource fresh_octrees(const DomainDecomposition& decomp,
                           const sampling::SamplingPolicy& policy) {
  return [&decomp, policy](std::size_t d) {
    return std::make_shared<const sampling::Octree>(
        decomp.grid(), decomp.subdomain(d), policy);
  };
}

/// The one exchange schedule of a distributed convolve (DESIGN.md §14),
/// built once from (decomposition, octrees, topology, route, codec). The
/// executor packs, frames and unpacks from it and the static traffic mirror
/// prices it, so the two cannot disagree. A *lane* is a destination group:
/// the owning rank on the flat route, the owning node on the hierarchical
/// one. Each cell travels once per lane whose sub-domains its box overlaps.
struct ExchangeSchedule {
  bool hierarchical = false;
  int lanes = 0;
  /// owned[r] = sub-domains rank r owns (ascending) — the owner map.
  std::vector<std::vector<std::size_t>> owned;
  /// Per sub-domain: its octree and its cells' lane masks.
  std::vector<std::shared_ptr<const sampling::Octree>> trees;
  std::vector<LaneMasks> masks;
  /// sizes[src][lane] = wire doubles rank src ships to lane: the encoded
  /// bytes of every packed cell, rounded up to whole doubles once per
  /// bundle — exactly the WireEncoder framing.
  std::vector<std::vector<std::size_t>> sizes;

  [[nodiscard]] int lane_of_rank(const comm::Topology& topo, int r) const {
    return hierarchical ? topo.node_of(r) : r;
  }

  [[nodiscard]] comm::LevelTraffic traffic(const comm::Topology& topo) const {
    return hierarchical ? comm::node_multicast_traffic(topo, sizes)
                        : comm::all_to_all_traffic(topo, sizes);
  }
};

ExchangeSchedule build_schedule(const DomainDecomposition& decomp,
                                const OctreeSource& octree_for,
                                const comm::Topology& topo,
                                bool hierarchical, comm::WireCodec codec) {
  const int workers = topo.ranks();
  ExchangeSchedule s;
  s.hierarchical = hierarchical;
  s.lanes = hierarchical ? topo.nodes() : workers;
  s.owned.resize(static_cast<std::size_t>(workers));
  std::vector<int> lane_of(decomp.count(), 0);
  for (int r = 0; r < workers; ++r) {
    s.owned[static_cast<std::size_t>(r)] = decomp.assigned_to(r, workers);
    for (const std::size_t d : s.owned[static_cast<std::size_t>(r)]) {
      lane_of[d] = s.lane_of_rank(topo, r);
    }
  }
  s.trees.reserve(decomp.count());
  s.masks.reserve(decomp.count());
  for (std::size_t d = 0; d < decomp.count(); ++d) {
    s.trees.push_back(octree_for(d));
    s.masks.emplace_back(*s.trees.back(), decomp, lane_of, s.lanes);
  }
  s.sizes.assign(
      static_cast<std::size_t>(workers),
      std::vector<std::size_t>(static_cast<std::size_t>(s.lanes), 0));
  for (int src = 0; src < workers; ++src) {
    auto& row = s.sizes[static_cast<std::size_t>(src)];
    for (const std::size_t d : s.owned[static_cast<std::size_t>(src)]) {
      const auto cells = s.trees[d]->cells();
      for (std::size_t ci = 0; ci < cells.size(); ++ci) {
        for (int l = 0; l < s.lanes; ++l) {
          if (s.masks[d].needed(ci, l)) {
            row[static_cast<std::size_t>(l)] +=
                comm::encoded_cell_bytes(codec, cells[ci].sample_count());
          }
        }
      }
    }
    for (std::size_t& b : row) b = comm::wire_doubles(b);
  }
  return s;
}

ExchangeSchedule engine_schedule(const LowCommConvolution& engine,
                                 const comm::Topology& topo,
                                 ExchangeRoute route) {
  return build_schedule(
      engine.decomposition(),
      [&](std::size_t d) { return engine.octree_for(d); }, topo,
      routes_hierarchically(route, topo), engine.params().wire);
}

}  // namespace

bool routes_hierarchically(ExchangeRoute route, const comm::Topology& topo) {
  if (route == ExchangeRoute::kFlat) return false;
  if (route == ExchangeRoute::kHierarchical) return true;
  return !topo.is_flat();
}

std::size_t lowcomm_exchange_bytes(const LowCommConvolution& engine,
                                   int workers) {
  // The flat route on a trivial topology: per ordered rank pair, encoded
  // bundle bytes rounded to whole wire doubles, self-delivery excluded —
  // byte-identical to what a flat SimCluster run records.
  const comm::Topology topo = comm::Topology::flat(workers);
  return engine_schedule(engine, topo, ExchangeRoute::kFlat)
      .traffic(topo)
      .total_bytes();
}

comm::LevelTraffic lowcomm_exchange_traffic(const LowCommConvolution& engine,
                                            const comm::Topology& topo,
                                            ExchangeRoute route) {
  return engine_schedule(engine, topo, route).traffic(topo);
}

comm::LevelTraffic lowcomm_exchange_traffic(const Grid3& grid,
                                            const LowCommParams& params,
                                            const comm::Topology& topo,
                                            ExchangeRoute route) {
  const DomainDecomposition decomp(grid, params.subdomain);
  return build_schedule(decomp, fresh_octrees(decomp, params.make_policy()),
                        topo, routes_hierarchically(route, topo), params.wire)
      .traffic(topo);
}

namespace {

/// Point-in-time copy of the cluster counters the telemetry record diffs
/// (CommStats aggregates plus the per-rank wait totals summed over ranks).
struct ClusterCounters {
  std::size_t bytes = 0;
  std::size_t intra_bytes = 0;
  std::size_t inter_bytes = 0;
  std::size_t intra_msgs = 0;
  std::size_t inter_msgs = 0;
  std::int64_t modeled_ns = 0;
  std::int64_t intra_modeled_ns = 0;
  std::int64_t inter_modeled_ns = 0;
  std::int64_t barrier_wait_ns = 0;
  std::int64_t recv_wait_ns = 0;
};

ClusterCounters snapshot_counters(const comm::SimCluster& cluster) {
  const comm::CommStats& s = cluster.stats();
  ClusterCounters c;
  c.bytes = s.bytes_sent.load();
  c.intra_bytes = s.intra_bytes_sent.load();
  c.inter_bytes = s.inter_bytes_sent.load();
  c.intra_msgs = s.intra_messages.load();
  c.inter_msgs = s.inter_messages.load();
  c.modeled_ns = s.modeled_nanos.load();
  c.intra_modeled_ns = s.intra_modeled_nanos.load();
  c.inter_modeled_ns = s.inter_modeled_nanos.load();
  for (int r = 0; r < cluster.size(); ++r) {
    const comm::RankCommStats rs = cluster.rank_stats(r);
    c.barrier_wait_ns += rs.barrier_wait_ns;
    c.recv_wait_ns += rs.recv_wait_ns;
  }
  return c;
}

}  // namespace

RealField distributed_lowcomm_convolve(
    comm::SimCluster& cluster, const RealField& input, const Grid3& grid,
    std::shared_ptr<const green::KernelSpectrum> kernel,
    const LowCommParams& params, ExchangeRoute route) {
  const int workers = cluster.size();
  const comm::Topology& topo = cluster.topology();
  RealField assembled(grid, 0.0);
  std::mutex assemble_mutex;
  obs::Tracer& tracer = obs::Tracer::global();
  const std::int64_t wall_start = tracer.now_ns();

  // Octrees are reproducible from (grid, params), so every rank agrees on
  // the schedule without any metadata exchange; build it once, here, and
  // let the ranks only read it.
  const DomainDecomposition decomp(grid, params.subdomain);
  const ExchangeSchedule sched = build_schedule(
      decomp, fresh_octrees(decomp, params.make_policy()), topo,
      routes_hierarchically(route, topo), params.wire);

  // Plan-vs-actual telemetry (DESIGN.md §18): when LC_TELEMETRY is active,
  // freeze the cost-model predictions for THIS (params, topology, route)
  // before running — the schedule's exact traffic, per-level α-β times at
  // the cluster's own link models, the shared compute formula at the static
  // default rate (the planner's 2e8 point-passes/s baseline; drift against
  // it is exactly what the calibration fitter learns from) — then diff the
  // executed counters into the measured side.
  const bool telemetry = obs::telemetry_enabled();
  obs::PlanOutcome rec;
  ClusterCounters before;
  std::atomic<std::int64_t> max_local_convolve_ns{0};
  std::atomic<std::size_t> max_device_peak{0};
  if (telemetry) {
    rec.source = "pipeline";
    rec.n = grid.nx;
    rec.ranks = workers;
    rec.nodes = topo.nodes();
    rec.k = params.subdomain;
    rec.far_rate = static_cast<int>(params.far_rate);
    rec.schedule = params.uniform_rate ? "uniform" : "banded";
    rec.route = sched.hierarchical ? "hierarchical" : "flat";
    rec.wire = comm::codec_name(params.wire);
    rec.batch = static_cast<std::int64_t>(params.batch);

    const auto traffic = sched.traffic(topo);
    rec.pred_bytes = static_cast<std::int64_t>(traffic.total_bytes());
    rec.pred_intra_bytes = static_cast<std::int64_t>(traffic.intra_bytes);
    rec.pred_inter_bytes = static_cast<std::int64_t>(traffic.inter_bytes);
    rec.pred_intra_msgs = static_cast<std::int64_t>(traffic.intra_messages);
    rec.pred_inter_msgs = static_cast<std::int64_t>(traffic.inter_messages);
    const auto times = comm::predict_exchange_times(traffic, cluster.links());
    rec.pred_intra_s = times.intra_seconds;
    rec.pred_inter_s = times.inter_seconds;
    rec.pred_wire_s = times.total_seconds();

    // Compute model: the central sub-domain's octree (the block at
    // blocks/2 on every axis), the same formula the planner prices with
    // (obs::modeled_point_passes).
    const auto blocks = static_cast<std::size_t>(grid.nx / params.subdomain);
    const std::size_t mid = blocks / 2;
    const sampling::Octree& central =
        *sched.trees[(mid * blocks + mid) * blocks + mid];
    const double owned =
        std::ceil(static_cast<double>(decomp.count()) /
                  static_cast<double>(std::max(workers, 1)));
    rec.pred_point_passes =
        owned * obs::modeled_point_passes(grid.nx, params.subdomain,
                                          central.retained_z_planes().size());
    rec.pred_rate_pps = 2e8;  // PlanRequest::compute_rate_pps default
    rec.pred_compute_s = rec.pred_point_passes / rec.pred_rate_pps;
    rec.pred_memory_b = static_cast<std::int64_t>(
        device::plan_local_pipeline(grid.nx, params.subdomain,
                                    params.make_policy(), params.batch)
            .actual_total());
    before = snapshot_counters(cluster);
  }

  const auto emit_outcome = [&](bool aborted) {
    rec.aborted = aborted;
    rec.meas_wall_s =
        static_cast<double>(tracer.now_ns() - wall_start) * 1e-9;
    rec.meas_compute_s =
        static_cast<double>(max_local_convolve_ns.load()) * 1e-9;
    const ClusterCounters after = snapshot_counters(cluster);
    rec.meas_bytes = static_cast<std::int64_t>(after.bytes - before.bytes);
    rec.meas_intra_bytes =
        static_cast<std::int64_t>(after.intra_bytes - before.intra_bytes);
    rec.meas_inter_bytes =
        static_cast<std::int64_t>(after.inter_bytes - before.inter_bytes);
    rec.meas_intra_msgs =
        static_cast<std::int64_t>(after.intra_msgs - before.intra_msgs);
    rec.meas_inter_msgs =
        static_cast<std::int64_t>(after.inter_msgs - before.inter_msgs);
    rec.meas_wire_s =
        static_cast<double>(after.modeled_ns - before.modeled_ns) * 1e-9;
    rec.meas_intra_wire_s =
        static_cast<double>(after.intra_modeled_ns - before.intra_modeled_ns) *
        1e-9;
    rec.meas_inter_wire_s =
        static_cast<double>(after.inter_modeled_ns - before.inter_modeled_ns) *
        1e-9;
    rec.meas_barrier_wait_s =
        static_cast<double>(after.barrier_wait_ns - before.barrier_wait_ns) *
        1e-9;
    rec.meas_recv_wait_s =
        static_cast<double>(after.recv_wait_ns - before.recv_wait_ns) * 1e-9;
    rec.meas_memory_peak_b =
        static_cast<std::int64_t>(max_device_peak.load());
    rec.meas_max_quant_error =
        obs::Registry::global().gauge("exchange.max_quant_error").value();
    obs::record_plan_outcome(rec);
  };

  const auto body = [&](comm::Rank& rank) {
    LocalConvolverConfig cfg;
    cfg.batch = params.batch;
    cfg.pool = nullptr;  // ranks are already threads; keep them single-core
    // Telemetry measures the per-rank allocation peak through a private
    // DeviceContext (unlimited spec: tracking only, never admission).
    device::DeviceContext rank_device(device::DeviceSpec::unlimited());
    if (telemetry) cfg.device = &rank_device;
    LowCommConvolution engine(grid, kernel, params, cfg);
    const int me = rank.id();
    const int my_lane = sched.lane_of_rank(topo, me);
    const auto& mine = sched.owned[static_cast<std::size_t>(me)];
    for (const std::size_t d : mine) engine.seed_octree(d, sched.trees[d]);

    std::vector<sampling::CompressedField> local;
    local.reserve(mine.size());
    {
      LC_TRACE("exchange.local_convolve");
      const std::int64_t t0 = tracer.now_ns();
      for (const std::size_t d : mine) {
        local.push_back(engine.convolve_one(input, d));
      }
      // Telemetry's measured compute is the slowest rank's local-convolve
      // time — the quantity the compute model predicts (lock-free max).
      const std::int64_t took = tracer.now_ns() - t0;
      std::int64_t cur = max_local_convolve_ns.load(std::memory_order_relaxed);
      while (cur < took && !max_local_convolve_ns.compare_exchange_weak(
                               cur, took, std::memory_order_relaxed)) {
      }
    }

    static obs::Counter& samples_shipped =
        obs::Registry::global().counter("exchange.samples_shipped");
    static obs::Counter& payload_bytes =
        obs::Registry::global().counter("exchange.payload_bytes");
    static obs::Counter& bytes_saved =
        obs::Registry::global().counter("exchange.bytes_saved");
    static obs::Gauge& max_quant_error =
        obs::Registry::global().gauge("exchange.max_quant_error");

    // The single global exchange of the method (Fig 1b): one bundle per
    // lane, holding only the cells whose boxes overlap that lane's regions.
    std::vector<std::vector<double>> outgoing(
        static_cast<std::size_t>(sched.lanes));
    {
      LC_TRACE("exchange.pack");
      // Only my own lane's bundle stays home, and only when I am alone in
      // it (a node bundle is multicast to my node-mates).
      const bool shared_lane =
          sched.hierarchical && topo.members(my_lane).size() > 1;
      for (int lane = 0; lane < sched.lanes; ++lane) {
        auto& buf = outgoing[static_cast<std::size_t>(lane)];
        comm::WireEncoder enc(params.wire, buf);
        for (std::size_t i = 0; i < mine.size(); ++i) {
          const LaneMasks& masks = sched.masks[mine[i]];
          const auto cells = local[i].octree().cells();
          const auto payload = local[i].samples();
          for (std::size_t ci = 0; ci < cells.size(); ++ci) {
            if (!masks.needed(ci, lane)) continue;
            enc.add_cell(payload.subspan(cells[ci].sample_offset,
                                         cells[ci].sample_count()));
          }
        }
        enc.finish();
        LC_CHECK(buf.size() == sched.sizes[static_cast<std::size_t>(me)]
                                          [static_cast<std::size_t>(lane)],
                 "packed bundle disagrees with the exchange schedule");
        if (lane == my_lane && !shared_lane) continue;
        // Unique payload leaving this rank, under the active codec: raw
        // samples shipped keep counting doubles (the pre-codec figure),
        // payload_bytes counts actual wire bytes, and their difference
        // accumulates into bytes_saved (saturating: tiny q16 cells can
        // cost more than raw).
        const std::size_t wire = buf.size() * sizeof(double);
        samples_shipped.add(enc.raw_bytes() / sizeof(double));
        payload_bytes.add(wire);
        bytes_saved.add(enc.raw_bytes() > wire ? enc.raw_bytes() - wire : 0);
        max_quant_error.record_max(enc.max_abs_error());
      }
    }

    std::vector<std::vector<double>> incoming;
    if (sched.hierarchical) {
      LC_TRACE("exchange.hierarchical");
      incoming = comm::node_multicast_exchange(
          rank, outgoing, [&](int src, int lane) {
            return sched.sizes[static_cast<std::size_t>(src)]
                              [static_cast<std::size_t>(lane)];
          });
    } else {
      LC_TRACE("exchange.all_to_all");
      incoming = rank.all_to_all(outgoing);
    }

    // Stream my lane's cells from every source straight into the
    // accumulator of each owned box the cell overlaps, in (source,
    // sub-domain, cell) order — the order accumulate_region sees the same
    // cells in. Each cell is decoded once into one reused scratch row; on
    // the hierarchical route, cells only my node-mates need are decoded
    // (to advance the stream) and dropped.
    LC_TRACE("exchange.unpack_accumulate");
    std::vector<Accumulator> accumulators;
    accumulators.reserve(mine.size());
    for (const std::size_t d : mine) {
      accumulators.emplace_back(decomp.subdomain(d), params.interpolation);
    }
    AlignedVector<double> scratch;
    for (int src = 0; src < workers; ++src) {
      comm::WireDecoder dec(params.wire,
                            incoming[static_cast<std::size_t>(src)]);
      for (const std::size_t d : sched.owned[static_cast<std::size_t>(src)]) {
        const auto cells = sched.trees[d]->cells();
        for (std::size_t ci = 0; ci < cells.size(); ++ci) {
          if (!sched.masks[d].needed(ci, my_lane)) continue;
          const sampling::OctreeCell& cell = cells[ci];
          if (scratch.size() < cell.sample_count()) {
            scratch.resize(cell.sample_count());
          }
          const std::span<double> samples(scratch.data(), cell.sample_count());
          dec.read_cell(samples);
          for (Accumulator& acc : accumulators) acc.add_cell(cell, samples);
        }
      }
      dec.finish();
    }

    // Finish the regions this rank owns (one interpolation per touched
    // cube and rate); stitch into the shared result (simulating the
    // distributed output staying in place).
    static obs::Histogram& region_seconds =
        obs::Registry::global().histogram("accumulate.region_seconds");
    for (std::size_t i = 0; i < mine.size(); ++i) {
      RealField tile;
      {
        LC_TRACE("accumulate.region");
        ScopedTimer region_timer(region_seconds);
        tile = accumulators[i].finish();
      }
      std::lock_guard lock(assemble_mutex);
      assembled.insert(tile, decomp.subdomain(mine[i]).lo);
    }
    if (telemetry) {
      const std::size_t peak = rank_device.peak_bytes();
      std::size_t cur = max_device_peak.load(std::memory_order_relaxed);
      while (cur < peak && !max_device_peak.compare_exchange_weak(
                               cur, peak, std::memory_order_relaxed)) {
      }
    }
  };

  if (!telemetry) {
    cluster.run(body);
    return assembled;
  }
  try {
    cluster.run(body);
  } catch (...) {
    // A rank abort still produces a well-formed record: the predictions
    // stand, the measured side reflects whatever executed before the
    // unwind, and aborted=true marks it unusable for calibration.
    emit_outcome(true);
    throw;
  }
  emit_outcome(false);
  return assembled;
}

}  // namespace lc::core
