// conv-flat / conv-grouped: one distributed low-communication convolve on a
// 4-rank SimCluster, against the executed slab-FFT baseline and the dense
// single-process reference.
//
// conv-flat — the paper's POC shape. Local convolve and accumulate dominate,
//   so core/fft/sampling gains show here; the wire is bit-exact, so the
//   error is pure sampling error; intra-node traffic is zero by
//   construction.
// conv-grouped — the only workload that runs the node-multicast exchange and
//   a lossy codec (q16). Exchange-schedule and intra-node scatter changes
//   show here; conv-flat is where they should show no change.
//
// The traced run replays distributed_lowcomm_convolve's SPMD sequence from
// public calls inside SimCluster::run (assign, octrees, convolve_one,
// encode, exchange, decode, accumulate_region) with a span around each, and
// fails unless its output is bit-identical to the library call.
#include <memory>

#include "baseline/dense.hpp"
#include "baseline/distributed_fft.hpp"
#include "bench_common.hpp"
#include "comm/hierarchical.hpp"
#include "comm/sim_cluster.hpp"
#include "comm/wire_codec.hpp"
#include "core/accumulator.hpp"
#include "core/pipeline.hpp"
#include "green/gaussian.hpp"

namespace perfbench {
namespace {

using namespace lc;

constexpr int kRanks = 4;

struct ConvShape {
  Grid3 grid;
  core::LowCommParams params;
  comm::Topology topo;
  core::ExchangeRoute route;
  double sigma = 2.0;
  std::uint64_t input_seed = 0;
};

ConvShape conv_shape(const Options& opt, bool grouped) {
  ConvShape s{Grid3::cube(opt.tiny ? 32 : 128), {}, comm::Topology::flat(kRanks),
              core::ExchangeRoute::kFlat};
  s.params.subdomain = opt.tiny ? 16 : 32;
  s.params.far_rate = 8;
  s.params.dense_halo = 2;
  s.params.boundary_band = 0;
  s.params.wire = grouped ? comm::WireCodec::kQ16 : comm::WireCodec::kOff;
  if (grouped) {
    s.topo = comm::Topology::grouped(kRanks, 2);
    s.route = core::ExchangeRoute::kHierarchical;
  }
  s.input_seed = derive_seed(opt.seed, grouped ? 2 : 1);
  return s;
}

bool same_traffic(const comm::LevelTraffic& a, const comm::LevelTraffic& b) {
  return a.intra_bytes == b.intra_bytes && a.inter_bytes == b.inter_bytes &&
         a.intra_messages == b.intra_messages &&
         a.inter_messages == b.inter_messages;
}

/// Which destination lanes (ranks on the flat route, nodes on the
/// hierarchical one) need each octree cell — the benchmark's copy of the
/// pipeline's per-cell destination masks.
class DestMasks {
 public:
  DestMasks(const sampling::Octree& tree, const core::DomainDecomposition& decomp,
            const std::vector<int>& lane_of, int lanes)
      : lanes_(static_cast<std::size_t>(lanes)) {
    const auto cells = tree.cells();
    need_.assign(cells.size() * lanes_, 0);
    for (std::size_t ci = 0; ci < cells.size(); ++ci) {
      const Box3 box = cells[ci].box();
      for (std::size_t d = 0; d < decomp.count(); ++d) {
        if (box.intersect(decomp.subdomain(d)).empty()) continue;
        need_[ci * lanes_ + static_cast<std::size_t>(lane_of[d])] = 1;
      }
    }
  }
  [[nodiscard]] bool needed(std::size_t cell, int lane) const {
    return need_[cell * lanes_ + static_cast<std::size_t>(lane)] != 0;
  }

 private:
  std::size_t lanes_;
  std::vector<unsigned char> need_;
};

/// Wire bytes vs raw sample bytes of every bundle that leaves a rank.
struct CodecTally {
  std::mutex mutex;
  double raw_bytes = 0.0;
  double wire_bytes = 0.0;
  double max_abs_error = 0.0;
  void add(const comm::WireEncoder& enc, std::size_t wire_doubles) {
    std::lock_guard lock(mutex);
    raw_bytes += static_cast<double>(enc.raw_bytes());
    wire_bytes += static_cast<double>(wire_doubles * sizeof(double));
    max_abs_error = std::max(max_abs_error, enc.max_abs_error());
  }
};

// Layer spans under each rank span, in execution order.
constexpr const char* kRankLayers[] = {
    "core.engine_build", "core.assign",  "sampling.octree_build",
    "core.local_convolve", "comm.pack",  "comm.schedule",
    "comm.exchange",     "comm.unpack", "core.accumulate"};

/// distributed_lowcomm_convolve, step by step from public calls, with a
/// span around each layer. Returns the assembled field.
RealField traced_convolve(comm::SimCluster& cluster, const RealField& input,
                          const ConvShape& s,
                          const std::shared_ptr<const green::KernelSpectrum>& kernel,
                          SpanLog& log, int op, CodecTally& tally) {
  const int workers = cluster.size();
  const bool hier = s.route == core::ExchangeRoute::kHierarchical;
  const comm::WireCodec codec = s.params.wire;
  RealField assembled(s.grid, 0.0);
  std::mutex assemble_mutex;
  ScopedSpan root(log, "convolve", -1, op, -1);
  cluster.run([&](comm::Rank& rank) {
    const int me = rank.id();
    const ScopedSpan rank_span(log, "rank", root.id(), op, me);
    LayerSpans layer(log, rank_span.id(), op, me);

    layer.enter("core.engine_build");
    core::LocalConvolverConfig cfg;
    cfg.batch = s.params.batch;
    cfg.pool = nullptr;  // ranks are threads already
    const core::LowCommConvolution engine(s.grid, kernel, s.params, cfg);
    const auto& decomp = engine.decomposition();

    layer.enter("core.assign");
    std::vector<std::vector<std::size_t>> owned(static_cast<std::size_t>(workers));
    std::vector<int> owner_of(decomp.count(), 0);
    for (int r = 0; r < workers; ++r) {
      owned[static_cast<std::size_t>(r)] = decomp.assigned_to(r, workers);
      for (const std::size_t d : owned[static_cast<std::size_t>(r)]) {
        owner_of[d] = r;
      }
    }
    const auto& mine = owned[static_cast<std::size_t>(me)];
    const comm::Topology& topo = rank.topology();
    const int lanes = hier ? topo.nodes() : workers;
    std::vector<int> lane_of(decomp.count());
    for (std::size_t d = 0; d < decomp.count(); ++d) {
      lane_of[d] = hier ? topo.node_of(owner_of[d]) : owner_of[d];
    }
    const int my_lane = hier ? topo.node_of(me) : me;

    layer.enter("sampling.octree_build");
    for (std::size_t d = 0; d < decomp.count(); ++d) (void)engine.octree_for(d);

    layer.enter("core.local_convolve");
    std::vector<sampling::CompressedField> local;
    local.reserve(mine.size());
    for (const std::size_t d : mine) local.push_back(engine.convolve_one(input, d));

    layer.enter("comm.pack");
    std::vector<std::vector<double>> outgoing(static_cast<std::size_t>(lanes));
    {
      std::vector<DestMasks> masks;
      masks.reserve(local.size());
      for (const auto& c : local) masks.emplace_back(c.octree(), decomp, lane_of, lanes);
      for (int dst = 0; dst < lanes; ++dst) {
        auto& buf = outgoing[static_cast<std::size_t>(dst)];
        comm::WireEncoder enc(codec, buf);
        for (std::size_t i = 0; i < local.size(); ++i) {
          const auto cells = local[i].octree().cells();
          const auto payload = local[i].samples();
          for (std::size_t ci = 0; ci < cells.size(); ++ci) {
            if (!masks[i].needed(ci, dst)) continue;
            enc.add_cell(payload.subspan(cells[ci].sample_offset,
                                         cells[ci].sample_count()));
          }
        }
        enc.finish();
        const bool leaves = hier ? (dst != my_lane || topo.members(my_lane).size() > 1)
                                 : dst != me;
        if (leaves) tally.add(enc, buf.size());
      }
    }

    std::vector<std::vector<double>> incoming;
    if (hier) {
      // Every rank derives the full bundle-size table from the
      // deterministic octrees; it frames the multicast without metadata.
      layer.enter("comm.schedule");
      std::vector<std::vector<std::size_t>> sizes(
          static_cast<std::size_t>(workers),
          std::vector<std::size_t>(static_cast<std::size_t>(lanes), 0));
      for (int src = 0; src < workers; ++src) {
        auto& row = sizes[static_cast<std::size_t>(src)];
        for (const std::size_t d : owned[static_cast<std::size_t>(src)]) {
          const auto tree = engine.octree_for(d);
          const DestMasks masks(*tree, decomp, lane_of, lanes);
          const auto cells = tree->cells();
          for (std::size_t ci = 0; ci < cells.size(); ++ci) {
            for (int n = 0; n < lanes; ++n) {
              if (masks.needed(ci, n)) {
                row[static_cast<std::size_t>(n)] +=
                    comm::encoded_cell_bytes(codec, cells[ci].sample_count());
              }
            }
          }
        }
        for (std::size_t& b : row) b = comm::wire_doubles(b);
      }
      layer.enter("comm.exchange");
      incoming = comm::node_multicast_exchange(
          rank, outgoing, [&](int src, int dst_node) {
            return sizes[static_cast<std::size_t>(src)]
                        [static_cast<std::size_t>(dst_node)];
          });
    } else {
      layer.enter("comm.exchange");
      incoming = rank.all_to_all(outgoing);
    }

    layer.enter("comm.unpack");
    std::vector<sampling::CompressedField> contributions;
    contributions.reserve(decomp.count());
    for (int src = 0; src < workers; ++src) {
      comm::WireDecoder dec(codec, incoming[static_cast<std::size_t>(src)]);
      for (const std::size_t d : owned[static_cast<std::size_t>(src)]) {
        sampling::CompressedField c(engine.octree_for(d));
        auto payload = c.samples();
        const DestMasks masks(c.octree(), decomp, lane_of, lanes);
        const auto cells = c.octree().cells();
        for (std::size_t ci = 0; ci < cells.size(); ++ci) {
          if (!masks.needed(ci, my_lane)) continue;
          dec.read_cell(payload.subspan(cells[ci].sample_offset,
                                        cells[ci].sample_count()));
        }
        contributions.push_back(std::move(c));
      }
      dec.finish();
    }

    layer.enter("core.accumulate");
    for (const std::size_t d : mine) {
      const Box3& box = decomp.subdomain(d);
      const RealField tile =
          core::accumulate_region(contributions, box, s.params.interpolation);
      std::lock_guard lock(assemble_mutex);
      assembled.insert(tile, box.lo);
    }
  });
  return assembled;
}

/// Per-layer metrics of the traced convolves `ops` in `log`.
void layer_metrics(const SpanLog& log, int ops, Values& v) {
  const std::vector<Span> spans = log.spans();
  const auto rank_max = [&](const char* name) {
    std::vector<double> per_op;
    for (const auto& lanes : per_op_lane_seconds(spans, name, ops, kRanks)) {
      per_op.push_back(max_of(lanes));
    }
    return median(per_op);
  };
  v["core.local_convolve_s"] = rank_max("core.local_convolve");
  v["core.accumulate_s"] = rank_max("core.accumulate");
  v["core.engine_build_s"] = rank_max("core.engine_build");
  v["sampling.octree_build_s"] = rank_max("sampling.octree_build");
  v["comm.pack_s"] = rank_max("comm.pack");
  v["comm.schedule_s"] = rank_max("comm.schedule");
  v["comm.exchange_s"] = rank_max("comm.exchange");
  v["comm.unpack_s"] = rank_max("comm.unpack");

  std::vector<double> imbalance;
  for (const auto& lanes :
       per_op_lane_seconds(spans, "core.local_convolve", ops, kRanks)) {
    imbalance.push_back(max_of(lanes) / mean(lanes));
  }
  v["core.local_convolve_imbalance"] = median(imbalance);

  // Unattributed: the share of each op's wall that no layer span of a rank
  // covers (thread start/join, the idle tail of early-finishing ranks).
  std::vector<std::vector<double>> attributed(
      static_cast<std::size_t>(ops), std::vector<double>(kRanks, 0.0));
  for (const char* name : kRankLayers) {
    const auto per = per_op_lane_seconds(spans, name, ops, kRanks);
    for (int o = 0; o < ops; ++o) {
      for (int r = 0; r < kRanks; ++r) {
        attributed[static_cast<std::size_t>(o)][static_cast<std::size_t>(r)] +=
            per[static_cast<std::size_t>(o)][static_cast<std::size_t>(r)];
      }
    }
  }
  std::vector<double> unattributed;
  for (const Span& sp : spans) {
    if (sp.parent != -1 || sp.op < 0 || sp.op >= ops) continue;
    unattributed.push_back(
        1.0 - mean(attributed[static_cast<std::size_t>(sp.op)]) / sp.seconds());
  }
  v["trace.unattributed_share"] = median(unattributed);
}

std::vector<double> root_seconds(const SpanLog& log) {
  std::vector<double> out;
  for (const Span& sp : log.spans()) {
    if (sp.parent == -1) out.push_back(sp.seconds());
  }
  return out;
}

}  // namespace

Result run_conv(const Options& opt, bool grouped) {
  const ConvShape s = conv_shape(opt, grouped);
  const RealField input = random_sign_field(s.grid, s.input_seed);
  Result r;
  Values v;

  // Cold start: kernel spectrum, cluster, first distributed convolve.
  const Clock::time_point t_setup = Clock::now();
  const auto kernel = std::make_shared<const green::GaussianSpectrum>(s.grid, s.sigma);
  comm::SimCluster cluster(s.topo);
  const RealField first = core::distributed_lowcomm_convolve(
      cluster, input, s.grid, kernel, s.params, s.route);
  v["setup_s"] = seconds_since(t_setup);
  if (opt.setup_only) return setup_result(v["setup_s"]);

  // Ground truth: the dense reference and the static traffic mirror.
  const Clock::time_point t_dense = Clock::now();
  const RealField dense = baseline::dense_convolve_r2c(input, *kernel, &worker_pool());
  v["baseline.dense_ref_s"] = seconds_since(t_dense);
  const comm::LevelTraffic expect =
      core::lowcomm_exchange_traffic(s.grid, s.params, s.topo, s.route);
  const auto check_convolve = [&](const RealField& out) {
    const double err = relative_l2_error(out.span(), dense.span());
    const bool traffic_ok = same_traffic(cluster.stats().level_traffic(), expect);
    r.check(err <= 0.03 && traffic_ok && bit_identical(out, first),
            "convolve: rel_l2=" + std::to_string(err) +
                (traffic_ok ? "" : ", executed traffic != static mirror"));
    return err;
  };
  check_convolve(first);

  // Executed slab-FFT baseline on the same cluster shape (the first call
  // builds its plans and is not timed).
  comm::SimCluster slab_cluster(s.topo);
  std::vector<double> slab_s;
  for (int i = 0; i < 9; ++i) {
    slab_cluster.reset_stats();
    const Clock::time_point t = Clock::now();
    const RealField out = baseline::distributed_fft_convolve(slab_cluster, input, kernel);
    if (i > 0) slab_s.push_back(seconds_since(t));
    const double err = relative_l2_error(out.span(), dense.span());
    r.check(err <= 1e-12, "slab FFT vs dense: rel_l2=" + std::to_string(err));
  }
  v["baseline_s"] = median(slab_s);
  v["baseline.slab_bytes"] = static_cast<double>(slab_cluster.stats().bytes_sent.load());
  v["baseline.slab_rounds"] =
      static_cast<double>(slab_cluster.stats().collective_rounds.load());

  // Warm untraced convolves: the end-to-end timings (trace off), or the
  // overhead baseline of the traced ones (trace on).
  std::vector<double> conv_s;
  double err = 0.0;
  const Clock::time_point t_loop = Clock::now();
  const double window = opt.trace ? 0.0 : opt.seconds;
  while (conv_s.size() < 3 || seconds_since(t_loop) < window) {
    cluster.reset_stats();
    const Clock::time_point t = Clock::now();
    const RealField out = core::distributed_lowcomm_convolve(
        cluster, input, s.grid, kernel, s.params, s.route);
    conv_s.push_back(seconds_since(t));
    err = check_convolve(out);
  }
  const double loop_s = seconds_since(t_loop);
  const comm::LevelTraffic executed = cluster.stats().level_traffic();

  if (!opt.trace) {
    v["op_s"] = median(conv_s);
    v["op_p90_s"] = quantile(conv_s, 0.9);
    v["ops_per_s"] = static_cast<double>(conv_s.size()) / loop_s;
    v["rel_l2_error"] = err;
    v["wire_bytes"] = static_cast<double>(executed.total_bytes());
    v["peak_rss_mb"] = peak_rss_mb();
    emit_metrics(r, false, v);
    std::fprintf(stderr, "%s: slab %.4f s; %zu warm convolves (s):",
                 opt.workload.c_str(), v["baseline_s"], conv_s.size());
    for (const double x : conv_s) std::fprintf(stderr, " %.3f", x);
    std::fprintf(stderr, "\n");
    return r;
  }

  // Traced convolves: same inputs, spans around every layer, rank waits
  // from the cluster's per-rank counters.
  SpanLog log;
  CodecTally tally;
  std::vector<double> recv_wait;
  std::vector<double> barrier_wait;
  std::vector<double> modeled_s;
  int ops = 0;
  const Clock::time_point t_traced = Clock::now();
  while (ops < 2 || seconds_since(t_traced) < opt.seconds) {
    cluster.reset_stats();
    const RealField out = traced_convolve(cluster, input, s, kernel, log, ops, tally);
    r.check(bit_identical(out, first) &&
                same_traffic(cluster.stats().level_traffic(), expect),
            "traced replay output or traffic differs from "
            "distributed_lowcomm_convolve");
    double recv = 0.0;
    double barrier = 0.0;
    for (int k = 0; k < kRanks; ++k) {
      recv = std::max(recv, cluster.rank_stats(k).recv_wait_seconds);
      barrier = std::max(barrier, cluster.rank_stats(k).barrier_wait_seconds);
    }
    recv_wait.push_back(recv);
    barrier_wait.push_back(barrier);
    modeled_s.push_back(cluster.stats().modeled_seconds());
    ++ops;
  }
  std::vector<double> modeled_over_measured;
  const auto exchange = per_op_lane_seconds(log.spans(), "comm.exchange", ops, kRanks);
  for (int o = 0; o < ops; ++o) {
    modeled_over_measured.push_back(modeled_s[static_cast<std::size_t>(o)] /
                                    max_of(exchange[static_cast<std::size_t>(o)]));
  }
  layer_metrics(log, ops, v);
  v["trace.overhead_ratio"] = median(root_seconds(log)) / median(conv_s);
  v["comm.recv_wait_s"] = median(recv_wait);
  v["comm.barrier_wait_s"] = median(barrier_wait);
  v["comm.modeled_over_measured"] = median(modeled_over_measured);
  v["comm.intra_bytes"] = static_cast<double>(executed.intra_bytes);
  v["comm.inter_bytes"] = static_cast<double>(executed.inter_bytes);
  v["comm.intra_msgs"] = static_cast<double>(executed.intra_messages);
  v["comm.inter_msgs"] = static_cast<double>(executed.inter_messages);
  v["comm.encoded_over_raw"] = tally.wire_bytes / tally.raw_bytes;
  v["comm.max_quant_error"] = tally.max_abs_error;

  // Sampling census of the decomposition's octrees.
  const core::LowCommConvolution engine(s.grid, kernel, s.params);
  const auto& decomp = engine.decomposition();
  double cells = 0.0;
  double samples = 0.0;
  for (std::size_t d = 0; d < decomp.count(); ++d) {
    cells += static_cast<double>(engine.octree_for(d)->cells().size());
    samples += static_cast<double>(engine.octree_for(d)->total_samples());
  }
  v["core.subdomains"] = static_cast<double>(decomp.count());
  v["sampling.cells"] = cells;
  v["sampling.samples"] = samples;
  v["sampling.compression_ratio"] = static_cast<double>(decomp.count()) *
                                    static_cast<double>(s.grid.size()) / samples;
  emit_metrics(r, true, v);
  if (!log.write(opt.out_dir + "/trace-" + opt.workload + ".json")) {
    std::fprintf(stderr, "warning: could not write the trace file\n");
  }
  return r;
}

}  // namespace perfbench
