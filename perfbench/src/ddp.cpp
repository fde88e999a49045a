// ddp-* workloads: the real DataParallelTrainer on ThreadComm, untraced, and
// the traced replay that times each layer through its public calls.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "core/parallel.hpp"
#include "perfbench.hpp"

namespace perfbench {

using namespace gradcomp;

namespace {

// A step slower than this counts as failed (a healthy step takes < 0.1 s).
constexpr double kStepDeadlineS = 2.0;
// Trainer steps the untraced run's replay gate compares.
constexpr int kReplayGateSteps = 8;
// Steps per block of the window (see BlockMedians); a block's p90 then has
// at least 10 samples beyond it.
constexpr std::size_t kBlockSteps = 100;
// Steps of the replay written to the trace file (all are kept in memory).
constexpr std::int64_t kTraceFileSteps = 200;
// Samples the loss-decrease gate evaluates.
constexpr std::int64_t kEvalSamples = 256;

compress::CompressorConfig topk_1pct() {
  compress::CompressorConfig c;
  c.method = compress::Method::kTopK;
  c.fraction = 0.01;
  c.error_feedback = true;
  return c;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

double ms(double seconds) { return seconds * 1e3; }

// Median of one ReplayStep field over steps [skip, end).
template <typename Field>
double median_of(const std::vector<ReplayStep>& steps, std::size_t skip, Field field) {
  std::vector<double> v;
  for (std::size_t i = skip; i < steps.size(); ++i) v.push_back(field(steps[i]));
  return median(std::move(v));
}

}  // namespace

// --- workloads -----------------------------------------------------------------

bool is_ddp_workload(const std::string& name) { return name.rfind("ddp-", 0) == 0; }

DdpSpec ddp_spec(const std::string& name) {
  DdpSpec s;
  if (name == "ddp-small-sync") {
    s.dims = {64, 64, 64, 64, 64, 64, 64, 10};  // 7 layers, 14 gradient tensors
    s.batch = 16;
    s.warmup_steps = 40;
  } else if (name == "ddp-mlp-topk") {
    s.dims = {64, 512, 512, 10};
    s.batch = 64;
    s.compression = topk_1pct();
    // Its ranks compute for most of a step, so at 3 ranks three of four
    // vCPUs stay busy and any other runnable thread preempts a rank and
    // stalls the step: over 8 alternating runs on a 4-vCPU VM, p90 / p50
    // ranged 1.09-1.29 at 3 ranks and 1.12-1.17 at 2.
    s.world = 2;
  } else {
    throw std::invalid_argument("unknown ddp workload '" + name + "'");
  }
  return s;
}

train::Dataset ddp_data(const DdpSpec& spec, std::uint64_t seed) {
  // Overlapping classes: the loss stays well above zero for the whole run.
  // On separable blobs it reaches ~1e-7 within a few hundred steps and the
  // step time then drifts up to 3x, by a seed-dependent amount (likely
  // subnormal floats in the saturated softmax).
  constexpr float kSpread = 12.0F;
  constexpr std::int64_t kPerClass = 1000;
  train::Dataset d = train::make_blobs(spec.dims.back(), spec.dims.front(), kPerClass, kSpread,
                                       seed * 7919U + 17U);
  d.x.scale(1.0F / kSpread);  // unit-scale inputs
  return d;
}

train::TrainerConfig ddp_config(const DdpSpec& spec, int world_size, std::uint64_t seed) {
  train::TrainerConfig c;
  c.world_size = world_size;
  c.layer_dims = spec.dims;
  c.compression = spec.compression;
  c.optimizer.lr = 0.01;
  c.optimizer.momentum = 0.9;
  c.batch_per_worker = spec.batch;
  c.seed = seed;
  return c;
}

// --- replay ----------------------------------------------------------------------

Replay::Replay(const train::TrainerConfig& config, const train::Dataset& data, Tracer* tracer)
    : config_(config), tracer_(tracer), comm_(config.world_size, config.comm_timeout) {
  const auto p = static_cast<std::size_t>(config_.world_size);
  shards_.reserve(p);
  models_.reserve(p);
  compressors_.reserve(p);
  optimizers_.reserve(p);
  for (int r = 0; r < config_.world_size; ++r) {
    const double t0 = tracer_ ? tracer_->now() : 0.0;
    shards_.push_back(train::shard(data, r, config_.world_size));
    if (tracer_) tracer_->add(config_.world_size, "train.shard", -1, t0, tracer_->now());
    models_.emplace_back(config_.layer_dims, config_.seed);
    compressors_.push_back(compress::make_compressor(config_.compression));
    optimizers_.emplace_back(config_.optimizer);
  }
}

ReplayStep Replay::step(bool traced) {
  Tracer* const tracer = traced ? tracer_ : nullptr;
  const int p = config_.world_size;
  const auto n = static_cast<std::size_t>(p);
  const std::size_t calls = 2 * models_.front().layers().size();
  const auto origin = std::chrono::steady_clock::now();
  const auto now = [&] { return tracer ? tracer->now() : seconds_since(origin); };

  std::vector<double> losses(n, 0.0);
  std::vector<double> body_s(n, 0.0), data_s(n, 0.0), fwd_bwd_s(n, 0.0), opt_s(n, 0.0),
      agg_s(n, 0.0);
  std::vector<compress::AggregateStats> agg(n);
  std::vector<std::vector<double>> entry(n, std::vector<double>(calls, 0.0));
  const std::uint64_t allreduce_before = comm_.allreduce_count();
  const std::int64_t s = step_;

  const double wall0 = now();
  comm::run_ranks(p, [&](int rank) {
    const auto r = static_cast<std::size_t>(rank);
    const double t0 = now();
    const train::Dataset local = train::batch(shards_[r], s, config_.batch_per_worker);
    const double t1 = now();
    losses[r] = models_[r].compute_gradients(local.x, local.y);
    const double t2 = now();
    auto& layers = models_[r].layers();
    for (std::size_t i = 0; i < layers.size(); ++i) {
      for (std::size_t j = 0; j < 2; ++j) {
        const double e = now();
        entry[r][2 * i + j] = e;
        agg[r] += compressors_[r]->aggregate(static_cast<compress::LayerId>(2 * i + j), rank,
                                             comm_, j == 0 ? layers[i].grad_w : layers[i].grad_b);
        if (tracer) tracer->add(rank, "compress.aggregate", s, e, now());
      }
    }
    const double t3 = now();
    optimizers_[r].step(models_[r]);
    const double t4 = now();
    data_s[r] = t1 - t0;
    fwd_bwd_s[r] = t2 - t1;
    agg_s[r] = t3 - t2;
    opt_s[r] = t4 - t3;
    body_s[r] = t4 - t0;
    if (tracer) {
      tracer->add(rank, "train.batch", s, t0, t1);
      tracer->add(rank, "train.fwd_bwd", s, t1, t2);
      tracer->add(rank, "train.optimizer", s, t3, t4);
      tracer->add(rank, "rank.step", s, t0, t4);
    }
  });
  const double wall1 = now();
  if (tracer) tracer->add(p, "comm.run_ranks", s, wall0, wall1);
  ++step_;

  ReplayStep out;
  for (std::size_t r = 0; r < n; ++r) out.mean_loss += losses[r];
  out.mean_loss /= static_cast<double>(p);
  double wait_s = 0.0;
  for (std::size_t c = 0; c < calls; ++c) {
    double last = 0.0;
    for (std::size_t r = 0; r < n; ++r) last = std::max(last, entry[r][c]);
    for (std::size_t r = 0; r < n; ++r) wait_s += last - entry[r][c];
  }
  const auto mean_ms = [&](const std::vector<double>& v) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    return ms(sum / static_cast<double>(p));
  };
  out.wall_ms = ms(wall1 - wall0);
  out.data_ms = mean_ms(data_s);
  out.fwd_bwd_ms = mean_ms(fwd_bwd_s);
  out.optimizer_ms = mean_ms(opt_s);
  out.aggregate_ms = mean_ms(agg_s);
  double enc = 0.0, dec = 0.0;
  for (const auto& a : agg) {
    enc += a.encode_seconds;
    dec += a.decode_seconds;
  }
  out.encode_ms = ms(enc / p);
  out.decode_ms = ms(dec / p);
  out.wait_ms = ms(wait_s / p);
  out.run_ranks_overhead_ms = out.wall_ms - ms(*std::max_element(body_s.begin(), body_s.end()));
  out.wire_bytes = static_cast<double>(agg.front().bytes_sent);
  for (const auto& layer : models_.front().layers())
    out.dense_bytes +=
        static_cast<double>((layer.grad_w.numel() + layer.grad_b.numel()) * sizeof(float));
  out.aggregate_calls = static_cast<int>(calls);
  out.allreduce_calls = comm_.allreduce_count() - allreduce_before;
  return out;
}

bool step_ok(const train::StepStats& stats, int world) {
  return std::isfinite(stats.mean_local_loss) && stats.active_workers == world;
}

bool replay_matches_trainer(const train::TrainerConfig& config, const train::Dataset& data,
                            int steps) {
  train::DataParallelTrainer trainer(config, data);
  Replay replay(config, data, nullptr);
  for (int i = 0; i < steps; ++i) {
    const double a = trainer.step().mean_local_loss;
    const double b = replay.step().mean_loss;
    if (!same_bits(a, b)) return false;
  }
  return true;
}

// --- untraced run -------------------------------------------------------------------

void run_ddp(const Args& args, Report& report) {
  const DdpSpec spec = ddp_spec(args.workload);
  core::set_global_pool_threads(1);
  const train::TrainerConfig config = ddp_config(spec, spec.world, args.seed);

  // Setup: data, trainer, step-0 loss, warm-up steps.
  std::vector<double> setup_s;
  std::vector<std::string> warmup_digests;
  train::Dataset eval;
  double loss0 = 0.0;
  const auto set_up = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    train::Dataset data = ddp_data(spec, args.seed);
    eval = train::batch(data, 0, kEvalSamples);
    auto t = std::make_unique<train::DataParallelTrainer>(config, std::move(data));
    loss0 = t->evaluate_loss(eval);
    std::vector<double> losses;
    for (int i = 0; i < spec.warmup_steps; ++i) losses.push_back(t->step().mean_local_loss);
    setup_s.push_back(seconds_since(t0));
    warmup_digests.push_back(digest(losses));
    return t;
  };

  // The window, in segments (see kWindowSegments); each segment's trainer
  // is checked before the next set-up replaces it.
  OpCounter ops(kStepDeadlineS);
  std::vector<double> step_ms;
  std::unique_ptr<train::DataParallelTrainer> trainer;
  bool divergence_zero = true, finite = true, decreased = true;
  double loss_end = 0.0;
  std::vector<double> segment_losses;
  const HostCpu cpu0 = host_cpu();
  for (int segment = 0; segment <= kWindowSegments && ops.failed() == 0; ++segment) {
    trainer.reset();
    trainer = set_up();
    if (segment == kWindowSegments) break;
    const auto w0 = std::chrono::steady_clock::now();
    while (seconds_since(w0) < args.seconds / kWindowSegments) {
      step_ms.push_back(ms(ops.run([&] { return step_ok(trainer->step(), spec.world); })));
      if (ops.failed() > 0) break;
    }
    const auto& history = trainer->history();
    loss_end = trainer->evaluate_loss(eval);
    divergence_zero = divergence_zero && trainer->replica_divergence() == 0.0;
    finite = finite && std::all_of(history.begin(), history.end(), [](const auto& h) {
               return std::isfinite(h.mean_local_loss);
             });
    decreased = decreased && std::isfinite(loss_end) && loss_end < loss0;
    segment_losses.clear();
    for (auto i = static_cast<std::size_t>(spec.warmup_steps); i < history.size(); ++i)
      segment_losses.push_back(history[i].mean_local_loss);
  }
  const double rss = peak_rss_mb();
  report.note("host steal during the run", std::to_string(steal_pct(cpu0, host_cpu())) + " %");
  ops.add_to(report);

  const BlockMedians bm = block_medians(blocks(step_ms, kBlockSteps));
  const double steps_per_s = 1e3 * bm.rate;  // step_ms are in ms
  report.metric("setup_s", median(setup_s), "s");
  report.metric("step_ms_p50", bm.p50, "ms");
  report.metric("step_ms_p90", bm.p90, "ms");
  report.metric("samples_per_s", steps_per_s * static_cast<double>(spec.batch * spec.world), "1/s");
  // BENCHMARK.json has one metric list for every workload; for a trainer,
  // one iteration is one step.
  report.metric("sim_iters_per_s", steps_per_s, "1/s");
  report.metric("peak_rss_mb", rss, "MiB");

  report.gate("replica_divergence_zero", divergence_zero);
  report.gate("losses_finite", finite);
  report.gate("loss_decreased", decreased);
  report.gate("setup_deterministic",
              std::all_of(warmup_digests.begin(), warmup_digests.end(),
                          [&](const std::string& d) { return d == warmup_digests.front(); }));
  // Every block holds >= kBlockSteps steps, so each block p90 has >= 10
  // samples beyond it; three blocks are the least a median can outvote one
  // stalled block in.
  report.gate("three_blocks_of_100_steps", bm.blocks >= 3);
  report.gate("replay_equals_trainer",
              replay_matches_trainer(config, ddp_data(spec, args.seed), kReplayGateSteps));

  report.note("setup_s samples", samples_text(setup_s));
  const Tail pooled = tail(step_ms);
  report.note("step samples", std::to_string(pooled.n) + " in " + std::to_string(bm.blocks) +
                                  " blocks of >= " + std::to_string(kBlockSteps) +
                                  "; pooled p50 " + std::to_string(pooled.p50) +
                                  " ms, pooled p90 " + std::to_string(pooled.p90) + " ms (" +
                                  std::to_string(pooled.beyond_p90) + " beyond)");
  report.note("loss", "step 0 eval " + std::to_string(loss0) + ", after the last segment " +
                          std::to_string(loss_end));
  report.note("loss digest (warm-up steps " + std::to_string(spec.warmup_steps) + ")",
              warmup_digests.front());
  report.note("loss digest (last segment, " + std::to_string(segment_losses.size()) + " steps)",
              digest(segment_losses));
}

// --- traced run ---------------------------------------------------------------------

void run_ddp_traced(const Args& args, Report& report) {
  const DdpSpec spec = ddp_spec(args.workload);
  core::set_global_pool_threads(1);
  const train::TrainerConfig config = ddp_config(spec, spec.world, args.seed);
  const train::Dataset data = ddp_data(spec, args.seed);

  Tracer tracer(args.workload, rank_lane_tags(spec.world));
  train::DataParallelTrainer trainer(config, data);
  Replay replay(config, data, &tracer);

  // Trainer and replay steps alternate, so drift lands on both alike; every
  // other replay step records no spans, and the two kinds' times give the
  // tracer's own overhead.
  OpCounter ops(kStepDeadlineS);
  std::vector<ReplayStep> steps;  // traced replay steps
  std::vector<double> untraced_ms;
  bool losses_equal = true;
  const auto w0 = std::chrono::steady_clock::now();
  const auto min_steps = static_cast<std::size_t>(spec.warmup_steps + 20);
  for (std::int64_t k = 0; seconds_since(w0) < 0.5 * args.seconds || steps.size() < min_steps;
       ++k) {
    const bool traced = k % 2 == 0;
    double trainer_loss = 0.0;
    (void)ops.run([&] {
      const train::StepStats st = trainer.step();
      trainer_loss = st.mean_local_loss;
      return step_ok(st, spec.world);
    });
    ReplayStep rs;
    ops.run([&] {
      rs = replay.step(traced);
      return std::isfinite(rs.mean_loss);
    });
    if (ops.failed() > 0) break;
    losses_equal = losses_equal && same_bits(trainer_loss, rs.mean_loss);
    if (traced)
      steps.push_back(rs);
    else
      untraced_ms.push_back(rs.wall_ms);
  }
  ops.add_to(report);
  report.gate("replay_equals_trainer", losses_equal && !steps.empty());
  report.gate("replica_divergence_zero", trainer.replica_divergence() == 0.0);
  if (steps.size() < min_steps) return;  // failed early; the gates say why

  const auto skip = static_cast<std::size_t>(spec.warmup_steps);
  const auto med = [&](auto field) { return median_of(steps, skip, field); };
  report.metric("train.data_ms", med([](const ReplayStep& r) { return r.data_ms; }), "ms");
  report.metric("train.fwd_bwd_ms", med([](const ReplayStep& r) { return r.fwd_bwd_ms; }), "ms");
  report.metric("train.optimizer_ms", med([](const ReplayStep& r) { return r.optimizer_ms; }),
                "ms");
  report.metric("compress.encode_ms", med([](const ReplayStep& r) { return r.encode_ms; }), "ms");
  report.metric("compress.decode_ms", med([](const ReplayStep& r) { return r.decode_ms; }), "ms");
  report.metric("compress.wire_bytes_per_step",
                med([](const ReplayStep& r) { return r.wire_bytes; }), "bytes");
  report.metric("compress.ratio",
                med([](const ReplayStep& r) { return r.wire_bytes / r.dense_bytes; }), "ratio");
  report.metric("compress.aggregate_calls_per_step",
                med([](const ReplayStep& r) { return static_cast<double>(r.aggregate_calls); }),
                "count");
  const auto collective = [](const ReplayStep& r) {
    return r.aggregate_ms - r.encode_ms - r.decode_ms;
  };
  report.metric("comm.collective_ms", med(collective), "ms");
  report.metric("comm.wait_ms", med([](const ReplayStep& r) { return r.wait_ms; }), "ms");
  report.metric("comm.transfer_ms",
                med([&](const ReplayStep& r) { return collective(r) - r.wait_ms; }), "ms");
  report.metric("comm.allreduce_calls_per_step",
                med([](const ReplayStep& r) { return static_cast<double>(r.allreduce_calls); }),
                "count");
  report.metric("comm.run_ranks_overhead_ms",
                med([](const ReplayStep& r) { return r.run_ranks_overhead_ms; }), "ms");
  const double traced_p50 = med([](const ReplayStep& r) { return r.wall_ms; });
  const double untraced_p50 =
      median(std::vector<double>(untraced_ms.begin() + static_cast<std::ptrdiff_t>(skip),
                                 untraced_ms.end()));
  report.metric("trace.overhead_pct", (traced_p50 / untraced_p50 - 1.0) * 100.0, "%");

  // Self time per span name, from the rank lanes (rank.step's self time is
  // the harness's own bookkeeping between the layer calls).
  for (int lane = 0; lane < tracer.lanes(); ++lane) {
    const auto self = self_times(tracer.lane(lane));
    double step_self = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < self.size(); ++i)
      if (std::strcmp(tracer.lane(lane)[i].name, "rank.step") == 0) {
        step_self += self[i];
        ++n;
      }
    if (n > 0)
      report.note("lane " + std::to_string(lane) + " rank.step self time",
                  std::to_string(ms(step_self / static_cast<double>(n))) + " ms/step");
  }

  // The plain single-worker baseline: the same replay at 1 rank.
  {
    Replay single(ddp_config(spec, 1, args.seed), data, nullptr);
    std::vector<double> wall;
    const auto t0 = std::chrono::steady_clock::now();
    while (seconds_since(t0) < 0.1 * args.seconds || wall.size() < min_steps)
      wall.push_back(single.step().wall_ms);
    wall.erase(wall.begin(), wall.begin() + static_cast<std::ptrdiff_t>(skip));
    report.metric("train.p1_step_ms", median(wall), "ms");
  }

  // Compressor::roundtrip over every layer, no communication.
  {
    auto codec = compress::make_compressor(config.compression);
    const auto& layers = replay.models().front().layers();
    std::vector<double> rt;
    for (int rep = 0; rep < 25; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t i = 0; i < layers.size(); ++i) {
        (void)codec->roundtrip(static_cast<compress::LayerId>(2 * i), layers[i].grad_w);
        (void)codec->roundtrip(static_cast<compress::LayerId>(2 * i + 1), layers[i].grad_b);
      }
      rt.push_back(ms(seconds_since(t0)));
    }
    report.metric("compress.roundtrip_ms", median(rt), "ms");
  }

  report.note("replayed steps", std::to_string(steps.size()) + " traced, " +
                                    std::to_string(untraced_ms.size()) + " untraced (first " +
                                    std::to_string(skip) + " of each excluded from medians)");
  report.note("spans", std::to_string(tracer.span_count()));
  report.note("trace (first " + std::to_string(kTraceFileSteps) + " steps)",
              tracer.write(kTraceDir, args.seed, kTraceFileSteps));
}

}  // namespace perfbench
