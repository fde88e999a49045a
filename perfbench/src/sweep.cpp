// sim-fabric-sweep: the simulator's own throughput. Twelve sim::measure
// cells in fabric mode, dispatched on a 3-thread core::parallel pool.
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <memory>

#include "core/parallel.hpp"
#include "models/model_profile.hpp"
#include "perfbench.hpp"
#include "sim/experiment.hpp"

namespace perfbench {

using namespace gradcomp;

namespace {

constexpr int kBatch = 64;
constexpr double kCellDeadlineS = 30.0;

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool cell_ok(const SweepResult& s, std::size_t i) {
  return s.errors[i].empty() && std::isfinite(s.means[i]) && s.means[i] > 0.0;
}

bool sweeps_identical(const SweepResult& a, const SweepResult& b) {
  for (std::size_t i = 0; i < a.means.size(); ++i)
    if (!same_bits(a.means[i], b.means[i])) return false;
  return true;
}

}  // namespace

SweepResult run_sweep_cells(core::ThreadPool& pool, const std::vector<SweepCell>& grid,
                            std::uint64_t seed, bool fabric, Tracer* tracer, std::int64_t index) {
  const auto n = grid.size();
  SweepResult s{std::vector<double>(n, std::numeric_limits<double>::quiet_NaN()),
          std::vector<double>(n, 0.0), std::vector<std::string>(n), 0.0};
  const auto t0 = std::chrono::steady_clock::now();
  const double span0 = tracer ? tracer->now() : 0.0;
  pool.parallel_for(0, static_cast<std::int64_t>(n), 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t c = lo; c < hi; ++c) {
      const auto i = static_cast<std::size_t>(c);
      const double c0 = tracer ? tracer->now() : 0.0;
      const auto cell_t0 = std::chrono::steady_clock::now();
      try {
        s.means[i] = run_cell(grid[i], seed, fabric);
      } catch (const std::exception& e) {
        s.errors[i] = e.what();
      }
      s.host_s[i] = seconds_since(cell_t0);
      if (tracer) tracer->add(static_cast<int>(c), "sim.measure", index, c0, tracer->now());
    }
  });
  s.wall_s = seconds_since(t0);
  if (tracer)
    tracer->add(static_cast<int>(n), "parallel.sweep", index, span0, tracer->now());
  return s;
}

void account_cells(const SweepResult& sweep, const SweepResult& reference, OpCounter& ops) {
  for (std::size_t i = 0; i < sweep.means.size(); ++i) {
    if (!sweep.errors[i].empty())
      ops.fail_with("cell " + std::to_string(i) + ": " + sweep.errors[i]);
    else
      ops.record(cell_ok(sweep, i) && same_bits(sweep.means[i], reference.means[i]),
                 sweep.host_s[i]);
  }
}

std::vector<SweepCell> sweep_grid() {
  compress::CompressorConfig sync;
  compress::CompressorConfig powersgd;
  powersgd.method = compress::Method::kPowerSgd;
  powersgd.rank = 4;
  compress::CompressorConfig topk;
  topk.method = compress::Method::kTopK;
  topk.fraction = 0.01;
  compress::CompressorConfig signsgd;
  signsgd.method = compress::Method::kSignSgd;
  const std::vector<std::pair<std::string, compress::CompressorConfig>> methods = {
      {"syncsgd", sync}, {"powersgd", powersgd}, {"topk", topk}, {"signsgd", signsgd}};
  std::vector<SweepCell> grid;
  // Largest worlds first: the pool claims cells in order, so the longest
  // cells start early and the sweep's tail stays short.
  for (const int p : {32, 16, 8})
    for (const auto& [name, config] : methods) grid.push_back({p, name, config});
  return grid;
}

double run_cell(const SweepCell& cell, std::uint64_t seed, bool fabric) {
  core::Cluster cluster;
  cluster.world_size = cell.world;
  cluster.network = comm::Network::from_gbps(10.0);
  cluster.device = models::Device::v100();
  sim::SimOptions options;
  options.jitter_frac = 0.03;
  options.seed = seed;
  options.network_model = fabric ? sim::NetworkModel::kFabric : sim::NetworkModel::kAnalytic;
  const core::Workload workload{models::resnet50(), kBatch};
  return sim::measure(cluster, options, cell.config, workload,
                      sim::MeasurementProtocol{kCellIterations, kCellWarmup})
      .mean.value();
}

void run_sweep(const Args& args, Report& report) {
  core::set_global_pool_threads(1);
  // Setup: grid, pool and one warm-up cell.
  std::vector<double> setup_s;
  std::vector<SweepCell> grid;
  const auto set_up = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    grid = sweep_grid();
    auto p = std::make_unique<core::ThreadPool>(kSweepThreads);
    (void)run_cell(grid.back(), args.seed, true);
    setup_s.push_back(seconds_since(t0));
    return p;
  };

  // The window, in segments (see kWindowSegments). The sweep's steps are its
  // cells: the 12 cells of every sweep in the window are pooled. The rates
  // are medians over sweeps of each sweep's rate over its wall time.
  OpCounter ops(kCellDeadlineS);
  std::vector<double> cell_ms, iters_per_s, samples_per_s;
  std::unique_ptr<core::ThreadPool> pool;
  SweepResult reference;
  int sweeps = 0;
  bool repeats_identical = true;
  const HostCpu cpu0 = host_cpu();
  for (int segment = 0; segment <= kWindowSegments && ops.failed() == 0; ++segment) {
    pool.reset();
    pool = set_up();
    if (segment == kWindowSegments) break;
    const auto w0 = std::chrono::steady_clock::now();
    while (seconds_since(w0) < args.seconds / kWindowSegments) {
      const SweepResult s = run_sweep_cells(*pool, grid, args.seed, true, nullptr, sweeps);
      if (sweeps++ == 0) reference = s;
      repeats_identical = repeats_identical && sweeps_identical(s, reference);
      account_cells(s, reference, ops);
      double samples = 0.0;
      for (std::size_t i = 0; i < grid.size(); ++i) {
        cell_ms.push_back(s.host_s[i] * 1e3);
        samples += static_cast<double>(kCellIterations) * kBatch * grid[i].world;
      }
      iters_per_s.push_back(static_cast<double>(kCellIterations * grid.size()) / s.wall_s);
      samples_per_s.push_back(samples / s.wall_s);
      if (ops.failed() > 0) break;
    }
  }
  const double rss = peak_rss_mb();
  report.note("host steal during the run", std::to_string(steal_pct(cpu0, host_cpu())) + " %");
  ops.add_to(report);

  const Tail pooled = tail(cell_ms);
  report.metric("setup_s", median(setup_s), "s");
  report.metric("step_ms_p50", pooled.p50, "ms");
  report.metric("step_ms_p90", pooled.p90, "ms");
  report.metric("samples_per_s", median(samples_per_s), "1/s");
  report.metric("sim_iters_per_s", median(iters_per_s), "1/s");
  report.metric("peak_rss_mb", rss, "MiB");

  bool all_ok = true;
  for (std::size_t i = 0; i < grid.size(); ++i) all_ok = all_ok && cell_ok(reference, i);
  core::ThreadPool serial(1);
  const SweepResult single = run_sweep_cells(serial, grid, args.seed, true, nullptr, -1);
  report.gate("cells_finite_positive", all_ok);
  report.gate("cells_identical_across_repeats", repeats_identical);
  report.gate("cells_identical_pool1_vs_pool3", sweeps_identical(single, reference));
  report.gate("p90_has_10_samples_beyond", pooled.beyond_p90 >= kMinTailSamples);

  report.note("setup_s samples", samples_text(setup_s));
  report.note("cell samples", std::to_string(pooled.n) + " in " + std::to_string(sweeps) +
                                  " sweeps, " + std::to_string(pooled.beyond_p90) +
                                  " beyond p90");
  report.note("cell-mean digest (12 cells)", digest(reference.means));
}

void run_sweep_traced(const Args& args, Report& report) {
  core::set_global_pool_threads(1);
  const std::vector<SweepCell> grid = sweep_grid();
  core::ThreadPool pool(kSweepThreads);
  std::vector<std::string> tags;
  for (std::size_t i = 0; i < grid.size(); ++i) tags.push_back("cell=" + std::to_string(i));
  tags.push_back("sweep");
  Tracer tracer(args.workload, std::move(tags));

  // Traced and untraced sweeps alternate; the difference is the overhead.
  OpCounter ops(kCellDeadlineS);
  std::vector<double> traced_wall, plain_wall, util;
  std::map<std::string, std::vector<double>> per_iter_ms;  // one value per traced sweep
  SweepResult reference;
  bool repeats_identical = true;
  const auto w0 = std::chrono::steady_clock::now();
  for (std::int64_t k = 0; seconds_since(w0) < 0.6 * args.seconds || k < 6; ++k) {
    const bool traced = k % 2 == 0;
    const SweepResult s =
        run_sweep_cells(pool, grid, args.seed, true, traced ? &tracer : nullptr, k);
    if (k == 0) reference = s;
    repeats_identical = repeats_identical && sweeps_identical(s, reference);
    account_cells(s, reference, ops);
    if (ops.failed() > 0) break;
    (traced ? traced_wall : plain_wall).push_back(s.wall_s);
    if (!traced) continue;
    double busy = 0.0;
    std::map<std::string, std::pair<double, int>> groups;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      busy += s.host_s[i];
      const double per_iter = s.host_s[i] * 1e3 / kCellIterations;
      std::string world_key = "p";
      world_key += std::to_string(grid[i].world);
      for (const std::string& key : {world_key, grid[i].method}) {
        groups[key].first += per_iter;
        groups[key].second += 1;
      }
    }
    util.push_back(busy / (kSweepThreads * s.wall_s));
    for (const auto& [key, sum] : groups) per_iter_ms[key].push_back(sum.first / sum.second);
  }
  ops.add_to(report);
  report.gate("cells_identical_across_repeats", repeats_identical);
  if (ops.failed() > 0 || plain_wall.empty()) return;

  for (const char* key : {"p8", "p16", "p32", "syncsgd", "powersgd", "topk", "signsgd"})
    report.metric(std::string("sim.host_ms_per_iter.") + key, median(per_iter_ms[key]), "ms");
  report.metric("parallel.pool_util", median(util), "ratio");
  report.metric("trace.overhead_pct", (median(traced_wall) / median(plain_wall) - 1.0) * 100.0,
                "%");
  report.note("sweeps", std::to_string(traced_wall.size()) + " traced, " +
                            std::to_string(plain_wall.size()) + " untraced");
  report.note("trace", tracer.write(kTraceDir, args.seed,
                                    std::numeric_limits<std::int64_t>::max()));
}

}  // namespace perfbench
