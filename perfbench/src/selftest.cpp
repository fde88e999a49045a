// The benchmark's own tests: distribution arithmetic, span self time,
// failure accounting (an injected failing step and failing cell), the
// replay's bit-exact agreement with the trainer, and the pinned pool size.
// Exits non-zero on the first failed check.
#include <cmath>
#include <iostream>
#include <stdexcept>
#include <string>

#include "comm/thread_comm.hpp"
#include "core/fault_plan.hpp"
#include "core/parallel.hpp"
#include "perfbench.hpp"
#include "tensor/linalg.hpp"
#include "tensor/rng.hpp"

namespace {

using namespace perfbench;
using namespace gradcomp;

int g_failures = 0;

void check(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << '\n';
  if (!ok) ++g_failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> iota_values(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_percentiles() {
  check(near(percentile(iota_values(10), 0.5), 5.5), "p50 of 1..10 is 5.5");
  check(near(percentile(iota_values(10), 0.9), 9.1), "p90 of 1..10 is 9.1");
  check(near(percentile(iota_values(10), 0.0), 1.0) && near(percentile(iota_values(10), 1.0), 10),
        "p0 and p100 are the extremes");
  check(near(median({3.0, 1.0, 2.0}), 2.0), "median of an odd sample");
  check(near(percentile({7.0}, 0.9), 7.0), "single sample");
  bool threw = false;
  try {
    (void)percentile({}, 0.5);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  check(threw, "empty sample is rejected");
  check(count_above({1, 2, 2, 3}, 2.0) == 1, "count_above is strict");

  const Tail t100 = tail(iota_values(100));
  check(t100.n == 100 && near(t100.p90, 90.1) && t100.beyond_p90 == 10,
        "100 samples: p90 = 90.1 with 10 beyond");
  const Tail t99 = tail(iota_values(99));
  check(t99.beyond_p90 == 10, "99 samples still leave 10 beyond p90");
  const Tail t50 = tail(iota_values(50));
  check(t50.beyond_p90 == 5 && t50.beyond_p90 < kMinTailSamples,
        "50 samples leave too few beyond p90");

  const auto b = blocks(iota_values(250), 100);
  check(b.size() == 2 && b[0].size() == 100 && b[1].size() == 150,
        "250 samples make 2 blocks of 100 and 150");
  check(blocks(iota_values(30), 100).size() == 1, "a short sample is one block");
  // The median over blocks ignores a stall confined to a few blocks, sees
  // one that hits most of them, and sees a tail that hits 15 % of every
  // block's steps; a uniformly slower program reads slower by the same share.
  const auto window = [](int stalled_blocks, double stalled_share, double slowdown) {
    std::vector<double> v;
    for (int blk = 0; blk < 10; ++blk)
      for (int i = 1; i <= 100; ++i) {
        const bool stalled = blk < stalled_blocks || i > 100 * (1.0 - stalled_share);
        v.push_back(slowdown * (stalled ? 3.0 : 1.0) * i);
      }
    return v;
  };
  const BlockMedians calm = block_medians(blocks(window(0, 0.0, 1.0), 100));
  check(calm.blocks == 10 && near(calm.p50, 50.5) && near(calm.p90, 90.1) &&
            near(calm.rate, 100.0 / 5050.0),
        "block medians of identical blocks are the block percentiles and rate");
  const BlockMedians burst = block_medians(blocks(window(3, 0.0, 1.0), 100));
  check(near(burst.p50, calm.p50) && near(burst.p90, calm.p90) && near(burst.rate, calm.rate),
        "a stall in 3 of 10 blocks does not move the block medians");
  check(tail(window(3, 0.0, 1.0)).p90 > 2 * calm.p90, "it does move the pooled p90");
  check(block_medians(blocks(window(6, 0.0, 1.0), 100)).p50 > 2 * calm.p50,
        "a stall in 6 of 10 blocks moves the block median p50");
  const BlockMedians tail15 = block_medians(blocks(window(0, 0.15, 1.0), 100));
  check(tail15.p90 > 2 * calm.p90 && tail15.rate < 0.8 * calm.rate,
        "a stall on 15 % of every block's steps moves the p90 and the rate");
  const BlockMedians slower = block_medians(blocks(window(0, 0.0, 1.1), 100));
  check(std::fabs(slower.p50 / calm.p50 - 1.1) < 1e-9 &&
            std::fabs(slower.p90 / calm.p90 - 1.1) < 1e-9 &&
            std::fabs(calm.rate / slower.rate - 1.1) < 1e-9,
        "a 10 % slower program reads 10 % slower");

  check(digest({1.0, 2.0}) == digest({1.0, 2.0}) && digest({1.0, 2.0}) != digest({2.0, 1.0}),
        "digest is order-sensitive and repeatable");
  check(digest({0.0}) != digest({-0.0}), "digest sees bit patterns");
}

void test_self_times() {
  // parent [0, 10] holds children [1, 3] and [4, 8]; [4, 8] holds [5, 6].
  const std::vector<SpanRecord> lane = {
      {"child", 0, 1.0, 3.0}, {"grandchild", 0, 5.0, 6.0}, {"child", 0, 4.0, 8.0},
      {"parent", 0, 0.0, 10.0}, {"next", 1, 10.0, 12.0}};
  const auto self = self_times(lane);
  check(near(self[3], 4.0), "parent self time excludes both children");
  check(near(self[2], 3.0), "child self time excludes the grandchild");
  check(near(self[0], 2.0) && near(self[1], 1.0) && near(self[4], 2.0), "leaves keep their span");
}

void test_failure_accounting() {
  OpCounter ops(1.0);
  (void)ops.run([] { return true; });
  (void)ops.run([]() -> bool { throw std::runtime_error("boom"); });
  ops.record(true, 2.0);   // overran the deadline
  ops.record(false, 0.1);  // failed its check
  check(ops.attempted() == 4 && ops.failed() == 3, "throw, overrun and failed check all count");
  check(ops.first_error() == "boom", "first error message is kept");

  // An injected failing step: rank 1 dies at step 2, so the trainer
  // recovers at 2 ranks and that step fails the full-group check.
  DdpSpec spec = ddp_spec("ddp-mlp-topk");
  spec.dims = {64, 32, 10};
  spec.batch = 8;
  train::TrainerConfig config = ddp_config(spec, spec.world, 3);
  core::FaultPlanOptions fp;
  fp.world_size = spec.world;
  fp.iterations = 10;
  fp.fail_rank = 1;
  fp.fail_at_iteration = 2;
  config.fault_plan = core::FaultPlan::generate(fp);
  config.comm_timeout = std::chrono::milliseconds(2000);
  train::DataParallelTrainer trainer(config, ddp_data(spec, 3));
  OpCounter steps(10.0);
  for (int i = 0; i < 4; ++i) (void)steps.run([&] { return step_ok(trainer.step(), spec.world); });
  check(steps.attempted() == 4 && steps.failed() == 2,
        "steps after an injected rank death are counted as failed");

  // An injected failing cell: a zero-rank world cannot be simulated.
  std::vector<SweepCell> grid = {sweep_grid().back(), sweep_grid().back()};
  grid[1].world = 0;
  core::ThreadPool pool(2);
  const SweepResult good = run_sweep_cells(pool, {grid[0], grid[0]}, 5, true, nullptr, 0);
  const SweepResult bad = run_sweep_cells(pool, grid, 5, true, nullptr, 1);
  OpCounter cells(60.0);
  account_cells(good, good, cells);
  account_cells(bad, good, cells);
  check(cells.attempted() == 4 && cells.failed() == 1, "a throwing cell is counted as failed");
  SweepResult drifted = good;
  drifted.means[0] = std::nextafter(drifted.means[0], 1.0);
  OpCounter drift(60.0);
  account_cells(drifted, good, drift);
  check(drift.failed() == 1, "a cell one ulp off the reference is counted as failed");
}

void test_replay() {
  for (const char* name : {"ddp-small-sync", "ddp-mlp-topk"}) {
    DdpSpec spec = ddp_spec(name);
    spec.dims = {64, 24, 16, 10};
    spec.batch = 6;
    const train::Dataset data = ddp_data(spec, 11);
    check(replay_matches_trainer(ddp_config(spec, spec.world, 11), data, 6),
          std::string(name) + ": replayed losses equal the trainer's bit for bit");
    check(replay_matches_trainer(ddp_config(spec, 1, 11), data, 3),
          std::string(name) + ": the 1-rank replay equals the 1-rank trainer");
    // Sensitivity: a replay of a differently seeded model must not match.
    train::DataParallelTrainer trainer(ddp_config(spec, spec.world, 11), data);
    Replay other(ddp_config(spec, spec.world, 12), data, nullptr);
    check(trainer.step().mean_local_loss != other.step().mean_loss,
          std::string(name) + ": a different model gives a different loss");
  }
  // The traced replay records one span per call it makes.
  DdpSpec spec = ddp_spec("ddp-small-sync");
  Tracer tracer("selftest", rank_lane_tags(spec.world));
  Replay replay(ddp_config(spec, spec.world, 2), ddp_data(spec, 2), &tracer);
  const ReplayStep st = replay.step();
  // Per rank: batch, fwd_bwd, 14 aggregates, optimizer, rank.step.
  check(tracer.lane(0).size() == 18 && st.aggregate_calls == 14 && st.allreduce_calls == 14,
        "one step of ddp-small-sync: 14 aggregate calls, 14 all-reduces, 18 spans per rank");
  const std::size_t spans = tracer.span_count();
  const ReplayStep quiet = replay.step(false);
  check(tracer.span_count() == spans && quiet.allreduce_calls == 14,
        "an untraced replay step makes the same calls and records no span");
}

void test_pinned_pool() {
  // Thread counts are taken relative to the process with a 1-thread pool, so
  // runtime threads (a sanitizer's, say) do not matter.
  core::set_global_pool_threads(1);
  const int base = thread_count();
  core::set_global_pool_threads(4);
  check(core::global_pool().size() == 4 && thread_count() == base + 3,
        "a 4-thread pool runs 3 helper threads");
  core::set_global_pool_threads(1);
  check(core::global_pool().size() == 1 && thread_count() == base,
        "a pool pinned to 1 runs no helper thread");
  // Inside the rank threads the kernels use the pinned pool: no extra
  // threads appear while every rank runs a matmul.
  const int world = ddp_spec("ddp-small-sync").world;
  std::vector<int> seen(world, 0);
  comm::ThreadComm comm(world);
  comm::run_ranks(world, [&](int rank) {
    tensor::Rng rng(static_cast<std::uint64_t>(rank));
    const auto a = tensor::Tensor::randn({64, 256}, rng);
    (void)tensor::matmul(a, a, tensor::Transpose::kNo, tensor::Transpose::kYes);
    comm.barrier(rank);  // all ranks alive at once
    seen[static_cast<std::size_t>(rank)] = thread_count();
    comm.barrier(rank);
  });
  check(seen == std::vector<int>(world, base + world),
        "ranks on a pinned pool run exactly one thread each");

  // The ddp workload itself pins the pool, whatever it was before.
  core::set_global_pool_threads(4);
  Args args;
  args.workload = "ddp-small-sync";
  args.seconds = 3;
  Report report;
  run_ddp(args, report);
  check(core::global_pool().size() == 1, "run_ddp leaves the pool pinned to 1");
  for (const auto& [gate, pass] : report.gates)
    if (!pass) std::cout << "     gate " << gate << " failed\n";
  check(report.correct(), "a 3-second ddp-small-sync run passes every gate");
}

}  // namespace

int main() {
  try {
    test_percentiles();
    test_self_times();
    test_failure_accounting();
    test_replay();
    test_pinned_pool();
  } catch (const std::exception& e) {
    std::cout << "FAIL unexpected exception: " << e.what() << '\n';
    return 1;
  }
  std::cout << (g_failures == 0 ? "all checks passed" : "checks failed") << '\n';
  return g_failures == 0 ? 0 : 1;
}
