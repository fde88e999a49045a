// End-to-end benchmark of the gradcomp stack: the real data-parallel trainer
// on the in-process ThreadComm cluster, and the fabric-mode simulator sweep.
//
// Untraced runs report the end-to-end metrics; a traced run times each layer
// from outside through its public entry points and reports the per-layer
// metrics. See perfbench/README.md for why each workload exists and which
// layer metric should move which end-to-end metric.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "compress/compressor.hpp"
#include "train/trainer.hpp"

namespace gradcomp::core {
class ThreadPool;
}

namespace perfbench {

// ---------------------------------------------------------------------------
// Command line.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";  // source identity, from run.py
};

// Parses `--workload W --seed N --seconds S --trace 0|1 [--commit C]`.
// Throws std::invalid_argument on anything else.
[[nodiscard]] Args parse_args(int argc, char** argv);

// ---------------------------------------------------------------------------
// Results.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Everything one run prints: metrics, correctness gates, operation
// accounting and free-form notes (sample counts, digests).
struct Report {
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, bool>> gates;
  std::vector<std::pair<std::string, std::string>> notes;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void metric(std::string name, double value, std::string unit);
  void gate(std::string name, bool pass);
  void note(std::string key, std::string text);
  // True when every gate passed and no operation failed.
  [[nodiscard]] bool correct() const;
};

// Prints notes, gates and metrics as readable lines, then the one-line JSON
// result object as the LAST line of stdout.
void print_report(const Report& report);

// ---------------------------------------------------------------------------
// Distribution arithmetic.

// Linear-interpolation percentile (q in [0, 1]) of an unsorted sample.
// Throws std::invalid_argument on an empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
// Samples strictly greater than `threshold`.
[[nodiscard]] std::size_t count_above(const std::vector<double>& values, double threshold);

// A timing distribution as the benchmark reports it: median, p90, and how
// many samples lie beyond p90 (the p90 is trustworthy only when that count
// is at least kMinTailSamples).
struct Tail {
  double p50 = 0.0;
  double p90 = 0.0;
  std::size_t n = 0;
  std::size_t beyond_p90 = 0;
};
inline constexpr std::size_t kMinTailSamples = 10;
[[nodiscard]] Tail tail(const std::vector<double>& values);

// Splits a time-ordered sample into consecutive blocks of `size` values; a
// short remainder joins the last block (a sample shorter than `size` is one
// block). Throws std::invalid_argument on an empty sample or size 0.
[[nodiscard]] std::vector<std::vector<double>> blocks(const std::vector<double>& values,
                                                      std::size_t size);

// The median over the blocks of a window of each block's p50, p90 and rate
// (samples in the block divided by their sum: operations per unit of the
// samples' time). A stall that hits a share of the steps shows in every
// block's p90 and rate that it hits often enough, so in the median; a burst
// of host load over less than half of the blocks does not move it, where it
// would move a pooled p90 or a rate over the whole window by its share.
struct BlockMedians {
  double p50 = 0.0;
  double p90 = 0.0;
  double rate = 0.0;
  std::size_t blocks = 0;
};
[[nodiscard]] BlockMedians block_medians(const std::vector<std::vector<double>>& blocks);

// "n: v1 v2 ..." with every value printed in full.
[[nodiscard]] std::string samples_text(const std::vector<double>& values);

// FNV-1a over the bit patterns of `values`, as 16 hex digits.
[[nodiscard]] std::string digest(const std::vector<double>& values);

// ---------------------------------------------------------------------------
// Operation accounting: an operation (a trainer step or a sim cell) fails if
// it throws, overruns its deadline, or fails its correctness check.

class OpCounter {
 public:
  explicit OpCounter(double deadline_s) : deadline_s_(deadline_s) {}

  // Accounts one finished operation that took `seconds` and whose checks
  // returned `ok`.
  void record(bool ok, double seconds);
  // Runs `op` (returning its check verdict), timing it; an exception counts
  // as a failure and its message is kept. Returns the wall seconds taken.
  template <typename Op>
  double run(Op&& op) {
    const auto t0 = std::chrono::steady_clock::now();
    bool ok = false;
    try {
      ok = op();
    } catch (const std::exception& e) {
      if (first_error_.empty()) first_error_ = e.what();
    }
    const double s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    record(ok, s);
    return s;
  }
  void fail_with(std::string message);

  [[nodiscard]] std::int64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::int64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::string& first_error() const noexcept { return first_error_; }
  // Adds this counter's totals (and first error, as a note) to `report`.
  void add_to(Report& report) const;

 private:
  double deadline_s_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
  std::string first_error_;
};

// ---------------------------------------------------------------------------
// Host and process.

// nproc, CPU model, SIMD level, pool threads, world size, build type,
// NDEBUG and commit, as a one-line JSON object.
[[nodiscard]] std::string fingerprint_json(const Args& args, const std::string& world_sizes,
                                           int pool_threads);
// True when the build defines NDEBUG. A build without it runs the debug
// validators (timeline validation, lock-order checks): a different program.
[[nodiscard]] bool release_build() noexcept;
// VmHWM of this process in MiB.
[[nodiscard]] double peak_rss_mb();
// Threads of this process, from /proc/self/status.
[[nodiscard]] int thread_count();

// Host CPU time counters from /proc/stat (jiffies): time stolen by the
// hypervisor for other guests, and all time. Zero when unreadable.
struct HostCpu {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
[[nodiscard]] HostCpu host_cpu();
// Percent of host CPU time stolen between two readings.
[[nodiscard]] double steal_pct(const HostCpu& before, const HostCpu& after);

[[nodiscard]] inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// In-memory span recorder. One lane per thread that records (rank lanes plus
// a caller lane, or one lane per sweep cell); each lane is written by one
// thread at a time, so recording takes no lock. Written out as
// trace::Timeline Chrome-trace JSON at the end of the run.

struct SpanRecord {
  const char* name = "";
  std::int64_t step = 0;
  double start = 0.0;  // seconds since the tracer's origin
  double end = 0.0;
};

class Tracer {
 public:
  // One lane per tag; a tag names the lane's thread, e.g. "rank=1".
  Tracer(std::string workload, std::vector<std::string> lane_tags);
  [[nodiscard]] double now() const { return seconds_since(origin_); }
  void add(int lane, const char* name, std::int64_t step, double start, double end) {
    lanes_[static_cast<std::size_t>(lane)].push_back({name, step, start, end});
  }
  [[nodiscard]] const std::vector<SpanRecord>& lane(int i) const {
    return lanes_.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] int lanes() const noexcept { return static_cast<int>(lanes_.size()); }
  [[nodiscard]] std::size_t span_count() const;
  // Writes the spans of steps below `max_step` as Chrome-trace JSON, each
  // labelled with the workload, step and lane tag. Returns the path written.
  std::string write(const std::string& dir, std::uint64_t seed, std::int64_t max_step) const;

 private:
  std::string workload_;
  std::vector<std::string> tags_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<std::vector<SpanRecord>> lanes_;
};

// Lane tags "rank=0" .. "rank=<ranks-1>" followed by "caller".
[[nodiscard]] std::vector<std::string> rank_lane_tags(int ranks);

// Self time of every span of one lane: its duration minus the part of it
// covered by spans nested inside it on the same lane. Spans on a lane must
// nest properly (the recorder's lanes do). Result is index-aligned.
[[nodiscard]] std::vector<double> self_times(const std::vector<SpanRecord>& lane);

// The timed window runs in kWindowSegments equal segments. One set-up runs
// before each segment, and one more after the last, and each segment
// measures the set-up before it: the set-ups sample the host at
// kWindowSegments + 1 moments of the run, and one set-up is alive at a time.
// setup_s is the median of all set-ups.
inline constexpr int kWindowSegments = 9;

// Where a traced run writes its Chrome trace, relative to the tree root.
inline constexpr const char* kTraceDir = ".bench_build/traces";

// ---------------------------------------------------------------------------
// Data-parallel trainer workloads (ddp-*).

// What distinguishes the ddp workloads; all share momentum SGD (lr 0.01,
// momentum 0.9) and 10 000 samples of data.
struct DdpSpec {
  std::vector<std::int64_t> dims;
  std::int64_t batch = 16;  // per rank
  int world = 3;            // rank threads
  gradcomp::compress::CompressorConfig compression;
  int warmup_steps = 10;
};

[[nodiscard]] bool is_ddp_workload(const std::string& name);
// Throws std::invalid_argument on an unknown name.
[[nodiscard]] DdpSpec ddp_spec(const std::string& name);
[[nodiscard]] gradcomp::train::Dataset ddp_data(const DdpSpec& spec, std::uint64_t seed);
[[nodiscard]] gradcomp::train::TrainerConfig ddp_config(const DdpSpec& spec, int world_size,
                                                        std::uint64_t seed);

// Per-step layer breakdown measured by the replay (per-rank means unless
// stated).
struct ReplayStep {
  double mean_loss = 0.0;       // same arithmetic as StepStats::mean_local_loss
  double wall_ms = 0.0;         // the run_ranks call, caller side
  double data_ms = 0.0;         // train::batch
  double fwd_bwd_ms = 0.0;      // Mlp::compute_gradients
  double optimizer_ms = 0.0;    // SgdOptimizer::step
  double aggregate_ms = 0.0;    // all Compressor::aggregate calls
  double encode_ms = 0.0;       // AggregateStats, summed over layers
  double decode_ms = 0.0;
  double wait_ms = 0.0;         // summed over calls: last entry - own entry
  double run_ranks_overhead_ms = 0.0;  // wall_ms - longest rank body
  double wire_bytes = 0.0;      // rank 0's AggregateStats::bytes_sent
  double dense_bytes = 0.0;     // the same gradients uncompressed
  int aggregate_calls = 0;      // per rank
  std::uint64_t allreduce_calls = 0;  // ThreadComm::allreduce_count() delta
};

// Re-executes DataParallelTrainer::step() from the outside with the same
// public calls (train::shard/batch, Mlp::compute_gradients,
// Compressor::aggregate on LayerIds 2i and 2i+1, SgdOptimizer::step) inside
// comm::run_ranks on its own ThreadComm, recording a span around each call.
// Fault-free configurations only.
class Replay {
 public:
  // `tracer` may be null (no spans); its lanes 0..p-1 are the ranks and
  // lane p is the calling thread.
  Replay(const gradcomp::train::TrainerConfig& config, const gradcomp::train::Dataset& data,
         Tracer* tracer);
  // With `traced` false the step records no span (the same calls otherwise).
  ReplayStep step(bool traced = true);
  [[nodiscard]] const std::vector<gradcomp::train::Mlp>& models() const noexcept {
    return models_;
  }

 private:
  gradcomp::train::TrainerConfig config_;
  Tracer* tracer_;
  gradcomp::comm::ThreadComm comm_;
  std::vector<gradcomp::train::Dataset> shards_;
  std::vector<gradcomp::train::Mlp> models_;
  std::vector<std::unique_ptr<gradcomp::compress::Compressor>> compressors_;
  std::vector<gradcomp::train::SgdOptimizer> optimizers_;
  std::int64_t step_ = 0;
};

// A trainer step's correctness check: finite loss, all `world` ranks active.
[[nodiscard]] bool step_ok(const gradcomp::train::StepStats& stats, int world);

// Runs `steps` trainer steps and `steps` replay steps on the same config and
// data; true when every replayed mean loss equals the trainer's bit for bit.
[[nodiscard]] bool replay_matches_trainer(const gradcomp::train::TrainerConfig& config,
                                          const gradcomp::train::Dataset& data, int steps);

void run_ddp(const Args& args, Report& report);
void run_ddp_traced(const Args& args, Report& report);

// ---------------------------------------------------------------------------
// Simulator sweep workload (sim-fabric-sweep).

inline constexpr int kSweepThreads = 3;

struct SweepCell {
  int world = 0;
  std::string method;
  gradcomp::compress::CompressorConfig config;
};

// The 12 cells: {syncsgd, powersgd r4, topk 1%, signsgd} x p in {8, 16, 32}.
[[nodiscard]] std::vector<SweepCell> sweep_grid();
// sim::measure of one cell (resnet50, batch 64, 3 % jitter seeded by
// `seed`); returns the simulated mean iteration time in seconds.
[[nodiscard]] double run_cell(const SweepCell& cell, std::uint64_t seed, bool fabric);
// Simulated iterations one run_cell executes (sim::measure discards the
// first kCellWarmup). Fewer than the paper's 110, so that a 33 s window
// holds enough cells for a pooled p90 with 10 samples beyond it.
inline constexpr int kCellIterations = 10;
inline constexpr int kCellWarmup = 2;

// One sweep: every cell's simulated mean, host seconds and error message
// (empty when the cell ran).
struct SweepResult {
  std::vector<double> means;
  std::vector<double> host_s;
  std::vector<std::string> errors;
  double wall_s = 0.0;
};
// Runs every cell of `grid` on `pool`; with a tracer, cell i records a span
// on lane i and the sweep one on lane grid.size().
[[nodiscard]] SweepResult run_sweep_cells(gradcomp::core::ThreadPool& pool,
                                          const std::vector<SweepCell>& grid, std::uint64_t seed,
                                          bool fabric, Tracer* tracer, std::int64_t index);
// Accounts every cell of `sweep` as one operation: it fails if it threw,
// is not finite and positive, or differs in any bit from `reference`.
void account_cells(const SweepResult& sweep, const SweepResult& reference, OpCounter& ops);

void run_sweep(const Args& args, Report& report);
void run_sweep_traced(const Args& args, Report& report);

// ---------------------------------------------------------------------------
// Micro-probes: the public entry points under the workloads, at their
// shapes, timed by wall clock with threads started outside the timed region.

void run_probes(std::uint64_t seed, Report& report);

struct MetricName {
  const char* name;
  const char* unit;
};
// Every per-layer metric, in report order; a traced run reports each.
[[nodiscard]] const std::vector<MetricName>& per_layer_metrics();

}  // namespace perfbench
