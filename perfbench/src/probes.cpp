// Micro-probes under the workloads: tensor kernels, ThreadComm collectives,
// the parallel pool, the fabric engine and the analytic simulator, each at
// a shape one of the workloads uses. Every probe times wall clock; threads
// are started before the timed region.
#include <atomic>
#include <functional>

#include "comm/thread_comm.hpp"
#include "core/parallel.hpp"
#include "fabric/collectives.hpp"
#include "perfbench.hpp"
#include "tensor/linalg.hpp"
#include "tensor/rng.hpp"
#include "tensor/topk.hpp"

namespace perfbench {

using namespace gradcomp;

namespace {

// The comm probes run at the rank count of ddp-small-sync.
constexpr int kProbeWorld = 3;

// Median over `reps` samples of the mean wall seconds of `inner` calls.
double median_call_s(int reps, int inner, const std::function<void()>& fn) {
  fn();  // warm-up: first touch, lazy set-up
  std::vector<double> v;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < inner; ++i) fn();
    v.push_back(seconds_since(t0) / inner);
  }
  return median(std::move(v));
}

// Times `op(rank)` on kProbeWorld persistent rank threads: every rep starts
// from a barrier and rank 0 times `inner` back-to-back calls. Returns the
// median seconds per call.
double median_collective_s(comm::ThreadComm& comm, int reps, int inner,
                           const std::function<void(int)>& op) {
  std::vector<double> v;
  comm::run_ranks(kProbeWorld, [&](int rank) {
    op(rank);  // warm-up
    for (int r = 0; r < reps; ++r) {
      comm.barrier(rank);
      const auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < inner; ++i) op(rank);
      if (rank == 0) v.push_back(seconds_since(t0) / inner);
    }
  });
  return median(std::move(v));
}

}  // namespace

void run_probes(std::uint64_t seed, Report& report) {
  core::set_global_pool_threads(1);
  tensor::Rng rng(seed);

  // --- tensor ------------------------------------------------------------------
  {
    const tensor::Tensor a = tensor::Tensor::randn({64, 512}, rng);
    const tensor::Tensor b = tensor::Tensor::randn({512, 512}, rng);
    tensor::Tensor c;
    report.metric("tensor.matmul_ms", 1e3 * median_call_s(15, 4, [&] {
                    tensor::matmul_into(a, b, tensor::Transpose::kNo, tensor::Transpose::kNo, c);
                  }),
                  "ms");
    const tensor::Tensor wa = tensor::Tensor::randn({4, 1024}, rng);
    const tensor::Tensor wb = tensor::Tensor::randn({1024, 1024}, rng);
    report.metric("tensor.matmul_wide_ms", 1e3 * median_call_s(15, 4, [&] {
                    tensor::matmul_into(wa, wb, tensor::Transpose::kNo, tensor::Transpose::kNo,
                                        c);
                  }),
                  "ms");
    const tensor::Tensor g = tensor::Tensor::randn({262144}, rng);
    tensor::TopKResult out;
    tensor::Workspace ws;
    report.metric("tensor.topk_ms", 1e3 * median_call_s(15, 4, [&] {
                    tensor::top_k_abs_into(g.data(), 2621, out, &ws);
                  }),
                  "ms");
  }

  // --- comm at p = kProbeWorld --------------------------------------------------
  {
    comm::ThreadComm comm(kProbeWorld);
    report.metric("comm.barrier_us",
                  1e6 * median_collective_s(comm, 15, 100, [&](int r) { comm.barrier(r); }), "us");
    std::vector<std::vector<float>> small(kProbeWorld, std::vector<float>(4096, 1.0F));
    report.metric("comm.allreduce_16k_us", 1e6 * median_collective_s(comm, 15, 40, [&](int r) {
                    comm.allreduce_sum(r, small[static_cast<std::size_t>(r)]);
                  }),
                  "us");
    constexpr std::size_t kLarge = 4U << 20;  // floats: 16 MiB
    std::vector<std::vector<float>> large(kProbeWorld, std::vector<float>(kLarge, 1.0F));
    const double large_s = median_collective_s(comm, 5, 2, [&](int r) {
      comm.allreduce_sum(r, large[static_cast<std::size_t>(r)]);
    });
    report.metric("comm.allreduce_16m_gbps",
                  static_cast<double>(kLarge * sizeof(float)) / large_s / 1e9, "GB/s");
    const std::vector<std::byte> payload(32768, std::byte{1});
    report.metric("comm.allgather_32k_us", 1e6 * median_collective_s(comm, 15, 20, [&](int r) {
                    (void)comm.allgather(r, payload);
                  }),
                  "us");
    report.metric("comm.run_ranks_empty_us",
                  1e6 * median_call_s(15, 20, [] { comm::run_ranks(kProbeWorld, [](int) {}); }),
                  "us");
  }

  // --- core.parallel -------------------------------------------------------------
  {
    core::ThreadPool pool(kSweepThreads);
    std::atomic<std::int64_t> sink{0};
    report.metric("parallel.dispatch_us", 1e6 * median_call_s(15, 200, [&] {
                    pool.parallel_for(0, kSweepThreads, 1, [&](std::int64_t lo, std::int64_t) {
                      sink.fetch_add(lo, std::memory_order_relaxed);
                    });
                  }),
                  "us");
  }

  // --- fabric at p = 16, 25 MiB ----------------------------------------------------
  {
    fabric::TopologySpec spec;
    spec.world_size = 16;
    spec.nic_bandwidth = fabric::BitsPerSecond::from_gbps(10.0);
    spec.nic_latency = fabric::Seconds{7.5e-6};
    const fabric::Topology topology(spec);
    const fabric::FabricOptions options;
    const fabric::Bytes bytes{25.0 * 1024.0 * 1024.0};
    const auto packets = [](const fabric::CollectiveResult& r) {
      double n = 0.0;
      for (const auto& link : r.links) n += link.packets;
      return n;
    };
    double ring_packets = 0.0;
    double gather_packets = 0.0;
    const double ring_s = median_call_s(5, 1, [&] {
      ring_packets = packets(fabric::ring_allreduce(topology, options, bytes));
    });
    const double gather_s = median_call_s(3, 1, [&] {
      gather_packets =
          packets(fabric::allgather(topology, options, bytes, fabric::GatherPattern::kDirect));
    });
    report.metric("fabric.ring_allreduce_ms", ring_s * 1e3, "ms");
    report.metric("fabric.allgather_direct_ms", gather_s * 1e3, "ms");
    report.metric("fabric.ns_per_packet",
                  (ring_s + gather_s) * 1e9 / (ring_packets + gather_packets), "ns");
  }

  // --- sim under kAnalytic: the control a fabric change leaves alone ----------------
  {
    const std::vector<SweepCell> grid = sweep_grid();
    const double sweep_s = median_call_s(3, 1, [&] {
      for (const auto& cell : grid) (void)run_cell(cell, seed, false);
    });
    report.metric("sim.analytic_host_us_per_iter",
                  sweep_s * 1e6 / static_cast<double>(grid.size() * kCellIterations), "us");
  }
}

}  // namespace perfbench
