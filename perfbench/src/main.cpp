// perfbench: one run of one workload.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 [--commit ID]
//
// Prints readable '#' lines (fingerprint, sample counts, digests, gates)
// and, as the last line of stdout, one JSON object with the keys correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end metrics,
// --trace 1 the per-layer metrics. Exits non-zero without a result line on
// bad arguments or an unexpected error.
#include <algorithm>
#include <iostream>
#include <stdexcept>

#include "core/parallel.hpp"
#include "perfbench.hpp"

namespace {

using namespace perfbench;

constexpr const char* kUsage =
    "usage: perfbench --workload {ddp-small-sync|ddp-mlp-topk|sim-fabric-sweep} "
    "--seed N --seconds S --trace 0|1 [--commit ID]";

// Orders the traced report's metrics as per_layer_metrics(). A layer a
// workload never enters reads 0 there, and the run says which ones.
void complete_per_layer(Report& report) {
  std::vector<Metric> ordered;
  std::string absent;
  for (const auto& [name, unit] : per_layer_metrics()) {
    const auto it = std::find_if(report.metrics.begin(), report.metrics.end(),
                                 [&](const Metric& m) { return m.name == name; });
    if (it != report.metrics.end()) {
      if (it->unit != unit) throw std::logic_error(std::string("unit mismatch for ") + name);
      ordered.push_back(*it);
    } else {
      ordered.push_back({name, 0.0, unit});
      if (!absent.empty()) absent += ' ';
      absent += name;
    }
  }
  if (!absent.empty()) report.note("off this workload's path (reported as 0)", absent);
  report.metrics = std::move(ordered);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n' << kUsage << '\n';
    return 2;
  }

  Report report;
  try {
    const bool ddp = is_ddp_workload(args.workload);
    if (ddp) {
      args.trace ? run_ddp_traced(args, report) : run_ddp(args, report);
    } else if (args.workload == "sim-fabric-sweep") {
      args.trace ? run_sweep_traced(args, report) : run_sweep(args, report);
    } else {
      throw std::invalid_argument("unknown workload '" + args.workload + "'");
    }
    const int pool_threads = ddp ? gradcomp::core::global_pool().size() : kSweepThreads;
    if (args.trace) {
      run_probes(args.seed, report);
      complete_per_layer(report);
    }
    const std::string worlds = ddp ? std::to_string(ddp_spec(args.workload).world) : "8,16,32";
    report.notes.insert(report.notes.begin(),
                        {"fingerprint", fingerprint_json(args, worlds, pool_threads)});
    if (!release_build())
      report.note("WARNING", "built without NDEBUG: timeline validation and lock-order checks "
                             "are on, so this run measures a different program");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << ": " << e.what() << '\n';
    return 1;
  }
  print_report(report);
  return 0;
}
