#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "perfbench.hpp"
#include "tensor/simd.hpp"
#include "trace/timeline.hpp"

namespace perfbench {

namespace {

// JSON string literal (the values printed here are names and host strings).
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// A decimal that reads back as the same double.
std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  std::uint64_t v = 0;
  try {
    v = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used != text.size() || text.empty() || text[0] == '-')
    throw std::invalid_argument(flag + ": not a non-negative integer: '" + text + "'");
  return v;
}

// Value of "key : value" from a /proc text file, or "" when absent.
std::string proc_field(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string v = line.substr(colon + 1);
    const auto b = v.find_first_not_of(" \t");
    return b == std::string::npos ? "" : v.substr(b);
  }
  return "";
}

}  // namespace

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + ": missing value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(flag, value));
      if (a.seconds < 1 || a.seconds > 120)
        throw std::invalid_argument("--seconds: must be in [1, 120]");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace: must be 0 or 1");
      a.trace = value == "1";
    } else if (flag == "--commit") {
      a.commit = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  return a;
}

// --- Report ----------------------------------------------------------------

void Report::metric(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Report::gate(std::string name, bool pass) { gates.emplace_back(std::move(name), pass); }

void Report::note(std::string key, std::string text) {
  notes.emplace_back(std::move(key), std::move(text));
}

bool Report::correct() const {
  const bool gates_ok =
      std::all_of(gates.begin(), gates.end(), [](const auto& g) { return g.second; });
  const bool finite = std::all_of(metrics.begin(), metrics.end(),
                                  [](const Metric& m) { return std::isfinite(m.value); });
  return gates_ok && finite && failed == 0 && attempted > 0;
}

void print_report(const Report& report) {
  for (const auto& [key, text] : report.notes) std::cout << "# " << key << ": " << text << '\n';
  for (const auto& [name, pass] : report.gates)
    std::cout << "# gate " << name << ": " << (pass ? "pass" : "FAIL") << '\n';
  std::cout << "# operations: attempted " << report.attempted << ", failed " << report.failed
            << '\n';
  for (const auto& m : report.metrics)
    std::cout << "# metric " << m.name << " = " << number(m.value) << ' ' << m.unit << '\n';

  std::ostringstream json;
  json << "{\"correct\": " << (report.correct() ? "true" : "false")
       << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    // JSON has no NaN/Inf; a non-finite metric already makes correct false.
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    json << (i ? ", " : "") << quoted(m.name) << ": {\"value\": " << number(v)
         << ", \"unit\": " << quoted(m.unit) << '}';
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

// --- distribution arithmetic ----------------------------------------------

double percentile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("percentile: empty sample");
  if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("percentile: q outside [0, 1]");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return percentile(std::move(values), 0.5); }

std::size_t count_above(const std::vector<double>& values, double threshold) {
  return static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(), [&](double v) { return v > threshold; }));
}

Tail tail(const std::vector<double>& values) {
  Tail t;
  t.n = values.size();
  t.p50 = percentile(values, 0.5);
  t.p90 = percentile(values, 0.9);
  t.beyond_p90 = count_above(values, t.p90);
  return t;
}

std::vector<std::vector<double>> blocks(const std::vector<double>& values, std::size_t size) {
  if (values.empty() || size == 0) throw std::invalid_argument("blocks: empty sample or size 0");
  std::vector<std::vector<double>> out;
  for (std::size_t i = 0; i < values.size(); i += size) {
    const std::size_t end = std::min(values.size(), i + size);
    if (end - i < size && !out.empty()) {
      out.back().insert(out.back().end(), values.begin() + static_cast<std::ptrdiff_t>(i),
                        values.end());
      break;
    }
    out.emplace_back(values.begin() + static_cast<std::ptrdiff_t>(i),
                     values.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return out;
}

BlockMedians block_medians(const std::vector<std::vector<double>>& blocks) {
  if (blocks.empty()) throw std::invalid_argument("block_medians: no blocks");
  std::vector<double> p50, p90, rate;
  for (const auto& b : blocks) {
    p50.push_back(percentile(b, 0.5));
    p90.push_back(percentile(b, 0.9));
    rate.push_back(static_cast<double>(b.size()) / std::accumulate(b.begin(), b.end(), 0.0));
  }
  return {median(std::move(p50)), median(std::move(p90)), median(std::move(rate)), blocks.size()};
}

std::string samples_text(const std::vector<double>& values) {
  std::string out = std::to_string(values.size()) + ":";
  for (const double v : values) out += " " + number(v);
  return out;
}

std::string digest(const std::vector<double>& values) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xFFU;
      h *= 1099511628211ULL;
    }
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

// --- OpCounter --------------------------------------------------------------

void OpCounter::record(bool ok, double seconds) {
  ++attempted_;
  if (ok && seconds > deadline_s_) {
    ok = false;
    if (first_error_.empty())
      first_error_ = "operation overran its " + number(deadline_s_) + " s deadline";
  }
  if (!ok) {
    ++failed_;
    if (first_error_.empty()) first_error_ = "operation failed its correctness check";
  }
}

void OpCounter::fail_with(std::string message) {
  ++attempted_;
  ++failed_;
  if (first_error_.empty()) first_error_ = std::move(message);
}

void OpCounter::add_to(Report& report) const {
  report.attempted += attempted_;
  report.failed += failed_;
  if (!first_error_.empty()) report.note("first_failure", first_error_);
}

// --- host -------------------------------------------------------------------

bool release_build() noexcept {
#ifdef NDEBUG
  return true;
#else
  return false;
#endif
}

std::string fingerprint_json(const Args& args, const std::string& world_sizes,
                             int pool_threads) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : -1;
  std::ostringstream os;
  os << "{\"workload\": " << quoted(args.workload) << ", \"seed\": " << args.seed
     << ", \"nproc\": " << affinity
     << ", \"hardware_concurrency\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": " << quoted(proc_field("/proc/cpuinfo", "model name"))
     << ", \"simd\": "
     << quoted(gradcomp::tensor::simd::level_name(gradcomp::tensor::simd::active_level()))
     << ", \"pool_threads\": " << pool_threads << ", \"world_size\": " << quoted(world_sizes)
     << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
     << ", \"ndebug\": " << (release_build() ? "true" : "false")
     << ", \"commit\": " << quoted(args.commit) << ", \"traced\": " << (args.trace ? 1 : 0)
     << '}';
  return os.str();
}

double peak_rss_mb() {
  const std::string hwm = proc_field("/proc/self/status", "VmHWM");  // "12345 kB"
  return hwm.empty() ? 0.0 : std::stod(hwm) / 1024.0;
}

int thread_count() {
  const std::string n = proc_field("/proc/self/status", "Threads");
  return n.empty() ? -1 : std::stoi(n);
}

HostCpu host_cpu() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  HostCpu h;
  for (int field = 0; field < 8 && in; ++field) {
    std::uint64_t v = 0;
    in >> v;
    h.total += v;
    if (field == 7) h.steal = v;
  }
  return h;
}

double steal_pct(const HostCpu& before, const HostCpu& after) {
  const std::uint64_t total = after.total - before.total;
  return total == 0 ? 0.0 : 100.0 * static_cast<double>(after.steal - before.steal) /
                                static_cast<double>(total);
}

// --- tracing ------------------------------------------------------------------

Tracer::Tracer(std::string workload, std::vector<std::string> lane_tags)
    : workload_(std::move(workload)),
      tags_(std::move(lane_tags)),
      origin_(std::chrono::steady_clock::now()),
      lanes_(tags_.size()) {}

std::size_t Tracer::span_count() const {
  std::size_t n = 0;
  for (const auto& lane : lanes_) n += lane.size();
  return n;
}

std::string Tracer::write(const std::string& dir, std::uint64_t seed,
                          std::int64_t max_step) const {
  gradcomp::trace::Timeline timeline;
  for (std::size_t l = 0; l < lanes_.size(); ++l)
    for (const auto& s : lanes_[l])
      if (s.step < max_step)
        timeline.add(tags_[l],
                     std::string(s.name) + " workload=" + workload_ +
                         " step=" + std::to_string(s.step) + " " + tags_[l],
                     gradcomp::trace::Seconds{s.start}, gradcomp::trace::Seconds{s.end});
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + workload_ + "-seed" + std::to_string(seed) + ".json";
  std::ofstream out(path);
  timeline.render_chrome_json(out);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  return path;
}

std::vector<std::string> rank_lane_tags(int ranks) {
  std::vector<std::string> tags;
  for (int r = 0; r < ranks; ++r) tags.push_back("rank=" + std::to_string(r));
  tags.push_back("caller");
  return tags;
}

std::vector<double> self_times(const std::vector<SpanRecord>& lane) {
  std::vector<std::size_t> order(lane.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (lane[a].start != lane[b].start) return lane[a].start < lane[b].start;
    return lane[a].end > lane[b].end;  // the enclosing span first
  });
  std::vector<double> self(lane.size());
  for (std::size_t i = 0; i < lane.size(); ++i) self[i] = lane[i].end - lane[i].start;
  std::vector<std::size_t> open;  // chain of enclosing spans
  for (const std::size_t i : order) {
    while (!open.empty() && lane[open.back()].end <= lane[i].start) open.pop_back();
    if (!open.empty()) self[open.back()] -= lane[i].end - lane[i].start;
    open.push_back(i);
  }
  return self;
}

const std::vector<MetricName>& per_layer_metrics() {
  static const std::vector<MetricName> names = {
      {"train.data_ms", "ms"},
      {"train.fwd_bwd_ms", "ms"},
      {"train.optimizer_ms", "ms"},
      {"train.p1_step_ms", "ms"},
      {"compress.encode_ms", "ms"},
      {"compress.decode_ms", "ms"},
      {"compress.roundtrip_ms", "ms"},
      {"compress.wire_bytes_per_step", "bytes"},
      {"compress.ratio", "ratio"},
      {"compress.aggregate_calls_per_step", "count"},
      {"comm.collective_ms", "ms"},
      {"comm.wait_ms", "ms"},
      {"comm.transfer_ms", "ms"},
      {"comm.allreduce_calls_per_step", "count"},
      {"comm.run_ranks_overhead_ms", "ms"},
      {"comm.barrier_us", "us"},
      {"comm.run_ranks_empty_us", "us"},
      {"comm.allreduce_16k_us", "us"},
      {"comm.allreduce_16m_gbps", "GB/s"},
      {"comm.allgather_32k_us", "us"},
      {"tensor.matmul_ms", "ms"},
      {"tensor.matmul_wide_ms", "ms"},
      {"tensor.topk_ms", "ms"},
      {"parallel.pool_util", "ratio"},
      {"parallel.dispatch_us", "us"},
      {"sim.host_ms_per_iter.p8", "ms"},
      {"sim.host_ms_per_iter.p16", "ms"},
      {"sim.host_ms_per_iter.p32", "ms"},
      {"sim.host_ms_per_iter.syncsgd", "ms"},
      {"sim.host_ms_per_iter.powersgd", "ms"},
      {"sim.host_ms_per_iter.topk", "ms"},
      {"sim.host_ms_per_iter.signsgd", "ms"},
      {"sim.analytic_host_us_per_iter", "us"},
      {"fabric.ring_allreduce_ms", "ms"},
      {"fabric.allgather_direct_ms", "ms"},
      {"fabric.ns_per_packet", "ns"},
      {"trace.overhead_pct", "%"},
  };
  return names;
}

}  // namespace perfbench
