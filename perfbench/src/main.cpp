// tbon_perfbench: runs one workload in this (fresh) process and prints one
// JSON result line.  perfbench/run.py builds this binary and runs it; see
// perfbench/README.md.
//
//   tbon_perfbench --workload query|stream|bulk|meanshift --seed N
//                  --seconds S --trace 0|1 [--trace-dir DIR] [--setup-cycles K]
//
// K create -> first op -> shutdown cycles time the set-up, then S seconds
// of ops are split over 10 rounds, each on a fresh network, and every metric
// is the median over rounds.  Untraced (--trace 0) prints the end-to-end
// metrics.  Traced (--trace 1) turns on the wrapper filters and telemetry,
// has every node process write its spans under DIR, and prints the
// per-layer metrics instead.  The exit code is non-zero when any op failed
// its check.
#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "meanshift/distributed.hpp"
#include "perfbench.hpp"

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;
  int setup_cycles = 25;
};

/// Rounds per run.  The host's speed drifts within seconds; a fresh network
/// per round and the median over rounds keep one slow stretch or one
/// unlucky process placement from moving a metric.
constexpr int kRounds = 10;

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--trace-dir") {
      args.trace_dir = value;
    } else if (key == "--setup-cycles") {
      args.setup_cycles = std::stoi(value);
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload is required");
  if (args.trace && args.trace_dir.empty()) throw std::invalid_argument("--trace 1 needs --trace-dir");
  return args;
}

/// CPU of this process plus its reaped descendants, in nanoseconds.
std::int64_t tree_cpu_ns() {
  rusage usage{};
  ::getrusage(RUSAGE_CHILDREN, &usage);
  const auto ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1'000;
  };
  return pb::self_cpu_ns() + ns(usage.ru_utime) + ns(usage.ru_stime);
}

/// Peak resident set of this process (VmHWM) since the last
/// reset_peak_rss().  getrusage's ru_maxrss is not used: it cannot be reset
/// and keeps the high-water mark of the image before exec.
double peak_rss_mib() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

/// Restart the VmHWM high-water mark from the current resident set.
void reset_peak_rss() {
  if (std::FILE* refs = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", refs);
    std::fclose(refs);
  }
}

std::string unit_of(const std::string& name) {
  const auto ends = [&](const char* suffix) {
    const std::string s = suffix;
    return name.size() >= s.size() && name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (name == "setup_s") return "s";
  if (name == "ops_per_s") return "1/s";
  if (name == "mib_per_s") return "MiB/s";
  if (ends("_mib")) return "MiB";
  if (ends("_us") || ends("_us_per_op") || ends("_us_per_wave")) return "us";
  if (ends("_ns")) return "ns";
  if (ends("_ms")) return "ms";
  if (ends("_kib")) return "KiB";
  if (ends("_bytes")) return "B";
  if (ends("_frac")) return "fraction";
  return "count";
}

void print_result(const pb::RunStats& stats, const pb::Metrics& metrics, double headline,
                  double tail_p99) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              stats.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(stats.attempted),
              static_cast<unsigned long long>(stats.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, raw] = metrics[i];
    const double value = std::isfinite(raw) ? raw : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                name.c_str(), value, unit_of(name).c_str());
  }
  std::printf("}, \"headline\": %.17g, \"tail_p99_us\": %.17g}\n", headline, tail_p99);
  std::fflush(stdout);
}

/// End-to-end metrics of one untraced network.
pb::Metrics round_metrics(const pb::RunStats& stats, double cpu_ns, double rss_mib) {
  const double timed_s = stats.timed_s > 0.0 ? stats.timed_s : 1.0;
  const double completed = static_cast<double>(stats.completed);
  return {
      {"latency_p50_us", pb::quantile(stats.latencies_us, 0.5)},
      {"latency_p99_us", pb::quantile(stats.latencies_us, 0.99)},
      {"ops_per_s", static_cast<double>(stats.timed_ops) / timed_s},
      {"mib_per_s", static_cast<double>(stats.timed_bytes) / timed_s / (1024.0 * 1024.0)},
      {"cpu_us_per_op", completed > 0.0 ? cpu_ns * 1e-3 / completed : 0.0},
      {"peak_rss_mib", rss_mib},
  };
}

/// Per metric, the median over rounds (every round reports the same names).
pb::Metrics median_over(const std::vector<pb::Metrics>& rounds) {
  pb::Metrics out;
  for (std::size_t i = 0; !rounds.empty() && i < rounds.front().size(); ++i) {
    std::vector<double> values;
    for (const pb::Metrics& round : rounds) values.push_back(round[i].second);
    out.emplace_back(rounds.front()[i].first, pb::median(std::move(values)));
  }
  return out;
}

int run(const Args& args) {
  std::unique_ptr<pb::Workload> workload = pb::make_workload(args.workload, args.seed);
  tbon::ms::register_mean_shift_filter();
  pb::register_traced_filters();
  pb::TraceConfig& trace = pb::trace_config();
  trace.enabled = args.trace;
  trace.sample = workload->trace_sample();

  pb::RunStats total;
  std::vector<double> setup_s;
  for (int c = 0; c < args.setup_cycles; ++c) {
    const std::int64_t t0 = pb::now_ns();
    auto net = tbon::Network::create(workload->options(false));
    workload->open(*net, false);
    const bool ok = workload->first_op();
    setup_s.push_back(static_cast<double>(pb::now_ns() - t0) * 1e-9);
    net->shutdown();
    total.attempted += 1;
    if (!ok) total.fail();
  }

  std::vector<pb::Metrics> e2e_rounds;
  std::vector<pb::Metrics> layer_rounds;
  for (int r = 0; r < kRounds; ++r) {
    if (args.trace) {
      trace.dir = args.trace_dir + "/" + std::to_string(r);
      if (::mkdir(trace.dir.c_str(), 0755) != 0) throw std::runtime_error("cannot create " + trace.dir);
    }
    pb::RunStats stats;
    reset_peak_rss();
    const std::int64_t cpu0 = tree_cpu_ns();
    const std::int64_t self0 = pb::self_cpu_ns();
    const std::int64_t t0 = pb::now_ns();
    auto net = tbon::Network::create(workload->options(args.trace));
    const tbon::Topology topology = net->topology();
    workload->open(*net, args.trace);
    pb::Poller poller(net.get(), args.trace);
    workload->measure(*net, args.seconds / kRounds, stats, poller);
    net->shutdown();
    const tbon::TreeMetricsSnapshot telemetry =
        args.trace ? net->front_end().metrics() : tbon::TreeMetricsSnapshot{};
    net.reset();
    stats.measure_s = static_cast<double>(pb::now_ns() - t0) * 1e-9;
    total.attempted += stats.attempted;
    total.failed += stats.failed;
    e2e_rounds.push_back(
        round_metrics(stats, static_cast<double>(tree_cpu_ns() - cpu0), peak_rss_mib()));
    if (args.trace) {
      pb::flush_spans();
      const std::int64_t root_cpu = pb::self_cpu_ns() - self0;
      layer_rounds.push_back(pb::round_layers(topology, stats, telemetry,
                                              pb::read_spans(trace.dir), root_cpu,
                                              tree_cpu_ns() - cpu0 - root_cpu));
    }
  }

  // The tail is printed beside the metrics, not among them: host stalls make
  // it vary far more from run to run than any bound could absorb.
  pb::Metrics e2e = median_over(e2e_rounds);
  double headline = 0.0;
  double tail_p99 = 0.0;
  for (auto it = e2e.begin(); it != e2e.end();) {
    if (it->first == "latency_p50_us") headline = it->second;
    if (it->first == "latency_p99_us") {
      tail_p99 = it->second;
      it = e2e.erase(it);
    } else {
      ++it;
    }
  }
  pb::Metrics metrics;
  if (args.trace) {
    metrics = median_over(layer_rounds);
    for (auto& entry : pb::micro_layers(*workload, args.seed)) metrics.push_back(entry);
  } else {
    metrics = std::move(e2e);
    if (!setup_s.empty()) metrics.emplace(metrics.begin(), "setup_s", pb::median(setup_s));
  }
  print_result(total, metrics, headline, tail_p99);
  return total.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "tbon_perfbench: %s\n", error.what());
    return 2;
  }
}
