// Shared declarations of the TBON benchmark: run statistics, the span log
// the traced run records, and the workload interface.
//
// The benchmark drives the library only through its public API (Network,
// FrontEnd, Stream, BackEnd, FilterRegistry, the packet codec, the frame
// transport and the mean-shift module).  Spans are recorded by the
// benchmark's own code around the calls it makes into each layer, and by
// wrapper filters it registers; nothing inside the library is instrumented.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "core/network.hpp"
#include "telemetry/collector.hpp"

namespace pb {

using tbon::now_ns;

// ---- statistics -------------------------------------------------------------

/// Quantile `q` in [0, 1] of `values` (linear interpolation); 0 when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// What one measured network run produced.  "Ops" are the workload's unit
/// of work: a query, a wave, a 64 KiB payload or a mean-shift job.
struct RunStats {
  std::uint64_t attempted = 0;  ///< ops issued (each checked)
  std::uint64_t failed = 0;     ///< ops wrong, missing or timed out
  std::uint64_t completed = 0;  ///< ops received and correct
  std::uint64_t timed_ops = 0;  ///< completed inside the timed window
  double timed_s = 0.0;         ///< length of the timed window
  double measure_s = 0.0;       ///< whole measured phase, create to shutdown
  std::uint64_t timed_bytes = 0;  ///< application payload bytes in that window
  std::vector<double> latencies_us;  ///< every op completed in the timed window
  std::int64_t timed_start_ns = 0;
  std::vector<double> late_us;        ///< open-loop sender lateness (query)
  std::vector<double> inbox_samples;  ///< summed inbox depth (traced run)

  void fail(std::uint64_t n = 1) { failed += n; }
};

// ---- span log ---------------------------------------------------------------

enum class SpanKind : std::int32_t {
  kFeSend,        ///< Stream::send of a downstream op packet (seq = op id)
  kFeRecv,        ///< front-end receive call (seq = per-stream result index)
  kLeafRecv,      ///< back-end received an op packet (seq = op id)
  kLeafSend,      ///< BackEnd::send (seq = per-stream send index)
  kLeafReply,     ///< op packet receipt -> last send it caused (aux = sends)
  kSyncArrive,    ///< packet reached a sync policy (aux = child, seq = per-child index)
  kSyncHold,      ///< first packet of a wave -> release (seq = wave)
  kFilter,        ///< one filter()/filter_batch() call (aux = packets)
  kFilterTotals,  ///< per filter instance: seq = calls, t0 = packets, t1 = ns
  kLeafCpu,       ///< back-end process CPU: t0 = pid, t1 = ns
};

struct Span {
  SpanKind kind = SpanKind::kFeSend;
  std::int32_t node = 0;
  std::int32_t stream = 0;
  std::int32_t aux = 0;
  std::int64_t seq = 0;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};

/// Tracing configuration, set before the first fork so every node process
/// inherits it.
struct TraceConfig {
  bool enabled = false;
  std::string dir;         ///< where each process writes its span file
  std::int64_t sample = 1; ///< per-op spans only for indices divisible by this
  bool sampled(std::int64_t index) const { return enabled && index % sample == 0; }
};
TraceConfig& trace_config();

/// Append a span to this process's in-memory log (thread-safe).
void record(const Span& span);
/// Write this process's log to a fresh file under trace_config().dir and
/// clear it.  Called when a node's filter is destroyed, when a back-end body
/// returns, and by the front-end after shutdown.
void flush_spans();
/// Every span written under `dir`, from all processes.
std::vector<Span> read_spans(const std::string& dir);
/// CPU (user + system) of this process, in nanoseconds.
std::int64_t self_cpu_ns();

/// Register "pb_<name>" wrappers around the transform and sync filters the
/// workloads use.  Call once, before any network exists.
void register_traced_filters();

// ---- workloads --------------------------------------------------------------

/// Polls the tree's telemetry during a traced run (no-op otherwise).
class Poller {
 public:
  Poller(tbon::Network* net, bool enabled) : net_(net), enabled_(enabled) {}
  void tick(RunStats& stats);

 private:
  tbon::Network* net_;
  bool enabled_;
  std::int64_t next_ns_ = 0;
};

/// One benchmark workload.  The inputs are generated from the seed in the
/// constructor, before any network forks, and node code sees only them.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Network options for this workload (traced: wrapper filters and
  /// telemetry on).
  virtual tbon::NetworkOptions options(bool traced) const = 0;
  /// Open the workload's streams on a fresh network.
  virtual void open(tbon::Network& net, bool traced) = 0;
  /// Run one op and check it; false when wrong or missing.
  virtual bool first_op() = 0;
  /// Run ops for `seconds`, checking every result.
  virtual void measure(tbon::Network& net, double seconds, RunStats& stats,
                       Poller& poller) = 0;
  /// Sample packets of this workload's upstream shape (codec micro-timing).
  virtual std::vector<tbon::PacketPtr> sample_packets() const = 0;
  /// Per-op span sampling interval for the traced run.
  virtual std::int64_t trace_sample() const = 0;
};

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed);

using Metrics = std::vector<std::pair<std::string, double>>;

/// Per-layer metrics of one traced network: span gaps and durations, and
/// ratios of the tree's telemetry counters.
/// `root_cpu_ns` is the front-end process's CPU, `nodes_cpu_ns` that of every
/// node process it reaped.
Metrics round_layers(const tbon::Topology& topology, const RunStats& stats,
                     const tbon::TreeMetricsSnapshot& telemetry, const std::vector<Span>& spans,
                     std::int64_t root_cpu_ns, std::int64_t nodes_cpu_ns);

/// Layer timings measured from outside the tree, for the workload's data
/// shapes: codec, frame transport round trips, mean-shift compute.
Metrics micro_layers(const Workload& workload, std::uint64_t seed);

}  // namespace pb
