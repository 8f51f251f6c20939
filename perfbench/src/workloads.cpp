// The four workloads.  Each runs on balanced(2,2): 4 back-ends under 2
// interior nodes.  Inputs come from the seed; node code only reads them.
//
//   query     remote mode, open loop: the front-end multicasts a query at a
//             fixed rate, each back-end replies with a 32-function report,
//             reduced by sum + wait_for_all.  Latency runs from the due time.
//   stream    process mode, open loop: every sampling period each back-end
//             sends a burst of 32 reports, batching and 64-credit flow
//             control on, sum + wait_for_all.
//   bulk      remote mode, open loop: per op each back-end sends a 64 KiB
//             opaque payload through passthrough + null sync (the zero-copy
//             relay lane).
//   meanshift process mode: two concurrent mean-shift job streams, 2 filter
//             workers per non-leaf node, drained with recv_any.
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "meanshift/distributed.hpp"
#include "meanshift/synth.hpp"
#include "perfbench.hpp"

namespace pb {

namespace {

using tbon::BackEnd;
using tbon::Network;
using tbon::NetworkOptions;
using tbon::Packet;
using tbon::PacketPtr;
using tbon::Stream;

constexpr std::int32_t kOpTag = tbon::kFirstAppTag;       // downstream: (first op, count)
constexpr std::int32_t kResultTag = tbon::kFirstAppTag + 1;  // upstream data
constexpr std::size_t kFanout = 2;
constexpr std::size_t kDepth = 2;
constexpr auto kRecvTimeout = std::chrono::seconds(10);

tbon::Topology tree() { return tbon::Topology::balanced(kFanout, kDepth); }

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t state = seed ^ (salt * 0x9e3779b97f4a7c15ULL);
  return tbon::splitmix64(state);
}

/// Per-back-end 32-function reports.  Values are integers below 2^20 stored
/// as doubles, so a sum over the tree is exact in any order.
class Reports {
 public:
  static constexpr std::size_t kFunctions = 32;
  static constexpr std::size_t kPeriod = 256;

  Reports(std::uint64_t seed, std::size_t leaves)
      : leaves_(leaves), table_(leaves * kPeriod * kFunctions), sums_(kPeriod * kFunctions) {
    tbon::Rng rng(mix(seed, 1));
    for (double& v : table_) v = static_cast<double>(rng.next_u64() >> 44);
    for (std::size_t leaf = 0; leaf < leaves; ++leaf) {
      for (std::size_t i = 0; i < kPeriod * kFunctions; ++i) {
        sums_[i] += table_[leaf * kPeriod * kFunctions + i];
      }
    }
  }

  /// Report of back-end `leaf` for op `id`.
  std::vector<double> report(std::size_t leaf, std::int64_t id) const {
    const double* row = &table_[(leaf * kPeriod + static_cast<std::size_t>(id) % kPeriod) *
                                kFunctions];
    std::vector<double> values(row, row + kFunctions);
    for (double& v : values) v += static_cast<double>(id);
    return values;
  }

  /// Check a reduced packet (id, send-time sum, report sum) for op `id`;
  /// on success returns the mean back-end send time.
  std::optional<std::int64_t> check(const Packet& packet, std::int64_t id) const {
    if (packet.format() != format_) return std::nullopt;
    const auto n = static_cast<std::int64_t>(leaves_);
    if (packet.get_i64(0) != n * id) return std::nullopt;
    const std::vector<double>& got = packet.get_vf64(2);
    if (got.size() != kFunctions) return std::nullopt;
    const double* want = &sums_[(static_cast<std::size_t>(id) % kPeriod) * kFunctions];
    for (std::size_t f = 0; f < kFunctions; ++f) {
      if (got[f] != want[f] + static_cast<double>(n * id)) return std::nullopt;
    }
    return packet.get_i64(1) / n;
  }

 private:
  std::size_t leaves_;
  tbon::DataFormat format_{"i64 i64 vf64"};
  std::vector<double> table_;  // [leaf][period][function]
  std::vector<double> sums_;   // [period][function], summed over leaves
};

/// Per-stream counter of upstream sends, for span sequence numbers.
struct LeafTrace {
  std::int32_t node = 0;
  std::map<std::uint32_t, std::int64_t> sends;

  /// Time one BackEnd::send; returns its start time.
  template <typename Send>
  std::int64_t send(std::uint32_t stream, Send&& body) {
    const std::int64_t t0 = now_ns();
    body(t0);
    const std::int64_t index = sends[stream]++;
    if (trace_config().sampled(index)) {
      record({SpanKind::kLeafSend, node, static_cast<std::int32_t>(stream), 0, index, t0,
              now_ns()});
    }
    return t0;
  }

  /// Serve op packets until shutdown: for each one, `reply(stream, id)` runs
  /// once per op id it names.  Flushes the process's spans and CPU at the end.
  template <typename Reply>
  void serve(BackEnd& be, Reply&& reply) {
    const TraceConfig& trace = trace_config();
    try {
      for (;;) {
        const tbon::RecvResult result = be.recv();
        if (!result) break;
        const std::int64_t t_recv = now_ns();
        const Packet& op = **result;
        const std::int64_t first = op.get_i64(0);
        const std::int64_t count = op.get_i64(1);
        const auto stream = static_cast<std::int32_t>(op.stream_id());
        if (trace.enabled) record({SpanKind::kLeafRecv, node, stream, 0, first, t_recv, t_recv});
        for (std::int64_t id = first; id < first + count; ++id) reply(op.stream_id(), id);
        if (trace.enabled) {
          record({SpanKind::kLeafReply, node, stream, static_cast<std::int32_t>(count), first,
                  t_recv, now_ns()});
        }
      }
    } catch (const std::exception& error) {
      // A send racing the shutdown handshake throws; the front-end has
      // already accounted every op it expected.
      std::fprintf(stderr, "perfbench: back-end %u: %s\n", be.rank(), error.what());
    }
    if (trace.enabled) {
      record({SpanKind::kLeafCpu, node, 0, 0, 0, ::getpid(), self_cpu_ns()});
      flush_spans();
    }
  }
};

std::int32_t leaf_node(const BackEnd& be) {
  return static_cast<std::int32_t>(tree().leaves().at(be.rank()));
}

double payload_bytes(const Packet& packet) { return static_cast<double>(packet.payload_bytes()); }

/// Latencies of the timed window plus its op and byte counts.
void note_timed(RunStats& stats, double latency_us, double bytes) {
  stats.latencies_us.push_back(latency_us);
  stats.timed_ops += 1;
  stats.timed_bytes += static_cast<std::uint64_t>(bytes);
}

/// Receive one result on `stream`, recording a front-end receive span.
tbon::RecvResult traced_recv(Stream& stream, std::int64_t index) {
  const std::int64_t t0 = now_ns();
  tbon::RecvResult result = stream.recv_for(kRecvTimeout);
  if (trace_config().sampled(index)) {
    record({SpanKind::kFeRecv, 0, static_cast<std::int32_t>(stream.id()), 0, index, t0,
            now_ns()});
  }
  return result;
}

/// Multicast an op packet naming ops [first, first + count).
void send_op(Stream& stream, std::int64_t first, std::int64_t count) {
  const std::int64_t t0 = now_ns();
  stream.send(kOpTag, "i64 i64", {first, count});
  if (trace_config().enabled) {
    record({SpanKind::kFeSend, 0, static_cast<std::int32_t>(stream.id()), 0, first, t0,
            now_ns()});
  }
}

/// Open-loop schedule of every workload but meanshift: a sender thread
/// multicasts op i, naming ids [i * ids, (i + 1) * ids), at its due time
/// t0 + i / rate whether or not earlier ops completed, so a stall delays
/// the ops behind it and shows in their latency, which runs from the due
/// time.  This thread receives the `per_op` results of every op;
/// `check(packet, index)` returns the op a correct result belongs to.
template <typename Check>
void run_open_loop(Stream& stream, double seconds, std::int64_t rate, std::int64_t ids,
                   std::int64_t per_op, RunStats& stats, Poller& poller, Check&& check) {
  const std::int64_t period_ns = 1'000'000'000 / rate;
  const std::int64_t warm = rate / 10;  // the first 0.1 s is not timed
  const std::int64_t ops = warm + static_cast<std::int64_t>(seconds * static_cast<double>(rate));
  const std::int64_t expected = ops * per_op;
  const std::int64_t t0 = now_ns() + 2'000'000;
  const auto due = [&](std::int64_t i) { return t0 + i * period_ns; };
  std::vector<double> late(static_cast<std::size_t>(ops), 0.0);
  std::atomic<std::int64_t> sent{0};
  stats.attempted += static_cast<std::uint64_t>(expected);
  {
    std::jthread sender([&] {
      for (std::int64_t i = 0; i < ops; ++i) {
        std::this_thread::sleep_until(
            std::chrono::steady_clock::time_point(std::chrono::nanoseconds(due(i))));
        late[static_cast<std::size_t>(i)] = static_cast<double>(now_ns() - due(i)) * 1e-3;
        try {
          send_op(stream, i * ids, ids);
        } catch (const std::exception& error) {
          std::fprintf(stderr, "perfbench: op send failed: %s\n", error.what());
          break;
        }
        sent.store(i + 1, std::memory_order_release);
      }
    });
    stats.timed_start_ns = due(warm);
    for (std::int64_t k = 0; k < expected; ++k) {
      poller.tick(stats);
      const tbon::RecvResult result = traced_recv(stream, k);
      const std::int64_t t = now_ns();
      if (!result) {
        stats.fail(static_cast<std::uint64_t>(expected - k));
        break;
      }
      const std::optional<std::int64_t> op = check(**result, k);
      if (!op) {
        stats.fail();
        continue;
      }
      stats.completed += 1;
      if (*op >= warm) {
        note_timed(stats, static_cast<double>(t - due(*op)) * 1e-3, payload_bytes(**result));
      }
      stats.timed_s = static_cast<double>(t - stats.timed_start_ns) * 1e-9;
    }
  }
  late.resize(static_cast<std::size_t>(sent.load(std::memory_order_acquire)));
  stats.late_us = std::move(late);
}

// ---- query and stream -------------------------------------------------------

/// `query` and `stream` share the back-end body, the reduced stream and the
/// check; they differ in network mode and in how the front-end drives ops.
class ReportWorkload : public Workload {
 public:
  explicit ReportWorkload(std::uint64_t seed)
      : reports_(std::make_shared<const Reports>(seed, tree().num_leaves())) {}

  void open(Network& net, bool traced) override {
    stream_ = &net.front_end().open_stream(tbon::StreamSpec()
                                               .up(traced ? "pb_sum" : "sum")
                                               .sync(traced ? "pb_wait_for_all" : "wait_for_all"));
  }

  bool first_op() override {
    send_op(*stream_, 0, 1);
    const tbon::RecvResult result = stream_->recv_for(kRecvTimeout);
    return result && reports_->check(**result, 0).has_value();
  }

  std::vector<PacketPtr> sample_packets() const override {
    return {Packet::make(1, kResultTag, 0, "i64 i64 vf64",
                         {std::int64_t{7}, now_ns(), reports_->report(0, 7)})};
  }

 protected:
  /// Back-end body: one report per op id, carrying the id and the send time
  /// so the front-end can check and time it.
  std::function<void(BackEnd&)> backend() const {
    return [reports = reports_](BackEnd& be) {
      LeafTrace trace{leaf_node(be)};
      trace.serve(be, [&](std::uint32_t stream, std::int64_t id) {
        trace.send(stream, [&](std::int64_t t0) {
          be.send(stream, kResultTag, "i64 i64 vf64", {id, t0, reports->report(be.rank(), id)});
        });
      });
    };
  }

  std::shared_ptr<const Reports> reports_;
  Stream* stream_ = nullptr;
};

class QueryWorkload final : public ReportWorkload {
 public:
  static constexpr std::int64_t kRate = 500;  // queries per second

  using ReportWorkload::ReportWorkload;

  NetworkOptions options(bool traced) const override {
    NetworkOptions options;
    options.mode = tbon::NetworkMode::kRemote;
    options.topology = tree();
    options.telemetry.enabled = traced;
    options.backend_main = backend();
    return options;
  }

  void measure(Network&, double seconds, RunStats& stats, Poller& poller) override {
    run_open_loop(*stream_, seconds, kRate, 1, 1, stats, poller,
                  [&](const Packet& packet, std::int64_t index) -> std::optional<std::int64_t> {
                    if (!reports_->check(packet, index)) return std::nullopt;
                    return index;
                  });
  }

  std::int64_t trace_sample() const override { return 1; }
};

class StreamWorkload final : public ReportWorkload {
 public:
  static constexpr std::int64_t kBurst = 32;  // waves per sampling period
  static constexpr std::int64_t kRate = 625;  // periods per second: 20k waves/s

  using ReportWorkload::ReportWorkload;

  NetworkOptions options(bool traced) const override {
    NetworkOptions options;
    options.mode = tbon::NetworkMode::kProcess;
    options.topology = tree();
    options.telemetry.enabled = traced;
    options.flow_control.enabled = true;
    options.flow_control.capacity = 64;
    options.flow_control.policy = tbon::FlowControlPolicy::kBlock;
    options.batching = tbon::BatchingOptions::on();
    options.backend_main = backend();
    return options;
  }

  void measure(Network&, double seconds, RunStats& stats, Poller& poller) override {
    run_open_loop(*stream_, seconds, kRate, kBurst, kBurst, stats, poller,
                  [&](const Packet& packet, std::int64_t index) -> std::optional<std::int64_t> {
                    if (!reports_->check(packet, index)) return std::nullopt;
                    return index / kBurst;
                  });
  }

  std::int64_t trace_sample() const override { return 32; }
};

// ---- bulk -------------------------------------------------------------------

class BulkWorkload final : public Workload {
 public:
  static constexpr std::size_t kPayload = 64 * 1024;
  static constexpr std::int64_t kRate = 500;  // ops per second, one payload per back-end each

  explicit BulkWorkload(std::uint64_t seed) {
    tbon::Rng rng(mix(seed, 2));
    for (std::size_t leaf = 0; leaf < tree().num_leaves(); ++leaf) {
      auto body = std::make_shared<tbon::Buffer>(kPayload);
      for (std::size_t i = 0; i < kPayload; i += 8) {
        const std::uint64_t word = rng.next_u64();
        std::memcpy(body->storage().data() + i, &word, 8);
      }
      bodies_.emplace_back(std::move(body), 0, kPayload);
    }
  }

  NetworkOptions options(bool traced) const override {
    NetworkOptions options;
    options.mode = tbon::NetworkMode::kRemote;
    options.topology = tree();
    options.telemetry.enabled = traced;
    // The 64 KiB body is shared, not copied: each send adopts a view of it.
    options.backend_main = [bodies = bodies_](BackEnd& be) {
      LeafTrace trace{leaf_node(be)};
      trace.serve(be, [&](std::uint32_t stream, std::int64_t id) {
        trace.send(stream, [&](std::int64_t t0) {
          be.send(stream, kResultTag, "i64 i64 bytes", {id, t0, bodies[be.rank()]});
        });
      });
    };
    return options;
  }

  void open(Network& net, bool) override {
    // Wrapping passthrough/null would take the stream off the relay lane,
    // so the traced run measures this one through telemetry only.
    stream_ = &net.front_end().open_stream(tbon::StreamSpec().up("passthrough").sync("null"));
  }

  bool first_op() override {
    send_op(*stream_, 0, 1);
    std::vector<std::int64_t> next(tree().num_leaves(), 0);
    bool ok = true;
    for (std::size_t i = 0; i < tree().num_leaves(); ++i) {
      const tbon::RecvResult result = stream_->recv_for(kRecvTimeout);
      ok = ok && result && check(**result, next).has_value();
    }
    return ok;
  }

  void measure(Network&, double seconds, RunStats& stats, Poller& poller) override {
    std::vector<std::int64_t> next(tree().num_leaves(), 0);
    const auto leaves = static_cast<std::int64_t>(tree().num_leaves());
    run_open_loop(*stream_, seconds, kRate, 1, leaves, stats, poller,
                  [&](const Packet& packet, std::int64_t) -> std::optional<std::int64_t> {
                    if (!check(packet, next)) return std::nullopt;
                    return packet.get_i64(0);
                  });
  }

  std::vector<PacketPtr> sample_packets() const override {
    return {Packet::make(1, kResultTag, 0, "i64 i64 bytes",
                         {std::int64_t{7}, now_ns(), bodies_[0]})};
  }

  std::int64_t trace_sample() const override { return 8; }

 private:
  /// Check one payload: it comes from a known back-end, carries that
  /// back-end's next op id, and its body matches byte for byte.  Returns
  /// the send time.
  std::optional<std::int64_t> check(const Packet& packet,
                                    std::vector<std::int64_t>& next) const {
    const std::uint32_t rank = packet.src_rank();
    if (rank >= next.size() || packet.format() != format_) return std::nullopt;
    if (packet.get_i64(0) != next[rank]++) return std::nullopt;
    if (!(packet.get_bytes(2) == bodies_[rank])) return std::nullopt;
    return packet.get_i64(1);
  }

  std::vector<tbon::BufferView> bodies_;  // one seeded 64 KiB body per back-end
  tbon::DataFormat format_{"i64 i64 bytes"};
  Stream* stream_ = nullptr;
};

// ---- meanshift --------------------------------------------------------------

/// Seeded synthetic mean-shift jobs: per job a data set per back-end and the
/// true cluster centers.  Jobs cycle through the pool.
struct MeanShiftJobs {
  static constexpr std::size_t kPool = 8;
  std::vector<std::vector<std::vector<tbon::ms::Point2>>> data;  // [job][leaf]
  std::vector<std::vector<tbon::ms::Point2>> centers;           // [job]
  tbon::ms::DistributedParams params;

  MeanShiftJobs(std::uint64_t seed, std::size_t leaves) {
    for (std::size_t job = 0; job < kPool; ++job) {
      tbon::ms::SynthParams synth;
      synth.seed = mix(seed, 100 + job);
      std::vector<std::vector<tbon::ms::Point2>> per_leaf;
      for (std::size_t leaf = 0; leaf < leaves; ++leaf) {
        per_leaf.push_back(tbon::ms::generate_leaf_data(static_cast<std::uint32_t>(leaf), synth));
      }
      data.push_back(std::move(per_leaf));
      centers.push_back(tbon::ms::true_centers(synth));
    }
  }

  const std::vector<tbon::ms::Point2>& leaf_data(std::int64_t job, std::size_t leaf) const {
    return data[static_cast<std::size_t>(job) % kPool][leaf];
  }
  /// A job is correct only when every true center is matched.
  bool check(const Packet& packet, std::int64_t job) const {
    try {
      const auto merged = tbon::ms::MeanShiftCodec::from_values(packet);
      return tbon::ms::match_fraction(merged.peaks,
                                      centers[static_cast<std::size_t>(job) % kPool],
                                      kTolerance) == 1.0;
    } catch (const std::exception&) {
      return false;
    }
  }
  static constexpr double kTolerance = 15.0;
};

class MeanShiftWorkload final : public Workload {
 public:
  static constexpr std::size_t kStreams = 2;

  explicit MeanShiftWorkload(std::uint64_t seed)
      : jobs_(std::make_shared<const MeanShiftJobs>(seed, tree().num_leaves())) {}

  NetworkOptions options(bool traced) const override {
    NetworkOptions options;
    options.mode = tbon::NetworkMode::kProcess;
    options.topology = tree();
    options.telemetry.enabled = traced;
    options.execution.num_workers = 2;
    options.backend_main = [jobs = jobs_](BackEnd& be) {
      LeafTrace trace{leaf_node(be)};
      trace.serve(be, [&](std::uint32_t stream, std::int64_t job) {
        const auto local = tbon::ms::leaf_compute(jobs->leaf_data(job, be.rank()), jobs->params);
        trace.send(stream, [&](std::int64_t) {
          be.send(stream, kResultTag, tbon::ms::MeanShiftCodec::kFormat,
                  tbon::ms::MeanShiftCodec::to_values(local));
        });
      });
    };
    return options;
  }

  void open(Network& net, bool traced) override {
    streams_.clear();
    for (std::size_t i = 0; i < kStreams; ++i) {
      streams_.push_back(&net.front_end().open_stream(
          tbon::StreamSpec()
              .up(traced ? "pb_mean_shift" : "mean_shift")
              .sync(traced ? "pb_wait_for_all" : "wait_for_all")
              .with_params(tbon::ms::to_filter_params(jobs_->params))));
    }
  }

  bool first_op() override {
    send_op(*streams_[0], 0, 1);
    const tbon::RecvResult result = streams_[0]->recv_for(std::chrono::seconds(60));
    return result && jobs_->check(**result, 0);
  }

  void measure(Network& net, double seconds, RunStats& stats, Poller& poller) override {
    struct Outstanding {
      std::int64_t job = -1;
      std::int64_t issued_ns = 0;
      std::int64_t results = 0;
    };
    std::vector<Outstanding> pending(streams_.size());
    std::int64_t next_job = 0;
    std::size_t active = 0;
    const auto issue = [&](std::size_t i) {
      pending[i].job = next_job++;
      pending[i].issued_ns = now_ns();
      send_op(*streams_[i], pending[i].job, 1);
      stats.attempted += 1;
    };
    const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    for (std::size_t i = 0; i < streams_.size(); ++i) issue(i);
    active = streams_.size();
    const auto warm = static_cast<std::int64_t>(streams_.size());  // first job per stream untimed
    std::int64_t done = 0;
    std::int64_t t_last = 0;
    while (active > 0) {
      poller.tick(stats);
      const std::int64_t t_call = now_ns();
      const tbon::AnyRecvResult any = net.front_end().recv_any_for(std::chrono::seconds(60));
      const std::int64_t t = now_ns();
      if (!any.result) {
        stats.fail(active);
        break;
      }
      std::size_t i = 0;
      while (i < streams_.size() && streams_[i]->id() != any.stream_id) ++i;
      if (i == streams_.size()) {
        stats.fail();
        continue;
      }
      if (trace_config().sampled(pending[i].results)) {
        record({SpanKind::kFeRecv, 0, static_cast<std::int32_t>(any.stream_id), 0,
                pending[i].results, t_call, t});
      }
      ++pending[i].results;
      if (jobs_->check(**any.result, pending[i].job)) {
        stats.completed += 1;
        if (done >= warm) {
          note_timed(stats, static_cast<double>(t - pending[i].issued_ns) * 1e-3,
                     payload_bytes(**any.result));
        }
      } else {
        stats.fail();
      }
      ++done;
      if (done == warm) stats.timed_start_ns = t;
      t_last = t;
      if (t < deadline) {
        issue(i);
      } else {
        --active;
      }
    }
    stats.timed_s = static_cast<double>(t_last - stats.timed_start_ns) * 1e-9;
  }

  std::vector<PacketPtr> sample_packets() const override {
    const auto local = tbon::ms::leaf_compute(jobs_->leaf_data(0, 0), jobs_->params);
    return {Packet::make(1, kResultTag, 0, tbon::ms::MeanShiftCodec::kFormat,
                         tbon::ms::MeanShiftCodec::to_values(local))};
  }

  std::int64_t trace_sample() const override { return 1; }

 private:
  std::shared_ptr<const MeanShiftJobs> jobs_;
  std::vector<Stream*> streams_;
};

}  // namespace

void Poller::tick(RunStats& stats) {
  if (!enabled_) return;
  const std::int64_t now = now_ns();
  if (now < next_ns_) return;
  next_ns_ = now + 100'000'000;
  stats.inbox_samples.push_back(
      static_cast<double>(net_->front_end().metrics().total.inbox_depth));
}

std::unique_ptr<Workload> make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "query") return std::make_unique<QueryWorkload>(seed);
  if (name == "stream") return std::make_unique<StreamWorkload>(seed);
  if (name == "bulk") return std::make_unique<BulkWorkload>(seed);
  if (name == "meanshift") return std::make_unique<MeanShiftWorkload>(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace pb
