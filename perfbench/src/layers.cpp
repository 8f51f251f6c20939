// Per-layer metrics of a traced run: span analysis, telemetry ratios, and
// layer timings measured from outside (codec, frame transport, mean-shift)
// for the workload's own data shapes.
#include <algorithm>
#include <cmath>
#include <map>
#include <thread>
#include <tuple>

#include "common/archive.hpp"
#include "common/rng.hpp"
#include "meanshift/distributed.hpp"
#include "meanshift/synth.hpp"
#include "perfbench.hpp"
#include "transport/fd.hpp"
#include "transport/tcp.hpp"

namespace pb {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

namespace {

/// Stores a result where the optimizer must assume it is read.
void keep(std::size_t value) { asm volatile("" : : "g"(value) : "memory"); }

/// Median over `batches` of the per-call time of `body` run `calls` times.
template <typename Body>
double per_call_ns(int batches, int calls, Body&& body) {
  std::vector<double> samples;
  for (int b = 0; b < batches; ++b) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < calls; ++i) body();
    samples.push_back(static_cast<double>(now_ns() - t0) / calls);
  }
  return median(std::move(samples));
}

struct CodecTimes {
  double encode_ns = 0.0;
  double decode_ns = 0.0;
  double wire_bytes = 0.0;
};

/// Packet::make + serialize, and deserialize + field access, for `packet`'s
/// shape.
CodecTimes codec_times(const tbon::Packet& packet) {
  const std::string format = packet.format().to_string();
  const std::vector<tbon::DataValue> values = packet.values();
  const int calls = packet.payload_bytes() > 4096 ? 50 : 2000;
  CodecTimes times;
  times.encode_ns = per_call_ns(15, calls, [&] {
    const tbon::PacketPtr made =
        tbon::Packet::make(packet.stream_id(), packet.tag(), packet.src_rank(), format, values);
    tbon::BinaryWriter writer;
    made->serialize(writer);
    keep(writer.size());
  });
  tbon::BinaryWriter writer;
  packet.serialize(writer);
  const tbon::Bytes wire = writer.take();
  times.wire_bytes = static_cast<double>(wire.size());
  times.decode_ns = per_call_ns(15, calls, [&] {
    tbon::BinaryReader reader(wire);
    const tbon::PacketPtr decoded = tbon::Packet::deserialize(reader);
    keep(decoded->values().size());
  });
  return times;
}

/// Median round trip of a `bytes`-sized frame between `client` and an echo
/// thread on `server`, via write_frame/read_frame.
double frame_rtt_us(tbon::Fd client, tbon::Fd server, std::size_t bytes) {
  std::jthread echo([fd = std::move(server)] {
    try {
      while (const auto frame = tbon::read_frame(fd.get())) tbon::write_frame(fd.get(), *frame);
    } catch (const std::exception&) {
    }
  });
  const tbon::Bytes payload(bytes, std::byte{0x5a});
  const int rounds = bytes > 4096 ? 400 : 2000;
  std::vector<double> samples;
  for (int i = 0; i < rounds; ++i) {
    const std::int64_t t0 = now_ns();
    tbon::write_frame(client.get(), payload);
    if (!tbon::read_frame(client.get())) break;
    samples.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  tbon::shutdown_write(client.get());
  return median(std::move(samples));
}

double socketpair_rtt_us(std::size_t bytes) {
  auto [a, b] = tbon::make_socketpair();
  return frame_rtt_us(std::move(a), std::move(b), bytes);
}

double tcp_rtt_us(std::size_t bytes) {
  tbon::TcpListener listener;
  tbon::Fd client = tbon::tcp_connect(listener.port());
  tbon::Fd server = listener.accept();
  return frame_rtt_us(std::move(client), std::move(server), bytes);
}

/// ms::leaf_compute on one back-end's data and ms::merge_compute over two
/// leaf results, each the median of a few calls, in milliseconds.
std::pair<double, double> meanshift_times(std::uint64_t seed) {
  tbon::ms::SynthParams synth;
  std::uint64_t state = seed;
  synth.seed = tbon::splitmix64(state);
  const tbon::ms::DistributedParams params;
  const auto data0 = tbon::ms::generate_leaf_data(0, synth);
  const auto data1 = tbon::ms::generate_leaf_data(1, synth);
  std::vector<tbon::ms::LocalResult> children = {tbon::ms::leaf_compute(data0, params),
                                                 tbon::ms::leaf_compute(data1, params)};
  const double leaf_ns = per_call_ns(5, 1, [&] {
    keep(tbon::ms::leaf_compute(data0, params).peaks.size());
  });
  const double merge_ns = per_call_ns(5, 1, [&] {
    keep(tbon::ms::merge_compute(children, params).peaks.size());
  });
  return {leaf_ns * 1e-6, merge_ns * 1e-6};
}

double duration_us(const Span& span) { return static_cast<double>(span.t1 - span.t0) * 1e-3; }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

Metrics round_layers(const tbon::Topology& topology, const RunStats& stats,
                     const tbon::TreeMetricsSnapshot& telemetry, const std::vector<Span>& spans,
                     std::int64_t root_cpu_ns, std::int64_t nodes_cpu_ns) {
  using Key = std::tuple<std::int32_t, std::int32_t, std::int64_t>;  // node, stream, seq
  std::map<SpanKind, std::vector<double>> durations;
  std::map<std::pair<std::int32_t, std::int64_t>, std::int64_t> fe_sent;  // stream, op -> end
  std::map<Key, std::int64_t> emitted;   // node, stream, send index -> end
  std::map<std::pair<std::int32_t, std::int64_t>, std::int64_t> fe_received;
  std::vector<double> reply_us;
  double filter_calls = 0.0;
  double filter_packets = 0.0;
  std::map<std::int64_t, double> leaf_cpu;  // pid -> ns
  for (const Span& s : spans) {
    durations[s.kind].push_back(duration_us(s));
    switch (s.kind) {
      case SpanKind::kFeSend: fe_sent[{s.stream, s.seq}] = s.t1; break;
      case SpanKind::kFeRecv: fe_received[{s.stream, s.seq}] = s.t1; break;
      case SpanKind::kLeafSend:
      case SpanKind::kFilter: emitted[{s.node, s.stream, s.seq}] = s.t1; break;
      case SpanKind::kLeafReply:
        if (s.aux > 0) reply_us.push_back(duration_us(s) / s.aux);
        break;
      case SpanKind::kFilterTotals:
        filter_calls += static_cast<double>(s.seq);
        filter_packets += static_cast<double>(s.t0);
        break;
      case SpanKind::kLeafCpu:
        leaf_cpu[s.t0] = std::max(leaf_cpu[s.t0], static_cast<double>(s.t1));
        break;
      default: break;
    }
  }

  // Hops, from the gaps between spans on the shared monotonic clock.
  std::vector<double> down;
  std::vector<double> up;
  std::vector<double> root;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kLeafRecv) {
      const auto it = fe_sent.find({s.stream, s.seq});
      if (it != fe_sent.end()) down.push_back(static_cast<double>(s.t1 - it->second) * 1e-3);
    } else if (s.kind == SpanKind::kSyncArrive) {
      const auto& children = topology.node(static_cast<tbon::NodeId>(s.node)).children;
      if (static_cast<std::size_t>(s.aux) >= children.size()) continue;
      const auto child = static_cast<std::int32_t>(children[static_cast<std::size_t>(s.aux)]);
      const auto it = emitted.find({child, s.stream, s.seq});
      if (it != emitted.end()) up.push_back(static_cast<double>(s.t1 - it->second) * 1e-3);
    } else if (s.kind == SpanKind::kFilter && s.node == 0) {
      const auto it = fe_received.find({s.stream, s.seq});
      if (it != fe_received.end()) root.push_back(static_cast<double>(it->second - s.t1) * 1e-3);
    }
  }

  const double ops = static_cast<double>(stats.completed);
  const tbon::NodeTelemetry& total = telemetry.total;
  const auto node_max = [&](auto field) {
    double peak = 0.0;
    for (const tbon::NodeTelemetry& n : telemetry.nodes) {
      peak = std::max(peak, static_cast<double>(n.*field));
    }
    return peak;
  };
  // Interiors run no benchmark code of their own, so their share is what
  // the reaped node processes used beyond the back-ends' own totals.
  double cpu_leaf = 0.0;
  for (const auto& [pid, ns] : leaf_cpu) cpu_leaf += ns;
  const double cpu_interior = std::max(0.0, static_cast<double>(nodes_cpu_ns) - cpu_leaf);

  const double exec_workers = static_cast<double>(total.exec_workers);
  const double frames_out = static_cast<double>(total.batch_frames_out);

  return {
      {"fe.send_us", median(durations[SpanKind::kFeSend])},
      {"fe.recv_wait_us", median(durations[SpanKind::kFeRecv])},
      {"be.send_us", median(durations[SpanKind::kLeafSend])},
      {"be.reply_us", median(reply_us)},
      {"hop.down_us", median(down)},
      {"hop.up_us", median(up)},
      {"hop.root_us", median(root)},
      {"sync.hold_us", median(durations[SpanKind::kSyncHold])},
      {"filter.self_us", median(durations[SpanKind::kFilter])},
      {"filter.packets_per_call", ratio(filter_packets, filter_calls)},
      {"batch.packets_per_frame",
       ratio(static_cast<double>(total.batch_packets_out), frames_out)},
      {"batch.flush_pressure_frac",
       ratio(static_cast<double>(total.batch_flush_pressure), frames_out)},
      {"batch.flush_deadline_frac",
       ratio(static_cast<double>(total.batch_flush_deadline), frames_out)},
      {"fc.blocked_frac", ratio(static_cast<double>(total.fc_sends_blocked),
                                static_cast<double>(total.fc_credits_consumed))},
      {"fc.blocked_us_per_op", ratio(static_cast<double>(total.fc_blocked_ns) * 1e-3, ops)},
      {"fc.inflight_peak", node_max(&tbon::NodeTelemetry::fc_inflight_peak)},
      {"exec.task_us", ratio(static_cast<double>(total.exec_task_ns) * 1e-3,
                             static_cast<double>(total.exec_tasks))},
      {"exec.queue_peak", node_max(&tbon::NodeTelemetry::exec_queue_peak)},
      {"exec.busy_frac", ratio(static_cast<double>(total.exec_task_ns),
                               exec_workers * stats.measure_s * 1e9)},
      {"node.inbox_depth", ratio([&] {
         double sum = 0.0;
         for (const double v : stats.inbox_samples) sum += v;
         return sum;
       }(), static_cast<double>(stats.inbox_samples.size()))},
      {"node.filter_us_per_wave", ratio(static_cast<double>(total.filter_ns) * 1e-3,
                                        static_cast<double>(total.waves))},
      {"net.frames_per_op", ratio(static_cast<double>(total.net_frames_out), ops)},
      {"net.wakeups_per_op", ratio(static_cast<double>(total.net_wakeups), ops)},
      {"net.partial_writes_per_op", ratio(static_cast<double>(total.net_partial_writes), ops)},
      {"net.send_queue_peak_kib", node_max(&tbon::NodeTelemetry::net_send_queue_peak) / 1024.0},
      {"cpu.root_us_per_op", ratio(static_cast<double>(root_cpu_ns) * 1e-3, ops)},
      {"cpu.interior_us_per_op", ratio(cpu_interior * 1e-3, ops)},
      {"cpu.leaf_us_per_op", ratio(cpu_leaf * 1e-3, ops)},
      {"gen.late_p99_us", quantile(stats.late_us, 0.99)},
  };
}

Metrics micro_layers(const Workload& workload, std::uint64_t seed) {
  const std::vector<tbon::PacketPtr> shape = workload.sample_packets();
  const CodecTimes codec = codec_times(*shape.front());
  const auto frame = static_cast<std::size_t>(codec.wire_bytes);
  const auto [leaf_ms, merge_ms] = meanshift_times(seed);
  return {
      {"packet.encode_ns", codec.encode_ns},
      {"packet.decode_ns", codec.decode_ns},
      {"packet.wire_bytes", codec.wire_bytes},
      {"transport.socketpair_rtt_us", socketpair_rtt_us(frame)},
      {"transport.tcp_rtt_us", tcp_rtt_us(frame)},
      {"meanshift.leaf_ms", leaf_ms},
      {"meanshift.merge_ms", merge_ms},
  };
}

}  // namespace pb
