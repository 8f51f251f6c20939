// Transport microbenchmarks: frame codec over socketpairs and TCP, packet
// round-trips across real kernel channels, and the in-process link for
// comparison — quantifying what the zero-copy threaded path saves.
#include <benchmark/benchmark.h>

#include <thread>

#include "common/queue.hpp"
#include "core/packet.hpp"
#include "net/event_loop.hpp"
#include "transport/fd.hpp"
#include "transport/tcp.hpp"

namespace {

using namespace tbon;

/// Hand `fd` to `loop` as a channel delivering into `inbox`; returns the
/// NetLink that sends on it.
std::shared_ptr<Link> channel(net::EventLoop& loop, Fd fd, InboxPtr inbox) {
  net::ChannelOptions options;
  options.inbox = std::move(inbox);
  return loop.add_channel(std::move(fd), std::move(options));
}

Bytes payload_of(std::size_t size) {
  Bytes bytes(size);
  for (std::size_t i = 0; i < size; ++i) bytes[i] = static_cast<std::byte>(i & 0xff);
  return bytes;
}

/// Echo thread: reads frames and writes them straight back.
std::jthread start_echo(int fd) {
  return std::jthread([fd] {
    while (auto frame = read_frame(fd)) {
      write_frame(fd, *frame);
    }
  });
}

void BM_SocketpairFrameRoundTrip(benchmark::State& state) {
  auto [mine, theirs] = make_socketpair();
  auto echo = start_echo(theirs.get());
  const Bytes payload = payload_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    write_frame(mine.get(), payload);
    benchmark::DoNotOptimize(read_frame(mine.get()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()) * 2);
  shutdown_write(mine.get());
}
BENCHMARK(BM_SocketpairFrameRoundTrip)->Arg(64)->Arg(4096)->Arg(65536)
    ->Unit(benchmark::kMicrosecond);

void BM_TcpFrameRoundTrip(benchmark::State& state) {
  TcpListener listener;
  Fd client;
  Fd server;
  std::thread accepter([&] { server = listener.accept(); });
  client = tcp_connect(listener.port());
  accepter.join();
  auto echo = start_echo(server.get());

  const Bytes payload = payload_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    write_frame(client.get(), payload);
    benchmark::DoNotOptimize(read_frame(client.get()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()) * 2);
  shutdown_write(client.get());
}
BENCHMARK(BM_TcpFrameRoundTrip)->Arg(64)->Arg(4096)->Arg(65536)
    ->Unit(benchmark::kMicrosecond);

/// Full packet path over a socketpair: serialize -> frame -> deserialize,
/// using the same NetLink/event-loop machinery as the multi-process
/// network (the send writes through from this thread; the loop reads).
void BM_NetLinkPacketSend(benchmark::State& state) {
  auto [mine, theirs] = make_socketpair();
  auto inbox = std::make_shared<Inbox>(4096);
  net::EventLoop loop;
  auto link = channel(loop, std::move(mine), std::make_shared<Inbox>(16));
  channel(loop, std::move(theirs), inbox);
  loop.start();

  const PacketPtr packet = Packet::make(
      1, 100, 0, "vf64",
      {std::vector<double>(static_cast<std::size_t>(state.range(0)), 1.0)});
  for (auto _ : state) {
    link->send(packet);
    benchmark::DoNotOptimize(inbox->pop());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(packet->payload_bytes()));
  loop.stop();
}
BENCHMARK(BM_NetLinkPacketSend)->Arg(8)->Arg(512)->Arg(8192)
    ->Unit(benchmark::kMicrosecond);

/// The in-process path the threaded network uses: no serialization at all.
void BM_InprocLinkPacketSend(benchmark::State& state) {
  auto inbox = std::make_shared<Inbox>(4096);
  InprocLink link(inbox, Origin::kChild, 0);
  const PacketPtr packet = Packet::make(
      1, 100, 0, "vf64",
      {std::vector<double>(static_cast<std::size_t>(state.range(0)), 1.0)});
  for (auto _ : state) {
    link.send(packet);
    benchmark::DoNotOptimize(inbox->pop());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(packet->payload_bytes()));
}
BENCHMARK(BM_InprocLinkPacketSend)->Arg(8)->Arg(512)->Arg(8192)
    ->Unit(benchmark::kMicrosecond);

/// An interior pass-through hop, measured for payload memcpys: a frame
/// arrives on one socketpair, is relayed verbatim out another — the inner
/// loop of every communication process on a passthrough stream.  Arg(1)
/// toggles the zero-copy frame path; the `copies_per_packet` /
/// `bytes_memcpy_per_packet` counters print the table CI gates on.  The
/// counters cover the whole producer -> hop -> sink pipeline:
///   zero-copy on  -> 0 copies (payload referenced by sendmsg at both sends,
///                    aliased from the receive frame at both reads)
///   zero-copy off -> 4 copies (pack + unpack at the hop — the >= 2 per hop
///                    the redesign removes — plus one each at the endpoints)
void BM_CopyCountPassThroughHop(benchmark::State& state) {
  const std::size_t payload_size = static_cast<std::size_t>(state.range(0));
  const bool zero_copy = state.range(1) != 0;
  const bool was_zero_copy = net::zero_copy();
  net::set_zero_copy(zero_copy);

  auto [up_w, up_r] = make_socketpair();      // producer -> hop
  auto [down_w, down_r] = make_socketpair();  // hop -> consumer
  auto hop_inbox = std::make_shared<Inbox>(4096);
  auto sink_inbox = std::make_shared<Inbox>(4096);
  auto unused = std::make_shared<Inbox>(16);
  net::EventLoop loop;
  auto ingress = channel(loop, std::move(up_w), unused);
  auto egress = channel(loop, std::move(down_w), unused);
  channel(loop, std::move(up_r), hop_inbox);
  channel(loop, std::move(down_r), sink_inbox);
  loop.start();

  const PacketPtr original =
      Packet::make_view(1, 100, 0, BufferView(payload_of(payload_size)));
  std::uint64_t packets = 0;
  CopyStats::reset();
  for (auto _ : state) {
    ingress->send(original);
    Envelope arrived = *hop_inbox->pop();
    egress->send(arrived.packet);  // the pass-through relay
    benchmark::DoNotOptimize(sink_inbox->pop());
    ++packets;
  }
  state.counters["copies_per_packet"] = benchmark::Counter(
      static_cast<double>(CopyStats::memcpys()) / static_cast<double>(packets));
  state.counters["bytes_memcpy_per_packet"] = benchmark::Counter(
      static_cast<double>(CopyStats::bytes_copied()) / static_cast<double>(packets));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload_size));
  loop.stop();
  net::set_zero_copy(was_zero_copy);
}
BENCHMARK(BM_CopyCountPassThroughHop)
    ->ArgNames({"bytes", "zero_copy"})
    ->Args({4096, 0})->Args({4096, 1})
    ->Args({65536, 0})->Args({65536, 1})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
