// Compatibility pin for the deprecated 0.x entry points.  The factory
// forwarders and the raw-string FilterParams constructor must keep working
// verbatim until they are removed; this file is the single translation unit
// allowed to call them — everything else builds under
// -Werror=deprecated-declarations (see the top-level CMakeLists.txt).
#include <gtest/gtest.h>

#include "core/network.hpp"

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"

namespace tbon {
namespace {

using namespace std::chrono_literals;
constexpr std::int32_t kTag = kFirstAppTag;

TEST(CompatApi, CreateThreadedForwardsToCreate) {
  auto net = Network::create_threaded(Topology::balanced(2, 2));
  ASSERT_FALSE(net->is_process_mode());
  Stream& stream = net->front_end().new_stream({.up_transform = "sum"});
  net->run_backends([&](BackEnd& be) {
    be.send(stream.id(), kTag, "i64", {std::int64_t{be.rank() + 1}});
  });
  const auto result = stream.recv_for(10s);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ((*result)->get_i64(0), 10);
  // The forwarders never enable telemetry; that requires NetworkOptions.
  EXPECT_THROW(net->front_end().metrics(), ProtocolError);
  net->shutdown();
}

TEST(CompatApi, CreateThreadedAcceptsRecoveryOptions) {
  RecoveryOptions recovery;
  recovery.auto_readopt = true;
  auto net = Network::create_threaded(Topology::balanced(2, 2), recovery);
  net->kill_node(1);
  EXPECT_TRUE(net->wait_for_adoptions(2, 20s));
  net->shutdown();
}

TEST(CompatApi, TopologyParseForwardsToFromSpec) {
  EXPECT_EQ(Topology::parse("bal:4x2"), TopologyOptions::from_spec("bal:4x2").build());
  EXPECT_EQ(Topology::parse("single"), Topology::single());
  EXPECT_THROW(Topology::parse("bogus:1"), ParseError);
}

TEST(CompatApi, VectorPayloadSendOverloadsCopyButDeliver) {
  auto net = Network::create({.topology = Topology::flat(2)});
  Stream& up = net->front_end().new_stream({.up_transform = "concat"});
  const std::vector<std::uint8_t> blob{0xde, 0xad, 0xbe, 0xef};

  // Deprecated BackEnd::send(vector<uint8_t>): still delivers, but is
  // counted as a payload copy (the BufferView overload would not be).
  CopyStats::reset();
  net->backend(0).send(up.id(), kTag, blob);
  net->backend(1).send(up.id(), kTag, blob);
  EXPECT_GE(CopyStats::memcpys(), 2u);
  const auto result = up.recv_for(10s);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ((*result)->get_bytes(0).size(), 2 * blob.size());

  // Deprecated Stream::send(vector<uint8_t>) multicasts downstream.
  Stream& down = net->front_end().new_stream({});
  down.send(kTag, blob);
  for (std::uint32_t rank = 0; rank < 2; ++rank) {
    const auto got = net->backend(rank).recv_for(10s);
    ASSERT_TRUE(got.has_value());
    const BufferView& payload = (*got)->get_bytes(0);
    EXPECT_EQ(Bytes(payload.span().begin(), payload.span().end()),
              Bytes(reinterpret_cast<const std::byte*>(blob.data()),
                    reinterpret_cast<const std::byte*>(blob.data()) + blob.size()));
  }
  net->shutdown();
}

// ---- legacy context-free filter API ----------------------------------------
//
// Pre-FilterContext subclasses override transform/finish/on_membership_change
// (TransformFilter) and the context-free SyncPolicy hooks.  The new
// context-taking virtuals must forward to them by default so these filters
// keep working unchanged — including under the parallel executor, which only
// ever calls the new spellings.

class LegacyDoubler final : public TransformFilter {
 public:
  void transform(std::span<const PacketPtr> in, std::vector<PacketPtr>& out,
                 const FilterContext&) override {
    for (const PacketPtr& packet : in) {
      out.push_back(Packet::make(packet->stream_id(), packet->tag(), kFrontEndRank,
                                 "i64", {packet->get_i64(0) * 2}));
    }
  }
  void finish(std::vector<PacketPtr>& out, const FilterContext&) override {
    out.push_back(Packet::make(1, kTag, kFrontEndRank, "i64", {std::int64_t{-1}}));
  }
  void on_membership_change(const MembershipChange& change, std::vector<PacketPtr>&,
                            const FilterContext&) override {
    last_change_children = change.num_children;
  }
  std::size_t last_change_children = 0;
};

TEST(CompatApi, ContextFreeTransformHooksForwardFromNewApi) {
  LegacyDoubler legacy;
  TransformFilter& filter = legacy;  // the runtime always calls the new API
  FilterContext ctx;
  const PacketPtr in[] = {Packet::make(1, kTag, 0, "i64", {std::int64_t{21}})};
  std::vector<PacketPtr> out;
  filter.filter(in, out, ctx);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->get_i64(0), 42);

  out.clear();
  filter.flush(out, ctx);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0]->get_i64(0), -1);

  out.clear();
  filter.membership_changed(MembershipChange{0, false, 3}, out, ctx);
  EXPECT_EQ(legacy.last_change_children, 3u);
  EXPECT_TRUE(out.empty());
}

class LegacyPairSync : public SyncPolicy {
 public:
  void on_packet(std::size_t, PacketPtr packet) override {
    buffer_.push_back(std::move(packet));
  }
  std::vector<Batch> drain_ready(std::int64_t) override {
    std::vector<Batch> batches;
    while (buffer_.size() >= 2) {
      batches.push_back({std::move(buffer_[0]), std::move(buffer_[1])});
      buffer_.erase(buffer_.begin(), buffer_.begin() + 2);
    }
    return batches;
  }
  std::vector<Batch> flush() override {
    std::vector<Batch> batches;
    if (!buffer_.empty()) batches.push_back(std::move(buffer_));
    buffer_.clear();
    return batches;
  }

 private:
  std::vector<PacketPtr> buffer_;
};

TEST(CompatApi, ContextFreeSyncHooksForwardFromNewApi) {
  LegacyPairSync legacy;
  SyncPolicy& sync = legacy;
  FilterContext ctx;
  sync.on_packet(0, Packet::make(1, kTag, 0, "i64", {std::int64_t{1}}), ctx);
  EXPECT_TRUE(sync.drain_ready(0, ctx).empty());
  sync.on_packet(1, Packet::make(1, kTag, 1, "i64", {std::int64_t{2}}), ctx);
  const auto batches = sync.drain_ready(0, ctx);
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].size(), 2u);
  sync.on_packet(0, Packet::make(1, kTag, 0, "i64", {std::int64_t{3}}), ctx);
  const auto flushed = sync.flush(ctx);
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].size(), 1u);
}

TEST(CompatApi, ContextFreeMembershipDefaultSplitsIntoFailedAndAdded) {
  // The old on_membership_change default forwards to child_failed /
  // child_added, and the new membership_changed forwards to it — the whole
  // chain must stay intact for policies overriding only the leaf hooks.
  class CountingSync final : public LegacyPairSync {
   public:
    void child_failed(std::size_t child) override { failed.push_back(child); }
    void child_added() override { ++added; }
    std::vector<std::size_t> failed;
    int added = 0;
  };
  CountingSync counting;
  SyncPolicy& sync = counting;
  FilterContext ctx;
  sync.membership_changed(MembershipChange{4, false, 2}, ctx);
  sync.membership_changed(MembershipChange{0, true, 3}, ctx);
  EXPECT_EQ(counting.failed, (std::vector<std::size_t>{4}));
  EXPECT_EQ(counting.added, 1);
}

TEST(CompatApi, TryRecvKeepsPollingSemantics) {
  auto net = Network::create({.topology = Topology::flat(2)});
  Stream& stream = net->front_end().new_stream({.up_transform = "sum"});
  EXPECT_EQ(stream.try_recv().status(), RecvStatus::kTimeout);
  net->run_backends([&](BackEnd& be) {
    be.send(stream.id(), kTag, "i64", {std::int64_t{be.rank() + 1}});
  });
  // Poll until the aggregate lands, exactly how 0.x consumers spun.
  RecvResult result{RecvStatus::kTimeout};
  const auto give_up = std::chrono::steady_clock::now() + 20s;
  while (!result.ok() && std::chrono::steady_clock::now() < give_up) {
    result = stream.try_recv();
  }
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)->get_i64(0), 3);
  net->shutdown();
  EXPECT_EQ(stream.try_recv().status(), RecvStatus::kShutdown);
}

// ---- batching-era compatibility ---------------------------------------------
//
// The batch-first redesign (BatchingOptions, send_batch, filter_batch) must
// leave every 0.x spelling intact: single-packet sends behave identically on
// a batching network, the deprecated inline-dispatch knob keeps its
// semantics, and legacy filters receive coalesced runs through the
// filter_batch -> filter -> transform forwarding chain.

TEST(CompatApi, DeprecatedInlineBelowBytesStillHonoured) {
  auto net = Network::create(
      {.topology = Topology::flat(2),
       .execution = {.num_workers = 2, .inline_below_bytes = 1 << 20}});
  Stream& stream = net->front_end().new_stream({.up_transform = "sum"});
  net->run_backends([&](BackEnd& be) {
    be.send(stream.id(), kTag, "i64", {std::int64_t{be.rank() + 1}});
  });
  const auto result = stream.recv_for(10s);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ((*result)->get_i64(0), 3);
  // The knob still routes tiny packets onto the inline fast path.
  EXPECT_GT(net->node_metrics(net->topology().root()).exec_inline, 0u);
  net->shutdown();
}

TEST(CompatApi, SinglePacketSpellingsUnchangedUnderBatching) {
  auto net = Network::create(
      {.topology = Topology::balanced(2, 2),
       .batching = BatchingOptions::on()});
  Stream& stream = net->front_end().new_stream({.up_transform = "sum"});
  net->run_backends([&](BackEnd& be) {
    be.send(stream.id(), kTag, "i64", {std::int64_t{be.rank() + 1}});
  });
  const auto result = stream.recv_for(10s);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ((*result)->get_i64(0), 10);
  net->shutdown();
}

TEST(CompatApi, FilterBatchForwardsToLegacyTransform) {
  // A pre-FilterContext filter overriding only transform() must see a
  // coalesced run as independent single-packet waves, in order, through the
  // default filter_batch -> filter -> transform chain.
  class LegacyNegate final : public TransformFilter {
   public:
    void transform(std::span<const PacketPtr> in, std::vector<PacketPtr>& out,
                   const FilterContext&) override {
      EXPECT_EQ(in.size(), 1u);  // one wave per packet, never the whole run
      out.push_back(Packet::make(in[0]->stream_id(), in[0]->tag(), kFrontEndRank,
                                 "i64", {-in[0]->get_i64(0)}));
    }
  };
  LegacyNegate legacy;
  TransformFilter& filter = legacy;
  FilterContext ctx;
  std::vector<PacketPtr> run;
  for (std::int64_t i = 1; i <= 4; ++i) {
    run.push_back(Packet::make(1, kTag, 0, "i64", {i}));
  }
  std::vector<PacketPtr> out;
  filter.filter_batch(run, out, ctx);
  ASSERT_EQ(out.size(), 4u);
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)]->get_i64(0), -(i + 1));
  }
}

TEST(CompatApi, AttachBackendForwardsToReconfigure) {
  // Deprecated Network::attach_backend must stay byte-for-byte compatible
  // with 0.x: same handle semantics, same rank assignment, same throw on a
  // bad parent — while forwarding through the reconfiguration engine (the
  // supported spelling is FrontEnd::reconfigure(TopologyDelta().add_leaf())).
  auto net = Network::create({.topology = Topology::flat(2)});
  Stream& stream = net->front_end().open_stream({.up_transform = "sum"});
  BackEnd& late = net->attach_backend(net->topology().root());
  EXPECT_EQ(late.rank(), 2u);
  EXPECT_EQ(net->num_backends(), 3u);
  EXPECT_THROW(net->attach_backend(1), ProtocolError);   // a leaf
  EXPECT_THROW(net->attach_backend(99), ProtocolError);  // out of range

  net->backend(0).send(stream.id(), kTag, "i64", {std::int64_t{1}});
  net->backend(1).send(stream.id(), kTag, "i64", {std::int64_t{2}});
  late.send(stream.id(), kTag, "i64", {std::int64_t{4}});
  const auto result = stream.recv_for(10s);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ((*result)->get_i64(0), 7);
  net->shutdown();
}

TEST(CompatApi, FilterParamsParsesLegacyWireStrings) {
  const FilterParams parsed("k=2 chain=topk,passthrough");
  EXPECT_EQ(parsed, FilterParams().set("chain", "topk,passthrough").set("k", 2));
  EXPECT_EQ(parsed.to_wire(), "chain=topk,passthrough k=2");
  EXPECT_TRUE(parsed.has("k"));

  // The legacy strings still work end to end through StreamOptions: a
  // time_out window parsed from a raw string must flush partial waves.
  auto net = Network::create({.topology = Topology::flat(3)});
  Stream& stream = net->front_end().new_stream(
      {.up_transform = "sum",
       .up_sync = "time_out",
       .params = FilterParams("window_ms=20")});
  net->backend(0).send(stream.id(), kTag, "i64", {std::int64_t{5}});
  net->backend(2).send(stream.id(), kTag, "i64", {std::int64_t{9}});
  std::int64_t total = 0;
  while (const auto result = stream.recv_for(1s)) {
    total += (*result)->get_i64(0);
    if (total >= 14) break;
  }
  EXPECT_EQ(total, 14);
  net->shutdown();
}

}  // namespace
}  // namespace tbon

#pragma GCC diagnostic pop
