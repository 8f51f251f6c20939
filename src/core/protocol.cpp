#include "core/protocol.hpp"

namespace tbon {
namespace {
// Fields 0-5 are the pre-tenancy spec; 6-11 carry topic/priority/tenant and
// ride the same kTagNewStream frame.  from_packet tolerates the short form
// so captures of the old wire format still decode.
constexpr std::string_view kSpecFormat =
    "i64 vi64 str str str str str i64 str f64 i64 i64";

Priority clamp_priority(std::int64_t raw) noexcept {
  if (raw < 0 || raw >= static_cast<std::int64_t>(kNumPriorities)) {
    return Priority::kNormal;
  }
  return static_cast<Priority>(raw);
}
}  // namespace

PacketPtr StreamSpec::to_packet() const {
  std::vector<std::int64_t> ranks(endpoints.begin(), endpoints.end());
  return Packet::make(
      kControlStream, kTagNewStream, kFrontEndRank, kSpecFormat,
      {static_cast<std::int64_t>(id), std::move(ranks), up_transform, up_sync,
       down_transform, params, topic_path,
       static_cast<std::int64_t>(priority_class), tenant_name,
       tenant_credit_share, static_cast<std::int64_t>(tenant_max_inflight_bytes),
       static_cast<std::int64_t>(tenant_priority_ceiling)});
}

StreamSpec StreamSpec::from_packet(const Packet& packet) {
  StreamSpec spec;
  spec.id = static_cast<std::uint32_t>(packet.get_i64(0));
  for (const std::int64_t rank : packet.get_vi64(1)) {
    spec.endpoints.push_back(static_cast<std::uint32_t>(rank));
  }
  spec.up_transform = packet.get_str(2);
  spec.up_sync = packet.get_str(3);
  spec.down_transform = packet.get_str(4);
  spec.params = packet.get_str(5);
  if (packet.arity() > 6) {
    spec.topic_path = packet.get_str(6);
    spec.priority_class = clamp_priority(packet.get_i64(7));
    spec.tenant_name = packet.get_str(8);
    const double share = packet.get_f64(9);
    spec.tenant_credit_share = (share > 0.0 && share <= 1.0) ? share : 1.0;
    const std::int64_t cap = packet.get_i64(10);
    spec.tenant_max_inflight_bytes =
        cap > 0 ? static_cast<std::uint64_t>(cap) : 0;
    spec.tenant_priority_ceiling = clamp_priority(packet.get_i64(11));
  }
  return spec;
}

PacketPtr make_shutdown_packet() {
  return Packet::make(kControlStream, kTagShutdown, kFrontEndRank, "", {});
}

PacketPtr make_shutdown_ack_packet() {
  return Packet::make(kControlStream, kTagShutdownAck, kFrontEndRank, "", {});
}

PacketPtr make_delete_stream_packet(std::uint32_t stream_id) {
  return Packet::make(kControlStream, kTagDeleteStream, kFrontEndRank, "i64",
                      {static_cast<std::int64_t>(stream_id)});
}

PacketPtr make_load_filter_packet(const std::string& library_path) {
  return Packet::make(kControlStream, kTagLoadFilter, kFrontEndRank, "str",
                      {library_path});
}

PacketPtr make_attach_marker_packet() {
  return Packet::make(kControlStream, kTagAttachChild, kFrontEndRank, "", {});
}

PacketPtr make_heartbeat_packet() {
  return Packet::make(kControlStream, kTagHeartbeat, kFrontEndRank, "", {});
}

PacketPtr make_die_packet(std::uint32_t target_node) {
  return Packet::make(kControlStream, kTagDie, kFrontEndRank, "i64",
                      {static_cast<std::int64_t>(target_node)});
}

std::uint32_t die_packet_target(const Packet& packet) {
  return static_cast<std::uint32_t>(packet.get_i64(0));
}

PacketPtr make_credit_packet(std::uint32_t count, std::uint32_t channel_id) {
  return Packet::make(kControlStream, kTagCredit, kFrontEndRank, "i64 i64",
                      {static_cast<std::int64_t>(count),
                       static_cast<std::int64_t>(channel_id)});
}

namespace {

/// Field access hardened against truncated or mistyped grant payloads: a
/// hostile frame must surface as CodecError (counted, channel survives), not
/// as std::out_of_range / bad_variant_access escaping the event loop.
std::int64_t credit_field(const Packet& packet, std::size_t index) {
  try {
    return packet.get_i64(index);
  } catch (const std::exception&) {
    throw CodecError("malformed credit grant payload");
  }
}

}  // namespace

std::uint32_t credit_packet_count(const Packet& packet) {
  const std::int64_t count = credit_field(packet, 0);
  if (count < 1 || count > static_cast<std::int64_t>(kMaxCreditGrant)) {
    throw CodecError("credit grant count out of range");
  }
  return static_cast<std::uint32_t>(count);
}

std::uint32_t credit_packet_channel(const Packet& packet) {
  const std::int64_t id = credit_field(packet, 1);
  if (id < 0 || id > static_cast<std::int64_t>(UINT32_MAX)) {
    throw CodecError("credit grant channel id out of range");
  }
  return static_cast<std::uint32_t>(id);
}

PacketPtr make_telemetry_packet(std::uint32_t src, BufferView records) {
  return Packet::make(kTelemetryStream, kTagTelemetry, src, "bytes",
                      {std::move(records)});
}

const BufferView& telemetry_packet_records(const Packet& packet) {
  return packet.get_bytes(0);
}

PacketPtr make_subscribe_packet(std::uint32_t rank, const std::string& prefix,
                                bool subscribe) {
  return Packet::make(kControlStream,
                      subscribe ? kTagSubscribe : kTagUnsubscribe, rank, "str",
                      {prefix});
}

std::string subscribe_packet_prefix(const Packet& packet) {
  // Hardened like credit_field: a truncated or mistyped subscription frame
  // surfaces as CodecError, not std::out_of_range, on the receiving thread.
  try {
    return packet.get_str(0);
  } catch (const std::exception&) {
    throw CodecError("malformed subscription payload");
  }
}

PacketPtr make_detach_packet(std::int64_t op_id, std::uint32_t target_rank) {
  return Packet::make(kControlStream, kTagDetach, kFrontEndRank, "i64 i64",
                      {op_id, static_cast<std::int64_t>(target_rank)});
}

PacketPtr make_quiesce_packet(std::int64_t op_id, std::uint32_t target_node,
                              std::uint32_t via_rank) {
  return Packet::make(kControlStream, kTagQuiesce, kFrontEndRank, "i64 i64 i64",
                      {op_id, static_cast<std::int64_t>(target_node),
                       static_cast<std::int64_t>(via_rank)});
}

PacketPtr make_rehome_packet(std::int64_t op_id, std::uint32_t target_node,
                             std::uint32_t new_parent, std::uint32_t via_rank) {
  return Packet::make(kControlStream, kTagRehome, kFrontEndRank,
                      "i64 i64 i64 i64",
                      {op_id, static_cast<std::int64_t>(target_node),
                       static_cast<std::int64_t>(new_parent),
                       static_cast<std::int64_t>(via_rank)});
}

PacketPtr make_reconfig_ack_packet(std::int64_t op_id, std::uint32_t subject,
                                   ReconfigAckKind kind) {
  return Packet::make(kControlStream, kTagReconfigAck, kFrontEndRank,
                      "i64 i64 i64",
                      {op_id, static_cast<std::int64_t>(subject),
                       static_cast<std::int64_t>(kind)});
}

PacketPtr make_membership_packet(bool live) {
  return Packet::make(kControlStream, kTagMembership, kFrontEndRank, "i64",
                      {std::int64_t{live ? 1 : 0}});
}

bool membership_packet_live(const Packet& packet) {
  try {
    return packet.get_i64(0) != 0;
  } catch (const std::exception&) {
    throw CodecError("malformed membership payload");
  }
}

namespace {

// Hardened like credit_field: reconfiguration frames cross process/socket
// boundaries, so malformed payloads must surface as CodecError.
std::int64_t reconfig_field(const Packet& packet, std::size_t index) {
  try {
    return packet.get_i64(index);
  } catch (const std::exception&) {
    throw CodecError("malformed reconfiguration payload");
  }
}

std::uint32_t reconfig_u32(const Packet& packet, std::size_t index) {
  const std::int64_t v = reconfig_field(packet, index);
  if (v < 0 || v > static_cast<std::int64_t>(UINT32_MAX)) {
    throw CodecError("reconfiguration field out of range");
  }
  return static_cast<std::uint32_t>(v);
}

}  // namespace

std::int64_t reconfig_op_id(const Packet& packet) {
  return reconfig_field(packet, 0);
}

std::uint32_t reconfig_target(const Packet& packet) {
  return reconfig_u32(packet, 1);
}

std::uint32_t quiesce_via_rank(const Packet& packet) {
  return reconfig_u32(packet, 2);
}

std::uint32_t rehome_new_parent(const Packet& packet) {
  return reconfig_u32(packet, 2);
}

std::uint32_t rehome_via_rank(const Packet& packet) {
  return reconfig_u32(packet, 3);
}

std::uint32_t reconfig_ack_subject(const Packet& packet) {
  return reconfig_u32(packet, 1);
}

ReconfigAckKind reconfig_ack_kind(const Packet& packet) {
  const std::int64_t kind = reconfig_field(packet, 2);
  if (kind < 0 || kind > static_cast<std::int64_t>(ReconfigAckKind::kForwarded)) {
    throw CodecError("reconfiguration ack kind out of range");
  }
  return static_cast<ReconfigAckKind>(kind);
}

PacketPtr make_peer_packet(std::uint32_t dst_rank, const Packet& inner) {
  BinaryWriter writer;
  inner.serialize(writer);
  return Packet::make(kControlStream, kTagPeerMessage, inner.src_rank(), "i64 bytes",
                      {static_cast<std::int64_t>(dst_rank), writer.take()});
}

std::uint32_t peer_packet_destination(const Packet& wrapper) {
  return static_cast<std::uint32_t>(wrapper.get_i64(0));
}

PacketPtr unwrap_peer_packet(const Packet& wrapper) {
  // The inner packet aliases the wrapper's buffer (which the returned
  // packet's views pin alive); nothing is copied at unwrap.
  return Packet::deserialize_view(wrapper.get_bytes(1));
}

}  // namespace tbon
