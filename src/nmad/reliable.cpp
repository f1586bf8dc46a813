#include "nmad/reliable.hpp"

#include <utility>

#include "common/assert.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "nmad/core.hpp"

namespace pm2::nm {
namespace {

WireHeader peek_header(const std::vector<std::byte>& pkt) {
  WireHeader hdr;
  std::memcpy(&hdr, pkt.data(), sizeof hdr);
  return hdr;
}

void poke_header(std::vector<std::byte>& pkt, const WireHeader& hdr) {
  std::memcpy(pkt.data(), &hdr, sizeof hdr);
}

}  // namespace

Reliability::Reliability(Core& core, const Config& cfg)
    : core_(core), cfg_(cfg) {
  peers_.resize(core_.fabric().nodes());
  for (Peer& p : peers_) {
    p.rto = ExpDelay(static_cast<std::uint64_t>(cfg_.rto_initial),
                     static_cast<std::uint64_t>(cfg_.rto_max));
  }
}

Reliability::~Reliability() {
  for (Peer& p : peers_) {
    if (p.rtx_timer != 0) engine().cancel(p.rtx_timer);
    if (p.ack_timer != 0) engine().cancel(p.ack_timer);
  }
}

sim::Engine& Reliability::engine() noexcept {
  return core_.fabric().engine();
}

std::size_t Reliability::unacked() const noexcept {
  std::size_t n = 0;
  for (const Peer& p : peers_) n += p.unacked.size();
  return n;
}

// --------------------------------------------------------------- sender

void Reliability::send(unsigned dst, unsigned rail,
                       std::vector<std::byte> pkt) {
  PM2_ASSERT(dst < peers_.size() && pkt.size() >= sizeof(WireHeader));
  Peer& p = peers_[dst];
  WireHeader hdr = peek_header(pkt);
  hdr.flags |= kFlagReliable;
  hdr.psn = p.send_next++;
  hdr.ack = p.recv_next;  // piggybacked cumulative ACK
  poke_header(pkt, hdr);
  seal_packet(pkt);
  // The outgoing packet carries the ACK; a pending standalone one is moot.
  if (p.ack_timer != 0) {
    engine().cancel(p.ack_timer);
    p.ack_timer = 0;
  }
  p.unacked.emplace(hdr.psn, Outstanding{pkt, rail, 0});
  ++stats_.data_tx;
  // Inject first (charges CPU — a suspension point), then arm the timer:
  // the ACK cannot outrun a packet that has not reached the wire yet.
  core_.fabric().nic(core_.node_id(), rail).inject(dst, pkt);
  arm_rtx(dst, p);
}

void Reliability::handle_ack(unsigned id, Peer& p, std::uint32_t ack,
                             bool pure) {
  bool advanced = false;
  while (!p.unacked.empty() && p.unacked.begin()->first < ack) {
    p.unacked.erase(p.unacked.begin());
    advanced = true;
  }
  if (advanced) {
    p.rto.reset();
    p.dup_ack_count = 0;
    // RFC 6298 §5.3: an ACK for new data restarts the timer, so a long
    // lossless stream never times out on its first packet's deadline.
    if (p.rtx_timer != 0) {
      engine().cancel(p.rtx_timer);
      p.rtx_timer = 0;
    }
    arm_rtx(id, p);
  } else if (pure && !p.unacked.empty() && ack == p.last_ack_rx) {
    // Only standalone kAck packets count as duplicate ACKs: a burst of
    // reverse-traffic *data* packets legitimately repeats the same
    // piggybacked cumulative value without signalling loss.
    // The peer re-announced the same cumulative ACK while we have data in
    // flight: something ahead of its window was lost or corrupted.
    if (++p.dup_ack_count >= 2) {
      p.dup_ack_count = 0;
      retransmit_oldest(id, p, /*fast=*/true);
    }
  }
  p.last_ack_rx = std::max(p.last_ack_rx, ack);
}

void Reliability::arm_rtx(unsigned id, Peer& p) {
  if (p.rtx_timer != 0 || p.unacked.empty()) return;
  p.rtx_timer = engine().schedule_after(
      static_cast<SimDuration>(p.rto.current()), [this, id] {
        peers_[id].rtx_timer = 0;
        rtx_fire(id);
      });
}

void Reliability::rtx_fire(unsigned id) {
  Peer& p = peers_[id];
  if (p.unacked.empty()) return;
  retransmit_oldest(id, p, /*fast=*/false);
  arm_rtx(id, p);
}

void Reliability::retransmit_oldest(unsigned id, Peer& p, bool fast) {
  PM2_ASSERT(!p.unacked.empty());
  const auto it = p.unacked.begin();
  Outstanding& o = it->second;
  if (!fast) {
    if (++o.tries > cfg_.max_retransmits) {
      ++stats_.abandoned;
      PM2_WARN("reliability: abandoning psn %u to node %u after %u tries",
               it->first, id, cfg_.max_retransmits);
      p.unacked.erase(it);
      return;
    }
    (void)p.rto.next();  // escalate the backoff for the next timeout
  }
  ++stats_.retransmits;
  if (fast) ++stats_.fast_retransmits;
  // Refresh the piggybacked cumulative ACK before the copy goes out again.
  WireHeader hdr = peek_header(o.pkt);
  // Record the retransmit against the request that owns this packet:
  // eager data and RTS of a send, CTS of a receive.  Other kinds map back
  // to no single request and only count towards the timeline's series.
  switch (static_cast<PacketKind>(hdr.kind)) {
    case PacketKind::kEager:
    case PacketKind::kRts:
      core_.note_retransmit(id, hdr.tag, hdr.seq, 0);
      break;
    case PacketKind::kCts:
      core_.note_retransmit(id, hdr.tag, hdr.seq, tracing::kNmRecv);
      break;
    default:
      core_.note_retransmit(id, hdr.tag, hdr.seq, tracing::kNmNoRequest);
      break;
  }
  hdr.ack = p.recv_next;
  poke_header(o.pkt, hdr);
  seal_packet(o.pkt);
  core_.fabric().nic(core_.node_id(), o.rail).inject_raw(id, o.pkt);
}

// -------------------------------------------------------------- receiver

std::vector<std::vector<std::byte>> Reliability::receive(
    unsigned src, std::vector<std::byte> pkt) {
  PM2_ASSERT(src < peers_.size());
  std::vector<std::vector<std::byte>> out;
  Peer& p = peers_[src];
  if (pkt.size() < sizeof(WireHeader)) {
    ++stats_.truncated_drops;
    return out;
  }
  if (verify_packet(pkt) != Status::kOk) {
    ++stats_.corrupt_drops;
    // Drop-and-NACK: re-announce the cumulative ACK so the sender learns
    // its packet did not land (the duplicate ACK doubles as a NACK).
    // Only for peers with an established inbound flow — a mangled pure
    // ACK must not start an ACK-for-ACK exchange.
    if (p.recv_next > 0 || !p.ooo.empty()) send_ack_now(src, p);
    return out;
  }
  const WireHeader hdr = peek_header(pkt);
  if ((hdr.flags & kFlagReliable) == 0) {
    // Peer runs without the sublayer (mixed configuration): pass through.
    out.push_back(std::move(pkt));
    return out;
  }
  const bool pure_ack =
      static_cast<PacketKind>(hdr.kind) == PacketKind::kAck;
  handle_ack(src, p, hdr.ack, pure_ack);
  if (pure_ack) {
    ++stats_.acks_rx;
    return out;
  }
  if (hdr.psn == p.recv_next) {
    ++p.recv_next;
    out.push_back(std::move(pkt));
    while (!p.ooo.empty() && p.ooo.begin()->first == p.recv_next) {
      out.push_back(std::move(p.ooo.begin()->second));
      p.ooo.erase(p.ooo.begin());
      ++p.recv_next;
    }
    schedule_ack(src, p);
  } else if (hdr.psn < p.recv_next) {
    // Already delivered: our ACK was lost or is still in flight.
    ++stats_.dup_drops;
    send_ack_now(src, p);
  } else {
    // Sequence gap: hold for reordering, tell the sender where we are.
    if (p.ooo.emplace(hdr.psn, std::move(pkt)).second) {
      ++stats_.ooo_buffered;
    } else {
      ++stats_.dup_drops;
    }
    send_ack_now(src, p);
  }
  return out;
}

void Reliability::schedule_ack(unsigned id, Peer& p) {
  if (p.ack_timer != 0) return;  // one pending standalone ACK is enough
  p.ack_timer = engine().schedule_after(cfg_.ack_delay, [this, id] {
    Peer& peer = peers_[id];
    peer.ack_timer = 0;
    send_ack_now(id, peer);
  });
}

void Reliability::send_ack_now(unsigned id, Peer& p) {
  if (p.ack_timer != 0) {
    engine().cancel(p.ack_timer);
    p.ack_timer = 0;
  }
  WireHeader hdr;
  hdr.kind = static_cast<std::uint8_t>(PacketKind::kAck);
  hdr.flags = kFlagReliable;
  hdr.ack = p.recv_next;
  std::vector<std::byte> pkt;
  append_header(pkt, hdr);
  seal_packet(pkt);
  ++stats_.acks_tx;
  // Firmware path: ACK generation costs the host nothing and must work
  // from engine-context timers.
  core_.fabric().nic(core_.node_id(), 0).inject_raw(id, pkt);
}

void Reliability::bind_metrics(MetricsRegistry& registry,
                               std::string_view prefix) const {
  const std::string p(prefix);
  registry.bind_counter(p + "/data_tx", &stats_.data_tx);
  registry.bind_counter(p + "/acks_tx", &stats_.acks_tx);
  registry.bind_counter(p + "/acks_rx", &stats_.acks_rx);
  registry.bind_counter(p + "/retransmits", &stats_.retransmits);
  registry.bind_counter(p + "/fast_retransmits", &stats_.fast_retransmits);
  registry.bind_counter(p + "/dup_drops", &stats_.dup_drops);
  registry.bind_counter(p + "/ooo_buffered", &stats_.ooo_buffered);
  registry.bind_counter(p + "/corrupt_drops", &stats_.corrupt_drops);
  registry.bind_counter(p + "/truncated_drops", &stats_.truncated_drops);
  registry.bind_counter(p + "/abandoned", &stats_.abandoned);
}

}  // namespace pm2::nm
