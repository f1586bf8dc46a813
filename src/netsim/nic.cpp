#include "netsim/nic.hpp"

#include <cstring>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "common/metrics.hpp"
#include "marcel/cpu.hpp"
#include "netsim/fabric.hpp"

namespace pm2::net {
namespace {

/// Charge `d` of CPU time to the calling fiber's core — the cost model for
/// PIO copies and descriptor setup.  this_thread::compute re-fetches the
/// current CPU per chunk: a preemption may migrate the fiber mid-charge.
void charge_cpu(SimDuration d) {
  PM2_ASSERT_MSG(marcel::detail::current_cpu() != nullptr,
                 "NIC submission must run on a simulated core");
  marcel::this_thread::compute(d);
}

}  // namespace

Nic::Nic(Fabric& fabric, unsigned node, unsigned rail)
    : fabric_(fabric), node_(node), rail_(rail) {}

void Nic::inject(unsigned dst, std::span<const std::byte> bytes) {
  charge_inject(dst, bytes.size());
  inject_raw(dst, bytes);
}

void Nic::charge_inject(unsigned dst, std::size_t size) {
  const CostModel& cm = fabric_.cost(rail_);
  // The expensive part: copying the payload into registered memory / PIO
  // windows (or the shm ring for intra-node), charged to whoever calls
  // (application thread in the classical design, an idle core's tasklet
  // with PIOMan).
  charge_cpu(cm.inject_cost(size, /*intra=*/dst == node_));
}

void Nic::inject_raw(unsigned dst, std::span<const std::byte> bytes) {
  send(dst, std::vector<std::byte>(bytes.begin(), bytes.end()));
}

void Nic::send(unsigned dst, std::vector<std::byte>&& pkt) {
  RxEvent event;
  event.kind = RxEvent::Kind::kPacket;
  event.src_node = node_;
  event.data = std::move(pkt);
  const std::size_t size = event.data.size();
  ++stats_.packets_tx;
  stats_.bytes_tx += size;
  fabric_.transmit(node_, dst, rail_, size, std::move(event), {});
}

RdmaHandle Nic::register_buffer(std::span<std::byte> target) {
  return fabric_.register_rdma(node_, target);
}

void Nic::unregister_buffer(RdmaHandle h) {
  fabric_.unregister_rdma(node_, h);
}

void Nic::rdma_put(unsigned dst, RdmaHandle handle,
                   std::span<const std::byte> src, Completion on_delivered,
                   std::size_t offset) {
  const CostModel& cm = fabric_.cost(rail_);
  charge_cpu(cm.dma_setup);  // descriptor only: the payload is not touched
  RxEvent event;
  event.kind = RxEvent::Kind::kRdmaDone;
  event.src_node = node_;
  event.rdma = handle;
  // The simulator snapshots the source here; semantically the NIC reads the
  // (pinned) user buffer during the transfer.
  event.data.assign(src.begin(), src.end());
  ++stats_.rdma_puts;
  stats_.rdma_bytes += src.size();
  const std::size_t bytes = src.size();
  fabric_.transmit(node_, dst, rail_, bytes,
                   std::move(event), std::move(on_delivered), offset);
}

std::optional<RxEvent> Nic::poll() {
  if (rx_.empty()) return std::nullopt;
  RxEvent ev = std::move(rx_.front());
  rx_.pop_front();
  return ev;
}

void Nic::arm_interrupts(InterruptHandler handler) {
  PM2_ASSERT(handler != nullptr);
  interrupt_ = std::move(handler);
  // Events that raced ahead of arming still deserve an interrupt.
  if (!rx_.empty()) {
    ++stats_.interrupts_fired;
    interrupt_();
  }
}

void Nic::disarm_interrupts() { interrupt_ = nullptr; }

void Nic::deliver(RxEvent event) {
  if (event.kind == RxEvent::Kind::kRdmaDone) {
    std::span<std::byte> target =
        fabric_.rdma_target(node_, event.rdma).subspan(event.rdma_offset);
    PM2_ASSERT_MSG(event.data.size() <= target.size(),
                   "RDMA write overflows the registered buffer");
    std::memcpy(target.data(), event.data.data(), event.data.size());
    event.data.clear();  // the receiver polls a completion, not the bytes
  }
  ++stats_.packets_rx;
  stats_.bytes_rx += event.data.size();
  rx_.push_back(std::move(event));
  if (interrupt_ != nullptr) {
    ++stats_.interrupts_fired;
    interrupt_();
  }
  if (rx_notify_ != nullptr) rx_notify_();
}

void Nic::bind_metrics(MetricsRegistry& registry,
                       std::string_view prefix) const {
  const std::string p(prefix);
  registry.bind_counter(p + "/packets_tx", &stats_.packets_tx);
  registry.bind_counter(p + "/packets_rx", &stats_.packets_rx);
  registry.bind_counter(p + "/bytes_tx", &stats_.bytes_tx);
  registry.bind_counter(p + "/bytes_rx", &stats_.bytes_rx);
  registry.bind_counter(p + "/rdma_puts", &stats_.rdma_puts);
  registry.bind_counter(p + "/rdma_bytes", &stats_.rdma_bytes);
  registry.bind_counter(p + "/interrupts_fired", &stats_.interrupts_fired);
}

}  // namespace pm2::net
