// Fabric: message transport over the cluster's NICs.
//
// A transfer occupies the sender's TX link, crosses the wire, then occupies
// the receiver's RX link (store-and-forward). Concurrent transfers from one
// node serialize on its TX link — this is precisely the effect that caps
// RAID1 write bandwidth in the paper (the client pushes 2x the bytes through
// its own link, so it plateaus at half the I/O-server count of RAID0).
//
// Message payloads themselves move as C++ objects through sim::Channel
// mailboxes; the fabric only charges the time.
#pragma once

#include <cstdint>

#include "hw/node.hpp"
#include "obs/trace.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace csar::net {

/// How a transfer ended. Callers that ignore the value (fire-and-forget
/// senders) behave exactly as before faults existed; fault-aware callers
/// use it to decide whether the message actually arrived.
enum class Delivery {
  ok,       ///< last byte received
  dropped,  ///< silently lost in flight (receiver sees nothing)
  reset,    ///< connection refused/reset — sender notices immediately
};

/// Fault-injection hook consulted once per transfer. Implemented by
/// fault::FaultInjector; the fabric itself stays policy-free.
class FabricHook {
 public:
  virtual ~FabricHook() = default;

  struct Verdict {
    bool drop = false;             ///< lose the message after the wire
    bool reset = false;            ///< refuse before the wire (sender sees it)
    sim::Duration extra_delay = 0; ///< added wire latency
  };

  virtual Verdict on_transfer(hw::NodeId src, hw::NodeId dst,
                              std::uint64_t payload_bytes) = 0;
};

class Fabric {
 public:
  /// Fixed protocol bytes charged per message on top of the payload.
  static constexpr std::uint64_t kHeaderBytes = 128;

  explicit Fabric(hw::Cluster& cluster) : cluster_(&cluster) {}
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Move `payload_bytes` (+ header) from `src` to `dst`; resolves when the
  /// last byte has been received (Delivery::ok), the message is lost
  /// (dropped — full send cost paid, nothing received), or the connection
  /// is reset (sender notices before occupying the wire).
  sim::Task<Delivery> transfer(hw::NodeId src, hw::NodeId dst,
                               std::uint64_t payload_bytes,
                               obs::SpanId parent = 0) {
    FabricHook::Verdict v{};
    if (hook_) v = hook_->on_transfer(src, dst, payload_bytes);
    if (v.reset) co_return Delivery::reset;
    obs::Span span;
    if (obs::kEnabled && tracer_ != nullptr) {
      span = tracer_->task_span(tracer_->node_pid(src), "net", "xfer", "net",
                                parent,
                                {{"dst", dst}, {"bytes", payload_bytes}});
    }
    const std::uint64_t bytes = payload_bytes + kHeaderBytes;
    co_await cluster_->node(src).tx().transfer(bytes);
    co_await cluster_->sim().sleep(cluster_->profile().wire_latency +
                                   v.extra_delay);
    if (v.drop) co_return Delivery::dropped;
    co_await cluster_->node(dst).rx().transfer(bytes);
    co_return Delivery::ok;
  }

  /// Install (or clear, with nullptr) the fault hook. Not owned.
  void set_fault_hook(FabricHook* hook) { hook_ = hook; }

  /// Attach (or clear) the span tracer. Not owned.
  void set_tracer(obs::Tracer* t) { tracer_ = t; }

  hw::Cluster& cluster() { return *cluster_; }

 private:
  hw::Cluster* cluster_;
  FabricHook* hook_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace csar::net
