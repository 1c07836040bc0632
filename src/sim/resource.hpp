// BandwidthServer: a FIFO resource that serves byte transfers at a fixed
// rate, the common model for NIC links, buses and disk streaming.
//
// Implementation uses virtual-clock reservation: an arriving transfer is
// booked from max(now, busy_until); there is no explicit queue, yet the
// result is exact FIFO service with full work conservation. Utilization and
// byte counters feed the bench reports.
#pragma once

#include <cstdint>

#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace csar::sim {

class BandwidthServer {
 public:
  /// `bytes_per_sec` service rate; `per_op` fixed cost charged per transfer
  /// (e.g. interrupt/protocol overhead per message).
  BandwidthServer(Simulation& sim, double bytes_per_sec, Duration per_op = 0)
      : sim_(&sim), bytes_per_sec_(bytes_per_sec), per_op_(per_op) {}
  BandwidthServer(const BandwidthServer&) = delete;
  BandwidthServer& operator=(const BandwidthServer&) = delete;

  /// Occupy the resource for an explicit service duration (used for compute
  /// charges whose rate differs from the byte rate, e.g. XOR vs memcpy).
  /// Booked at the call; the returned awaitable resumes the caller when the
  /// service finishes. No coroutine frame: callers co_await the result at
  /// once, so booking and suspension happen at the same simulated instant.
  [[nodiscard]] auto occupy(Duration dur) {
    const Time start =
        sim_->now() > busy_until_ ? sim_->now() : busy_until_;
    busy_until_ = start + dur;
    busy_time_ += dur;
    ++ops_total_;
    return sim_->sleep_until(busy_until_);
  }

  /// Occupy the resource for `bytes`; booked and awaited like occupy().
  [[nodiscard]] auto transfer(std::uint64_t bytes) {
    bytes_total_ += bytes;
    return occupy(per_op_ + transfer_time(bytes, bytes_per_sec_));
  }

  /// Earliest time a new transfer could start.
  Time available_at() const {
    return busy_until_ > sim_->now() ? busy_until_ : sim_->now();
  }

  double bytes_per_sec() const { return bytes_per_sec_; }
  std::uint64_t bytes_total() const { return bytes_total_; }
  std::uint64_t ops_total() const { return ops_total_; }

  /// Cumulative busy time (for utilization = busy/elapsed).
  Duration busy_time() const { return busy_time_; }

 private:
  Simulation* sim_;
  double bytes_per_sec_;
  Duration per_op_;
  Time busy_until_ = 0;
  Duration busy_time_ = 0;
  std::uint64_t bytes_total_ = 0;
  std::uint64_t ops_total_ = 0;
};

}  // namespace csar::sim
