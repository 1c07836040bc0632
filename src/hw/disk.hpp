// Disk: a seek + streaming-transfer model of a commodity disk (or a small
// RAID0 pair behind a 3Ware controller, as on the paper's testbed).
//
// The model keeps a head position in a linear address space; an access that
// starts exactly where the previous one ended streams at the sustained rate,
// anything else pays the average positioning cost (seek + rotational
// latency). Requests are served strictly FIFO through an internal mutex,
// which doubles as the device queue.
//
// What this deliberately reproduces from the paper's evaluation:
//  - RAID5's overwrite collapse (partial-stripe pre-reads become seek-bound
//    random disk reads when the server cache is cold),
//  - RAID1's Class C collapse (dirty evictions push twice the bytes through
//    the disk once the page cache overflows).
#pragma once

#include <cstdint>

#include "common/interval_set.hpp"
#include "sim/simulation.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace csar::hw {

/// Outcome of a single device I/O. A media_error read still pays full
/// service time (the drive retries internally before giving up).
enum class IoStatus { ok, media_error };

struct DiskParams {
  double bytes_per_sec = 70e6;       ///< sustained media rate
  sim::Duration seek = sim::ms(8);   ///< avg seek + rotational positioning
  sim::Duration per_op = sim::us(50);///< command/controller overhead per I/O
};

/// Bathtub segment a disk is in at a given age. Fleet-scale redundancy
/// planning (PACEMAKER) keys transitions off this class, not off individual
/// failures: infancy and wearout disks run elevated annualized failure
/// rates, useful-life disks run the flat bottom of the curve.
enum class AfrClass : std::uint8_t { infancy, useful_life, wearout };

inline const char* afr_class_name(AfrClass c) {
  switch (c) {
    case AfrClass::infancy:
      return "infancy";
    case AfrClass::useful_life:
      return "useful";
    case AfrClass::wearout:
      return "wearout";
  }
  return "?";
}

/// Per-disk bathtub parameters: the disk's age when the simulation starts
/// and the piecewise-constant AFR curve (annualized failure rate per
/// segment). Real fleets are heterogeneous — see hw::aging_profile for the
/// seeded per-disk jitter that models make/batch variation.
struct AgingParams {
  double age_years = 0.0;       ///< age at sim time 0
  double infancy_years = 0.5;   ///< infancy ends at this age
  double wearout_years = 4.0;   ///< wearout begins at this age
  double afr_infancy = 0.045;   ///< AFR while age < infancy_years
  double afr_useful = 0.012;    ///< AFR on the flat bottom
  double afr_wearout = 0.080;   ///< AFR past wearout_years

  /// Class at `age_years + added_years`.
  AfrClass afr_class(double added_years = 0.0) const {
    const double a = age_years + added_years;
    if (a < infancy_years) return AfrClass::infancy;
    if (a < wearout_years) return AfrClass::useful_life;
    return AfrClass::wearout;
  }

  /// Annualized failure rate at `age_years + added_years`.
  double afr(double added_years = 0.0) const {
    switch (afr_class(added_years)) {
      case AfrClass::infancy:
        return afr_infancy;
      case AfrClass::useful_life:
        return afr_useful;
      case AfrClass::wearout:
        return afr_wearout;
    }
    return afr_useful;
  }

  /// Years until the class next changes (from `added_years`), or a large
  /// sentinel once in wearout (the terminal segment).
  double years_to_next_class(double added_years = 0.0) const {
    const double a = age_years + added_years;
    if (a < infancy_years) return infancy_years - a;
    if (a < wearout_years) return wearout_years - a;
    return 1e9;
  }
};

/// Deterministic per-disk heterogeneity: jitter the bathtub boundaries and
/// per-segment AFRs around their defaults from (seed, disk_index), with
/// `base_age_years` as the disk's purchase-batch age. Same inputs, same
/// params — the fleet layer's whole timeline derives from this.
AgingParams aging_profile(std::uint64_t seed, std::uint32_t disk_index,
                          double base_age_years);

class Disk {
 public:
  Disk(sim::Simulation& sim, const DiskParams& params)
      : sim_(&sim), p_(params), mu_(sim) {}
  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  sim::Task<IoStatus> read(std::uint64_t addr, std::uint64_t len) {
    co_await io(addr, len);
    ++stats_.reads;
    stats_.bytes_read += len;
    if (len > 0 && bad_.intersects(addr, addr + len)) {
      ++stats_.media_errors;
      co_return IoStatus::media_error;
    }
    co_return IoStatus::ok;
  }

  sim::Task<IoStatus> write(std::uint64_t addr, std::uint64_t len) {
    co_await io(addr, len);
    ++stats_.writes;
    stats_.bytes_written += len;
    // Writing remaps bad sectors: the latent error is gone afterwards.
    if (len > 0) bad_.erase(addr, addr + len);
    co_return IoStatus::ok;
  }

  /// Plant a latent sector error over [addr, addr+len): subsequent reads
  /// overlapping the range fail with media_error until the range is
  /// overwritten.
  void plant_media_error(std::uint64_t addr, std::uint64_t len) {
    if (len > 0) bad_.insert(addr, addr + len);
  }

  /// Fail-slow knob: service times are multiplied by `f` (>= 1.0 slows the
  /// device down; 1.0 restores nominal speed).
  void set_service_factor(double f) { service_factor_ = f < 0.0 ? 0.0 : f; }
  double service_factor() const { return service_factor_; }

  /// Bytes currently covered by planted-but-unrepaired sector errors.
  std::uint64_t bad_bytes() const { return bad_.total(); }

  /// Aging state (bathtub position): pure bookkeeping the fleet layer reads;
  /// the device model itself never consults it.
  void set_aging(const AgingParams& a) { aging_ = a; }
  const AgingParams& aging() const { return aging_; }

  struct Stats {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t bytes_read = 0;
    std::uint64_t bytes_written = 0;
    std::uint64_t seeks = 0;
    sim::Duration busy_time = 0;
    std::uint64_t media_errors = 0;
    /// Share of busy_time attributable to fail-slow inflation alone (the
    /// actual-minus-nominal service time while service_factor > 1). Lets a
    /// controller tell fail-slow drag apart from plain load: a loaded
    /// healthy disk has high busy_time and zero slow_busy_time.
    sim::Duration slow_busy_time = 0;

    template <class Fn>
    void for_each(Fn fn) const {
      fn("reads", reads);
      fn("writes", writes);
      fn("bytes_read", bytes_read);
      fn("bytes_written", bytes_written);
      fn("seeks", seeks);
      fn("busy_time_ns", busy_time);
      fn("media_errors", media_errors);
      fn("slow_busy_time_ns", slow_busy_time);
    }
  };
  const Stats& stats() const { return stats_; }

  const DiskParams& params() const { return p_; }

 private:
  sim::Task<void> io(std::uint64_t addr, std::uint64_t len) {
    auto guard = co_await mu_.scoped();
    sim::Duration dur = p_.per_op + sim::transfer_time(len, p_.bytes_per_sec);
    if (addr != head_) {
      dur += p_.seek;
      ++stats_.seeks;
    }
    if (service_factor_ != 1.0) {
      const sim::Duration nominal = dur;
      dur = static_cast<sim::Duration>(static_cast<double>(dur) *
                                       service_factor_);
      if (dur > nominal) stats_.slow_busy_time += dur - nominal;
    }
    head_ = addr + len;
    stats_.busy_time += dur;
    co_await sim_->sleep(dur);
  }

  sim::Simulation* sim_;
  DiskParams p_;
  sim::Mutex mu_;
  std::uint64_t head_ = ~0ULL;
  Stats stats_;
  double service_factor_ = 1.0;
  AgingParams aging_;
  IntervalSet bad_;
};

}  // namespace csar::hw
