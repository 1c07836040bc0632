// Recovery: degraded reads and server reconstruction after a single I/O
// server failure — the fault-tolerance the redundancy schemes exist for
// (the paper's stated long-term objective, §1).
//
//  RAID1   a failed server's data is served from (and rebuilt out of) the
//          mirror blocks on its successor's redundancy file.
//  coded   RAID4, the RAID5 variants, Hybrid's full stripes (rs(N-1,1)) and
//          rs(k,m) share one engine: a lost unit is decoded from k live
//          fragments of its group. For parity that is the XOR of the
//          group's surviving N-2 data units and its parity unit.
//  Hybrid  parity reconstruction yields the *base* stripe content (parity is
//          computed only against the data files, which partial writes never
//          touch); the newest partial-stripe data is then overlaid from the
//          mirrored overflow copies on the failed server's successor. This
//          is exactly why the Hybrid scheme must write partial stripes to
//          overflow instead of updating blocks in place.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/buffer.hpp"
#include "common/interval_set.hpp"
#include "common/result.hpp"
#include "pvfs/client.hpp"
#include "raid/policy.hpp"
#include "raid/scheme.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace csar::raid {

/// Knobs for rebuild_server. The defaults reproduce the legacy behaviour:
/// full-file reconstruction at full pipeline speed.
struct RebuildOptions {
  /// Restrict reconstruction to the stripe units / parity groups / overflow
  /// entries whose *global* byte ranges intersect this set (nullptr =
  /// rebuild everything). The RebuildCoordinator passes the stale regions of
  /// a non-wipe rejoiner, or the regions dirtied by concurrent writes on a
  /// re-copy pass.
  const IntervalSet* delta = nullptr;
  /// Pace reconstruction traffic through this bucket (nullptr = full
  /// pipeline speed). Charged with an estimate of the bytes each unit moves
  /// (survivor reads + replacement write), before the unit is issued.
  sim::TokenBucket* throttle = nullptr;
  /// Hybrid: restore every overflow entry even when `delta` filters the
  /// data/parity scan (set when the overflow content itself is suspect,
  /// e.g. lost dirty pages under the overflow file).
  bool restore_all_overflow = false;
  /// Other servers that are *also* unavailable while this one rebuilds
  /// (concurrent outages). Coded files decode around them while k live
  /// fragments remain — rs(k,m) rides out up to m-1 of them — and read
  /// through them otherwise (single redundancy needs every survivor);
  /// RAID1's mirror reads fail loudly if they need one.
  std::vector<std::uint32_t> also_down;
};

class Recovery {
 public:
  /// Fixed-scheme recovery: every file is treated as `scheme` (the classic
  /// single-scheme deployments and most tests).
  Recovery(pvfs::Client& client, Scheme scheme)
      : client_(&client), fixed_(scheme) {}

  /// Policy-routed recovery: each file's scheme, redundancy generation and
  /// overflow-overlay status resolve through the per-file policy. The
  /// policy is not owned and must outlive this object.
  Recovery(pvfs::Client& client, const RedundancyPolicy* policy)
      : client_(&client), policy_(policy) {}

  /// Read [off, off+len) of `f` while the servers in `failed` are down
  /// (ascending, at least one); data on surviving servers is read normally,
  /// lost pieces are reconstructed. rs(k,m) files tolerate up to m
  /// concurrent victims — each lost piece is decoded client-side from the
  /// minimal k-subset of live fragments; every other scheme tolerates one.
  sim::Task<Result<Buffer>> degraded_read(const pvfs::OpenFile& f,
                                          std::uint64_t off, std::uint64_t len,
                                          std::vector<std::uint32_t> failed);
  sim::Task<Result<Buffer>> degraded_read(const pvfs::OpenFile& f,
                                          std::uint64_t off,
                                          std::uint64_t len,
                                          std::uint32_t failed) {
    return degraded_read(f, off, len, std::vector<std::uint32_t>{failed});
  }

  /// Write [off, off+data.size()) of `f` while the servers in `failed` are
  /// down — continued operation in degraded mode. Redundancy is maintained
  /// so the write survives: RAID1 updates whichever of the two copies is
  /// alive; coded schemes record writes to lost units *in the coding*
  /// (reconstruct-write) and skip coding units whose server is down (the
  /// rebuild recomputes those); Hybrid routes partial-stripe copies to
  /// whichever of the owner/successor pair survives. Budgets as for
  /// degraded_read.
  sim::Task<Result<void>> degraded_write(const pvfs::OpenFile& f,
                                         std::uint64_t off, Buffer data,
                                         std::vector<std::uint32_t> failed);
  sim::Task<Result<void>> degraded_write(const pvfs::OpenFile& f,
                                         std::uint64_t off, Buffer data,
                                         std::uint32_t failed) {
    return degraded_write(f, off, std::move(data),
                          std::vector<std::uint32_t>{failed});
  }

  /// Rebuild everything server `failed` stored for `f` — its data file,
  /// its redundancy file (mirror blocks or coding units), its own overflow
  /// entries (from the mirrors on its successor) and the mirror entries it
  /// held for its predecessor. The server must already be back online
  /// (recover()ed onto a blank disk); `file_size` bounds the scan. `opt`
  /// restricts the scan to a delta and/or paces it (see RebuildOptions).
  sim::Task<Result<void>> rebuild_server(const pvfs::OpenFile& f,
                                         std::uint32_t failed,
                                         std::uint64_t file_size,
                                         RebuildOptions opt = {});

  /// Build scheme `to`'s base redundancy for `f` at generation `red_gen`,
  /// reading only the raw data files (never the old redundancy, never the
  /// overflow overlay — both stay authoritative until the migrator flips
  /// the file). `delta` restricts the pass to the given global byte ranges
  /// (re-copy passes over regions dirtied by concurrent writes) and
  /// `throttle` paces the copy traffic. No locks are taken: until the flip
  /// only the migrator writes generation `red_gen`, and data reads are raw.
  /// RAID1, the rotating-parity schemes and rs(k,m) are buildable targets.
  sim::Task<Result<void>> build_redundancy(const pvfs::OpenFile& f, Scheme to,
                                           std::uint32_t red_gen,
                                           std::uint64_t file_size,
                                           const IntervalSet* delta = nullptr,
                                           sim::TokenBucket* throttle =
                                               nullptr);

 private:
  Scheme scheme_of(const pvfs::OpenFile& f) const {
    return policy_ != nullptr ? policy_->scheme_of(f) : fixed_;
  }
  std::uint32_t red_gen_of(const pvfs::OpenFile& f) const {
    return policy_ != nullptr ? policy_->red_gen_of(f) : f.red_gen;
  }
  /// Whether reads/writes of `f` must honour a (possibly live) overflow
  /// overlay — Hybrid files and files migrated away from Hybrid.
  bool overlay_overflow(const pvfs::OpenFile& f) const {
    return policy_ != nullptr ? policy_->overflow_possible(f)
                              : fixed_ == Scheme::hybrid;
  }

  /// Fragment `target` (data fragments [0,k), coding fragments [k,k+m))
  /// of group `g` over unit columns [c0, c0+len), decoded from exactly k
  /// fragments — data fragments first, then coding, both ascending,
  /// skipping every server in `down` while k others remain.
  sim::Task<Result<Buffer>> reconstruct(const pvfs::OpenFile& f, Scheme sch,
                                        std::uint64_t g, std::uint32_t target,
                                        std::uint64_t c0, std::uint64_t len,
                                        const std::vector<std::uint32_t>& down,
                                        bool for_rebuild);

  /// The bytes of one lost piece (within a single stripe unit of a down
  /// server): RAID1's mirror or the coded decode, plus the overflow overlay
  /// a Hybrid or ex-Hybrid file carries.
  sim::Task<Result<Buffer>> reconstruct_piece(
      const pvfs::OpenFile& f, Scheme sch,
      const std::vector<std::uint32_t>& down, std::uint64_t global_off,
      std::uint64_t len);

  pvfs::Client* client_;
  const RedundancyPolicy* policy_ = nullptr;
  Scheme fixed_ = Scheme::hybrid;  ///< used only when policy_ is null
};

}  // namespace csar::raid
