// Scrubber: online verification (and repair) of a file's redundancy.
//
// A distributed RAID must be able to audit itself: RAID5 parity can be left
// inconsistent by concurrent writers without the locking protocol (§5.1),
// by a crash between the data and parity writes, or by the NO-LOCK ablation
// — and a stale parity group turns a later disk failure into data loss.
// The scrubber walks every coded group (parity, RAID1's mirror as rs(1,1),
// or rs(k,m) coding units), recomputes what the redundancy should be from
// the data files, reports mismatches, and optionally rewrites the
// redundancy in place.
//
// For the Hybrid scheme the base invariant is identical to RAID5's: parity
// covers the *data files* only, because partial-stripe writes go to
// overflow. Mirrored overflow copies are audited pairwise as well, a
// bounded window of each table at a time (kOverflowWindow), so an audit of a
// large file never holds a server's request loop past a health probe's
// deadline. Every file resolves its scheme, redundancy generation and
// overflow status through the deployment's RedundancyPolicy, and the group
// reads and rewrites are Recovery's fragment requests.
#pragma once

#include <cstdint>

#include "common/result.hpp"
#include "pvfs/client.hpp"
#include "raid/policy.hpp"
#include "raid/scheme.hpp"
#include "sim/task.hpp"

namespace csar::raid {

class Scrubber {
 public:
  /// Each file is audited under its own scheme and redundancy generation,
  /// and media-error findings feed the policy's fault-pressure counters.
  /// The policy is not owned.
  Scrubber(pvfs::Client& client, RedundancyPolicy& policy)
      : client_(&client), policy_(&policy) {}

  struct Report {
    /// Coded groups: parity stripes, rs(k,m) groups, RAID1 units.
    std::uint64_t groups_checked = 0;
    std::uint64_t parity_mismatches = 0;  ///< coding units found stale
    std::uint64_t overflow_pairs_checked = 0;  ///< Hybrid primary/mirror
    std::uint64_t overflow_mismatches = 0;
    /// Reads lost to latent sector errors (Errc::media_error). These are
    /// per-range findings, not dead servers: the scrubber reconstructs the
    /// unreadable unit from the surviving units of its group and rewrites
    /// it in place (rewriting remaps the bad sectors).
    std::uint64_t media_errors = 0;
    /// Findings with no surviving copy to rebuild from (e.g. two latent
    /// errors in one single-parity group).
    std::uint64_t unrepairable = 0;
    std::uint64_t repaired = 0;

    bool clean() const {
      return parity_mismatches + overflow_mismatches + media_errors +
                 unrepairable ==
             0;
    }
  };

  /// Audit the redundancy of [0, file_size). Content comparison requires
  /// materialized files; on phantom files the scrub still performs all the
  /// I/O (useful for timing) but sizes are the only thing compared.
  sim::Task<Result<Report>> verify(const pvfs::OpenFile& f,
                                   std::uint64_t file_size) {
    return run(f, file_size, /*repair=*/false);
  }

  /// Audit and rewrite any redundancy found inconsistent.
  sim::Task<Result<Report>> repair(const pvfs::OpenFile& f,
                                   std::uint64_t file_size) {
    return run(f, file_size, /*repair=*/true);
  }

 private:
  sim::Task<Result<Report>> run(const pvfs::OpenFile& f,
                                std::uint64_t file_size, bool repair);
  /// The coded audit (RAID1, RAID4, the RAID5 variants, Hybrid, rs(k,m)):
  /// every group's coding units recomputed from its data units.
  sim::Task<Result<void>> scrub_coded(const pvfs::OpenFile& f,
                                      std::uint64_t file_size, bool repair,
                                      Report& report);
  sim::Task<Result<void>> scrub_overflow(const pvfs::OpenFile& f,
                                         std::uint64_t file_size, bool repair,
                                         Report& report);

  pvfs::Client* client_;
  RedundancyPolicy* policy_;
};

}  // namespace csar::raid
