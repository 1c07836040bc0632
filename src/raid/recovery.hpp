// Recovery: the one client write, degraded reads and server reconstruction
// — the fault tolerance the redundancy schemes exist for (the paper's stated
// long-term objective, §1).
//
//  write   every scheme's write for every failed set, the healthy write
//          being the empty set: RAID0 stripes, a k = 1 code writes data and
//          copies, the coded schemes write full groups with fresh (deferred)
//          coding and run the locked RMW over each partial group's live
//          coding units, Hybrid sends partial groups to the overflow pair.
//          A failed set drops the requests addressed to a down server; only
//          a partial group whose touched data unit is down decodes that
//          unit's old bytes first (the reconstruct-write).
//  coded   RAID1 (rs(1,1)), RAID4, the RAID5 variants, Hybrid's full
//          stripes (rs(N-1,1)) and rs(k,m) share one engine: a lost unit is
//          decoded from k live fragments of its group. For parity that is
//          the XOR of the group's surviving N-2 data units and its parity
//          unit; for RAID1 it is the mirror on the successor, a copy.
//  Hybrid  parity reconstruction yields the *base* stripe content (parity is
//          computed only against the data files, which partial writes never
//          touch); the newest partial-stripe data is then overlaid from the
//          mirrored overflow copies on the failed server's successor. This
//          is exactly why the Hybrid scheme must write partial stripes to
//          overflow instead of updating blocks in place.
//  repair  a server rebuild and a migration's redundancy build are one job
//          per group: read k live fragments once, combine every target
//          fragment from them and write each at a generation, the current
//          one for a rebuild and the next one for a migration. A rebuild
//          pass is one repair stream over all of its files: every file's
//          data-unit and coding-unit jobs, in order, share one 16-slot
//          pipeline that never drains between steps or files, and once a
//          file's jobs have completed, its overflow restore (the
//          invalidation batch, then one windowed copy per table side,
//          kOverflowWindow) takes a slot of its own, overlapping the jobs
//          of later files; the stream's window reads go one at a time. A
//          migration's build is a stream of one file.
//
// Every file resolves its scheme, redundancy generation and overflow
// status through the deployment's RedundancyPolicy.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
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

/// One file of a rebuild pass.
struct RebuildTarget {
  pvfs::OpenFile f;
  /// Logical file size; bounds the scan.
  std::uint64_t size = 0;
  /// Restrict reconstruction to the stripe units / parity groups / overflow
  /// entries whose *global* byte ranges intersect this set (nullptr =
  /// rebuild everything). The RebuildCoordinator passes the stale regions of
  /// a non-wipe rejoiner, or the regions dirtied by concurrent writes on a
  /// re-copy pass.
  const IntervalSet* delta = nullptr;
};

/// Knobs for a rebuild pass. The defaults run it at full pipeline speed,
/// with no other server down.
struct RebuildOptions {
  /// Pace reconstruction traffic through this bucket (nullptr = full
  /// pipeline speed). Charged with an estimate of the bytes each unit moves
  /// (survivor reads + replacement write), before the unit is issued.
  sim::TokenBucket* throttle = nullptr;
  /// Hybrid: restore every overflow entry even when a target's `delta`
  /// filters the data/parity scan (set when the overflow content itself is
  /// suspect, e.g. lost dirty pages under the overflow file).
  bool restore_all_overflow = false;
  /// Other servers that are *also* unavailable while this one rebuilds
  /// (concurrent outages). Coded files decode around them while k live
  /// fragments remain — rs(k,m) rides out up to m-1 of them — and read
  /// through them otherwise (single redundancy needs every survivor).
  std::vector<std::uint32_t> also_down;
};

/// Occupy `client`'s send pipeline for encoding `bytes` of coding. The
/// paper's client computes parity on its single-threaded send path, which
/// is why RAID5 streams ~8% slower than RAID5-npc, the variant that skips
/// the computation and is charged nothing (Figure 4a). Every encode a write
/// does, healthy or degraded, and a scrub's audit encode are charged here.
sim::Task<void> charge_encode(pvfs::Client& client, Scheme sch,
                              std::uint64_t bytes);

/// Occupy `client`'s memory pipeline for a decode costing `bytes` (see
/// fragment_decode). Degraded reads, rebuilds and scrub repairs pay here;
/// a write pays its reconstruct-write's decode with its encode instead.
sim::Task<void> charge_decode(pvfs::Client& client, std::uint64_t bytes);

/// The [head | full groups | tail] split of a write of [off, off+len) under
/// `spec`: groups of k units. The write splits by it, and CsarFs counts its
/// full-group bytes for the adaptive policy.
pvfs::StripeLayout::WriteSplit write_split(const pvfs::StripeLayout& layout,
                                           CodeSpec spec, std::uint64_t off,
                                           std::uint64_t len);

/// Addressed request for columns [c0, c0+len) of fragment `frag` of group g
/// (data fragments [0,k), coding fragments [k,k+m)): a raw data-file read
/// for a data fragment, a generation-`gen` redundancy-file read at its
/// coding slot for a coding fragment. Repairs and scrubs read through it.
std::pair<std::uint32_t, pvfs::Request> fragment_read(
    const pvfs::OpenFile& f, CodeSpec spec, std::uint32_t gen,
    std::uint64_t g, std::uint32_t frag, std::uint64_t c0, std::uint64_t len);

/// The matching write of `payload` from the fragment's first column: the
/// data file for a data fragment, the generation-`gen` redundancy file for
/// a coding fragment.
std::pair<std::uint32_t, pvfs::Request> fragment_write(
    const pvfs::OpenFile& f, CodeSpec spec, std::uint32_t gen,
    std::uint64_t g, std::uint32_t frag, Buffer payload);

/// The one decode of a group's lost fragments. `frags` holds one slot per
/// fragment, all of one length, empty where a fragment is unavailable; each
/// of `targets` (an empty slot) is restored into its slot from the first k
/// filled slots, data before coding. Returns the decode's cost in bytes,
/// phantom or real: k·len per data target that is not a copy (k = 1,
/// coefficient 1); a coding target is a fresh encode and costs nothing.
std::uint64_t fragment_decode(CodeSpec spec, std::span<Buffer> frags,
                              std::span<const std::uint32_t> targets);

/// Overflow tables are read in windows of this many local-offset bytes. The
/// server's iod dispatch loop is charged a read's whole window span, and
/// every request behind it (health probes included) waits for it, so a
/// window must stay well inside the monitor's probe deadline
/// (HealthParams::probe_timeout, 200 ms): 16 MiB is ~110 ms of iod time on
/// the experimental-2003 profile. A 64 MiB window (~440 ms) outlasts both
/// probe attempts to a healthy server, which the monitor then marks down.
inline constexpr std::uint64_t kOverflowWindow = 16ull << 20;

/// Read of the overflow entries in local window [w0, w0 + kOverflowWindow)
/// (clipped to `file_size`, which bounds local offsets) of server `owner`'s
/// table: its own entries (`mirror` false, sent to `owner`) or the mirror
/// copies its successor holds (`mirror` true, sent to the successor).
pvfs::Request overflow_window_read(const pvfs::OpenFile& f, bool mirror,
                                   std::uint32_t owner, std::uint64_t w0,
                                   std::uint64_t file_size);

/// The matching write of `data` at local offset `off` into one side of
/// server `owner`'s table (sent to `owner`, or with `mirror` to its
/// successor).
pvfs::Request overflow_write(const pvfs::OpenFile& f, bool mirror,
                             std::uint32_t owner, std::uint64_t off,
                             Buffer data);

class Recovery {
 public:
  /// Each file's scheme, redundancy generation and overflow-overlay status
  /// resolve through the per-file policy, which is not owned and must
  /// outlive this object.
  Recovery(pvfs::Client& client, const RedundancyPolicy& policy)
      : client_(&client), policy_(&policy) {}

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
  /// down; an empty `failed` is the healthy write. The scheme resolves once
  /// per call (a migration flip lands between whole writes), and the write
  /// builds the healthy request list and sends what is not addressed to a
  /// down server. The coding units a down server misses are recomputed by
  /// its rebuild. Redundancy covers every byte that does not reach its
  /// server: a partial group whose touched data unit is down decodes that
  /// unit's old columns from k live fragments under the RMW locks and folds
  /// the change into the live coding (reconstruct-write); Hybrid's partial
  /// stripes reach at least one of the owner/successor overflow pair. RAID0
  /// refuses a write to a down server, and so does a group whose coding is
  /// all down. Budgets as for degraded_read; an error names its server.
  sim::Task<Result<void>> write(const pvfs::OpenFile& f, std::uint64_t off,
                                Buffer data,
                                std::vector<std::uint32_t> failed = {});

  /// Rebuild everything server `failed` stored for each of `targets` — its
  /// data file, its redundancy file (its coding units), its own overflow
  /// entries (from the mirrors on its successor) and the mirror entries it
  /// held for its predecessor — as one repair stream (see `repair`). The
  /// server must already be back online (recover()ed onto a blank disk).
  /// `opt` paces the pass and names concurrent outages (see
  /// RebuildOptions). Returns the first error, which names its server.
  sim::Task<Result<void>> rebuild_server(std::vector<RebuildTarget> targets,
                                         std::uint32_t failed,
                                         RebuildOptions opt = {});
  /// A pass over all of one file, `file_size` bytes long.
  sim::Task<Result<void>> rebuild_server(const pvfs::OpenFile& f,
                                         std::uint32_t failed,
                                         std::uint64_t file_size,
                                         RebuildOptions opt = {}) {
    return rebuild_server({RebuildTarget{f, file_size}}, failed,
                          std::move(opt));
  }

  /// Build scheme `to`'s base redundancy for `f` at generation `red_gen`,
  /// reading only the raw data files (never the old redundancy, never the
  /// overflow overlay — both stay authoritative until the migrator flips
  /// the file). `delta` restricts the pass to the given global byte ranges
  /// (re-copy passes over regions dirtied by concurrent writes) and
  /// `throttle` paces the copy traffic. No locks are taken: until the flip
  /// only the migrator writes generation `red_gen`, and data reads are raw.
  /// Every coded scheme with rotating placement is a buildable target.
  sim::Task<Result<void>> build_redundancy(const pvfs::OpenFile& f, Scheme to,
                                           std::uint32_t red_gen,
                                           std::uint64_t file_size,
                                           const IntervalSet* delta = nullptr,
                                           sim::TokenBucket* throttle =
                                               nullptr);

 private:
  /// Fragments [t0, t1) of group `g` over unit columns [c0, c0+len), all
  /// decoded (fragment_decode) from one read of the k fragments it picks,
  /// skipping every server in `down` while k others remain. The reads go
  /// out coding first; the decode is paid by charge_decode.
  sim::Task<Result<std::vector<Buffer>>> reconstruct(
      const pvfs::OpenFile& f, Scheme sch, std::uint64_t g, std::uint32_t t0,
      std::uint32_t t1, std::uint64_t c0, std::uint64_t len,
      const std::vector<std::uint32_t>& down);

  /// The bytes of one lost piece (within a single stripe unit of a down
  /// server): the coded decode plus the overflow overlay a Hybrid or
  /// ex-Hybrid file carries.
  sim::Task<Result<Buffer>> reconstruct_piece(
      const pvfs::OpenFile& f, Scheme sch,
      const std::vector<std::uint32_t>& down, std::uint64_t global_off,
      std::uint64_t len);

  /// One repair job: restore fragments [t0, t1) of group g over its first
  /// `cols` columns.
  struct RepairJob {
    std::uint64_t g;
    std::uint32_t t0;
    std::uint32_t t1;
    std::uint64_t cols;
  };

  /// A rebuilt server's overflow tables for one file: the invalidation batch
  /// sent to `failed` first, then both table sides copied from its
  /// neighbours, keeping only the entries over `filter` when it is set.
  struct OverflowRestore {
    std::uint32_t failed;
    std::uint64_t size;
    std::vector<pvfs::Request> invals;
    const IntervalSet* filter;
  };

  /// One file's share of a repair stream: its jobs at generation `gen`, and
  /// for a rebuild of a file that may carry overflow, the restore that
  /// follows them.
  struct RepairFile {
    const pvfs::OpenFile* f;
    Scheme sch;
    std::uint32_t gen;
    std::vector<RepairJob> jobs;
    std::optional<OverflowRestore> overflow;
    std::size_t pending = 0;  ///< jobs not yet completed
  };

  /// The slots, constants and first error of one stream (recovery.cpp).
  struct Pipeline;

  /// Run the files' jobs as one stream, file after file and each file's
  /// jobs in order, at most Pipeline::kWindow (16) in flight: each reads k
  /// live fragments once (reconstruct, around `down`) and writes every
  /// target at its file's generation, the current one for a rebuild, the
  /// next one for a migration. `throttle` is charged (k + targets)·cols
  /// before a job is issued. The job that completes a file hands its slot
  /// to the file's overflow restore; restores overlap, but their window
  /// reads go one at a time. A rebuild notes one ec decode per job,
  /// a migration (`migration`) the encode of its targets. Nothing is issued
  /// once a job has failed; returns the first error.
  sim::Task<Result<void>> repair(std::vector<RepairFile> files,
                                 std::vector<std::uint32_t> down,
                                 bool migration, sim::TokenBucket* throttle);
  sim::Task<void> repair_job(Pipeline* p, RepairFile* file, RepairJob job);
  sim::Task<void> restore_overflow(Pipeline* p, RepairFile* file);

  pvfs::Client* client_;
  const RedundancyPolicy* policy_;
};

}  // namespace csar::raid
