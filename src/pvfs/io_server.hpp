// IoServer: one CSAR I/O daemon.
//
// Each server stores, per PVFS file handle, up to three local files (§4):
//   h<handle>.data  — its striped portion of the file, identical to PVFS
//   h<handle>.red   — redundancy: RAID1 mirror blocks or RAID5 parity units
//   h<handle>.ovfl  — Hybrid overflow regions (primary + mirror copies)
// plus, for the Hybrid scheme, tables listing the live overflow regions.
//
// The server also implements the paper's distributed parity-lock protocol
// (§5.1): a read of a parity block sets a lock on that block; later parity
// reads for the same block queue behind it; the write of the parity block
// releases the lock (or hands it to the first queued reader).
//
// Request path: a handle's local files are resolved by name once and then
// reached through references cached in its HandleState, so a request
// builds no file name. Handles, parity locks and connection streams live
// in flat tables (common/flat_index.hpp). A handler that keeps a
// HandleState across a suspension holds a shared reference to it: a
// concurrent remove_file or wipe() only unlinks the state (and LocalFs
// only unlinks its files), so the parked handler finishes on the orphan,
// which then disappears.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>

#include "common/flat_index.hpp"
#include "common/interval_map.hpp"
#include "hw/node.hpp"
#include "localfs/local_fs.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pvfs/messages.hpp"
#include "sim/channel.hpp"
#include "sim/resource.hpp"
#include "sim/simulation.hpp"

namespace csar::pvfs {

struct IoServerParams {
  localfs::LocalFsParams fs;
  /// When false, read_red ignores `lock` and write_red ignores `unlock`:
  /// the paper's R5 NO LOCK ablation (Figure 3 / §6.5).
  bool parity_locking = true;
  /// Lease on a held parity lock. A client that dies (or times out and
  /// abandons its RMW) between read_red and write_red would otherwise wedge
  /// the parity block forever — every later writer of the group queues
  /// behind a lock whose owner will never release it. When the lease
  /// expires the lock is handed to the first waiter (or dropped). Must be
  /// much longer than any legitimate read-modify-write; 0 disables leases.
  sim::Duration parity_lock_lease = sim::sec(1);
};

class IoServer {
 public:
  IoServer(hw::Cluster& cluster, net::Fabric& fabric, hw::NodeId node,
           std::uint32_t server_index, const IoServerParams& params);
  IoServer(const IoServer&) = delete;
  IoServer& operator=(const IoServer&) = delete;

  /// Spawn the dispatcher process; call once before the simulation runs.
  void start();

  /// Enqueue a shutdown message (clean teardown for tests).
  void stop();

  sim::Channel<Request>& inbox() { return inbox_; }
  hw::NodeId node_id() const { return node_; }
  std::uint32_t index() const { return index_; }

  /// Fail/recover this server (single-disk-failure experiments). While
  /// failed, every request is answered with Errc::server_failed.
  void fail() { failed_ = true; }
  void recover() { failed_ = false; }
  bool failed() const { return failed_; }

  /// Hard crash: unlike fail(), nothing answers at all. In-flight requests
  /// lose their replies (the epoch bump fences them), queued and future
  /// requests are dropped silently, volatile state (parity locks, dirty
  /// page-cache contents) is gone. Clients see only RPC timeouts.
  void crash() {
    failed_ = true;
    crashed_ = true;
    ++epoch_;
    fs_.crash();
    // Parity locks are in-memory daemon state; queued waiters vanish with
    // them (their clients time out and fail over). Parked acquirer
    // coroutines are woken un-granted so their frames unwind — the epoch
    // bump fences any reply they would try to send.
    drop_all_locks();
  }

  /// Bring a crashed server back. With `wipe_disk` the local disk comes back
  /// blank (replacement drive) and the server rejoins *fenced*: reads,
  /// probes and storage queries are refused (Errc::server_failed) until
  /// admit() — otherwise a straggling client retry could read the blank
  /// disk as real zeros. Writes are admitted so Recovery::rebuild_server
  /// can refill it. Without `wipe_disk` the on-disk content survived the
  /// crash and the server serves immediately.
  void restart(bool wipe_disk) {
    if (wipe_disk) {
      wipe();
      fenced_ = true;
    } else if (fence_restarts_) {
      fenced_ = true;
    }
    last_restart_wiped_ = wipe_disk;
    crashed_ = false;
    failed_ = false;
  }

  /// Armed by a RebuildCoordinator: even a non-wipe restart rejoins fenced.
  /// Degraded writes during the outage updated redundancy but not this
  /// server's files, and dirty pages died with the crash — the coordinator
  /// delta-rebuilds the stale regions before admit() lifts the fence.
  void fence_restarts(bool on) { fence_restarts_ = on; }

  /// Whether the most recent restart() wiped the disk (full rebuild needed)
  /// or kept it (delta rebuild of stale regions suffices).
  bool last_restart_wiped() const { return last_restart_wiped_; }

  /// Lift the rejoin fence once the rebuild has made the disk trustworthy.
  void admit() { fenced_ = false; }
  bool fenced() const { return fenced_; }

  bool crashed() const { return crashed_; }

  /// Simulate replacing the disk with a blank one: all local files, overflow
  /// tables and locks are lost. Call before raid::Recovery::rebuild_server.
  void wipe() {
    fs_.wipe();
    handles_.clear();
    drop_all_locks();
  }

  localfs::LocalFs& fs() { return fs_; }

  struct LockStats {
    std::uint64_t acquisitions = 0;
    std::uint64_t waits = 0;         ///< parity reads that had to queue
    sim::Duration wait_time = 0;     ///< total simulated queueing time
    std::uint64_t lease_expirations = 0;  ///< abandoned locks reclaimed
    std::uint64_t explicit_releases = 0;  ///< owner-verified unlock_red ops
    /// Retried locked reads re-granted their own lock (the grant reply was
    /// lost in flight, so the client resent the acquisition).
    std::uint64_t reentries = 0;

    template <class Fn>
    void for_each(Fn fn) const {
      fn("acquisitions", acquisitions);
      fn("waits", waits);
      fn("wait_time_ns", wait_time);
      fn("lease_expirations", lease_expirations);
      fn("explicit_releases", explicit_releases);
      fn("reentries", reentries);
    }
  };
  const LockStats& lock_stats() const { return lock_stats_; }

  struct BatchStats {
    std::uint64_t batches = 0;       ///< Op::batch envelopes executed
    std::uint64_t subs = 0;          ///< sub-requests those envelopes carried
    std::uint64_t merged_reads = 0;  ///< adjacent sub-reads coalesced into
                                     ///< one disk/page-cache access

    template <class Fn>
    void for_each(Fn fn) const {
      fn("batches", batches);
      fn("subs", subs);
      fn("merged_reads", merged_reads);
    }
  };
  const BatchStats& batch_stats() const { return batch_stats_; }

  /// Attach (or clear) the tracer / metrics registry; caches the metric
  /// handles so the hot path never looks up by name.
  void set_obs(obs::Tracer* tracer, obs::Registry* metrics);

  /// The iod dispatch-loop resource (utilization sampling).
  const sim::BandwidthServer& iod() const { return iod_; }

  /// Aggregate storage across all handles on this server.
  StorageInfo total_storage() const;

  /// Local file naming convention (exposed for tests/white-box inspection).
  static std::string data_name(std::uint64_t h) {
    return "h" + std::to_string(h) + ".data";
  }
  static std::string red_name(std::uint64_t h) {
    return "h" + std::to_string(h) + ".red";
  }
  /// Generation-qualified redundancy file. Generation 0 keeps the legacy
  /// name; a scheme migration writes the target scheme's redundancy into
  /// generation N+1 and drops the old generation after the flip.
  static std::string red_name(std::uint64_t h, std::uint32_t gen) {
    if (gen == 0) return red_name(h);
    return "h" + std::to_string(h) + ".red.g" + std::to_string(gen);
  }
  static std::string ovfl_name(std::uint64_t h) {
    return "h" + std::to_string(h) + ".ovfl";
  }

 private:
  /// A coroutine parked in lock_parity() waiting for the lock. Lives on the
  /// acquirer's frame; the queue stores pointers, FIFO.
  struct LockWaiter {
    std::coroutine_handle<> h;
    hw::NodeId from = 0;
    std::uint64_t token = 0;  ///< RMW identity carried into a handover
    sim::Time enq = 0;
    /// Set by the waker: true = lock handed over, false = lock vanished
    /// (file removed / crash) and the acquirer must not proceed.
    bool granted = false;
  };

  struct ParityLock {
    bool held = false;
    /// Client node that holds the lock — lets an explicit unlock_red verify
    /// the release comes from the holder (a client whose read_red timed out
    /// cannot know whether its lock was ever granted; the owner check makes
    /// its abandon-release safe to send unconditionally).
    hw::NodeId owner = 0;
    /// RMW transaction the holder tagged its acquisition with (0 =
    /// untagged). A resent read_red carrying the same token is the *same*
    /// in-flight RMW whose grant reply was lost — it re-enters the lock
    /// instead of queueing behind itself, which would wedge the block:
    /// the abandoned queue entries would each inherit the lock for a full
    /// lease period, and every new writer of the group would feed it more.
    std::uint64_t owner_token = 0;
    /// Bumped whenever ownership changes (acquire, handover, release) so a
    /// pending lease watchdog can tell "still the same stuck holder" from
    /// "lock has moved on since I was armed".
    std::uint64_t gen = 0;
    std::uint64_t armed_gen = 0;  ///< holder generation with a watchdog
    sim::Time acquired_at = 0;
    std::deque<LockWaiter*> waiting;
  };

  struct OffsetSlicer {
    std::uint64_t operator()(std::uint64_t base, std::uint64_t off,
                             std::uint64_t /*len*/) const {
      return base + off;
    }
  };
  /// data-file local range -> offset of its content in the overflow file.
  using OverflowTable = IntervalMap<std::uint64_t, OffsetSlicer>;

  struct HandleState {
    OverflowTable own;     ///< primary overflow entries (this server's data)
    OverflowTable mirror;  ///< mirror entries held for the previous server
    std::uint64_t overflow_alloc = 0;  ///< allocation cursor (fragmented)
    /// Highest redundancy generation ever written for this handle, so
    /// remove_file and storage accounting can cover every generation.
    std::uint32_t max_red_gen = 0;
    /// Local files resolved so far (see file_of): the data file, the
    /// redundancy file of generation red_file_gen, the overflow file. Null
    /// until first resolved; an unlinked one is resolved again by name.
    localfs::LocalFs::FileRef data_file;
    localfs::LocalFs::FileRef red_file;
    localfs::LocalFs::FileRef ovfl_file;
    std::uint32_t red_file_gen = 0;
  };
  using StateRef = std::shared_ptr<HandleState>;

  enum class FileKind : std::uint8_t { data, red, ovfl };

  /// The handle's state, or null.
  HandleState* state(std::uint64_t h) {
    StateRef* p = handles_.find(h);
    return p == nullptr ? nullptr : p->get();
  }
  /// The handle's state, created if absent; the reference keeps it alive
  /// across suspensions even if the handle is removed meanwhile.
  const StateRef& state_ref(std::uint64_t h) {
    StateRef& p = handles_[h];
    if (p == nullptr) p = std::make_shared<HandleState>();
    return p;
  }
  /// Handle `h`'s local file of `kind` (redundancy: generation `gen`), via
  /// the handle's cached reference when it has state; `create` makes an
  /// absent file, otherwise absent reads as null. Resolving at the moment a
  /// name lookup would happen keeps file creation order (and so page-cache
  /// file ids) exactly that of name-keyed access.
  localfs::LocalFs::FileRef file_of(std::uint64_t h, FileKind kind,
                                    std::uint32_t gen, bool create);

  sim::Task<void> dispatcher();
  sim::Task<void> handle(Request r);
  /// Execute one (non-batch) request and produce its response. `prelocked`
  /// means an enclosing batch already acquired this read_red's parity lock.
  /// `ctx` (tracing only) carries the request span's lane so stage spans
  /// nest under it; default = untraced.
  sim::Task<Response> exec_one(const Request& r, bool prelocked,
                               obs::Ctx ctx = {});
  /// Execute an Op::batch envelope: acquire every sub-lock in ascending
  /// key order, then run the subs in order, merging adjacent reads.
  sim::Task<Response> exec_batch(Request& r, obs::Ctx ctx = {});
  /// Acquire the parity lock at `key` for client `from`, queueing FIFO
  /// behind the holder. False when the lock vanished while queued (file
  /// removed, crash) — the caller must not proceed.
  sim::Task<bool> lock_parity(std::uint64_t key, hw::NodeId from,
                              std::uint64_t token,
                              obs::Ctx ctx = {});
  /// Hand a released (or expired) lock to the first queued waiter, or mark
  /// it free when nobody is waiting.
  void pass_or_release(std::uint64_t key, ParityLock& lk);
  /// Wake every parked acquirer of `lk` un-granted (lock is going away).
  void fail_waiters(ParityLock& lk);
  /// Clear the whole lock table, waking all parked acquirers un-granted.
  void drop_all_locks();
  /// Spawn a lease watchdog for the current holder generation (idempotent
  /// per generation; no-op when leases are disabled).
  void arm_lease(std::uint64_t key, ParityLock& lk);
  sim::Task<void> lease_reaper(std::uint64_t key, std::uint64_t gen,
                               std::uint64_t epoch, sim::Time deadline);
  /// Send `resp` back to the requester unless the server crashed since the
  /// request was accepted (`epoch` mismatch) or the fabric lost the message.
  sim::Task<void> reply(const Request& r, Response resp, std::uint64_t epoch);

  sim::Task<Response> do_read_data(const Request& r, obs::Ctx ctx = {});
  sim::Task<Response> do_read_data_raw(const Request& r);
  sim::Task<Response> do_write_data(const Request& r, obs::Ctx ctx = {});
  sim::Task<Response> do_read_red(const Request& r, obs::Ctx ctx = {});
  sim::Task<Response> do_write_red(const Request& r, obs::Ctx ctx = {});
  sim::Task<Response> do_write_overflow(const Request& r);
  /// read_mirror / read_own_overflow: the overflow pieces of `r`'s range
  /// held for the previous server (`mirror`) or for this one.
  sim::Task<Response> read_overflow_pieces(const Request& r, bool mirror);
  sim::Task<Response> do_compact_overflow(const Request& r);

  /// Per-connection ingest/egress pacing: one iod request stream moves at
  /// most stream_bytes_per_sec, serialized per (client, connection). The
  /// CSAR client uses a separate connection for redundancy traffic
  /// (mirror/parity/overflow), so redundancy requests do not steal data
  /// bandwidth on the same server — this is what lets RAID1 scale per
  /// server like RAID0 until the *client link* saturates (Figure 4a).
  /// Booked at the call and awaited at once, like BandwidthServer's own
  /// transfer(): no coroutine frame.
  [[nodiscard]] auto pace(const Request& r, std::uint64_t bytes) {
    // Redundancy-*block* operations take CSAR's fast path (cache-resident
    // parity/mirror blocks, outside the iod streaming loop). Bulk payloads
    // — data files and overflow regions — go through the per-connection
    // stream.
    return stream_for(r.from, redundancy_op(r.op)).transfer(bytes);
  }
  sim::BandwidthServer& stream_for(hw::NodeId client, bool redundancy);

  void apply_invalidation(const Request& r);
  std::uint64_t lock_key(std::uint64_t handle, std::uint64_t red_off,
                         std::uint32_t su) const {
    return handle * 0x40000000ULL + red_off / su;
  }

  hw::Cluster* cluster_;
  net::Fabric* fabric_;
  hw::NodeId node_;
  std::uint32_t index_;
  IoServerParams p_;
  sim::Channel<Request> inbox_;
  localfs::LocalFs fs_;
  /// The single-process iod dispatch loop every request passes through.
  sim::BandwidthServer iod_;
  /// (client node << 1 | redundancy?) -> serialized per-connection stream
  /// pacing.
  FlatMap<std::unique_ptr<sim::BandwidthServer>> streams_;
  FlatMap<StateRef> handles_;
  FlatMap<ParityLock> locks_;
  LockStats lock_stats_;
  BatchStats batch_stats_;
  // Observability (all null/0 when detached; see set_obs).
  obs::Tracer* tracer_ = nullptr;
  obs::Registry* metrics_ = nullptr;
  std::uint32_t pid_ = 0;                 ///< this server's trace process
  obs::Histogram* req_hist_ = nullptr;    ///< server.req_ns
  obs::Histogram* lock_hist_ = nullptr;   ///< server.lock_wait_ns
  obs::Histogram* batch_hist_ = nullptr;  ///< server.batch_subs
  bool failed_ = false;
  bool crashed_ = false;
  /// Rejoined on a blank disk and not yet rebuilt: refuse reads/probes.
  bool fenced_ = false;
  /// When set (by a RebuildCoordinator), non-wipe restarts also fence.
  bool fence_restarts_ = false;
  bool last_restart_wiped_ = false;
  /// Bumped on every crash; a reply is only sent if the server has not
  /// crashed since the request began (fences stale in-flight handlers).
  std::uint64_t epoch_ = 0;
  bool started_ = false;
};

}  // namespace csar::pvfs
