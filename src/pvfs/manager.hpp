// Manager: the PVFS metadata daemon.
//
// Maintains the file table (name -> handle + stripe layout + redundancy
// redundancy descriptor) and serves create/open/remove/set_redundancy over
// RPC.
// PVFS clients contact the manager once per open and then talk to the I/O
// servers directly — the manager is off the data path, which is what gives
// striped file systems their scalability.
//
// Crash tolerance (the piece plain PVFS never had): every committed mutation
// is written ahead to a checksummed journal on the manager node's own disk
// (MetaJournal), with periodic checkpoints bounding replay. A crash drops
// all in-memory state and fences in-flight handlers via an epoch bump (the
// same pattern as IoServer); restart() replays checkpoint + journal and
// bumps the durable *incarnation* number that fences stale cross-crash
// requests (see MetaRequest::fence_epoch). Mutating meta-RPCs carry a
// per-client request id so a retry of an op whose reply was lost resends
// the original reply instead of re-executing (a retried create no longer
// comes back `already_exists`).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>

#include "common/result.hpp"
#include "hw/node.hpp"
#include "localfs/local_fs.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pvfs/layout.hpp"
#include "pvfs/meta_journal.hpp"
#include "sim/channel.hpp"
#include "sim/task.hpp"

namespace csar::pvfs {

/// Sentinel scheme tag: the file carries no per-file scheme and inherits the
/// deployment default (files created through the raw pvfs::Client path).
inline constexpr std::uint8_t kSchemeUnset = 0xFF;

/// Sentinel rgroup id: the file belongs to no redundancy class (fleet layer
/// never tagged it).
inline constexpr std::uint8_t kRgroupUnset = 0xFF;

struct OpenFile {
  std::uint64_t handle = 0;
  StripeLayout layout;
  /// Redundancy scheme tag (raid::Scheme value; the manager stores it as an
  /// opaque byte — pvfs knows nothing about RAID). kSchemeUnset = inherit.
  std::uint8_t scheme = kSchemeUnset;
  /// Current redundancy-file generation (bumped by scheme migrations).
  std::uint32_t red_gen = 0;
  /// Redundancy-class (rgroup) id the fleet layer filed this file under —
  /// another opaque byte; transitions are planned per class, and the tag
  /// must survive manager crashes so the fleet can rebuild its view.
  std::uint8_t rgroup = kRgroupUnset;
};

enum class MetaOp : std::uint8_t { create, open, remove, set_redundancy,
                                   shutdown };

struct MetaRequest {
  MetaOp op{};
  std::string name;
  StripeLayout layout;
  std::uint8_t scheme = kSchemeUnset;  ///< create / set_redundancy
  std::uint32_t red_gen = 0;           ///< set_redundancy, with `scheme`
  std::uint8_t rgroup = kRgroupUnset;  ///< set_redundancy
  hw::NodeId from = 0;
  /// Per-client id of the *logical* operation, identical across retries of
  /// the same call (0 = unguarded). The manager dedups on (from, req_id).
  std::uint64_t req_id = 0;
  /// Epoch fence: when nonzero, the op executes only if the manager's
  /// incarnation still equals this value — a mutation prepared against
  /// pre-crash state cannot clobber post-replay state (Errc::stale_epoch).
  std::uint32_t fence_epoch = 0;
  std::shared_ptr<sim::Channel<struct MetaResponse>> reply;
};

struct MetaResponse {
  bool ok = true;
  Errc err = Errc::ok;
  OpenFile file;
  /// Manager incarnation that produced this reply; clients remember the
  /// latest value and use it to fence migration persists.
  std::uint32_t mgr_epoch = 0;
};

struct ManagerParams {
  /// Journal every mutation through the manager node's disk. Off = the
  /// legacy in-memory manager (the A12 ablation baseline): a crash loses
  /// the whole file table.
  bool journaling = true;
  MetaJournalParams journal;
  /// Retained replies per client for meta-RPC dedup. Bounds manager memory;
  /// must exceed the deepest per-client retry pipelining (clients retry one
  /// meta op at a time, so a handful suffices).
  std::uint32_t dedup_window = 32;
  localfs::LocalFsParams fs;  ///< manager-disk tuning (volatility is forced)
};

struct ManagerStats {
  std::uint64_t served = 0;            ///< requests that reached serve()
  std::uint64_t dropped_requests = 0;  ///< arrived while crashed
  std::uint64_t dropped_replies = 0;   ///< reply lost on the fabric
  std::uint64_t dedup_hits = 0;        ///< retries answered from the table
  std::uint64_t stale_gen_rejects = 0;    ///< Errc::stale_generation
  std::uint64_t stale_epoch_rejects = 0;  ///< Errc::stale_epoch
  std::uint64_t crashes = 0;
  std::uint64_t replays = 0;           ///< completed restart()s
  std::uint64_t replayed_records = 0;  ///< journal records re-applied

  template <class Fn>
  void for_each(Fn fn) const {
    fn("served", served);
    fn("dropped_requests", dropped_requests);
    fn("dropped_replies", dropped_replies);
    fn("dedup_hits", dedup_hits);
    fn("stale_gen_rejects", stale_gen_rejects);
    fn("stale_epoch_rejects", stale_epoch_rejects);
    fn("crashes", crashes);
    fn("replays", replays);
    fn("replayed_records", replayed_records);
  }
};

class Manager {
 public:
  Manager(hw::Cluster& cluster, net::Fabric& fabric, hw::NodeId node,
          ManagerParams params = {});
  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  void start() {
    if (started_) return;
    started_ = true;
    cluster_->sim().spawn(dispatcher());
  }

  void stop() {
    MetaRequest r;
    r.op = MetaOp::shutdown;
    inbox_.send(std::move(r));
  }

  /// Hard crash: all in-memory metadata and the dedup table vanish; queued
  /// and future requests are dropped silently; in-flight handlers are fenced
  /// by the epoch bump (no reply escapes). With `wipe_unsynced` the unsynced
  /// journal tail (dirty page-cache content) dies too — only flushed records
  /// survive to replay.
  void crash(bool wipe_unsynced);

  /// Bring a crashed manager back: replay checkpoint + journal into a fresh
  /// file table, bump the durable incarnation, and resume serving. Clients
  /// were never quiesced — their retries simply start succeeding again.
  sim::Task<void> restart();

  sim::Channel<MetaRequest>& inbox() { return inbox_; }
  hw::NodeId node_id() const { return node_; }
  std::size_t file_count() const { return files_.size(); }
  bool crashed() const { return crashed_; }

  /// Current incarnation (starts at 1, bumped by every restart; durable).
  std::uint32_t incarnation() const { return incarnation_; }

  const ManagerStats& stats() const { return stats_; }

  /// Journal counters; zeros when journaling is off.
  JournalStats journal_stats() const {
    return journal_ ? journal_->stats() : JournalStats{};
  }

  /// The manager node's local file system (tests corrupt the journal tail
  /// through it). Null when the node has no disk/cache.
  localfs::LocalFs* meta_fs() { return fs_.get(); }

  void set_obs(obs::Tracer* tracer, obs::Registry* metrics);

 private:
  struct ClientDedup {
    std::map<std::uint64_t, MetaResponse> by_id;
    std::deque<std::uint64_t> order;  ///< insertion order, for eviction
  };

  sim::Task<void> dispatcher();
  sim::Task<MetaResponse> serve(const MetaRequest& r, std::uint64_t epoch);
  /// Apply one committed mutation to the in-memory table. Shared by the
  /// serve path and journal replay so both produce identical state.
  void apply_record(const JournalRecord& rec);
  MetaSnapshot snapshot() const;
  const MetaResponse* dedup_find(hw::NodeId from, std::uint64_t req_id) const;
  void dedup_put(hw::NodeId from, std::uint64_t req_id,
                 const MetaResponse& resp);

  hw::Cluster* cluster_;
  net::Fabric* fabric_;
  hw::NodeId node_;
  ManagerParams p_;
  sim::Channel<MetaRequest> inbox_;
  std::map<std::string, OpenFile> files_;
  std::map<hw::NodeId, ClientDedup> dedup_;
  std::unique_ptr<localfs::LocalFs> fs_;    ///< null if node has no disk
  std::unique_ptr<MetaJournal> journal_;    ///< null if journaling off
  ManagerStats stats_;
  std::uint64_t next_handle_ = 1;
  /// Durable incarnation: fences cross-crash staleness (MetaRequest::
  /// fence_epoch). Persisted in checkpoints; monotonic across restarts.
  std::uint32_t incarnation_ = 1;
  /// In-flight fencing epoch, bumped per crash (same role as IoServer's):
  /// a handler suspended across a crash must neither apply nor reply.
  std::uint64_t epoch_ = 0;
  /// True while a handler is between dequeue and reply; restart() drains it
  /// before replaying so replay never interleaves with a suspended append.
  bool serving_ = false;
  bool crashed_ = false;
  bool started_ = false;
  obs::Tracer* tracer_ = nullptr;
  obs::Registry* metrics_ = nullptr;
  std::uint32_t pid_ = 0;
};

}  // namespace csar::pvfs
