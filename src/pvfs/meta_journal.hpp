// MetaJournal: write-ahead journal + checkpoint store for the PVFS metadata
// manager, written through the manager node's simulated local file system so
// every durability byte is charged to its disk.
//
// Layout on the manager's LocalFs:
//
//   meta.journal   append-only records, one per committed mutation
//   meta.ckpt0/1   alternating full-state checkpoints (highest seq wins)
//
// Every record and checkpoint carries a [u32 length][u64 FNV-1a checksum]
// header over its payload. Recovery picks the newest valid checkpoint, then
// scans the journal: a zero length marks the clean end, and any header or
// checksum mismatch marks a torn tail — everything from the first bad record
// on is discarded (zero-filled so stale bytes can never alias as a record
// later) and counted in `truncated_records`.
//
// A checkpoint is written *after* the newest record's effect is applied, and
// truncates the journal only once the checkpoint itself is flushed; there is
// no await between the checkpoint flush and the truncation, so the pair is
// atomic under the cooperative scheduler.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/buffer.hpp"
#include "localfs/local_fs.hpp"
#include "pvfs/layout.hpp"
#include "sim/simulation.hpp"
#include "sim/task.hpp"

namespace csar::pvfs {

struct MetaJournalParams {
  /// Flush the journal file after every append (write-ahead semantics: the
  /// record is durable before the client sees a reply). Off = appends ride
  /// the page cache and a crash may lose the unsynced tail.
  bool sync_appends = true;
  /// Write a checkpoint (and truncate the journal) every N records.
  std::uint32_t checkpoint_every = 64;
};

/// One durable metadata mutation. Only committed state changes are journaled
/// — failed ops re-derive the same failure deterministically at replay.
struct JournalRecord {
  enum class Kind : std::uint8_t { create, remove, set_redundancy };
  Kind kind = Kind::create;
  std::string name;
  StripeLayout layout;          ///< create
  /// create: the scheme; set_redundancy: the whole resulting descriptor.
  std::uint8_t scheme = 0xFF;
  std::uint32_t red_gen = 0;
  std::uint8_t rgroup = 0xFF;   ///< redundancy-class id
  std::uint64_t handle = 0;     ///< create: the handle that was assigned
  std::uint32_t from = 0;       ///< requesting client node (dedup rebuild)
  std::uint64_t req_id = 0;     ///< client request id (0 = none)
};

/// Per-file entry in a checkpoint.
struct SnapshotFile {
  std::string name;
  std::uint64_t handle = 0;
  StripeLayout layout;
  std::uint8_t scheme = 0xFF;
  std::uint32_t red_gen = 0;
  std::uint8_t rgroup = 0xFF;
};

/// Per-request dedup entry in a checkpoint: the reply the manager would
/// resend for a retried request id (covers records already truncated out of
/// the journal).
struct SnapshotDedup {
  std::uint32_t from = 0;
  std::uint64_t req_id = 0;
  bool ok = true;
  std::uint8_t err = 0;  ///< Errc as a byte
  std::uint64_t handle = 0;
  StripeLayout layout;
  std::uint8_t scheme = 0xFF;
  std::uint32_t red_gen = 0;
  std::uint8_t rgroup = 0xFF;
};

struct MetaSnapshot {
  std::uint64_t next_handle = 1;
  std::uint32_t incarnation = 1;
  std::vector<SnapshotFile> files;
  std::vector<SnapshotDedup> dedup;
};

struct JournalStats {
  std::uint64_t records_appended = 0;
  std::uint64_t bytes_appended = 0;
  std::uint64_t flushes = 0;
  std::uint64_t checkpoints = 0;
  /// Torn-tail truncation events detected by recover().
  std::uint64_t truncated_records = 0;

  template <class Fn>
  void for_each(Fn fn) const {
    fn("records_appended", records_appended);
    fn("bytes_appended", bytes_appended);
    fn("flushes", flushes);
    fn("checkpoints", checkpoints);
    fn("truncated_records", truncated_records);
  }
};

class MetaJournal {
 public:
  static constexpr const char* kJournalFile = "meta.journal";

  MetaJournal(sim::Simulation& sim, localfs::LocalFs& fs,
              const MetaJournalParams& params)
      : sim_(&sim), fs_(&fs), p_(params) {}
  MetaJournal(const MetaJournal&) = delete;
  MetaJournal& operator=(const MetaJournal&) = delete;

  /// Append one record (and flush, under sync_appends). Must complete before
  /// the mutation is applied or acknowledged.
  sim::Task<void> append(const JournalRecord& rec);

  /// True once checkpoint_every records accumulated since the last one.
  bool checkpoint_due() const { return since_ckpt_ >= p_.checkpoint_every; }

  /// Durably persist `snap` into the next checkpoint slot, then truncate the
  /// journal. Call only when every journaled record is reflected in `snap`.
  sim::Task<void> write_checkpoint(const MetaSnapshot& snap);

  struct Recovered {
    MetaSnapshot snapshot;               ///< newest valid checkpoint
    std::vector<JournalRecord> records;  ///< valid journal suffix, in order
    bool had_checkpoint = false;
    bool torn_tail = false;
  };

  /// Read back durable state after a crash. Also repositions the append
  /// cursor so the journal keeps growing from the last valid record.
  sim::Task<Recovered> recover();

  /// Current journal append offset (size of the valid journal).
  std::uint64_t tail() const { return tail_; }
  const JournalStats& stats() const { return stats_; }

 private:
  static const char* ckpt_file(unsigned slot) {
    return slot == 0 ? "meta.ckpt0" : "meta.ckpt1";
  }

  sim::Simulation* sim_;
  localfs::LocalFs* fs_;
  MetaJournalParams p_;
  JournalStats stats_;
  std::uint64_t tail_ = 0;        ///< append offset in meta.journal
  std::uint32_t since_ckpt_ = 0;  ///< records since the last checkpoint
  std::uint64_t ckpt_seq_ = 0;    ///< seq of the newest written checkpoint
  unsigned next_slot_ = 0;        ///< slot the next checkpoint goes to
};

}  // namespace csar::pvfs
