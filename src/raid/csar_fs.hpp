// CsarFs: the user-facing CSAR file system API.
//
// Wraps a pvfs::Client with one of the redundancy schemes from the paper.
// Reads are identical for every scheme in normal operation (redundancy is
// never read; servers already return the newest copy, overflow included).
// Writes dispatch to the per-scheme paths:
//
//  RAID0   data only (plain PVFS).
//  RAID1   data + block mirror on the next server's redundancy file.
//  RAID5   data in place; for each touched parity group the client reads
//          old data + old parity (taking the parity-block lock, §5.1),
//          XORs the delta, and writes data + new parity (releasing the
//          lock). Full groups skip the reads — parity is computed fresh.
//          RAID4 and the RAID5 variants are rs(N-1,1), and the one coded
//          path serves them and rs(k,m) alike (write_coded).
//  Hybrid  the write is split (§4) into [partial | full stripes | partial]:
//          the full-stripe run takes the coded fast path (and invalidates
//          overlapping overflow entries); the partial edges are written
//          twice into overflow regions (owner server + its successor),
//          never updating the data file in place, so the stale parity still
//          reconstructs the old stripe content.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/buffer.hpp"
#include "common/result.hpp"
#include "pvfs/client.hpp"
#include "raid/policy.hpp"
#include "raid/scheme.hpp"
#include "sim/task.hpp"

namespace csar::raid {

class HealthMonitor;

struct CsarParams {
  /// Default scheme: what untagged files inherit and what create() assigns
  /// when no policy rule matches. On the I/O path every routing decision
  /// resolves through the policy's per-file lookup, never this field.
  Scheme scheme = Scheme::hybrid;
  /// Shared per-deployment policy (the Rig owns one and hands it to every
  /// CsarFs). nullptr → this CsarFs owns a private policy whose default is
  /// `scheme` (standalone/test construction).
  RedundancyPolicy* policy = nullptr;
};

class CsarFs {
 public:
  CsarFs(pvfs::Client& client, CsarParams params)
      : client_(&client), p_(params) {
    if (p_.policy == nullptr) {
      owned_policy_ =
          std::make_unique<RedundancyPolicy>(PolicyParams{p_.scheme, {}, {}});
      p_.policy = owned_policy_.get();
    }
  }
  CsarFs(const CsarFs&) = delete;
  CsarFs& operator=(const CsarFs&) = delete;

  pvfs::Client& client() { return *client_; }
  RedundancyPolicy& policy() { return *p_.policy; }
  const RedundancyPolicy& policy() const { return *p_.policy; }

  // --- metadata ---
  /// Create a file: the policy assigns its scheme (rules, then default),
  /// the layout's parity placement is fixed to match (RAID4 = fixed parity
  /// server), and the scheme tag is persisted at the manager.
  sim::Task<Result<pvfs::OpenFile>> create(std::string name,
                                           pvfs::StripeLayout layout);
  sim::Task<Result<pvfs::OpenFile>> open(std::string name) {
    return client_->open(std::move(name));
  }

  /// Attach a HealthMonitor and turn on automatic failover: read()/write()
  /// consult the monitor before issuing I/O and reroute around a down
  /// server through raid::Recovery's degraded paths; errors that slip
  /// through (the monitor has not noticed yet) trigger reactive failover
  /// using the Error's server hint. Pass nullptr to return to the plain
  /// fail-loudly behaviour. The monitor is not owned.
  void enable_failover(HealthMonitor* mon) { mon_ = mon; }
  HealthMonitor* health_monitor() const { return mon_; }

  struct FailoverStats {
    std::uint64_t degraded_reads = 0;   ///< reads served via reconstruction
    std::uint64_t degraded_writes = 0;  ///< writes routed degraded
    std::uint64_t reactive = 0;  ///< failovers triggered by an error, not
                                 ///< by the monitor's advance knowledge
  };
  const FailoverStats& failover_stats() const { return failover_stats_; }

  /// Observer for degraded-path writes — the RebuildCoordinator's dirty-
  /// interval feed. `begin` fires before the degraded write issues any IO
  /// and `end` after it completes (success or failure: even a torn degraded
  /// write may have updated redundancy, so the region counts as dirtied).
  /// Callbacks run synchronously inside the writing coroutine and must not
  /// block. Not owned; pass nullptr to detach.
  class WriteObserver {
   public:
    virtual ~WriteObserver() = default;
    virtual void on_degraded_write_begin(std::uint32_t failed) = 0;
    virtual void on_degraded_write_end(const pvfs::OpenFile& f,
                                       std::uint64_t off, std::uint64_t len,
                                       std::uint32_t failed) = 0;
  };
  void set_write_observer(WriteObserver* o) { observer_ = o; }

  /// Listener for *all* writes (healthy and degraded) — the SchemeMigrator's
  /// dirty-interval feed during a live migration. `begin` fires before the
  /// write resolves its scheme or issues any IO, `end` after it completes;
  /// both run synchronously inside the writing coroutine and must not block.
  /// Not owned; pass nullptr to detach.
  class WriteListener {
   public:
    virtual ~WriteListener() = default;
    virtual void on_write_begin(const pvfs::OpenFile& f) = 0;
    virtual void on_write_end(const pvfs::OpenFile& f, std::uint64_t off,
                              std::uint64_t len, bool ok) = 0;
  };
  void set_write_listener(WriteListener* l) { listener_ = l; }

  // --- data path ---
  sim::Task<Result<void>> write(const pvfs::OpenFile& f, std::uint64_t off,
                                Buffer data);
  sim::Task<Result<Buffer>> read(const pvfs::OpenFile& f, std::uint64_t off,
                                 std::uint64_t len);

  /// Failover read: like read(), but when an I/O server is down the client
  /// locates it and transparently reconstructs the lost pieces from the
  /// redundancy (degraded-mode read). This is what "tolerant of single
  /// disk failures" means to an application: reads keep working.
  sim::Task<Result<Buffer>> read_resilient(const pvfs::OpenFile& f,
                                           std::uint64_t off,
                                           std::uint64_t len);

  /// Probe every I/O server and report the index of the first failed one.
  sim::Task<std::optional<std::uint32_t>> find_failed_server(
      const pvfs::OpenFile& f);

  /// Probe one suspect with a bounded policy; true only when the probe
  /// itself fails the way a dead (or fenced) server fails.
  sim::Task<bool> confirmed_down(const pvfs::OpenFile& f, std::uint32_t s);

  /// RAID1 mirror-balanced read: alternate stripe units between the primary
  /// copy and the mirror on the successor server, spreading read load over
  /// both copies — the classic RAID1 read optimization ("our scheme lends
  /// itself to simple extensions", §5.1). Falls back to read() for every
  /// other scheme.
  sim::Task<Result<Buffer>> read_balanced(const pvfs::OpenFile& f,
                                          std::uint64_t off,
                                          std::uint64_t len);
  sim::Task<Result<void>> flush(const pvfs::OpenFile& f) {
    return client_->flush(f);
  }

  /// Total bytes stored across all servers for this file, including
  /// redundancy and overflow allocation — the paper's Table 2 metric.
  sim::Task<pvfs::StorageInfo> storage(const pvfs::OpenFile& f) {
    return client_->storage(f);
  }

  /// The background cleaner the paper proposes in §6.7: read the file in
  /// its entirety and rewrite it in large full-stripe chunks, migrating all
  /// overflow data back into the RAID5 layout; then garbage-collect the
  /// overflow files. Afterwards the Hybrid scheme's long-term storage
  /// equals RAID5's. Only meaningful for Scheme::hybrid.
  sim::Task<Result<void>> compact(const pvfs::OpenFile& f,
                                  std::uint64_t file_size);

 private:
  /// write() minus the listener bracketing: failover handling + dispatch.
  sim::Task<Result<void>> write_guarded(const pvfs::OpenFile& f,
                                        std::uint64_t off, Buffer data);

  /// The per-scheme write dispatch (the pre-failover write() body). The
  /// scheme is the policy's resolution for `f`, done once at dispatch.
  sim::Task<Result<void>> dispatch_write(const pvfs::OpenFile& f,
                                         std::uint64_t off,
                                         const Buffer& data);

  /// Recovery::degraded_write bracketed by the WriteObserver hooks (fired
  /// once per down server — every victim's rebuild tracks the dirty region).
  sim::Task<Result<void>> degraded_write_observed(
      const pvfs::OpenFile& f, std::uint64_t off, Buffer data,
      std::vector<std::uint32_t> failed);

  /// Resolve which server caused `err` (hint, else probe) and re-serve the
  /// read through Recovery::degraded_read; returns `err` unchanged when no
  /// failed server can be identified.
  sim::Task<Result<Buffer>> reroute_read(const pvfs::OpenFile& f,
                                         std::uint64_t off, std::uint64_t len,
                                         Error err);

  sim::Task<Result<void>> write_raid1(const pvfs::OpenFile& f,
                                      std::uint64_t off, const Buffer& data);
  sim::Task<Result<void>> write_hybrid(const pvfs::OpenFile& f,
                                       std::uint64_t off, const Buffer& data);
  /// The coded write path for every k+m code (RAID4 and the RAID5 variants
  /// are rs(N-1,1)): full groups compute their m coding units fresh;
  /// partial groups run the batched RMW protocol (one locked read+update
  /// per touched coding server, ascending order) folding per-unit GF
  /// deltas. `sch` carries the variant flags: R5-NO-LOCK takes no locks,
  /// RAID5-npc charges no coding CPU time.
  sim::Task<Result<void>> write_coded(const pvfs::OpenFile& f,
                                      std::uint64_t off, const Buffer& data,
                                      Scheme sch);

  /// Charge the client CPU for XOR-ing `bytes` (skipped for RAID5-npc).
  sim::Task<void> charge_xor(Scheme sch, std::uint64_t bytes);

  pvfs::Client* client_;
  CsarParams p_;
  std::unique_ptr<RedundancyPolicy> owned_policy_;
  HealthMonitor* mon_ = nullptr;
  WriteObserver* observer_ = nullptr;
  WriteListener* listener_ = nullptr;
  FailoverStats failover_stats_{};
};

}  // namespace csar::raid
