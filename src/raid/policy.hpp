// RedundancyPolicy: the per-file redundancy policy layer.
//
// The paper fixes one scheme per run; this layer makes the scheme per-file
// metadata. At create time a file's scheme comes from a static rule table
// (path-prefix hints) or the deployment default; afterwards every consumer
// (CsarFs data paths, Recovery, RebuildCoordinator, Scrubber, the storm
// harness) resolves the scheme through scheme_of() instead of a global.
//
// The adaptive half is fed by telemetry the stack already produces —
// HealthMonitor transitions, scrub media-error findings, RpcPolicy
// timeout/reset counts, and per-file partial-vs-full-stripe write ratios —
// and recommends scheme *transitions*: under fault pressure a small-write-
// heavy parity/Hybrid file is worth migrating to RAID1, whose rebuild moves
// 2·len per lost unit instead of n·len, shrinking the post-fault window
// during which a second failure would lose data. Transitions are executed
// by SchemeMigrator (migrate.hpp) as background copies that ride the
// Recovery rebuild machinery; the policy only tracks state and decides.
//
// Everything here is deterministic: decisions are pure functions of the
// counters, and iteration is over ordered maps, so a fixed seed reproduces
// the same transitions at the same simulated times.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "pvfs/manager.hpp"
#include "raid/scheme.hpp"
#include "sim/time.hpp"

namespace csar::raid {

/// Static assignment rule: files whose name starts with `prefix` get
/// `scheme`. First matching rule wins; no match falls to the default.
struct PolicyRule {
  std::string prefix;
  Scheme scheme = Scheme::hybrid;
};

struct AdaptiveParams {
  bool enabled = false;
  /// Fault-pressure gates: any one of these tripping makes the engine
  /// consider transitions (all counters are cumulative since construction).
  std::uint64_t media_error_threshold = 1;
  std::uint64_t down_transition_threshold = 1;
  std::uint64_t rpc_pressure_threshold = 8;  ///< timeouts + resets
  /// A file is "small-write-heavy" when at least this fraction of its
  /// observed write bytes were partial-stripe.
  double partial_ratio_threshold = 0.5;
  /// Ignore files with less observed write traffic than this (no signal).
  std::uint64_t min_observed_bytes = 256 * 1024;
  /// Where small-write-heavy parity/Hybrid files go under fault pressure.
  Scheme small_write_target = Scheme::raid1;
  /// Multi-disk-risk gate: once this many alive->down transitions have been
  /// observed, a single-parity scheme leaves no margin for the *next*
  /// failure during a rebuild — full-stripe-heavy parity/Hybrid files are
  /// worth migrating to an rs(k,m) code that survives m concurrent losses.
  /// Small-write-heavy files still prefer the mirror target above (an rs
  /// small write pays m coding RMWs).
  std::uint64_t multi_fault_threshold = 2;
  Scheme multi_fault_target = Scheme::rs(4, 2);
};

struct PolicyParams {
  Scheme default_scheme = Scheme::hybrid;
  std::vector<PolicyRule> rules;
  AdaptiveParams adaptive;
};

/// Per-scheme activity counters (diagnostics / A10 scheme-mix reporting).
struct SchemeCounters {
  std::uint64_t writes = 0;           ///< write() calls routed to the scheme
  std::uint64_t bytes = 0;            ///< bytes those writes carried
  std::uint64_t rmw_groups = 0;       ///< partial-group read-modify-writes
  std::uint64_t overflow_bytes = 0;   ///< bytes routed to overflow copies
};

/// The adaptive engine's fault-pressure inputs. Migration counts live on
/// the migrator (MigrateStats), which is the one place that runs them.
struct PolicyStats {
  std::uint64_t media_errors = 0;      ///< scrub findings + client-observed
  std::uint64_t down_transitions = 0;  ///< HealthMonitor alive->down flips
  std::uint64_t rpc_pressure = 0;      ///< client RPC timeouts + resets

  template <class Fn>
  void for_each(Fn fn) const {
    fn("media_errors", media_errors);
    fn("down_transitions", down_transitions);
    fn("rpc_pressure", rpc_pressure);
  }
};

/// Erasure-coding activity counters (rs(k,m) paths). Kept on the policy —
/// the one object shared by every CsarFs and every per-op Recovery in a
/// deployment — so degraded-read accounting survives the short-lived
/// Recovery instances the failover paths construct.
struct EcStats {
  std::uint64_t degraded_reads = 0;     ///< rs pieces served by decode
  std::uint64_t fragments_fetched = 0;  ///< fragments read for those decodes
  std::uint64_t decode_bytes = 0;       ///< bytes fed through the GF decoder
  std::uint64_t encode_bytes = 0;       ///< bytes fed through the GF encoder
  std::uint64_t rebuild_decodes = 0;    ///< fragment decodes done by rebuilds

  template <class Fn>
  void for_each(Fn fn) const {
    fn("degraded_reads", degraded_reads);
    fn("fragments_fetched", fragments_fetched);
    fn("decode_bytes", decode_bytes);
    fn("encode_bytes", encode_bytes);
    fn("rebuild_decodes", rebuild_decodes);
  }
};

class RedundancyPolicy {
 public:
  explicit RedundancyPolicy(PolicyParams params = {}) : p_(std::move(params)) {}
  RedundancyPolicy(const RedundancyPolicy&) = delete;
  RedundancyPolicy& operator=(const RedundancyPolicy&) = delete;

  const PolicyParams& params() const { return p_; }
  Scheme default_scheme() const { return p_.default_scheme; }

  /// Scheme a file created under `name` should get (rules, then default).
  Scheme assign(std::string_view name) const;

  /// Resolve a file's current scheme: the live override (a completed
  /// migration this policy instance executed) wins over the creation-time
  /// tag carried in the OpenFile — callers routinely hold OpenFile copies
  /// taken before a migration — and an untagged file (raw pvfs create)
  /// inherits the deployment default.
  Scheme scheme_of(const pvfs::OpenFile& f) const {
    if (auto it = overrides_.find(f.handle); it != overrides_.end()) {
      return it->second.scheme;
    }
    if (f.scheme != pvfs::kSchemeUnset) return scheme_from_tag(f.scheme);
    return p_.default_scheme;
  }

  /// The file's current redundancy-file generation (see Request::red_gen).
  std::uint32_t red_gen_of(const pvfs::OpenFile& f) const {
    if (auto it = overrides_.find(f.handle); it != overrides_.end()) {
      return it->second.red_gen;
    }
    return f.red_gen;
  }

  /// Whether the file may have live overflow entries: true for files that
  /// are — or ever were — Hybrid. Migrating away from Hybrid keeps the
  /// overflow overlay live (the new base redundancy covers the *raw* data
  /// files), so post-migration in-place writes must invalidate overlapping
  /// entries and reconstruction must keep overlaying mirror pieces. Files
  /// that were never Hybrid return false and keep their exact pre-policy
  /// message traffic.
  bool overflow_possible(const pvfs::OpenFile& f) const {
    return scheme_of(f) == Scheme::hybrid || ever_hybrid_.contains(f.handle);
  }

  /// Record a freshly created file's assigned scheme.
  void note_created(const pvfs::OpenFile& f, Scheme s) {
    if (s == Scheme::hybrid) ever_hybrid_.insert(f.handle);
    auto& t = files_[f.handle];
    t.last_scheme = s;
  }

  /// Flip a file to `s` at redundancy generation `red_gen` (migration
  /// commit; called with no awaits between the migrator's convergence check
  /// and this flip, so no write can interleave).
  void set_override(const pvfs::OpenFile& f, Scheme s, std::uint32_t red_gen) {
    if (scheme_of(f) == Scheme::hybrid) ever_hybrid_.insert(f.handle);
    overrides_[f.handle] = Override{s, red_gen};
    files_[f.handle].last_scheme = s;
  }

  // --- telemetry feeds ---
  void note_health_transition(std::uint32_t /*server*/, bool alive,
                              sim::Time /*at*/) {
    if (!alive) ++stats_.down_transitions;
  }
  void note_media_errors(std::uint64_t n) { stats_.media_errors += n; }
  void note_rpc_pressure(std::uint64_t events) {
    stats_.rpc_pressure += events;
  }
  /// Called by CsarFs for every write, with the full/partial-stripe byte
  /// split the layout computed anyway.
  void note_write(const pvfs::OpenFile& f, Scheme s, std::uint64_t full_bytes,
                  std::uint64_t partial_bytes) {
    auto& c = per_scheme_[s];
    ++c.writes;
    c.bytes += full_bytes + partial_bytes;
    auto& t = files_[f.handle];
    t.last_scheme = s;
    t.full_bytes += full_bytes;
    t.partial_bytes += partial_bytes;
  }
  /// Called by Recovery::write, which holds the policy const (mutable
  /// storage, as for the erasure-coding counters below).
  void note_rmw(Scheme s, std::uint64_t groups) const {
    per_scheme_[s].rmw_groups += groups;
  }
  void note_overflow_bytes(Scheme s, std::uint64_t bytes) const {
    per_scheme_[s].overflow_bytes += bytes;
  }

  // --- erasure-coding telemetry ---
  // const (with mutable storage): Recovery instances hold the policy const —
  // they only ever *account* through it, never change routing state.
  // RAID4/RAID5/Hybrid parity runs through the same coded engine as
  // rs(N-1,1), but these counters count only files whose scheme is rs.
  void note_ec_degraded_read(Scheme s, std::uint64_t fragments,
                             std::uint64_t bytes) const {
    if (s.kind != SchemeKind::rs) return;
    ++ec_.degraded_reads;
    ec_.fragments_fetched += fragments;
    ec_.decode_bytes += bytes;
  }
  void note_ec_rebuild_decode(Scheme s, std::uint64_t fragments,
                              std::uint64_t bytes) const {
    if (s.kind != SchemeKind::rs) return;
    ++ec_.rebuild_decodes;
    ec_.fragments_fetched += fragments;
    ec_.decode_bytes += bytes;
  }
  void note_ec_encode(Scheme s, std::uint64_t bytes) const {
    if (s.kind == SchemeKind::rs) ec_.encode_bytes += bytes;
  }
  const EcStats& ec_stats() const { return ec_; }

  // --- migration bookkeeping (SchemeMigrator; it counts the attempts) ---
  /// A migration of `handle` began: recommend() never returns it again.
  void note_migration_started(std::uint64_t handle) {
    attempted_.insert(handle);
  }
  /// Exclude a handle the migrator cannot act on (it has no name/size for
  /// it, and recommend() would otherwise return the same handle forever).
  void dismiss(std::uint64_t handle) { attempted_.insert(handle); }

  /// One recommended transition, or nullopt. Deterministic: a pure function
  /// of the counters, scanning files in ascending handle order. A handle is
  /// recommended at most once (migration attempts are recorded).
  struct Transition {
    std::uint64_t handle = 0;
    Scheme from = Scheme::hybrid;
    Scheme to = Scheme::raid1;
  };
  std::optional<Transition> recommend() const;

  const std::map<Scheme, SchemeCounters>& per_scheme() const {
    return per_scheme_;
  }
  const PolicyStats& stats() const { return stats_; }

 private:
  struct Override {
    Scheme scheme = Scheme::hybrid;
    std::uint32_t red_gen = 0;
  };
  struct FileTelemetry {
    Scheme last_scheme = Scheme::hybrid;
    std::uint64_t full_bytes = 0;
    std::uint64_t partial_bytes = 0;
  };

  PolicyParams p_;
  std::map<std::uint64_t, Override> overrides_;
  std::map<std::uint64_t, FileTelemetry> files_;
  std::set<std::uint64_t> ever_hybrid_;
  std::set<std::uint64_t> attempted_;
  mutable std::map<Scheme, SchemeCounters> per_scheme_;
  PolicyStats stats_;
  mutable EcStats ec_;
};

}  // namespace csar::raid
