// Client: the PVFS client library.
//
// Resolves striping and talks directly to the I/O servers. This class is
// scheme-agnostic: it provides metadata ops, the plain striped (RAID0) data
// path, and the per-server RPC building blocks the redundancy schemes in
// csar::raid compose (parity reads with locking, overflow writes, etc.).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/buffer.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"
#include "hw/node.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pvfs/io_server.hpp"
#include "pvfs/layout.hpp"
#include "pvfs/manager.hpp"
#include "sim/task.hpp"

namespace csar::pvfs {

/// Per-RPC robustness policy. The default (timeout 0, one attempt) is the
/// legacy behaviour: wait forever, never retry — heavy-load experiments
/// legitimately queue RPCs for many simulated seconds, so deadlines are
/// strictly opt-in. Fault-aware setups (Rig rpc policy, HealthMonitor
/// probes, the fault-storm harness) configure real deadlines.
struct RpcPolicy {
  /// Per-attempt deadline on the simulated clock; 0 = wait forever.
  sim::Duration timeout = 0;
  /// Total send attempts (1 = no retry).
  std::uint32_t max_attempts = 1;
  /// Backoff before retry k (1-based) is `backoff << (k-1)` plus jitter.
  sim::Duration backoff = sim::ms(5);
  /// Uniform jitter fraction of the backoff, drawn from the client's
  /// deterministic Rng: pause += U[0, jitter) * pause.
  double jitter = 0.5;
};

/// Counters for the client's RPC engine (retry/timeout observability).
struct RpcStats {
  std::uint64_t sent = 0;      ///< attempts that reached the fabric
  std::uint64_t retries = 0;   ///< attempts after the first
  std::uint64_t timeouts = 0;  ///< attempts that hit their deadline
  std::uint64_t resets = 0;    ///< attempts refused by the fabric (reset)

  template <class Fn>
  void for_each(Fn fn) const {
    fn("sent", sent);
    fn("retries", retries);
    fn("timeouts", timeouts);
    fn("resets", resets);
  }
};

class Client {
 public:
  Client(hw::Cluster& cluster, net::Fabric& fabric, Manager& manager,
         std::vector<IoServer*> servers, hw::NodeId node)
      : cluster_(&cluster),
        fabric_(&fabric),
        manager_(&manager),
        servers_(std::move(servers)),
        node_(node) {}
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  hw::NodeId node_id() const { return node_; }
  std::uint32_t nservers() const {
    return static_cast<std::uint32_t>(servers_.size());
  }
  hw::Cluster& cluster() { return *cluster_; }
  net::Fabric& fabric() { return *fabric_; }
  IoServer& server(std::uint32_t s) { return *servers_[s]; }

  // --- metadata ---
  /// `scheme` is an opaque per-file tag the manager stores alongside the
  /// layout (raid::RedundancyPolicy assigns it at create; kSchemeUnset =
  /// the file inherits the deployment default).
  sim::Task<Result<OpenFile>> create(std::string name, StripeLayout layout,
                                     std::uint8_t scheme = kSchemeUnset);
  sim::Task<Result<OpenFile>> open(std::string name);
  sim::Task<Result<void>> remove(std::string name);
  /// Persist the file's redundancy descriptor at the manager: its scheme
  /// tag and redundancy generation (a migration's flip) and its redundancy
  /// class (the fleet layer's rgroup). kSchemeUnset keeps the scheme and
  /// generation (`red_gen` is ignored), kRgroupUnset keeps the class. A
  /// generation below the file's fails with Errc::stale_generation; an
  /// unchanged descriptor journals nothing. A nonzero `fence_epoch`
  /// executes only against that manager incarnation (Errc::stale_epoch
  /// otherwise), so a migrator's pre-crash flip cannot clobber replayed
  /// state.
  sim::Task<Result<OpenFile>> set_redundancy(
      std::string name, std::uint8_t scheme, std::uint32_t red_gen,
      std::uint8_t rgroup, std::uint32_t fence_epoch = 0);

  /// Latest manager incarnation observed in any meta reply (0 = none yet).
  std::uint32_t manager_epoch() const { return mgr_epoch_seen_; }

  /// Default policy for every rpc()/meta_rpc() issued by this client.
  void set_rpc_policy(const RpcPolicy& p) { policy_ = p; }
  const RpcPolicy& rpc_policy() const { return policy_; }

  /// Reseed the deterministic backoff-jitter stream (Rig seeds one stream
  /// per client so concurrent retries stay decorrelated but reproducible).
  void seed_retry_rng(std::uint64_t seed) { rng_.reseed(seed); }

  const RpcStats& rpc_stats() const { return rpc_stats_; }

  /// Fresh identity for one parity read-modify-write: tags its locked
  /// read_red, the paired unlocking write_red, and any abandon-time
  /// unlock_red, so server-side lock ownership survives lost grant replies
  /// (retries re-enter instead of queueing behind themselves).
  std::uint64_t next_rmw_token() { return ++rmw_seq_; }

  // --- observability ---
  /// Attach (or clear) the tracer / metrics registry. Caches the metric
  /// handles so the hot path never does a name lookup.
  void set_obs(obs::Tracer* tracer, obs::Registry* metrics);
  obs::Tracer* tracer() { return tracer_; }
  std::uint32_t obs_pid() const { return pid_; }

  /// Ambient parent span for RPC spans issued while it is set — the
  /// filesystem layer (raid::CsarFs) brackets each op with one span and
  /// publishes it here so per-server RPCs nest under the op.
  void set_ambient_span(obs::SpanId s) { ambient_ = s; }
  obs::SpanId ambient_span() const { return ambient_; }

  // --- RPC building block ---
  /// Send `r` to server `s`, charging the network both ways; returns the
  /// server's response (under the client's default policy).
  sim::Task<Response> rpc(std::uint32_t s, Request r);

  /// Like rpc() but with an explicit policy (health probes use short
  /// deadlines regardless of the client-wide default). On timeout after the
  /// last attempt the response is synthesized with Errc::timeout; a fabric
  /// reset after the last attempt yields Errc::conn_dropped. Late replies
  /// from earlier attempts of the same call are accepted (all I/O server
  /// ops are idempotent).
  sim::Task<Response> rpc(std::uint32_t s, Request r, RpcPolicy policy);

  /// Wire-level batching switch (RigParams::rpc_batching). When on,
  /// rpc_batch() really coalesces and rpc_all() auto-batches same-server
  /// same-connection requests; when off both degrade to one RPC per request
  /// (the ablation baseline — identical wire traffic to the legacy path).
  void set_rpc_batching(bool on) { batching_ = on; }
  bool rpc_batching() const { return batching_; }

  /// Send `subs` to server `s` as one Op::batch envelope (a single fabric
  /// transfer each way); the server executes them in order over one channel.
  /// Returns one response per sub, in order, each with `server` filled. A
  /// failure of the envelope itself (timeout, reset, refused server) is
  /// replicated onto every sub-response. With batching disabled — or a
  /// single sub — this degrades to plain rpc() per request, sequentially.
  sim::Task<std::vector<Response>> rpc_batch(std::uint32_t s,
                                             std::vector<Request> subs);
  sim::Task<std::vector<Response>> rpc_batch(std::uint32_t s,
                                             std::vector<Request> subs,
                                             RpcPolicy policy);

  /// Issue all requests concurrently; responses returned in request order.
  /// With batching enabled, redundancy-class requests (parity/mirror ops —
  /// small, header-dominated) to the same server are coalesced into one
  /// Op::batch envelope; bulk payload requests always travel as their own
  /// message so their responses pipeline.
  sim::Task<std::vector<Response>> rpc_all(
      std::vector<std::pair<std::uint32_t, Request>> requests);

  // --- plain striped data path (PVFS semantics; RAID0) ---
  /// Write `data` at `off`, striped across the I/O servers, no redundancy.
  sim::Task<Result<void>> write_striped(const OpenFile& f, std::uint64_t off,
                                        const Buffer& data);

  /// Read `len` bytes at `off`; unwritten regions read as zeros. Servers
  /// return their newest copy (overflow regions included), so this is the
  /// read path for every redundancy scheme in normal (non-degraded) mode.
  sim::Task<Result<Buffer>> read(const OpenFile& f, std::uint64_t off,
                                 std::uint64_t len);

  /// fsync all servers (the paper reports post-flush bandwidths).
  sim::Task<Result<void>> flush(const OpenFile& f);

  /// Per-server storage breakdown for a handle, summed (Table 2).
  sim::Task<StorageInfo> storage(const OpenFile& f);

  /// Gather the bytes of `data` (placed at file offset `off`) that land on
  /// server `s`, in server-local order — the payload of one merged write,
  /// as runs over `data`'s bytes (nothing is copied).
  static Buffer gather_for_server(const StripeLayout& layout,
                                  std::uint64_t off, const Buffer& data,
                                  std::uint32_t s);

 private:
  /// Manager RPC under the client-wide policy; a failed call carries the
  /// last attempt's error, as rpc() does.
  sim::Task<MetaResponse> meta_rpc(MetaRequest r);
  /// Backoff before send attempt `attempt` (2-based), jittered from rng_.
  sim::Duration backoff_pause(const RpcPolicy& policy, std::uint32_t attempt);

  /// All attempts of one rpc() call, against the given reply channel. Split
  /// out so rpc() can recycle the channel after this frame (and with it the
  /// request's reply reference) is gone.
  sim::Task<Response> rpc_attempts(std::uint32_t s, Request r,
                                   RpcPolicy policy,
                                   std::shared_ptr<sim::Channel<Response>> ch);

  /// Reply-channel pool. Every data RPC needs a fresh-looking channel, but
  /// a heap Channel per call is the hottest allocation in the stack; a
  /// channel is recycled once it is uniquely owned (no server holds the
  /// request any more, so no late reply can ever reach it) and drained.
  std::shared_ptr<sim::Channel<Response>> acquire_reply_channel();
  void recycle_reply_channel(std::shared_ptr<sim::Channel<Response>> ch);

  /// Whether some server receives two redundancy-class requests, i.e.
  /// whether rpc_all's batching would build a multi-request envelope.
  bool shares_redundancy_server(
      const std::vector<std::pair<std::uint32_t, Request>>& requests);

  hw::Cluster* cluster_;
  net::Fabric* fabric_;
  Manager* manager_;
  std::vector<IoServer*> servers_;
  hw::NodeId node_;
  RpcPolicy policy_{};
  RpcStats rpc_stats_{};
  bool batching_ = true;
  /// Per-client id for mutating meta ops; identical across retries of one
  /// logical call so the manager can dedup (see MetaRequest::req_id).
  std::uint64_t meta_req_seq_ = 0;
  std::uint64_t rmw_seq_ = 0;  ///< see next_rmw_token()
  std::uint32_t mgr_epoch_seen_ = 0;
  /// Recycled reply channels (each entry uniquely owned and empty).
  std::vector<std::shared_ptr<sim::Channel<Response>>> reply_pool_;
  /// Per-server scratch flags for shares_redundancy_server (all zero
  /// between calls).
  std::vector<std::uint8_t> red_seen_;
  Rng rng_{0xC5A2F001ULL};  ///< backoff jitter; reseed via seed_retry_rng

  // Observability (all null/0 when detached; see set_obs).
  obs::Tracer* tracer_ = nullptr;
  obs::Registry* metrics_ = nullptr;
  std::uint32_t pid_ = 0;          ///< this client's trace process
  obs::SpanId ambient_ = 0;        ///< see set_ambient_span
  obs::Histogram* rpc_hist_ = nullptr;    ///< client.rpc_ns
  obs::Histogram* batch_hist_ = nullptr;  ///< client.batch_subs
};

}  // namespace csar::pvfs
