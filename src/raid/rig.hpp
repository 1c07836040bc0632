// Rig: a fully assembled CSAR deployment — simulation, cluster nodes,
// fabric, metadata manager, I/O servers and per-client CsarFs instances.
// Every test, benchmark and example builds one of these.
#pragma once

#include <cassert>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "hw/node.hpp"
#include "localfs/local_fs.hpp"
#include "net/fabric.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "pvfs/client.hpp"
#include "pvfs/io_server.hpp"
#include "pvfs/manager.hpp"
#include "raid/csar_fs.hpp"
#include "raid/policy.hpp"
#include "raid/recovery.hpp"
#include "raid/scheme.hpp"
#include "sim/simulation.hpp"

namespace csar::raid {

struct RigParams {
  hw::HwProfile profile = hw::profile_experimental2003();
  std::uint32_t nservers = 6;
  std::uint32_t nclients = 1;
  Scheme scheme = Scheme::hybrid;
  localfs::LocalFsParams fs;
  /// Server-side lock protocol switch (R5 NO LOCK also works client-side by
  /// not requesting locks; this hard-disables the server machinery).
  bool parity_locking = true;
  /// Parity-lock lease (see IoServerParams); 0 disables lease watchdogs.
  sim::Duration parity_lock_lease = sim::sec(1);
  /// Wire-level RPC batching (Op::batch coalescing of same-server requests
  /// and the per-parity-server batched lock+read phase). On by default;
  /// figure benches flip it off for the ablation baseline.
  bool rpc_batching = true;
  /// Default RPC policy installed on every client. The default is the
  /// legacy behaviour (wait forever, no retries); fault experiments set
  /// real deadlines + retry budgets here.
  pvfs::RpcPolicy rpc;
  /// Master seed for the clients' deterministic retry-jitter streams (each
  /// client gets its own derived stream so concurrent backoffs decorrelate
  /// but stay reproducible).
  std::uint64_t seed = 0x5EEDC5A2ULL;
  /// Per-file redundancy policy for the deployment: static path-prefix
  /// rules and the adaptive engine's knobs. The policy's default scheme is
  /// always overwritten with `scheme` above, so single-scheme setups keep
  /// configuring just that one field.
  PolicyParams policy;
  /// Metadata-manager durability knobs (journaling on by default; the A12
  /// ablation flips it off for the legacy in-memory baseline).
  pvfs::ManagerParams manager;
};

class Rig {
 public:
  explicit Rig(const RigParams& params)
      : p(params), cluster(sim, params.profile), fabric(cluster) {
    PolicyParams pol = params.policy;
    pol.default_scheme = params.scheme;
    policy_ = std::make_unique<RedundancyPolicy>(std::move(pol));
    const hw::NodeId manager_node = cluster.add_manager();
    manager = std::make_unique<pvfs::Manager>(cluster, fabric, manager_node,
                                              params.manager);
    manager->start();

    pvfs::IoServerParams sp;
    sp.fs = params.fs;
    sp.parity_locking = params.parity_locking;
    sp.parity_lock_lease = params.parity_lock_lease;
    for (std::uint32_t s = 0; s < params.nservers; ++s) {
      const hw::NodeId node = cluster.add_server();
      servers.push_back(
          std::make_unique<pvfs::IoServer>(cluster, fabric, node, s, sp));
      servers.back()->start();
    }
    std::vector<pvfs::IoServer*> server_ptrs;
    for (auto& s : servers) server_ptrs.push_back(s.get());

    Rng seeder(params.seed);
    for (std::uint32_t c = 0; c < params.nclients; ++c) {
      const hw::NodeId node = cluster.add_client();
      clients.push_back(std::make_unique<pvfs::Client>(
          cluster, fabric, *manager, server_ptrs, node));
      clients.back()->set_rpc_policy(params.rpc);
      clients.back()->set_rpc_batching(params.rpc_batching);
      clients.back()->seed_retry_rng(seeder.next());
      fs.push_back(std::make_unique<CsarFs>(
          *clients.back(), CsarParams{params.scheme, policy_.get()}));
    }
  }

  ~Rig() {
    // Drain dispatcher processes so their coroutine frames are destroyed
    // before the channels they await on.
    stop_all();
    sim.run();
    // An attached tracer outlives the rig (callers export it afterwards);
    // it must stop reading this simulation's clock.
    if (tracer_ != nullptr) tracer_->detach(sim);
  }

  /// A layout matching this rig's server count and scheme (RAID4 uses the
  /// fixed parity placement, everything else the rotating one).
  pvfs::StripeLayout layout(std::uint32_t stripe_unit) const {
    return pvfs::StripeLayout{stripe_unit, p.nservers,
                              placement_for(p.scheme)};
  }

  CsarFs& client_fs(std::uint32_t c = 0) { return *fs[c]; }
  pvfs::Client& client(std::uint32_t c = 0) { return *clients[c]; }
  pvfs::IoServer& server(std::uint32_t s) { return *servers[s]; }

  /// The deployment-wide per-file policy every CsarFs, Recovery and
  /// coordinator built from this rig routes through.
  RedundancyPolicy& policy() { return *policy_; }
  const RedundancyPolicy& policy() const { return *policy_; }

  Recovery recovery() { return Recovery(*clients[0], *policy_); }

  /// A dedicated repair client on its own node, created on first use.
  /// Rebuild/scrub traffic issued through it gets its own NIC and RPC
  /// policy instead of competing for client 0's deadlines mid-workload.
  pvfs::Client& repair_client() {
    if (!repair_client_) {
      std::vector<pvfs::IoServer*> server_ptrs;
      for (auto& s : servers) server_ptrs.push_back(s.get());
      const hw::NodeId node = cluster.add_client();
      repair_client_ = std::make_unique<pvfs::Client>(
          cluster, fabric, *manager, server_ptrs, node);
      repair_client_->set_rpc_batching(p.rpc_batching);
      repair_client_->seed_retry_rng(Rng(p.seed).next() ^ 0x9E8A17ULL);
      if (obs::kEnabled && tracer_ != nullptr) {
        tracer_->map_node(node, tracer_->process("repair"));
      }
      if (obs::kEnabled && (tracer_ != nullptr || metrics_ != nullptr)) {
        repair_client_->set_obs(tracer_, metrics_);
      }
    }
    return *repair_client_;
  }

  // --- observability ---
  /// Attach a tracer and/or metrics registry to the whole deployment: the
  /// tracer is attached to the simulation clock, gets one trace process per
  /// node (manager, server N, client N, and the repair client if it already
  /// exists — one created later maps itself), observes named simulator tasks,
  /// and is installed on the fabric, every client and every server. Either
  /// argument may be nullptr; call with both null to detach.
  void set_obs(obs::Tracer* tracer, obs::Registry* metrics) {
    tracer_ = tracer;
    metrics_ = metrics;
    if (obs::kEnabled && tracer != nullptr) {
      tracer->attach(sim);
      tracer->map_node(manager->node_id(), tracer->process("manager"));
      for (std::uint32_t s = 0; s < servers.size(); ++s) {
        tracer->map_node(servers[s]->node_id(),
                         tracer->process("server " + std::to_string(s)));
      }
      for (std::uint32_t c = 0; c < clients.size(); ++c) {
        tracer->map_node(clients[c]->node_id(),
                         tracer->process("client " + std::to_string(c)));
      }
      if (repair_client_) {
        tracer->map_node(repair_client_->node_id(), tracer->process("repair"));
      }
      sim.set_task_observer(tracer);
    } else {
      sim.set_task_observer(nullptr);
    }
    fabric.set_tracer(obs::kEnabled ? tracer : nullptr);
    manager->set_obs(tracer, metrics);
    for (auto& s : servers) s->set_obs(tracer, metrics);
    for (auto& c : clients) c->set_obs(tracer, metrics);
    if (repair_client_) repair_client_->set_obs(tracer, metrics);
  }
  obs::Tracer* tracer() { return obs::kEnabled ? tracer_ : nullptr; }
  obs::Registry* metrics() { return obs::kEnabled ? metrics_ : nullptr; }

  /// Publish every component's counters into `reg`, one counter per Stats
  /// field under its node's prefix: `server3.lock.waits`,
  /// `client0.rpc.sent`, `repair.rpc.retries`, `manager.served`,
  /// `ec.decode_bytes`. The structs are the store and name their own fields
  /// (for_each); durations are ns counts. Call after the workload finishes;
  /// the histograms are recorded live on the hot path.
  void export_metrics(obs::Registry& reg) {
    for (std::uint32_t s = 0; s < servers.size(); ++s) {
      const std::string node = "server" + std::to_string(s) + ".";
      reg.put(node + "lock.", servers[s]->lock_stats());
      reg.put(node + "batch.", servers[s]->batch_stats());
      hw::Node& n = cluster.node(servers[s]->node_id());
      if (n.cache() != nullptr) reg.put(node + "cache.", n.cache()->stats());
      if (n.disk() != nullptr) reg.put(node + "disk.", n.disk()->stats());
    }
    for (std::uint32_t c = 0; c < clients.size(); ++c) {
      const std::string node = "client" + std::to_string(c) + ".";
      reg.put(node + "rpc.", clients[c]->rpc_stats());
      reg.put(node + "failover.", fs[c]->failover_stats());
    }
    if (repair_client_) reg.put("repair.rpc.", repair_client_->rpc_stats());
    reg.put("manager.", manager->stats());
    reg.put("manager.journal.", manager->journal_stats());
    reg.put("policy.", policy_->stats());
    reg.put("ec.", policy_->ec_stats());
  }

  Recovery repair_recovery() {
    return Recovery(repair_client(), *policy_);
  }

  /// Drop every server's page cache (the paper's "contents removed from the
  /// cache" overwrite setup). Flush first for a realistic state.
  void drop_all_caches() {
    for (auto& s : servers) s->fs().drop_caches();
  }

  void stop_all() {
    if (stopped_) return;
    stopped_ = true;
    for (auto& s : servers) s->stop();
    manager->stop();
  }

  RigParams p;
  sim::Simulation sim;
  hw::Cluster cluster;
  net::Fabric fabric;
  std::unique_ptr<pvfs::Manager> manager;
  std::vector<std::unique_ptr<pvfs::IoServer>> servers;
  std::vector<std::unique_ptr<pvfs::Client>> clients;
  std::vector<std::unique_ptr<CsarFs>> fs;

 private:
  std::unique_ptr<RedundancyPolicy> policy_;
  std::unique_ptr<pvfs::Client> repair_client_;
  obs::Tracer* tracer_ = nullptr;     ///< not owned; see set_obs
  obs::Registry* metrics_ = nullptr;  ///< not owned; see set_obs
  bool stopped_ = false;
};

}  // namespace csar::raid
