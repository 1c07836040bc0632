#include "pvfs/io_server.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/small_vec.hpp"
#include "common/units.hpp"
#include "sim/time.hpp"

namespace csar::pvfs {

const char* op_name(Op op) {
  switch (op) {
    case Op::read_data:
      return "read_data";
    case Op::write_data:
      return "write_data";
    case Op::read_red:
      return "read_red";
    case Op::write_red:
      return "write_red";
    case Op::write_overflow:
      return "write_overflow";
    case Op::read_data_raw:
      return "read_data_raw";
    case Op::read_mirror:
      return "read_mirror";
    case Op::read_own_overflow:
      return "read_own_overflow";
    case Op::flush:
      return "flush";
    case Op::storage_query:
      return "storage_query";
    case Op::compact_overflow:
      return "compact_overflow";
    case Op::remove_file:
      return "remove_file";
    case Op::unlock_red:
      return "unlock_red";
    case Op::batch:
      return "batch";
    case Op::ping:
      return "ping";
    case Op::drop_red:
      return "drop_red";
    case Op::shutdown:
      return "shutdown";
  }
  return "?";
}

IoServer::IoServer(hw::Cluster& cluster, net::Fabric& fabric, hw::NodeId node,
                   std::uint32_t server_index, const IoServerParams& params)
    : cluster_(&cluster),
      fabric_(&fabric),
      node_(node),
      index_(server_index),
      p_(params),
      inbox_(cluster.sim()),
      fs_(cluster.sim(), *cluster.node(node).cache(), params.fs),
      iod_(cluster.sim(), cluster.node(node).params().iod_bytes_per_sec,
           cluster.node(node).params().iod_per_op) {
  assert(cluster.node(node).cache() != nullptr &&
         "I/O servers need a disk+cache node");
}

void IoServer::set_obs(obs::Tracer* tracer, obs::Registry* metrics) {
  tracer_ = tracer;
  metrics_ = metrics;
  pid_ = tracer != nullptr ? tracer->node_pid(node_) : 0;
  if (metrics != nullptr) {
    req_hist_ = &metrics->histogram("server.req_ns");
    lock_hist_ = &metrics->histogram("server.lock_wait_ns");
    batch_hist_ =
        &metrics->histogram("server.batch_subs", obs::Histogram::size_bounds());
  } else {
    req_hist_ = nullptr;
    lock_hist_ = nullptr;
    batch_hist_ = nullptr;
  }
}

void IoServer::start() {
  if (started_) return;
  started_ = true;
  cluster_->sim().spawn(dispatcher());
}

void IoServer::stop() {
  Request r;
  r.op = Op::shutdown;
  inbox_.send(std::move(r));
}

sim::Task<void> IoServer::dispatcher() {
  for (;;) {
    Request r = co_await inbox_.recv();
    if (r.op == Op::shutdown) break;
    // A crashed daemon consumes nothing: requests vanish without an answer
    // and the sender's RPC deadline is the only way to notice.
    if (crashed_) continue;
    cluster_->sim().spawn(handle(std::move(r)));
  }
}

sim::BandwidthServer& IoServer::stream_for(hw::NodeId client,
                                           bool redundancy) {
  auto& stream =
      streams_[static_cast<std::uint64_t>(client) << 1 | (redundancy ? 1 : 0)];
  if (stream == nullptr) {
    const auto& params = cluster_->node(node_).params();
    const double rate = redundancy ? params.red_stream_bytes_per_sec
                                   : params.stream_bytes_per_sec;
    stream = std::make_unique<sim::BandwidthServer>(cluster_->sim(), rate);
  }
  return *stream;
}

localfs::LocalFs::FileRef IoServer::file_of(std::uint64_t h, FileKind kind,
                                            std::uint32_t gen, bool create) {
  localfs::LocalFs::FileRef* cached = nullptr;
  if (HandleState* hs = state(h)) {
    switch (kind) {
      case FileKind::data:
        cached = &hs->data_file;
        break;
      case FileKind::red:
        if (hs->red_file_gen != gen) {
          hs->red_file = nullptr;
          hs->red_file_gen = gen;
        }
        cached = &hs->red_file;
        break;
      case FileKind::ovfl:
        cached = &hs->ovfl_file;
        break;
    }
    if (*cached != nullptr && (*cached)->linked) return *cached;
  }
  const std::string name = kind == FileKind::data  ? data_name(h)
                           : kind == FileKind::red ? red_name(h, gen)
                                                   : ovfl_name(h);
  auto f = create ? fs_.open(name) : fs_.lookup(name);
  if (cached != nullptr) *cached = f;
  return f;
}

sim::Task<void> IoServer::reply(const Request& r, Response resp,
                                std::uint64_t epoch) {
  if (epoch != epoch_) co_return;  // crashed since the request was accepted
  const auto d = co_await fabric_->transfer(node_, r.from, resp.wire_bytes());
  if (epoch != epoch_) co_return;  // crashed while the reply was in flight
  if (d == net::Delivery::ok) r.reply->send(std::move(resp));
}

void IoServer::apply_invalidation(const Request& r) {
  if (r.inval_own.empty() && r.inval_mirror.empty()) return;
  HandleState& hs = *state_ref(r.handle);
  if (!r.inval_own.empty()) hs.own.erase(r.inval_own.start, r.inval_own.end);
  if (!r.inval_mirror.empty()) {
    hs.mirror.erase(r.inval_mirror.start, r.inval_mirror.end);
  }
}

sim::Task<bool> IoServer::lock_parity(std::uint64_t key, hw::NodeId from,
                                      std::uint64_t token, obs::Ctx ctx) {
  auto& lk = locks_[key];
  if (!lk.held) {
    lk.held = true;
    lk.owner = from;
    lk.owner_token = token;
    ++lk.gen;
    lk.acquired_at = cluster_->sim().now();
    ++lock_stats_.acquisitions;
    if (obs::kEnabled && lock_hist_ != nullptr) lock_hist_->add(0);
    co_return true;
  }
  if (lk.owner == from && token != 0 && lk.owner_token == token) {
    // Same RMW re-requesting its own lock: the grant reply to an earlier
    // attempt was lost in flight and the client retried. Re-enter rather
    // than queue — a waiter entry for an op that already owns the lock can
    // only be satisfied by abandonment, and once granted it would hold the
    // block as a zombie for a full lease. Fresh acquisition time (and a gen
    // bump to invalidate any armed watchdog): the RMW is demonstrably live.
    ++lk.gen;
    lk.acquired_at = cluster_->sim().now();
    ++lock_stats_.reentries;
    if (obs::kEnabled && lock_hist_ != nullptr) lock_hist_->add(0);
    co_return true;
  }
  // §5.1: queue behind the in-flight read-modify-write. Arm the lease
  // watchdog: if the holder abandoned its RMW (client death, RPC timeout),
  // the queue would otherwise never drain.
  ++lock_stats_.waits;
  LockWaiter w;
  w.from = from;
  w.token = token;
  w.enq = cluster_->sim().now();
  lk.waiting.push_back(&w);
  arm_lease(key, lk);
  obs::Span span;
  if (obs::kEnabled && ctx.t != nullptr) {
    span = ctx.t->span(ctx.pid, ctx.tid, "lock_wait", "lock", ctx.parent,
                       {{"key", key}});
  }
  struct Park {
    LockWaiter* w;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) const noexcept { w->h = h; }
    bool await_resume() const noexcept { return w->granted; }
  };
  const bool granted = co_await Park{&w};
  if (obs::kEnabled && lock_hist_ != nullptr) {
    lock_hist_->add(
        static_cast<std::uint64_t>(cluster_->sim().now() - w.enq));
  }
  co_return granted;
}

void IoServer::pass_or_release(std::uint64_t key, ParityLock& lk) {
  ++lk.gen;  // ownership changes either way; invalidates a pending watchdog
  if (lk.waiting.empty()) {
    lk.held = false;
    lk.owner = 0;
    lk.owner_token = 0;
    return;
  }
  // Hand the lock to the first queued waiter and resume its acquirer.
  LockWaiter* w = lk.waiting.front();
  lk.waiting.pop_front();
  lock_stats_.wait_time += cluster_->sim().now() - w->enq;
  ++lock_stats_.acquisitions;
  lk.owner = w->from;
  lk.owner_token = w->token;
  lk.acquired_at = cluster_->sim().now();
  if (!lk.waiting.empty()) arm_lease(key, lk);  // new holder, fresh lease
  w->granted = true;
  cluster_->sim().schedule_now(w->h);
}

void IoServer::fail_waiters(ParityLock& lk) {
  for (LockWaiter* w : lk.waiting) {
    w->granted = false;
    cluster_->sim().schedule_now(w->h);
  }
  lk.waiting.clear();
}

void IoServer::drop_all_locks() {
  locks_.for_each([this](std::uint64_t, ParityLock& lk) { fail_waiters(lk); });
  locks_.clear();
}

void IoServer::arm_lease(std::uint64_t key, ParityLock& lk) {
  if (p_.parity_lock_lease == 0 || lk.armed_gen == lk.gen) return;
  lk.armed_gen = lk.gen;
  cluster_->sim().spawn(lease_reaper(key, lk.gen, epoch_,
                                     lk.acquired_at + p_.parity_lock_lease));
}

sim::Task<void> IoServer::lease_reaper(std::uint64_t key, std::uint64_t gen,
                                       std::uint64_t epoch,
                                       sim::Time deadline) {
  co_await cluster_->sim().sleep_until(deadline);
  // A crash cleared the lock table (and a post-crash lock at the same key
  // restarts its generations), so the epoch guards against misfiring on an
  // unrelated successor lock.
  if (epoch != epoch_) co_return;
  ParityLock* lk = locks_.find(key);
  if (lk == nullptr || !lk->held || lk->gen != gen) co_return;
  ++lock_stats_.lease_expirations;
  pass_or_release(key, *lk);
}

namespace {

/// Ops a fenced (blank-disk, not yet rebuilt) server must refuse: anything
/// that observes content or answers probes.
bool fence_refused(Op op) {
  switch (op) {
    case Op::read_data:
    case Op::read_red:
    case Op::read_data_raw:
    case Op::read_mirror:
    case Op::read_own_overflow:
    case Op::storage_query:
    case Op::ping:
      return true;
    default:
      return false;
  }
}

/// iod dispatch-loop cost of one request (bytes moved through the daemon).
std::uint64_t iod_cost(const Request& r) {
  if (r.op != Op::batch) return std::max(r.wire_bytes(), r.len);
  std::uint64_t total = 0;
  for (const auto& s : r.subs) total += std::max(s.wire_bytes(), s.len);
  return total;
}

}  // namespace

sim::Task<void> IoServer::handle(Request r) {
  const std::uint64_t epoch = epoch_;
  if (failed_) {
    Response resp;
    resp.ok = false;
    resp.err = Errc::server_failed;
    co_await reply(r, std::move(resp), epoch);
    co_return;
  }
  if (fenced_) {
    // Rejoined on a blank replacement disk, not yet rebuilt: serving a read
    // would return zeros as if they were data. Refuse everything that
    // observes content (clients fail over to the redundancy) but admit
    // writes, so the rebuild — and any concurrent client write, which is
    // then simply newer than the rebuild copy — can land. A batch is
    // refused whole if any of its subs observes content: a partial batch
    // would complicate the client's retry story for no benefit.
    bool refuse = fence_refused(r.op);
    if (r.op == Op::batch) {
      for (const auto& s : r.subs) refuse = refuse || fence_refused(s.op);
    }
    if (refuse) {
      Response resp;
      resp.ok = false;
      resp.err = Errc::server_failed;
      co_await reply(r, std::move(resp), epoch);
      co_return;
    }
  }
  // The handling span parents under the client's rpc span (r.tspan rode the
  // request over); every stage span below shares its lane via `ctx`.
  obs::Span span;
  obs::Ctx ctx;
  if (obs::kEnabled && tracer_ != nullptr) {
    span = tracer_->task_span(pid_, "req", op_name(r.op), "server", r.tspan,
                              {{"handle", r.handle}});
    ctx = obs::Ctx{tracer_, span.pid(), span.tid(), span.id()};
  }
  const sim::Time t0 = cluster_->sim().now();
  // Every request passes through the single-process iod dispatch loop;
  // under bursts, small parity operations queue behind bulk data here. A
  // batch is charged the sum of its subs' bytes but only one dispatch pass —
  // the per-message overhead batching exists to amortize.
  {
    obs::Span q;
    if (obs::kEnabled && ctx.t != nullptr) {
      q = ctx.t->span(ctx.pid, ctx.tid, "iod_queue", "server", ctx.parent);
    }
    co_await iod_.transfer(iod_cost(r));
  }
  if (r.op == Op::shutdown) co_return;  // handled by the dispatcher
  Response resp;
  if (r.op == Op::batch) {
    resp = co_await exec_batch(r, ctx);
  } else {
    resp = co_await exec_one(r, /*prelocked=*/false, ctx);
  }
  if (obs::kEnabled && req_hist_ != nullptr) {
    req_hist_->add(static_cast<std::uint64_t>(cluster_->sim().now() - t0));
  }
  co_await reply(r, std::move(resp), epoch);
}

sim::Task<Response> IoServer::exec_one(const Request& r, bool prelocked,
                                       obs::Ctx ctx) {
  switch (r.op) {
    case Op::read_data:
      co_return co_await do_read_data(r, ctx);
    case Op::write_data:
      co_return co_await do_write_data(r, ctx);
    case Op::read_red: {
      if (p_.parity_locking && r.lock && !prelocked) {
        const std::uint64_t key = lock_key(r.handle, r.off, r.su);
        const bool got = co_await lock_parity(key, r.from, r.rmw_token, ctx);
        if (!got) {
          // The lock vanished while we were queued (file removed, crash):
          // answer not_found so the client does not hang.
          Response resp;
          resp.ok = false;
          resp.err = Errc::not_found;
          co_return resp;
        }
      }
      co_return co_await do_read_red(r, ctx);
    }
    case Op::write_red: {
      Response resp = co_await do_write_red(r, ctx);
      // Release as soon as the parity write is applied; the ack to the
      // writer is asynchronous and need not extend the critical section.
      if (p_.parity_locking && r.unlock) {
        const std::uint64_t key = lock_key(r.handle, r.off, r.su);
        ParityLock* lk = locks_.find(key);
        // A crash wipes the lock table: a writer that acquired the lock
        // before the crash legitimately unlocks a lock we no longer hold.
        // Forgetting a lock is safe (the RMW it protected was fenced by the
        // epoch check), so treat the orphan unlock as a no-op. A tagged
        // unlock whose token no longer matches is a duplicate retry of an
        // already-released RMW — it must not release the lock a newer RMW
        // now holds.
        if (lk != nullptr && lk->held &&
            (r.rmw_token == 0 || lk->owner_token == r.rmw_token)) {
          pass_or_release(key, *lk);
        }
      }
      co_return resp;
    }
    case Op::unlock_red: {
      // Explicit release without a parity write: sent by a client abandoning
      // its RMW (its locked read_red timed out). The client cannot know
      // whether that read ever granted the lock, so the release is only
      // honoured when this client is the recorded owner — releasing some
      // other writer's lock would break the critical section.
      if (p_.parity_locking) {
        const std::uint64_t key = lock_key(r.handle, r.off, r.su);
        ParityLock* lk = locks_.find(key);
        if (lk != nullptr && lk->held && lk->owner == r.from &&
            (r.rmw_token == 0 || lk->owner_token == r.rmw_token)) {
          ++lock_stats_.explicit_releases;
          pass_or_release(key, *lk);
        }
      }
      co_return Response{};
    }
    case Op::write_overflow:
      co_return co_await do_write_overflow(r);
    case Op::read_data_raw:
      co_return co_await do_read_data_raw(r);
    case Op::read_mirror:
      co_return co_await read_overflow_pieces(r, /*mirror=*/true);
    case Op::read_own_overflow:
      co_return co_await read_overflow_pieces(r, /*mirror=*/false);
    case Op::flush: {
      co_await fs_.flush();
      co_return Response{};
    }
    case Op::compact_overflow:
      co_return co_await do_compact_overflow(r);
    case Op::remove_file: {
      fs_.remove(data_name(r.handle));
      fs_.remove(ovfl_name(r.handle));
      const HandleState* hs = state(r.handle);
      const std::uint32_t max_gen = hs == nullptr ? 0 : hs->max_red_gen;
      for (std::uint32_t g = 0; g <= max_gen; ++g) {
        fs_.remove(red_name(r.handle, g));
      }
      handles_.erase(r.handle);
      // Drop any parity locks of the dead handle; parked acquirers are
      // woken un-granted and answer not_found so their clients do not hang.
      locks_.erase_if([&](std::uint64_t key, ParityLock& lk) {
        if (key / 0x40000000ULL != r.handle) return false;
        fail_waiters(lk);
        return true;
      });
      co_return Response{};
    }
    case Op::storage_query: {
      Response resp;
      resp.storage.data_bytes = fs_.size(data_name(r.handle));
      const HandleState* hs = state(r.handle);
      const std::uint32_t max_gen = hs == nullptr ? 0 : hs->max_red_gen;
      for (std::uint32_t g = 0; g <= max_gen; ++g) {
        resp.storage.red_bytes += fs_.size(red_name(r.handle, g));
      }
      resp.storage.overflow_bytes = hs == nullptr ? 0 : hs->overflow_alloc;
      co_return resp;
    }
    case Op::ping:
      co_return Response{};
    case Op::drop_red: {
      // Migration GC: the old generation's redundancy is garbage once the
      // file's scheme flipped; dropping it is idempotent.
      fs_.remove(red_name(r.handle, r.red_gen));
      if (HandleState* hs = state(r.handle);
          hs != nullptr && hs->red_file_gen == r.red_gen) {
        hs->red_file = nullptr;  // let the unlinked file go now
      }
      co_return Response{};
    }
    case Op::batch:
    case Op::shutdown:
      break;  // batches never nest; shutdown is the dispatcher's
  }
  Response bad;
  bad.ok = false;
  bad.err = Errc::invalid_argument;
  co_return bad;
}

sim::Task<Response> IoServer::exec_batch(Request& r, obs::Ctx ctx) {
  ++batch_stats_.batches;
  batch_stats_.subs += r.subs.size();
  if (obs::kEnabled && batch_hist_ != nullptr) {
    batch_hist_->add(static_cast<std::uint64_t>(r.subs.size()));
  }
  // Sub-requests inherit the envelope's sender: owner tagging, stream
  // pacing and lock bookkeeping all go by `from`. The envelope is this
  // handler's own copy, so the subs are stamped in place.
  std::vector<Request>& subs = r.subs;
  for (auto& s : subs) s.from = r.from;

  // Acquire every parity lock the batch needs up front, in ascending key
  // (== ascending group) order — not lazily in execution order. Two batches
  // contending on this server therefore cannot interleave their
  // acquisitions out of order, and since clients visit parity servers in
  // ascending min-group order, the global acquisition order stays
  // consistent with §5.1's deadlock-avoidance rule.
  SmallVec<std::pair<std::uint64_t, std::size_t>, 8> lock_plan;
  if (p_.parity_locking) {
    for (std::size_t i = 0; i < subs.size(); ++i) {
      if (subs[i].op == Op::read_red && subs[i].lock) {
        lock_plan.emplace_back(
            lock_key(subs[i].handle, subs[i].off, subs[i].su), i);
      }
    }
    std::sort(lock_plan.begin(), lock_plan.end());
  }
  // Per sub: 1 = lock taken up front, 2 = its lock vanished while queued.
  SmallVec<char, 16> lock_state;
  for (std::size_t i = 0; i < subs.size(); ++i) lock_state.push_back(0);
  for (const auto& [key, i] : lock_plan) {
    const bool got =
        co_await lock_parity(key, subs[i].from, subs[i].rmw_token, ctx);
    lock_state[i] = got ? 1 : 2;
  }

  Response env;
  env.subs.resize(subs.size());
  for (std::size_t i = 0; i < subs.size(); ++i) {
    if (lock_state[i] == 2) {
      env.subs[i].ok = false;
      env.subs[i].err = Errc::not_found;
      continue;
    }
    // Merge a run of adjacent same-op reads of one file into a single
    // page-cache access: one covering read (one miss run on the disk for
    // cold pages) sliced back into per-sub responses.
    if (subs[i].op == Op::read_red || subs[i].op == Op::read_data_raw) {
      std::size_t j = i + 1;
      std::uint64_t end = subs[i].off + subs[i].len;
      while (j < subs.size() && subs[j].op == subs[i].op &&
             subs[j].handle == subs[i].handle && subs[j].off == end &&
             subs[j].red_gen == subs[i].red_gen && lock_state[j] != 2) {
        end += subs[j].len;
        ++j;
      }
      if (j > i + 1) {
        Request merged = subs[i];
        merged.len = end - merged.off;
        Response big;
        if (merged.op == Op::read_red) {
          big = co_await do_read_red(merged, ctx);
        } else {
          big = co_await do_read_data_raw(merged);
        }
        batch_stats_.merged_reads += (j - i) - 1;
        std::uint64_t pos = 0;
        for (std::size_t k = i; k < j; ++k) {
          env.subs[k].ok = big.ok;
          env.subs[k].err = big.err;
          if (big.ok || big.data.size() == merged.len) {
            env.subs[k].data = big.data.slice(pos, subs[k].len);
          }
          pos += subs[k].len;
        }
        i = j - 1;
        continue;
      }
    }
    env.subs[i] = co_await exec_one(subs[i], lock_state[i] == 1, ctx);
  }
  co_return env;
}

namespace {

/// One overlay piece copied out of an overflow table: the clipped local
/// range [start, end) and its content's offset in the overflow file.
struct OverflowPlanPiece {
  std::uint64_t start;
  std::uint64_t end;
  std::uint64_t src;
};

/// The pieces of `table` over [off, off+len). Copied out *before* any
/// await: a concurrent full-stripe write may invalidate entries while the
/// overflow file is being read.
template <class Table>
SmallVec<OverflowPlanPiece, 4> overflow_plan(const Table& table,
                                             std::uint64_t off,
                                             std::uint64_t len) {
  SmallVec<OverflowPlanPiece, 4> plan;
  for (const auto& chunk : table.query(off, off + len)) {
    plan.push_back({chunk.start, chunk.end,
                    *chunk.value + (chunk.start - chunk.entry_start)});
  }
  return plan;
}

}  // namespace

sim::Task<Response> IoServer::do_read_data(const Request& r, obs::Ctx ctx) {
  obs::Span span;
  if (obs::kEnabled && ctx.t != nullptr) {
    span = ctx.t->span(ctx.pid, ctx.tid, "read_data", "disk", ctx.parent,
                       {{"off", r.off}, {"len", r.len}});
  }
  Response resp;
  auto base_out = co_await fs_.read_checked(
      file_of(r.handle, FileKind::data, 0, false), r.off, r.len);
  bool media_error = base_out.media_error;
  Buffer base = std::move(base_out.data);
  // Overlay live overflow entries: the overflow region holds the newest copy
  // of partially-written stripes (§4, Hybrid reads).
  const HandleState* hs = state(r.handle);
  if (hs != nullptr && !hs->own.empty()) {
    for (const auto& mp : overflow_plan(hs->own, r.off, r.len)) {
      auto piece_out = co_await fs_.read_checked(
          file_of(r.handle, FileKind::ovfl, 0, false), mp.src,
          mp.end - mp.start, base.materialized());
      media_error = media_error || piece_out.media_error;
      Buffer piece = std::move(piece_out.data);
      if (base.materialized() && piece.materialized()) {
        base.write_at(mp.start - r.off, piece);
      } else if (base.materialized()) {
        base = Buffer::phantom(r.len);
      }
    }
  }
  co_await pace(r, r.len);
  resp.data = std::move(base);
  if (media_error) {
    // A latent sector error is a per-range failure, not a dead server: the
    // client can reconstruct this range from redundancy and the scrubber
    // can repair it in place.
    resp.ok = false;
    resp.err = Errc::media_error;
  }
  co_return resp;
}

sim::Task<Response> IoServer::do_write_data(const Request& r, obs::Ctx ctx) {
  obs::Span span;
  if (obs::kEnabled && ctx.t != nullptr) {
    span = ctx.t->span(ctx.pid, ctx.tid, "write_data", "disk", ctx.parent,
                       {{"off", r.off}, {"len", r.payload.size()}});
  }
  state_ref(r.handle);  // note the handle for storage accounting
  co_await pace(r, r.payload.size());
  const std::uint64_t len = r.payload.size();
  if (len > 0) {
    co_await fs_.write_stream(file_of(r.handle, FileKind::data, 0, true),
                              r.off, r.payload.slice(0, len),
                              cluster_->profile().net_recv_chunk);
  }
  apply_invalidation(r);
  co_return Response{};
}

sim::Task<Response> IoServer::do_read_data_raw(const Request& r) {
  Response resp;
  auto out = co_await fs_.read_checked(
      file_of(r.handle, FileKind::data, 0, false), r.off, r.len);
  resp.data = std::move(out.data);
  if (out.media_error) {
    resp.ok = false;
    resp.err = Errc::media_error;
  }
  co_await pace(r, r.len);
  co_return resp;
}

sim::Task<Response> IoServer::do_read_red(const Request& r, obs::Ctx ctx) {
  obs::Span span;
  if (obs::kEnabled && ctx.t != nullptr) {
    span = ctx.t->span(ctx.pid, ctx.tid, "read_red", "disk", ctx.parent,
                       {{"off", r.off}, {"len", r.len}});
  }
  Response resp;
  auto out = co_await fs_.read_checked(
      file_of(r.handle, FileKind::red, r.red_gen, false), r.off, r.len);
  resp.data = std::move(out.data);
  if (out.media_error) {
    resp.ok = false;
    resp.err = Errc::media_error;
  }
  co_await pace(r, r.len);
  co_return resp;
}

sim::Task<Response> IoServer::do_write_red(const Request& r, obs::Ctx ctx) {
  obs::Span span;
  if (obs::kEnabled && ctx.t != nullptr) {
    span = ctx.t->span(ctx.pid, ctx.tid, "write_red", "disk", ctx.parent,
                       {{"off", r.off}, {"len", r.payload.size()}});
  }
  HandleState& hs = *state_ref(r.handle);
  hs.max_red_gen = std::max(hs.max_red_gen, r.red_gen);
  co_await pace(r, r.payload.size());
  if (!r.payload.empty()) {
    co_await fs_.write_stream(
        file_of(r.handle, FileKind::red, r.red_gen, true), r.off,
        r.payload.slice(0, r.payload.size()),
        cluster_->profile().net_recv_chunk);
  }
  apply_invalidation(r);
  co_return Response{};
}

sim::Task<Response> IoServer::do_write_overflow(const Request& r) {
  assert(r.su > 0);
  co_await pace(r, r.payload.size());
  // Held across the write below: a remove_file or wipe() meanwhile leaves
  // this state (and its overflow file) orphaned instead of freed.
  const StateRef hs = state_ref(r.handle);
  // Overflow space is allocated in whole stripe units and never reclaimed
  // in place (old blocks must survive for stripe reconstruction; see §4 and
  // the fragmentation discussion in §6.7).
  const std::uint64_t alloc = hs->overflow_alloc;
  const std::uint64_t len = r.payload.size();
  hs->overflow_alloc += align_up(len, r.su);
  if (len > 0) {
    co_await fs_.write_stream(file_of(r.handle, FileKind::ovfl, 0, true),
                              alloc, r.payload.slice(0, len),
                              cluster_->profile().net_recv_chunk);
  }
  OverflowTable& table = r.mirror ? hs->mirror : hs->own;
  table.insert(r.off, r.off + len, alloc);
  co_return Response{};
}

sim::Task<Response> IoServer::read_overflow_pieces(const Request& r,
                                                   bool mirror) {
  Response resp;
  if (const HandleState* hs = state(r.handle)) {
    for (const auto& pp :
         overflow_plan(mirror ? hs->mirror : hs->own, r.off, r.len)) {
      OverflowPiece piece;
      piece.local_off = pp.start;
      auto out =
          co_await fs_.read_checked(file_of(r.handle, FileKind::ovfl, 0, false),
                                    pp.src, pp.end - pp.start);
      piece.data = std::move(out.data);
      if (out.media_error) {
        resp.ok = false;
        resp.err = Errc::media_error;
      }
      resp.pieces.push_back(std::move(piece));
    }
  }
  co_await pace(r, resp.wire_bytes());
  co_return resp;
}

sim::Task<Response> IoServer::do_compact_overflow(const Request& r) {
  // The paper's proposed cleaner (§6.7): overflow space is append-only
  // during normal operation, so dead entries (superseded or invalidated)
  // keep their allocation until this pass rewrites the live ones densely.
  Response resp;
  if (state(r.handle) == nullptr) co_return resp;
  const StateRef hs = state_ref(r.handle);  // held across the rewrite
  assert(r.su > 0);

  struct Live {
    bool mirror;
    std::uint64_t start;
    std::uint64_t end;
    std::uint64_t old_src;
  };
  std::vector<Live> live;
  hs->own.for_each([&](std::uint64_t s, std::uint64_t e, std::uint64_t src) {
    live.push_back({false, s, e, src});
  });
  hs->mirror.for_each(
      [&](std::uint64_t s, std::uint64_t e, std::uint64_t src) {
        live.push_back({true, s, e, src});
      });

  // Read every live piece, drop the old file, and rewrite densely.
  std::vector<Buffer> contents;
  contents.reserve(live.size());
  for (const auto& piece : live) {
    auto out = co_await fs_.read_checked(
        file_of(r.handle, FileKind::ovfl, 0, false), piece.old_src,
        piece.end - piece.start);
    contents.push_back(std::move(out.data));
  }
  // Removed or wiped while the reads were parked: there is nothing left to
  // rewrite, and resolving the file by name would resurrect it.
  if (state(r.handle) != hs.get()) co_return resp;
  fs_.remove(ovfl_name(r.handle));
  hs->own.clear();
  hs->mirror.clear();
  hs->overflow_alloc = 0;
  // Resolved at the first write and held: a removal during the rewrite
  // leaves the remaining writes in the unlinked file.
  localfs::LocalFs::FileRef ovfl;
  for (std::size_t i = 0; i < live.size(); ++i) {
    const std::uint64_t alloc = hs->overflow_alloc;
    const std::uint64_t len = live[i].end - live[i].start;
    hs->overflow_alloc += align_up(len, r.su);
    if (len > 0) {
      if (ovfl == nullptr) ovfl = file_of(r.handle, FileKind::ovfl, 0, true);
      co_await fs_.write(ovfl, alloc, std::move(contents[i]));
    }
    OverflowTable& table = live[i].mirror ? hs->mirror : hs->own;
    table.insert(live[i].start, live[i].end, alloc);
  }
  resp.storage.overflow_bytes = hs->overflow_alloc;
  co_return resp;
}

StorageInfo IoServer::total_storage() const {
  StorageInfo total;
  handles_.for_each([&](std::uint64_t h, const StateRef& hs) {
    total.data_bytes += fs_.size(data_name(h));
    for (std::uint32_t g = 0; g <= hs->max_red_gen; ++g) {
      total.red_bytes += fs_.size(red_name(h, g));
    }
    total.overflow_bytes += hs->overflow_alloc;
  });
  return total;
}

}  // namespace csar::pvfs
