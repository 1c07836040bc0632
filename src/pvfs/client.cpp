#include "pvfs/client.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/small_vec.hpp"
#include "sim/sync.hpp"

namespace csar::pvfs {

void Client::set_obs(obs::Tracer* tracer, obs::Registry* metrics) {
  tracer_ = tracer;
  metrics_ = metrics;
  pid_ = tracer != nullptr ? tracer->node_pid(node_) : 0;
  if (metrics != nullptr) {
    rpc_hist_ = &metrics->histogram("client.rpc_ns");
    batch_hist_ =
        &metrics->histogram("client.batch_subs", obs::Histogram::size_bounds());
  } else {
    rpc_hist_ = nullptr;
    batch_hist_ = nullptr;
  }
}

sim::Task<MetaResponse> Client::meta_rpc(MetaRequest r) {
  auto& sim = cluster_->sim();
  auto ch = std::make_shared<sim::Channel<MetaResponse>>(sim);
  r.from = node_;
  r.reply = ch;
  obs::Span span;
  if (obs::kEnabled && tracer_ != nullptr) {
    span = tracer_->task_span(pid_, "rpc", "meta", "rpc", ambient_);
  }
  const std::uint32_t attempts = std::max<std::uint32_t>(1, policy_.max_attempts);
  Errc last_err = Errc::timeout;
  for (std::uint32_t attempt = 1; attempt <= attempts; ++attempt) {
    if (attempt > 1) {
      ++rpc_stats_.retries;
      co_await sim.sleep(backoff_pause(policy_, attempt));
    }
    MetaRequest req = r;
    ++rpc_stats_.sent;
    const auto d = co_await fabric_->transfer(
        node_, manager_->node_id(), req.name.size() + sizeof(MetaRequest),
        span.id());
    if (d == net::Delivery::reset) {
      ++rpc_stats_.resets;
      last_err = Errc::conn_dropped;
      continue;
    }
    if (d == net::Delivery::ok) manager_->inbox().send(std::move(req));
    if (policy_.timeout == 0) {
      MetaResponse resp = co_await ch->recv();
      if (resp.mgr_epoch != 0) mgr_epoch_seen_ = resp.mgr_epoch;
      co_return resp;
    }
    auto got = co_await ch->recv_until(sim.now() + policy_.timeout);
    if (got) {
      if (got->mgr_epoch != 0) mgr_epoch_seen_ = got->mgr_epoch;
      co_return std::move(*got);
    }
    ++rpc_stats_.timeouts;
    last_err = Errc::timeout;
  }
  MetaResponse failed;
  failed.ok = false;
  failed.err = last_err;
  co_return failed;
}

sim::Duration Client::backoff_pause(const RpcPolicy& policy,
                                    std::uint32_t attempt) {
  // Exponential backoff with deterministic jitter: attempt k (2-based here)
  // waits backoff << (k-2), scaled by up to `jitter` extra drawn from the
  // client's seeded stream.
  const std::uint32_t shift = std::min<std::uint32_t>(attempt - 2, 20);
  sim::Duration pause = policy.backoff << shift;
  if (policy.jitter > 0.0) {
    pause += static_cast<sim::Duration>(static_cast<double>(pause) *
                                        policy.jitter * rng_.uniform());
  }
  return pause;
}

sim::Task<Result<OpenFile>> Client::create(std::string name,
                                           StripeLayout layout,
                                           std::uint8_t scheme) {
  assert(layout.nservers == nservers() &&
         "layout server count must match the cluster");
  MetaRequest r;
  r.op = MetaOp::create;
  r.name = std::move(name);
  r.layout = layout;
  r.scheme = scheme;
  r.req_id = ++meta_req_seq_;  // one id per logical create, across retries
  MetaResponse resp = co_await meta_rpc(std::move(r));
  if (!resp.ok) co_return Error{resp.err, "create"};
  co_return resp.file;
}

sim::Task<Result<OpenFile>> Client::set_redundancy(
    std::string name, std::uint8_t scheme, std::uint32_t red_gen,
    std::uint8_t rgroup, std::uint32_t fence_epoch) {
  MetaRequest r;
  r.op = MetaOp::set_redundancy;
  r.name = std::move(name);
  r.scheme = scheme;
  r.red_gen = red_gen;
  r.rgroup = rgroup;
  r.fence_epoch = fence_epoch;
  r.req_id = ++meta_req_seq_;
  MetaResponse resp = co_await meta_rpc(std::move(r));
  if (!resp.ok) co_return Error{resp.err, "set_redundancy"};
  co_return resp.file;
}

sim::Task<Result<OpenFile>> Client::open(std::string name) {
  MetaRequest r;
  r.op = MetaOp::open;
  r.name = std::move(name);
  MetaResponse resp = co_await meta_rpc(std::move(r));
  if (!resp.ok) co_return Error{resp.err, "open"};
  co_return resp.file;
}

sim::Task<Result<void>> Client::remove(std::string name) {
  // Resolve the handle first so the servers' local files can be purged,
  // then drop the metadata entry.
  MetaRequest lookup;
  lookup.op = MetaOp::open;
  lookup.name = name;
  MetaResponse meta = co_await meta_rpc(std::move(lookup));
  if (!meta.ok) co_return Error{meta.err, "remove"};

  std::vector<std::pair<std::uint32_t, Request>> reqs;
  for (std::uint32_t s = 0; s < nservers(); ++s) {
    Request r;
    r.op = Op::remove_file;
    r.handle = meta.file.handle;
    reqs.emplace_back(s, std::move(r));
  }
  auto resps = co_await rpc_all(std::move(reqs));
  for (const auto& resp : resps) {
    if (!resp.ok) co_return Error{resp.err, "remove (server purge)"};
  }

  MetaRequest r;
  r.op = MetaOp::remove;
  r.name = std::move(name);
  r.req_id = ++meta_req_seq_;
  MetaResponse resp = co_await meta_rpc(std::move(r));
  if (!resp.ok) co_return Error{resp.err, "remove"};
  co_return Result<void>::success();
}

sim::Task<Response> Client::rpc(std::uint32_t s, Request r) {
  return rpc(s, std::move(r), policy_);
}

sim::Task<Response> Client::rpc(std::uint32_t s, Request r, RpcPolicy policy) {
  auto ch = acquire_reply_channel();
  Response resp = co_await rpc_attempts(s, std::move(r), policy, ch);
  // The rpc_attempts frame (and the request copies holding ch) is gone by
  // now; if no straggler server kept a reference, the channel goes back to
  // the pool.
  recycle_reply_channel(std::move(ch));
  co_return resp;
}

std::shared_ptr<sim::Channel<Response>> Client::acquire_reply_channel() {
  if (!reply_pool_.empty()) {
    auto ch = std::move(reply_pool_.back());
    reply_pool_.pop_back();
    return ch;
  }
  return std::make_shared<sim::Channel<Response>>(cluster_->sim());
}

void Client::recycle_reply_channel(
    std::shared_ptr<sim::Channel<Response>> ch) {
  if (ch.use_count() != 1) return;  // a timed-out attempt is still in flight
  while (ch->try_recv()) {
    // Discard late replies to this call; they would have died with the
    // channel in the unpooled scheme too.
  }
  constexpr std::size_t kReplyPoolMax = 64;
  if (reply_pool_.size() < kReplyPoolMax) reply_pool_.push_back(std::move(ch));
}

sim::Task<Response> Client::rpc_attempts(
    std::uint32_t s, Request r, RpcPolicy policy,
    std::shared_ptr<sim::Channel<Response>> ch) {
  assert(s < servers_.size());
  auto& sim = cluster_->sim();
  // The rpc span covers the full call (all attempts); the request carries
  // its id so the server's handling span nests under it. A request that
  // already has a span (batch sub) keeps that parent.
  obs::Span span;
  if (obs::kEnabled && tracer_ != nullptr) {
    span = tracer_->task_span(pid_, "rpc", op_name(r.op), "rpc",
                              r.tspan != 0 ? r.tspan : ambient_,
                              {{"server", s}, {"bytes", r.wire_bytes()}});
    r.tspan = span.id();
  }
  const sim::Time t0 = sim.now();
  // The channel is shared with the server and kept alive across attempts:
  // a late reply to a timed-out attempt lands here harmlessly, and because
  // every I/O server op is idempotent it may even satisfy a later attempt.
  r.from = node_;
  r.reply = ch;
  IoServer* srv = servers_[s];
  const std::uint32_t attempts = std::max<std::uint32_t>(1, policy.max_attempts);
  Errc last_err = Errc::timeout;
  for (std::uint32_t attempt = 1; attempt <= attempts; ++attempt) {
    if (attempt > 1) {
      ++rpc_stats_.retries;
      co_await sim.sleep(backoff_pause(policy, attempt));
    }
    // Each attempt resends a fresh copy; the last one takes the original.
    Request req;
    if (attempt == attempts) {
      req = std::move(r);
    } else {
      req = r;
    }
    ++rpc_stats_.sent;
    const auto d = co_await fabric_->transfer(node_, srv->node_id(),
                                              req.wire_bytes(), span.id());
    if (d == net::Delivery::reset) {
      ++rpc_stats_.resets;
      last_err = Errc::conn_dropped;
      continue;
    }
    if (d == net::Delivery::ok) srv->inbox().send(std::move(req));
    // Delivery::dropped: the request is gone; only the deadline saves us.
    if (policy.timeout == 0) {
      Response resp = co_await ch->recv();
      resp.server = static_cast<int>(s);
      if (obs::kEnabled && rpc_hist_ != nullptr) rpc_hist_->add(sim.now() - t0);
      co_return resp;
    }
    auto got = co_await ch->recv_until(sim.now() + policy.timeout);
    if (got) {
      got->server = static_cast<int>(s);
      if (obs::kEnabled && rpc_hist_ != nullptr) rpc_hist_->add(sim.now() - t0);
      co_return std::move(*got);
    }
    ++rpc_stats_.timeouts;
    last_err = Errc::timeout;
  }
  Response failed;
  failed.ok = false;
  failed.err = last_err;
  failed.server = static_cast<int>(s);
  if (obs::kEnabled && rpc_hist_ != nullptr) rpc_hist_->add(sim.now() - t0);
  co_return failed;
}

sim::Task<std::vector<Response>> Client::rpc_batch(std::uint32_t s,
                                                   std::vector<Request> subs) {
  return rpc_batch(s, std::move(subs), policy_);
}

sim::Task<std::vector<Response>> Client::rpc_batch(std::uint32_t s,
                                                   std::vector<Request> subs,
                                                   RpcPolicy policy) {
  const std::size_t n = subs.size();
  if (n == 0) co_return std::vector<Response>{};
  if (n == 1 || !batching_) {
    // Nothing to amortize (or the ablation baseline): one RPC per request,
    // in order — exactly the legacy wire traffic.
    std::vector<Response> out;
    out.reserve(n);
    for (auto& sub : subs) {
      out.push_back(co_await rpc(s, std::move(sub), policy));
    }
    co_return out;
  }
  if (obs::kEnabled && batch_hist_ != nullptr) {
    batch_hist_->add(static_cast<std::uint64_t>(n));
  }
  Request env;
  env.op = Op::batch;
  env.subs = std::move(subs);
  Response resp = co_await rpc(s, std::move(env), policy);
  if (resp.ok && resp.subs.size() == n) {
    for (auto& sub : resp.subs) sub.server = static_cast<int>(s);
    co_return std::move(resp.subs);
  }
  // The envelope itself failed (deadline, reset, refused server): every sub
  // shares that fate.
  std::vector<Response> failed(n);
  for (auto& f : failed) {
    f.ok = false;
    f.err = resp.ok ? Errc::invalid_argument : resp.err;
    f.server = static_cast<int>(s);
  }
  co_return failed;
}

bool Client::shares_redundancy_server(
    const std::vector<std::pair<std::uint32_t, Request>>& requests) {
  red_seen_.resize(servers_.size(), 0);
  bool shared = false;
  for (const auto& [s, r] : requests) {
    if (!redundancy_request(r)) continue;
    if (red_seen_[s] != 0) {
      shared = true;
      break;
    }
    red_seen_[s] = 1;
  }
  for (const auto& [s, r] : requests) red_seen_[s] = 0;
  return shared;
}

sim::Task<std::vector<Response>> Client::rpc_all(
    std::vector<std::pair<std::uint32_t, Request>> requests) {
  std::vector<Response> out(requests.size());
  auto& sim = cluster_->sim();
  if (batching_ && requests.size() > 1 &&
      shares_redundancy_server(requests)) {
    // Coalesce same-destination *redundancy-class* requests into one
    // envelope per server: parity/mirror ops are small and per-message
    // header dominated, so sharing one transfer is pure win. The class is
    // decided per request (redundancy_request), not per op: a Hybrid
    // partial write's mirror overflow copy targets the neighbour server's
    // redundancy role, so it shares that server's parity envelope instead
    // of taking a separate bulk transfer. Bulk payload requests (data
    // reads/writes, primary overflow) are payload-dominated and pipeline
    // better as independent messages — inside one envelope the server would
    // execute them strictly in order and the combined response could not
    // start streaming until the last sub finished. Request order within an
    // envelope is preserved, and the Hybrid write appends its parity writes
    // before its overflow copies, so a lock-releasing parity write is never
    // queued behind mirror payload in the same message.
    struct Group {
      std::uint32_t server;
      std::vector<Request> subs;
      std::vector<std::size_t> slots;
    };
    std::map<std::uint32_t, std::size_t> index;
    std::vector<Group> groups;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      std::size_t gi;
      if (redundancy_request(requests[i].second)) {
        auto [it, fresh] = index.try_emplace(requests[i].first, groups.size());
        if (fresh) groups.push_back({requests[i].first, {}, {}});
        gi = it->second;
      } else {
        gi = groups.size();  // bulk: always its own message
        groups.push_back({requests[i].first, {}, {}});
      }
      groups[gi].subs.push_back(std::move(requests[i].second));
      groups[gi].slots.push_back(i);
    }
    std::vector<sim::Task<void>> tasks;
    tasks.reserve(groups.size());
    for (auto& g : groups) {
      tasks.push_back(
          [](Client* self, Group grp, std::vector<Response>* all)
              -> sim::Task<void> {
            auto resps =
                co_await self->rpc_batch(grp.server, std::move(grp.subs));
            for (std::size_t k = 0; k < grp.slots.size(); ++k) {
              (*all)[grp.slots[k]] = std::move(resps[k]);
            }
          }(this, std::move(g), &out));
    }
    co_await sim::when_all(sim, std::move(tasks));
    co_return out;
  }
  // No envelope would carry more than one request, so each request is its
  // own message — what the grouping above sends for one-request groups —
  // without building the groups. Spawn every call, then join in order.
  SmallVec<sim::ProcessHandle, 8> calls;
  calls.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    calls.push_back(sim.spawn(
        [](Client* self, std::uint32_t s, Request r,
           Response* slot) -> sim::Task<void> {
          *slot = co_await self->rpc(s, std::move(r));
        }(this, requests[i].first, std::move(requests[i].second), &out[i])));
  }
  for (const auto& call : calls) co_await call.join();
  co_return out;
}

Buffer Client::gather_for_server(const StripeLayout& layout,
                                 std::uint64_t off, const Buffer& data,
                                 std::uint32_t s) {
  // Per-unit pieces of one server appear in increasing local (and global)
  // order and tile the server's merged extent exactly.
  if (!data.materialized()) {
    return Buffer::phantom(layout.server_bytes(off, data.size(), s));
  }
  SmallVec<Buffer, 8> pieces;
  for (const auto& e : layout.decompose(off, data.size())) {
    if (e.server == s) pieces.push_back(data.slice(e.global_off - off, e.len));
  }
  return Buffer::concat(pieces);
}

sim::Task<Result<void>> Client::write_striped(const OpenFile& f,
                                              std::uint64_t off,
                                              const Buffer& data) {
  if (data.empty()) co_return Result<void>::success();
  const auto merged = f.layout.decompose_merged(off, data.size());
  std::vector<std::pair<std::uint32_t, Request>> reqs;
  reqs.reserve(merged.size());
  for (const auto& e : merged) {
    Request r;
    r.op = Op::write_data;
    r.handle = f.handle;
    r.off = e.local_off;
    r.payload = gather_for_server(f.layout, off, data, e.server);
    r.su = f.layout.stripe_unit;
    reqs.emplace_back(e.server, std::move(r));
  }
  auto resps = co_await rpc_all(std::move(reqs));
  for (const auto& resp : resps) {
    if (!resp.ok) co_return Error{resp.err, "write_striped", resp.server};
  }
  co_return Result<void>::success();
}

sim::Task<Result<Buffer>> Client::read(const OpenFile& f, std::uint64_t off,
                                       std::uint64_t len) {
  if (len == 0) co_return Buffer::real(0);
  const auto merged = f.layout.decompose_merged(off, len);
  std::vector<std::pair<std::uint32_t, Request>> reqs;
  reqs.reserve(merged.size());
  for (const auto& e : merged) {
    Request r;
    r.op = Op::read_data;
    r.handle = f.handle;
    r.off = e.local_off;
    r.len = e.len;
    r.su = f.layout.stripe_unit;
    reqs.emplace_back(e.server, std::move(r));
  }
  auto resps = co_await rpc_all(std::move(reqs));
  bool phantom = false;
  for (std::size_t i = 0; i < resps.size(); ++i) {
    if (!resps[i].ok) co_return Error{resps[i].err, "read", resps[i].server};
    if (!resps[i].data.materialized()) phantom = true;
  }
  if (phantom) co_return Buffer::phantom(len);
  if (merged.size() == 1 && resps[0].data.size() == len) {
    // Single-server read: the reply already is the file-order bytes.
    co_return std::move(resps[0].data);
  }
  // Scatter each server's locally-contiguous reply back into file order:
  // walk the per-unit pieces in file order, each cut from the next unread
  // position of its server's reply.
  std::vector<std::size_t> reply_of(f.layout.n(), merged.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    reply_of[merged[i].server] = i;
  }
  std::vector<std::uint64_t> pos(merged.size(), 0);
  SmallVec<Buffer, 8> pieces;
  for (const auto& e : f.layout.decompose(off, len)) {
    const std::size_t i = reply_of[e.server];
    pieces.push_back(resps[i].data.slice(pos[i], e.len));
    pos[i] += e.len;
  }
  co_return Buffer::concat(pieces);
}

sim::Task<Result<void>> Client::flush(const OpenFile& f) {
  std::vector<std::pair<std::uint32_t, Request>> reqs;
  for (std::uint32_t s = 0; s < nservers(); ++s) {
    Request r;
    r.op = Op::flush;
    r.handle = f.handle;
    reqs.emplace_back(s, std::move(r));
  }
  auto resps = co_await rpc_all(std::move(reqs));
  for (const auto& resp : resps) {
    if (!resp.ok) co_return Error{resp.err, "flush", resp.server};
  }
  co_return Result<void>::success();
}

sim::Task<StorageInfo> Client::storage(const OpenFile& f) {
  std::vector<std::pair<std::uint32_t, Request>> reqs;
  for (std::uint32_t s = 0; s < nservers(); ++s) {
    Request r;
    r.op = Op::storage_query;
    r.handle = f.handle;
    reqs.emplace_back(s, std::move(r));
  }
  auto resps = co_await rpc_all(std::move(reqs));
  StorageInfo total;
  for (const auto& resp : resps) {
    total.data_bytes += resp.storage.data_bytes;
    total.red_bytes += resp.storage.red_bytes;
    total.overflow_bytes += resp.storage.overflow_bytes;
  }
  co_return total;
}

}  // namespace csar::pvfs
