#include "raid/csar_fs.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "raid/health.hpp"
#include "raid/recovery.hpp"
#include "sim/time.hpp"

namespace csar::raid {

namespace {

/// Error codes a single failed/unreachable/bad-sector server produces — the
/// ones degraded-mode rerouting can transparently absorb.
bool failover_errc(Errc e) {
  return e == Errc::server_failed || e == Errc::timeout ||
         e == Errc::conn_dropped || e == Errc::media_error;
}

/// Restores the client's ambient parent span when an fs-level op span closes
/// (declare *after* the op Span so the restore runs first).
struct AmbientGuard {
  pvfs::Client* c = nullptr;
  obs::SpanId prev = 0;
  ~AmbientGuard() {
    if (c != nullptr) c->set_ambient_span(prev);
  }
};

using pvfs::Op;
using pvfs::Request;
using pvfs::StripeLayout;

}  // namespace

sim::Task<Result<pvfs::OpenFile>> CsarFs::create(std::string name,
                                                 pvfs::StripeLayout layout) {
  const Scheme s = p_.policy->assign(name);
  if (s.kind == SchemeKind::rs && s.k + s.m > layout.nservers) {
    // rs(k,m) places k+m fragments on distinct servers; a narrower rig
    // would silently double-place fragments and void the fault tolerance.
    co_return Error{Errc::invalid_argument, "rs(k,m) needs k+m servers"};
  }
  layout.placement = placement_for(s);
  auto f = co_await client_->create(std::move(name), layout, scheme_tag(s));
  if (f.ok()) p_.policy->note_created(*f, s);
  co_return f;
}

sim::Task<Result<void>> CsarFs::write(const pvfs::OpenFile& f,
                                      std::uint64_t off, Buffer data) {
  if (data.empty()) co_return Result<void>::success();
  {
    // Telemetry for the adaptive engine, once per write (a failover retry is
    // not a second write): the full/partial-group byte split the write uses,
    // groups of the file's own k units, attributed to its current scheme.
    const Scheme sch = p_.policy->scheme_of(f);
    const auto ws = write_split(f.layout, sch.code(f.layout), off, data.size());
    const std::uint64_t full = ws.full_end - ws.full_start;
    p_.policy->note_write(f, sch, full, data.size() - full);
  }
  obs::Span span;
  AmbientGuard ambient;
  if (obs::kEnabled && client_->tracer() != nullptr) {
    span = client_->tracer()->task_span(
        client_->obs_pid(), "fs", "fs.write", "fs", 0,
        "\"off\":" + std::to_string(off) +
            ",\"len\":" + std::to_string(data.size()));
    ambient.c = client_;
    ambient.prev = client_->ambient_span();
    client_->set_ambient_span(span.id());
  }
  if (listener_ == nullptr) co_return co_await write_guarded(f, off, std::move(data));
  const std::uint64_t len = data.size();
  listener_->on_write_begin(f);
  auto wr = co_await write_guarded(f, off, std::move(data));
  // Fires on failure too: a torn write may have landed partially, so the
  // migrator must treat the region as dirty.
  listener_->on_write_end(f, off, len, wr.ok());
  co_return wr;
}

sim::Task<Result<void>> CsarFs::write_guarded(const pvfs::OpenFile& f,
                                              std::uint64_t off, Buffer data) {
  std::vector<std::uint32_t> down;
  if (mon_ != nullptr) down = mon_->failed_set();
  if (down.empty()) {
    Recovery rec(*client_, *p_.policy);
    auto wr = co_await rec.write(f, off, data);
    if (wr.ok() || mon_ == nullptr || !failover_errc(wr.error().code)) {
      co_return wr;
    }
    // The monitor had not caught up when we issued the write; resolve the
    // culprit from the error (or by probing) and redo the whole write
    // without it — server ops are idempotent, so the parts that did land
    // are simply rewritten.
    ++failover_stats_.reactive;
    std::optional<std::uint32_t> failed;
    if (wr.error().server >= 0) {
      // The hint can name a server that is merely slow (one late or dropped
      // message). A reconstruct-write against a *live* server would fork
      // the file: the new bytes exist only in the coding, while the server
      // keeps answering plain reads from its now-stale data file — and a
      // later scrub would "repair" the coding from that stale data. Only a
      // server that also fails a dedicated probe is written around; a
      // transient fault is reported back to the caller, whose RPC retry
      // budget is the knob for riding those out.
      failed = static_cast<std::uint32_t>(wr.error().server);
      if (!(co_await confirmed_down(f, *failed))) co_return wr;
    } else {
      failed = co_await find_failed_server(f);
    }
    if (!failed.has_value()) co_return wr;
    down.push_back(*failed);
  }
  ++failover_stats_.degraded_writes;
  co_return co_await degraded_write_observed(f, off, std::move(data),
                                             std::move(down));
}

sim::Task<Result<void>> CsarFs::degraded_write_observed(
    const pvfs::OpenFile& f, std::uint64_t off, Buffer data,
    std::vector<std::uint32_t> failed) {
  const std::uint64_t len = data.size();
  // Hooks fire once per victim: each down server's rebuild pass must treat
  // the written region as dirtied.
  if (observer_ != nullptr) {
    for (const std::uint32_t s : failed) observer_->on_degraded_write_begin(s);
  }
  Recovery rec(*client_, *p_.policy);
  auto wr = co_await rec.write(f, off, std::move(data), failed);
  // The end hook fires on failure too: a torn degraded write may still have
  // updated some redundancy, so the region must count as dirtied.
  if (observer_ != nullptr) {
    for (const std::uint32_t s : failed) {
      observer_->on_degraded_write_end(f, off, len, s);
    }
  }
  co_return wr;
}

sim::Task<Result<Buffer>> CsarFs::read(const pvfs::OpenFile& f,
                                       std::uint64_t off, std::uint64_t len) {
  obs::Span span;
  AmbientGuard ambient;
  if (obs::kEnabled && client_->tracer() != nullptr) {
    span = client_->tracer()->task_span(
        client_->obs_pid(), "fs", "fs.read", "fs", 0,
        "\"off\":" + std::to_string(off) + ",\"len\":" + std::to_string(len));
    ambient.c = client_;
    ambient.prev = client_->ambient_span();
    client_->set_ambient_span(span.id());
  }
  if (mon_ == nullptr) co_return co_await client_->read(f, off, len);
  std::vector<std::uint32_t> down = mon_->failed_set();
  if (!down.empty()) {
    ++failover_stats_.degraded_reads;
    Recovery rec(*client_, *p_.policy);
    co_return co_await rec.degraded_read(f, off, len, std::move(down));
  }
  auto rd = co_await client_->read(f, off, len);
  if (rd.ok() || !failover_errc(rd.error().code)) co_return rd;
  ++failover_stats_.reactive;
  co_return co_await reroute_read(f, off, len, rd.error());
}

sim::Task<Result<void>> CsarFs::compact(const pvfs::OpenFile& f,
                                        std::uint64_t file_size) {
  const StripeLayout& layout = f.layout;
  const std::uint64_t w = layout.stripe_width();
  // Rewrite in bursts of 8 stripes; the final burst is zero-padded to a
  // stripe boundary so no new partial-stripe overflow is created (bytes
  // past file_size were zeros either way).
  const std::uint64_t burst = 8 * w;
  const std::uint64_t padded = align_up(file_size, w);
  for (std::uint64_t off = 0; off < padded; off += burst) {
    const std::uint64_t len = std::min(burst, padded - off);
    auto rd = co_await client_->read(f, off, len);
    if (!rd.ok()) co_return rd.error();
    auto wr = co_await write(f, off, std::move(rd.value()));
    if (!wr.ok()) co_return wr;
  }
  // Garbage-collect the (now fully invalidated) overflow regions.
  std::vector<std::pair<std::uint32_t, pvfs::Request>> reqs;
  for (std::uint32_t s = 0; s < layout.n(); ++s) {
    pvfs::Request r;
    r.op = pvfs::Op::compact_overflow;
    r.handle = f.handle;
    r.su = layout.stripe_unit;
    reqs.emplace_back(s, std::move(r));
  }
  auto resps = co_await client_->rpc_all(std::move(reqs));
  for (const auto& resp : resps) {
    if (!resp.ok) co_return Error{resp.err, "compact", resp.server};
  }
  co_return Result<void>::success();
}

sim::Task<Result<Buffer>> CsarFs::read_balanced(const pvfs::OpenFile& f,
                                                std::uint64_t off,
                                                std::uint64_t len) {
  if (p_.policy->scheme_of(f) != Scheme::raid1) {
    co_return co_await client_->read(f, off, len);
  }
  if (p_.policy->overflow_possible(f)) {
    // An ex-Hybrid file's mirror (new red generation) covers the raw data
    // files; the overflow overlay holds the newest partial-write bytes and
    // only the plain read path applies it. Balanced reads would need the
    // overlay logic duplicated per unit — not worth it for this corner.
    co_return co_await read(f, off, len);
  }
  if (len == 0) co_return Buffer::real(0);
  const StripeLayout& layout = f.layout;
  const std::uint32_t gen = p_.policy->red_gen_of(f);
  // Per-unit pieces, alternating primary/mirror by global unit index.
  const auto pieces = layout.decompose(off, len);
  std::vector<std::pair<std::uint32_t, Request>> reads;
  reads.reserve(pieces.size());
  for (const auto& e : pieces) {
    const std::uint64_t u = layout.unit_of(e.global_off);
    Request r;
    r.handle = f.handle;
    r.off = e.local_off;
    r.len = e.len;
    r.su = layout.stripe_unit;
    if (u % 2 == 0) {
      r.op = Op::read_data;
      reads.emplace_back(e.server, std::move(r));
    } else {
      // The copy is coding unit 0 of the unit's k = 1 group.
      r.op = Op::read_red;
      r.off = layout.coding_off(u, 1, 1, 0) + e.global_off % layout.su();
      r.red_gen = gen;
      reads.emplace_back(layout.coding_server(u, 1, 0), std::move(r));
    }
  }
  auto resps = co_await client_->rpc_all(std::move(reads));
  bool phantom = false;
  for (const auto& resp : resps) {
    if (!resp.ok) co_return Error{resp.err, "balanced read", resp.server};
    if (!resp.data.materialized()) phantom = true;
  }
  if (phantom) co_return Buffer::phantom(len);
  std::vector<Buffer> replies;
  replies.reserve(resps.size());
  for (auto& resp : resps) replies.push_back(std::move(resp.data));
  Buffer out = Buffer::concat(replies);
  assert(out.size() == len);
  co_return out;
}

sim::Task<std::optional<std::uint32_t>> CsarFs::find_failed_server(
    const pvfs::OpenFile& f) {
  for (std::uint32_t s = 0; s < f.layout.n(); ++s) {
    if (co_await confirmed_down(f, s)) co_return s;
  }
  co_return std::nullopt;
}

sim::Task<bool> CsarFs::confirmed_down(const pvfs::OpenFile& f,
                                       std::uint32_t s) {
  // Probes must not inherit an infinite client policy: a crashed server
  // answers nothing, and the whole point here is to notice that quickly.
  pvfs::RpcPolicy probe = client_->rpc_policy();
  if (probe.timeout == 0) probe.timeout = sim::ms(250);
  probe.max_attempts = std::max<std::uint32_t>(probe.max_attempts, 2);
  Request r;
  r.op = Op::storage_query;
  r.handle = f.handle;
  auto resp = co_await client_->rpc(s, std::move(r), probe);
  co_return !resp.ok && (resp.err == Errc::server_failed ||
                         resp.err == Errc::timeout ||
                         resp.err == Errc::conn_dropped);
}

sim::Task<Result<Buffer>> CsarFs::reroute_read(const pvfs::OpenFile& f,
                                               std::uint64_t off,
                                               std::uint64_t len, Error err) {
  std::optional<std::uint32_t> failed;
  if (err.server >= 0) {
    failed = static_cast<std::uint32_t>(err.server);
  } else {
    failed = co_await find_failed_server(f);
  }
  if (!failed.has_value()) co_return err;  // transient: report the error
  ++failover_stats_.degraded_reads;
  Recovery rec(*client_, *p_.policy);
  co_return co_await rec.degraded_read(f, off, len, *failed);
}

sim::Task<Result<Buffer>> CsarFs::read_resilient(const pvfs::OpenFile& f,
                                                 std::uint64_t off,
                                                 std::uint64_t len) {
  auto rd = co_await client_->read(f, off, len);
  if (rd.ok() || !failover_errc(rd.error().code)) co_return rd;
  co_return co_await reroute_read(f, off, len, rd.error());
}

}  // namespace csar::raid
