#include "pvfs/manager.hpp"

#include <algorithm>
#include <utility>

namespace csar::pvfs {

Manager::Manager(hw::Cluster& cluster, net::Fabric& fabric, hw::NodeId node,
                 ManagerParams params)
    : cluster_(&cluster),
      fabric_(&fabric),
      node_(node),
      p_(std::move(params)),
      inbox_(cluster.sim()) {
  // The durability model only makes sense if unsynced pages can be lost.
  p_.fs.volatile_dirty_pages = true;
  if (hw::PageCache* cache = cluster_->node(node_).cache()) {
    fs_ = std::make_unique<localfs::LocalFs>(cluster_->sim(), *cache, p_.fs);
    if (p_.journaling) {
      journal_ = std::make_unique<MetaJournal>(cluster_->sim(), *fs_,
                                               p_.journal);
    }
  }
}

void Manager::set_obs(obs::Tracer* tracer, obs::Registry* metrics) {
  tracer_ = tracer;
  metrics_ = metrics;
  pid_ = tracer_ ? tracer_->node_pid(node_) : 0;
}

void Manager::crash(bool wipe_unsynced) {
  if (crashed_) return;
  crashed_ = true;
  ++epoch_;
  ++stats_.crashes;
  files_.clear();
  dedup_.clear();
  next_handle_ = 1;
  // Without wipe the page cache is treated as having reached the platter
  // (crash-consistent battery-backed cache); with it, dirty journal/ckpt
  // bytes die and only flushed records survive to replay.
  if (fs_ && wipe_unsynced) fs_->crash();
  if (obs::kEnabled && tracer_) {
    tracer_->instant("mgr.crash", "fault",
                     wipe_unsynced ? "\"wipe\":1" : "\"wipe\":0");
  }
}

sim::Task<void> Manager::restart() {
  // Drain a handler suspended mid-serve (it is fenced by the epoch bump and
  // will not apply or reply) so replay never interleaves with its journal
  // append still in flight on the manager disk.
  while (serving_) co_await cluster_->sim().sleep(sim::us(100));

  files_.clear();
  dedup_.clear();
  next_handle_ = 1;
  std::uint64_t replayed = 0;
  std::uint32_t durable_inc = incarnation_;
  if (journal_) {
    MetaJournal::Recovered rec = co_await journal_->recover();
    next_handle_ = rec.snapshot.next_handle;
    durable_inc = std::max(durable_inc, rec.snapshot.incarnation);
    for (const SnapshotFile& f : rec.snapshot.files) {
      files_[f.name] =
          OpenFile{f.handle, f.layout, f.scheme, f.red_gen, f.rgroup};
    }
    for (const SnapshotDedup& d : rec.snapshot.dedup) {
      MetaResponse resp;
      resp.ok = d.ok;
      resp.err = static_cast<Errc>(d.err);
      resp.file = OpenFile{d.handle, d.layout, d.scheme, d.red_gen, d.rgroup};
      dedup_put(d.from, d.req_id, resp);
    }
    for (const JournalRecord& r : rec.records) {
      apply_record(r);
      if (r.req_id != 0) {
        // The record committed, so the retry must see the success reply.
        MetaResponse resp;
        auto it = files_.find(r.name);
        if (it != files_.end()) resp.file = it->second;
        else resp.file.handle = r.handle;
        dedup_put(r.from, r.req_id, resp);
      }
      ++replayed;
    }
  }
  incarnation_ = durable_inc + 1;
  // Persist the new incarnation (and fold the replayed records into a fresh
  // checkpoint) before serving: a second crash must not reuse an epoch.
  if (journal_) co_await journal_->write_checkpoint(snapshot());
  crashed_ = false;
  ++stats_.replays;
  stats_.replayed_records += replayed;
  if (obs::kEnabled && tracer_) {
    tracer_->instant("mgr.replay", "fault",
                     "\"records\":" + std::to_string(replayed) +
                         ",\"files\":" + std::to_string(files_.size()) +
                         ",\"incarnation\":" + std::to_string(incarnation_));
  }
}

sim::Task<void> Manager::dispatcher() {
  for (;;) {
    MetaRequest r = co_await inbox_.recv();
    if (r.op == MetaOp::shutdown) break;
    if (crashed_) {
      ++stats_.dropped_requests;
      continue;
    }
    const std::uint64_t epoch = epoch_;
    serving_ = true;
    MetaResponse resp = co_await serve(r, epoch);
    serving_ = false;
    if (epoch != epoch_) continue;  // crashed mid-serve: no reply escapes
    if (co_await fabric_->transfer(node_, r.from, sizeof(MetaResponse)) !=
        net::Delivery::ok) {
      ++stats_.dropped_replies;
      continue;
    }
    if (epoch != epoch_) continue;  // crashed during the reply transfer
    r.reply->send(std::move(resp));
  }
}

sim::Task<MetaResponse> Manager::serve(const MetaRequest& r,
                                       std::uint64_t epoch) {
  ++stats_.served;
  MetaResponse resp;
  resp.mgr_epoch = incarnation_;

  // A retried mutation we already answered resends the original reply —
  // never re-executes (the fix for retried-create => already_exists).
  if (r.req_id != 0) {
    if (const MetaResponse* hit = dedup_find(r.from, r.req_id)) {
      resp = *hit;
      resp.mgr_epoch = incarnation_;
      ++stats_.dedup_hits;
      co_return resp;
    }
  }

  // Incarnation fence: a mutation prepared against a pre-crash view must
  // not clobber replayed state.
  if (r.fence_epoch != 0 && r.fence_epoch != incarnation_) {
    resp.ok = false;
    resp.err = Errc::stale_epoch;
    ++stats_.stale_epoch_rejects;
    if (r.req_id != 0) dedup_put(r.from, r.req_id, resp);
    co_return resp;
  }

  // Validate against current state and build the journal record for ops
  // that mutate. Failures are never journaled: replay re-derives the same
  // failure deterministically.
  bool mutates = false;
  JournalRecord rec;
  switch (r.op) {
    case MetaOp::create: {
      if (files_.contains(r.name)) {
        resp.ok = false;
        resp.err = Errc::already_exists;
        break;
      }
      rec.kind = JournalRecord::Kind::create;
      rec.name = r.name;
      rec.layout = r.layout;
      rec.scheme = r.scheme;
      rec.handle = next_handle_;
      mutates = true;
      break;
    }
    case MetaOp::open: {
      auto it = files_.find(r.name);
      if (it == files_.end()) {
        resp.ok = false;
        resp.err = Errc::not_found;
        break;
      }
      resp.file = it->second;
      break;
    }
    case MetaOp::remove: {
      if (!files_.contains(r.name)) {
        resp.ok = false;
        resp.err = Errc::not_found;
        break;
      }
      rec.kind = JournalRecord::Kind::remove;
      rec.name = r.name;
      mutates = true;
      break;
    }
    case MetaOp::set_redundancy: {
      auto it = files_.find(r.name);
      if (it == files_.end()) {
        resp.ok = false;
        resp.err = Errc::not_found;
        break;
      }
      // Resolve the request against the entry: an unset field keeps its
      // value. One request is served at a time, so the entry cannot change
      // before the record built from it applies.
      OpenFile next = it->second;
      if (r.scheme != kSchemeUnset) {
        if (r.red_gen < next.red_gen) {
          // A delayed duplicate must not roll the generation backwards.
          resp.ok = false;
          resp.err = Errc::stale_generation;
          ++stats_.stale_gen_rejects;
          break;
        }
        next.scheme = r.scheme;
        next.red_gen = r.red_gen;
      }
      if (r.rgroup != kRgroupUnset) next.rgroup = r.rgroup;
      if (next.scheme == it->second.scheme &&
          next.red_gen == it->second.red_gen &&
          next.rgroup == it->second.rgroup) {
        // Idempotent re-persist (reconciliation, a retried migrator
        // persist, a re-tag): already durable, nothing to journal.
        resp.file = it->second;
        break;
      }
      rec.kind = JournalRecord::Kind::set_redundancy;
      rec.name = r.name;
      rec.scheme = next.scheme;
      rec.red_gen = next.red_gen;
      rec.rgroup = next.rgroup;
      rec.handle = next.handle;
      mutates = true;
      break;
    }
    case MetaOp::shutdown:
      break;
  }

  if (mutates) {
    rec.from = r.from;
    rec.req_id = r.req_id;
    if (journal_) {
      // Write-ahead: the record is durable before the table changes or the
      // client hears anything.
      co_await journal_->append(rec);
      if (epoch != epoch_) {
        // Crashed while the append was in flight. If the record made it to
        // disk, replay applied (or will apply) it — committed but
        // unacknowledged, exactly what the client retry path handles.
        resp.ok = false;
        resp.err = Errc::unavailable;
        co_return resp;
      }
    }
    apply_record(rec);
    auto it = files_.find(r.name);
    if (it != files_.end()) resp.file = it->second;
  }

  if (r.req_id != 0) dedup_put(r.from, r.req_id, resp);

  if (mutates && journal_ && journal_->checkpoint_due()) {
    // snapshot() is taken synchronously (no await since apply_record), so
    // it reflects every journaled record including this one.
    co_await journal_->write_checkpoint(snapshot());
  }
  co_return resp;
}

void Manager::apply_record(const JournalRecord& rec) {
  switch (rec.kind) {
    case JournalRecord::Kind::create: {
      files_[rec.name] = OpenFile{rec.handle, rec.layout, rec.scheme, 0};
      next_handle_ = std::max(next_handle_, rec.handle + 1);
      break;
    }
    case JournalRecord::Kind::remove: {
      files_.erase(rec.name);
      break;
    }
    case JournalRecord::Kind::set_redundancy: {
      auto it = files_.find(rec.name);
      if (it != files_.end()) {
        it->second = OpenFile{it->second.handle, it->second.layout, rec.scheme,
                              rec.red_gen, rec.rgroup};
      }
      break;
    }
  }
}

MetaSnapshot Manager::snapshot() const {
  MetaSnapshot s;
  s.next_handle = next_handle_;
  s.incarnation = incarnation_;
  for (const auto& [name, f] : files_) {
    s.files.push_back(
        {name, f.handle, f.layout, f.scheme, f.red_gen, f.rgroup});
  }
  for (const auto& [from, cd] : dedup_) {
    for (std::uint64_t id : cd.order) {
      const MetaResponse& resp = cd.by_id.at(id);
      s.dedup.push_back({from, id, resp.ok, static_cast<std::uint8_t>(
                                                resp.err),
                         resp.file.handle, resp.file.layout, resp.file.scheme,
                         resp.file.red_gen, resp.file.rgroup});
    }
  }
  return s;
}

const MetaResponse* Manager::dedup_find(hw::NodeId from,
                                        std::uint64_t req_id) const {
  auto cit = dedup_.find(from);
  if (cit == dedup_.end()) return nullptr;
  auto it = cit->second.by_id.find(req_id);
  return it == cit->second.by_id.end() ? nullptr : &it->second;
}

void Manager::dedup_put(hw::NodeId from, std::uint64_t req_id,
                        const MetaResponse& resp) {
  ClientDedup& cd = dedup_[from];
  auto [it, inserted] = cd.by_id.emplace(req_id, resp);
  if (!inserted) {
    it->second = resp;
    return;
  }
  cd.order.push_back(req_id);
  while (cd.order.size() > p_.dedup_window) {
    cd.by_id.erase(cd.order.front());
    cd.order.pop_front();
  }
}

}  // namespace csar::pvfs
