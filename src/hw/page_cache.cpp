#include "hw/page_cache.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "common/units.hpp"

namespace csar::hw {

void PageCache::lru_unlink(std::uint32_t s) {
  Page& pg = pool_[s];
  if (pg.prev != kNil) {
    pool_[pg.prev].next = pg.next;
  } else {
    head_ = pg.next;
  }
  if (pg.next != kNil) {
    pool_[pg.next].prev = pg.prev;
  } else {
    tail_ = pg.prev;
  }
  pg.prev = pg.next = kNil;
}

void PageCache::lru_push_back(std::uint32_t s) {
  Page& pg = pool_[s];
  pg.prev = tail_;
  pg.next = kNil;
  if (tail_ != kNil) {
    pool_[tail_].next = s;
  } else {
    head_ = s;
  }
  tail_ = s;
}

void PageCache::hit(std::uint32_t slot, bool dirty) {
  Page& pg = pool_[slot];
  if (dirty && !pg.dirty) {
    pg.dirty = true;
    ++dirty_count_;
  }
  touch(slot);
}

void PageCache::insert(std::uint64_t fid, std::uint64_t page, bool dirty) {
  const std::size_t b = probe(fid, page);
  const std::uint32_t found = index_.slot_at(b);
  if (found != kNil) {
    hit(found, dirty);
  } else {
    insert_at(b, fid, page, dirty);
  }
}

void PageCache::insert_at(std::size_t bucket, std::uint64_t fid,
                          std::uint64_t page, bool dirty) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    pool_[slot] = Page{fid, page, dirty, true, kNil, kNil};
  } else {
    slot = static_cast<std::uint32_t>(pool_.size());
    pool_.push_back(Page{fid, page, dirty, true, kNil, kNil});
  }
  lru_push_back(slot);
  if (index_.needs_grow()) {
    index_.grow([this](std::uint32_t s) { return home_of(s); });
    bucket = probe(fid, page);
  }
  index_.fill(bucket, slot);
  if (dirty) ++dirty_count_;
}

sim::Task<void> PageCache::ensure_room() {
  assert(resident_bytes() > p_.capacity_bytes);
  // Reclaim down to a hysteresis point one batch below capacity: victims are
  // collected synchronously (so the LRU stays consistent), then dirty ones
  // are written out in address order.
  const std::uint64_t batch_bytes =
      static_cast<std::uint64_t>(p_.evict_batch) * p_.page_size;
  const std::uint64_t target =
      p_.capacity_bytes > batch_bytes ? p_.capacity_bytes - batch_bytes : 0;
  std::vector<std::uint64_t> dirty_addrs;
  while (resident_bytes() > target && head_ != kNil) {
    const std::uint32_t slot = head_;
    Page& pg = pool_[slot];
    if (pg.dirty) {
      dirty_addrs.push_back(page_addr(pg.fid, pg.idx, p_.page_size));
      --dirty_count_;
      ++stats_.dirty_evictions;
    } else {
      ++stats_.clean_evictions;
    }
    lru_unlink(slot);
    index_.erase(slot, [this](std::uint32_t s) { return home_of(s); });
    pg.live = false;
    free_.push_back(slot);
  }
  std::sort(dirty_addrs.begin(), dirty_addrs.end());
  // Coalesce address-contiguous victims into single disk writes.
  std::size_t i = 0;
  while (i < dirty_addrs.size()) {
    std::size_t j = i + 1;
    while (j < dirty_addrs.size() &&
           dirty_addrs[j] == dirty_addrs[j - 1] + p_.page_size) {
      ++j;
    }
    co_await disk_->write(dirty_addrs[i],
                          static_cast<std::uint64_t>(j - i) * p_.page_size);
    i = j;
  }
}

sim::Task<IoStatus> PageCache::read(std::uint64_t fid, std::uint64_t off,
                                    std::uint64_t len,
                                    const ContentPred& has_content) {
  if (len == 0) co_return IoStatus::ok;
  IoStatus status = IoStatus::ok;
  const std::uint64_t first = off / p_.page_size;
  const std::uint64_t last = (off + len - 1) / p_.page_size;
  std::uint64_t run_start = 0;  // first page of a pending miss run
  std::uint64_t run_len = 0;    // pages in the pending miss run
  // Entered only with a run pending, so cache hits allocate no frame here.
  auto flush_run = [&]() -> sim::Task<void> {
    ++stats_.miss_runs;
    if (co_await disk_->read(page_addr(fid, run_start, p_.page_size),
                             run_len * p_.page_size) ==
        IoStatus::media_error) {
      // Failed runs are not cached: retries keep hitting the bad sectors
      // until something rewrites them.
      status = IoStatus::media_error;
      run_len = 0;
      co_return;
    }
    for (std::uint64_t k = 0; k < run_len; ++k) {
      insert(fid, run_start + k, /*dirty=*/false);
    }
    run_len = 0;
    if (resident_bytes() > p_.capacity_bytes) co_await ensure_room();
  };
  for (std::uint64_t pg = first; pg <= last; ++pg) {
    const bool is_hole =
        !has_content(pg * p_.page_size, (pg + 1) * p_.page_size);
    const std::uint32_t slot = is_hole ? kNil : find(fid, pg);
    if (is_hole || slot != kNil) {
      if (!is_hole) {
        ++stats_.hits;
        touch(slot);
      }
      if (run_len != 0) co_await flush_run();
      continue;
    }
    ++stats_.misses;
    if (run_len == 0) run_start = pg;
    ++run_len;
  }
  if (run_len != 0) co_await flush_run();
  co_await mem_->transfer(len);
  co_return status;
}

sim::Task<void> PageCache::write(std::uint64_t fid, std::uint64_t off,
                                 std::uint64_t len,
                                 const ContentPred& has_content,
                                 bool pad_partial) {
  if (len == 0) co_return;
  const std::uint64_t first = off / p_.page_size;
  const std::uint64_t last = (off + len - 1) / p_.page_size;
  for (std::uint64_t pg = first; pg <= last; ++pg) {
    const std::uint64_t pg_start = pg * p_.page_size;
    const std::uint64_t pg_end = pg_start + p_.page_size;
    const bool full =
        pad_partial || (off <= pg_start && off + len >= pg_end);
    // One probe: it finds the resident page, or the bucket to insert at.
    const std::size_t b = probe(fid, pg);
    if (index_.slot_at(b) != kNil) {
      ++stats_.hits;
      hit(index_.slot_at(b), /*dirty=*/true);
      continue;
    }
    if (!full && has_content(pg_start, pg_end)) {
      // §5.2: a sub-page write to uncached, preexisting content forces the
      // page to be read from disk before the write can be applied.
      ++stats_.prereads;
      // A media error on the pre-read is absorbed: the overwrite that
      // follows remaps the bad sectors anyway.
      (void)co_await disk_->read(page_addr(fid, pg, p_.page_size),
                                 p_.page_size);
      // The index may have changed while the pre-read was in flight.
      insert(fid, pg, /*dirty=*/true);
    } else {
      ++stats_.write_allocs;
      insert_at(b, fid, pg, /*dirty=*/true);
    }
    if (resident_bytes() > p_.capacity_bytes) co_await ensure_room();
  }
  co_await mem_->transfer(len);
}

sim::Task<void> PageCache::flush_all() {
  std::vector<std::uint64_t> dirty_addrs;
  dirty_addrs.reserve(dirty_count_);
  for (Page& page : pool_) {
    if (page.live && page.dirty) {
      dirty_addrs.push_back(page_addr(page.fid, page.idx, p_.page_size));
      page.dirty = false;
    }
  }
  dirty_count_ = 0;
  std::sort(dirty_addrs.begin(), dirty_addrs.end());
  std::size_t i = 0;
  while (i < dirty_addrs.size()) {
    std::size_t j = i + 1;
    while (j < dirty_addrs.size() &&
           dirty_addrs[j] == dirty_addrs[j - 1] + p_.page_size) {
      ++j;
    }
    co_await disk_->write(dirty_addrs[i],
                          static_cast<std::uint64_t>(j - i) * p_.page_size);
    i = j;
  }
}

void PageCache::drop_all() {
  index_.clear();
  pool_.clear();   // capacity retained: steady state stays allocation-free
  free_.clear();
  head_ = tail_ = kNil;
  dirty_count_ = 0;
}

}  // namespace csar::hw
