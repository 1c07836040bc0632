#include "localfs/local_fs.hpp"

#include <algorithm>
#include <cassert>

#include "common/units.hpp"

namespace csar::localfs {

void LocalFs::create(const std::string& name) { open(name); }

void LocalFs::remove(const std::string& name) {
  auto it = files_.find(name);
  if (it == files_.end()) return;
  it->second->linked = false;
  files_.erase(it);
}

void LocalFs::wipe() {
  for (auto& [name, f] : files_) f->linked = false;
  files_.clear();
  cache_->drop_all();
}

std::uint64_t LocalFs::size(const std::string& name) const {
  auto it = files_.find(name);
  return it == files_.end() ? 0 : it->second->content.upper_bound();
}

LocalFs::FileRef LocalFs::open(const std::string& name) {
  auto it = files_.find(name);
  if (it == files_.end()) {
    it = files_
             .emplace(name, std::make_shared<File>(File{next_fid_++, {}, true}))
             .first;
  }
  return it->second;
}

sim::Task<void> LocalFs::write(FileRef f, std::uint64_t off, Buffer payload) {
  if (payload.empty()) co_return;
  // Old content exists only where the (sparse) content map has entries;
  // holes cost no pre-read, exactly like unallocated ext2 blocks.
  auto has_content = [&content = f->content](std::uint64_t s,
                                             std::uint64_t e) {
    return content.intersects(s, e);
  };
  co_await cache_->write(f->fid, off, payload.size(), has_content,
                         p_.pad_partial_blocks);
  const std::uint64_t end = off + payload.size();
  f->content.insert(off, end, std::move(payload));
}

sim::Task<void> LocalFs::write_stream(FileRef f, std::uint64_t off,
                                      Buffer payload,
                                      std::uint32_t net_chunk) {
  if (payload.empty()) co_return;
  const std::uint64_t len = payload.size();
  auto has_content = [&content = f->content](std::uint64_t s,
                                             std::uint64_t e) {
    return content.intersects(s, e);
  };
  const std::uint32_t page = cache_->params().page_size;

  if (!p_.write_buffering) {
    // The iod writes whatever each non-blocking receive returned; chunk
    // boundaries are unrelated to file blocks, so interior blocks are
    // usually written in two partial pieces (§5.2).
    assert(net_chunk > 0);
    for (std::uint64_t pos = 0; pos < len; pos += net_chunk) {
      const std::uint64_t n = std::min<std::uint64_t>(net_chunk, len - pos);
      co_await cache_->write(f->fid, off + pos, n, has_content,
                             p_.pad_partial_blocks);
    }
  } else {
    // Write buffering (§5.2 fix): chunks accumulate in a buffer that is a
    // multiple of the block size, so the file sees block-aligned writes in
    // write_buffer_bytes bursts; only the request edges stay partial.
    const std::uint64_t burst = std::max<std::uint64_t>(
        p_.write_buffer_bytes - p_.write_buffer_bytes % page, page);
    const std::uint64_t head_end = std::min(align_up(off, page), off + len);
    const std::uint64_t tail_start =
        std::max(align_down(off + len, page), head_end);
    if (head_end > off) {
      co_await cache_->write(f->fid, off, head_end - off, has_content,
                             p_.pad_partial_blocks);
    }
    for (std::uint64_t pos = head_end; pos < tail_start; pos += burst) {
      const std::uint64_t n = std::min(burst, tail_start - pos);
      co_await cache_->write(f->fid, pos, n, has_content, p_.pad_partial_blocks);
    }
    if (off + len > tail_start) {
      co_await cache_->write(f->fid, tail_start, off + len - tail_start,
                             has_content, p_.pad_partial_blocks);
    }
  }
  f->content.insert(off, off + len, std::move(payload));
}

sim::Task<Buffer> LocalFs::read(const std::string& name, std::uint64_t off,
                                std::uint64_t len, bool materialized_hint) {
  auto out = co_await read_checked(name, off, len, materialized_hint);
  co_return std::move(out.data);
}

sim::Task<LocalFs::ReadOutcome> LocalFs::read_checked(FileRef f,
                                                      std::uint64_t off,
                                                      std::uint64_t len,
                                                      bool materialized_hint) {
  if (f == nullptr) {
    // Absent file: reads see zeros and cost only the copy-out.
    co_return ReadOutcome{
        materialized_hint ? Buffer::real(len) : Buffer::phantom(len), false};
  }
  auto has_content = [&content = f->content](std::uint64_t s,
                                             std::uint64_t e) {
    return content.intersects(s, e);
  };
  const bool media_error =
      co_await cache_->read(f->fid, off, len, has_content) ==
      hw::IoStatus::media_error;

  // Stored runs joined without copying (holes read as zeros); a run
  // covering the whole request comes back as a plain view (the common case
  // for block-aligned rereads of buffered writes). Any phantom run makes
  // the result phantom.
  Buffer out = materialized_hint ? read_range(f->content, off, off + len)
                                 : Buffer::phantom(len);
  co_return ReadOutcome{std::move(out), media_error};
}

sim::Task<void> LocalFs::flush() { co_await cache_->flush_all(); }

void LocalFs::drop_caches() { cache_->drop_all(); }

std::uint64_t LocalFs::total_content_bytes() const {
  std::uint64_t sum = 0;
  for (const auto& [name, f] : files_) sum += f->content.upper_bound();
  return sum;
}

}  // namespace csar::localfs
