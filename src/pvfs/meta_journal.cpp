#include "pvfs/meta_journal.hpp"

#include <cstring>
#include <span>

namespace csar::pvfs {
namespace {

constexpr std::uint64_t kHeaderBytes = 12;  // u32 len + u64 checksum

std::uint64_t fnv1a(std::span<const std::byte> bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(std::to_integer<std::uint8_t>(b));
    h *= 1099511628211ull;
  }
  return h;
}

// Little-endian scalar codec over std::vector<std::byte>. Explicit widths —
// the journal is a durable format and must not depend on host layout.
void put_u8(std::vector<std::byte>& v, std::uint8_t x) {
  v.push_back(static_cast<std::byte>(x));
}
void put_u32(std::vector<std::byte>& v, std::uint32_t x) {
  for (int i = 0; i < 4; ++i) put_u8(v, static_cast<std::uint8_t>(x >> (8 * i)));
}
void put_u64(std::vector<std::byte>& v, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) put_u8(v, static_cast<std::uint8_t>(x >> (8 * i)));
}
void put_string(std::vector<std::byte>& v, const std::string& s) {
  put_u32(v, static_cast<std::uint32_t>(s.size()));
  for (char c : s) v.push_back(static_cast<std::byte>(c));
}
void put_layout(std::vector<std::byte>& v, const StripeLayout& l) {
  put_u32(v, l.stripe_unit);
  put_u32(v, l.nservers);
  put_u8(v, static_cast<std::uint8_t>(l.placement));
  put_u32(v, l.base);
}

struct Reader {
  std::span<const std::byte> bytes;
  std::size_t off = 0;
  bool ok = true;

  std::uint8_t u8() {
    if (off + 1 > bytes.size()) {
      ok = false;
      return 0;
    }
    return std::to_integer<std::uint8_t>(bytes[off++]);
  }
  std::uint32_t u32() {
    std::uint32_t x = 0;
    for (int i = 0; i < 4; ++i) x |= static_cast<std::uint32_t>(u8()) << (8 * i);
    return x;
  }
  std::uint64_t u64() {
    std::uint64_t x = 0;
    for (int i = 0; i < 8; ++i) x |= static_cast<std::uint64_t>(u8()) << (8 * i);
    return x;
  }
  std::string string() {
    const std::uint32_t n = u32();
    if (!ok || off + n > bytes.size()) {
      ok = false;
      return {};
    }
    std::string s(n, '\0');
    std::memcpy(s.data(), bytes.data() + off, n);
    off += n;
    return s;
  }
  StripeLayout layout() {
    StripeLayout l;
    l.stripe_unit = u32();
    l.nservers = u32();
    l.placement = static_cast<ParityPlacement>(u8());
    l.base = u32();
    return l;
  }
};

std::vector<std::byte> encode_record(const JournalRecord& r) {
  std::vector<std::byte> p;
  put_u8(p, static_cast<std::uint8_t>(r.kind));
  put_u8(p, r.scheme);
  put_u8(p, r.rgroup);
  put_layout(p, r.layout);
  put_u32(p, r.red_gen);
  put_u32(p, r.from);
  put_u64(p, r.handle);
  put_u64(p, r.req_id);
  put_string(p, r.name);
  return p;
}

bool decode_record(std::span<const std::byte> payload, JournalRecord* out) {
  Reader rd{payload};
  out->kind = static_cast<JournalRecord::Kind>(rd.u8());
  out->scheme = rd.u8();
  out->rgroup = rd.u8();
  out->layout = rd.layout();
  out->red_gen = rd.u32();
  out->from = rd.u32();
  out->handle = rd.u64();
  out->req_id = rd.u64();
  out->name = rd.string();
  return rd.ok && rd.off == payload.size();
}

std::vector<std::byte> encode_snapshot(std::uint64_t seq,
                                       const MetaSnapshot& s) {
  std::vector<std::byte> p;
  put_u64(p, seq);
  put_u64(p, s.next_handle);
  put_u32(p, s.incarnation);
  put_u32(p, static_cast<std::uint32_t>(s.files.size()));
  for (const SnapshotFile& f : s.files) {
    put_string(p, f.name);
    put_u64(p, f.handle);
    put_layout(p, f.layout);
    put_u8(p, f.scheme);
    put_u32(p, f.red_gen);
    put_u8(p, f.rgroup);
  }
  put_u32(p, static_cast<std::uint32_t>(s.dedup.size()));
  for (const SnapshotDedup& d : s.dedup) {
    put_u32(p, d.from);
    put_u64(p, d.req_id);
    put_u8(p, d.ok ? 1 : 0);
    put_u8(p, d.err);
    put_u64(p, d.handle);
    put_layout(p, d.layout);
    put_u8(p, d.scheme);
    put_u32(p, d.red_gen);
    put_u8(p, d.rgroup);
  }
  return p;
}

bool decode_snapshot(std::span<const std::byte> payload, std::uint64_t* seq,
                     MetaSnapshot* out) {
  Reader rd{payload};
  *seq = rd.u64();
  out->next_handle = rd.u64();
  out->incarnation = rd.u32();
  const std::uint32_t nfiles = rd.u32();
  for (std::uint32_t i = 0; rd.ok && i < nfiles; ++i) {
    SnapshotFile f;
    f.name = rd.string();
    f.handle = rd.u64();
    f.layout = rd.layout();
    f.scheme = rd.u8();
    f.red_gen = rd.u32();
    f.rgroup = rd.u8();
    out->files.push_back(std::move(f));
  }
  const std::uint32_t ndedup = rd.u32();
  for (std::uint32_t i = 0; rd.ok && i < ndedup; ++i) {
    SnapshotDedup d;
    d.from = rd.u32();
    d.req_id = rd.u64();
    d.ok = rd.u8() != 0;
    d.err = rd.u8();
    d.handle = rd.u64();
    d.layout = rd.layout();
    d.scheme = rd.u8();
    d.red_gen = rd.u32();
    d.rgroup = rd.u8();
    out->dedup.push_back(d);
  }
  return rd.ok && rd.off == payload.size();
}

/// Frame a payload as [u32 len][u64 fnv1a(payload)][payload].
Buffer frame(const std::vector<std::byte>& payload) {
  std::vector<std::byte> all;
  all.reserve(kHeaderBytes + payload.size());
  put_u32(all, static_cast<std::uint32_t>(payload.size()));
  put_u64(all, fnv1a(payload));
  all.insert(all.end(), payload.begin(), payload.end());
  return Buffer::from_bytes(all);
}

}  // namespace

sim::Task<void> MetaJournal::append(const JournalRecord& rec) {
  Buffer buf = frame(encode_record(rec));
  const std::uint64_t len = buf.size();
  co_await fs_->write(kJournalFile, tail_, std::move(buf));
  if (p_.sync_appends) {
    co_await fs_->flush();
    ++stats_.flushes;
  }
  tail_ += len;
  ++since_ckpt_;
  ++stats_.records_appended;
  stats_.bytes_appended += len;
}

sim::Task<void> MetaJournal::write_checkpoint(const MetaSnapshot& snap) {
  const unsigned slot = next_slot_;
  Buffer buf = frame(encode_snapshot(++ckpt_seq_, snap));
  fs_->remove(ckpt_file(slot));
  co_await fs_->write(ckpt_file(slot), 0, std::move(buf));
  co_await fs_->flush();
  ++stats_.flushes;
  // Checkpoint is durable; truncate the journal. remove+create with no await
  // in between — atomic under the cooperative scheduler.
  fs_->remove(kJournalFile);
  fs_->create(kJournalFile);
  tail_ = 0;
  since_ckpt_ = 0;
  next_slot_ = slot ^ 1u;
  ++stats_.checkpoints;
}

sim::Task<MetaJournal::Recovered> MetaJournal::recover() {
  Recovered out;

  // Newest valid checkpoint wins; the loser slot takes the next checkpoint.
  std::uint64_t best_seq = 0;
  int best_slot = -1;
  for (unsigned slot = 0; slot < 2; ++slot) {
    const char* name = ckpt_file(slot);
    const std::uint64_t sz = fs_->size(name);
    if (!fs_->exists(name) || sz < kHeaderBytes) continue;
    Buffer hdr = co_await fs_->read(name, 0, kHeaderBytes);
    Reader hr{hdr.bytes()};
    const std::uint32_t len = hr.u32();
    const std::uint64_t sum = hr.u64();
    if (len == 0 || kHeaderBytes + len > sz) continue;
    Buffer payload = co_await fs_->read(name, kHeaderBytes, len);
    if (fnv1a(payload.bytes()) != sum) continue;
    std::uint64_t seq = 0;
    MetaSnapshot snap;
    if (!decode_snapshot(payload.bytes(), &seq, &snap)) continue;
    if (best_slot < 0 || seq > best_seq) {
      best_seq = seq;
      best_slot = static_cast<int>(slot);
      out.snapshot = std::move(snap);
      out.had_checkpoint = true;
    }
  }
  ckpt_seq_ = best_seq;
  next_slot_ = best_slot < 0 ? 0u : static_cast<unsigned>(best_slot) ^ 1u;

  // Scan the journal for the valid record prefix.
  const std::uint64_t size = fs_->size(kJournalFile);
  std::uint64_t off = 0;
  bool torn = false;
  while (off + kHeaderBytes <= size) {
    Buffer hdr = co_await fs_->read(kJournalFile, off, kHeaderBytes);
    Reader hr{hdr.bytes()};
    const std::uint32_t len = hr.u32();
    const std::uint64_t sum = hr.u64();
    if (len == 0) break;  // clean end (zero-filled / never-written space)
    if (off + kHeaderBytes + len > size) {
      torn = true;
      break;
    }
    Buffer payload = co_await fs_->read(kJournalFile, off + kHeaderBytes, len);
    JournalRecord rec;
    if (fnv1a(payload.bytes()) != sum ||
        !decode_record(payload.bytes(), &rec)) {
      torn = true;
      break;
    }
    out.records.push_back(std::move(rec));
    off += kHeaderBytes + len;
  }
  if (torn || off < size) {
    // Zero-fill the discarded tail so stale bytes beyond the new append
    // cursor can never alias as a valid record after later, shorter appends.
    co_await fs_->write(kJournalFile, off, Buffer::real(size - off));
    co_await fs_->flush();
    ++stats_.flushes;
    if (torn) {
      out.torn_tail = true;
      ++stats_.truncated_records;
    }
  }
  tail_ = off;
  since_ckpt_ = static_cast<std::uint32_t>(out.records.size());
  co_return out;
}

}  // namespace csar::pvfs
