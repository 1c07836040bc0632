#include "common/buffer_map.hpp"

#include "common/small_vec.hpp"

namespace csar {

Buffer read_range(const BufferMap& m, std::uint64_t start, std::uint64_t end) {
  const auto chunks = m.query(start, end);
  for (const auto& c : chunks) {
    if (!c.value->materialized()) return Buffer::phantom(end - start);
  }
  SmallVec<Buffer, 8> pieces;
  pieces.reserve(2 * chunks.size() + 1);
  std::uint64_t pos = start;
  for (const auto& c : chunks) {
    if (c.start > pos) pieces.push_back(Buffer::real(c.start - pos));
    pieces.push_back(c.value->slice(c.start - c.entry_start, c.end - c.start));
    pos = c.end;
  }
  if (end > pos) pieces.push_back(Buffer::real(end - pos));
  return Buffer::concat(pieces);
}

}  // namespace csar
