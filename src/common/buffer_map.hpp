// BufferMap: sparse byte content as an IntervalMap of Buffers. Inserts
// store the written buffer as is. Overwrites slice the surviving head and
// tail of a partly covered entry by view, unless the residue covers less
// than half of the backing bytes it pins: then it is copied into its own
// exact backing (Buffer::shrink_to_fit), so the dead bytes around it are
// freed. read_range() assembles any range as a run list over the stored
// bytes (no copies). Used for a LocalFs file's content, the collective-I/O
// staging maps and the scrubber's mirror map.
#pragma once

#include <cstdint>

#include "common/buffer.hpp"
#include "common/interval_map.hpp"

namespace csar {

/// IntervalMap::erase's slicer: the only place a stored head or tail
/// residue is made.
struct BufferSlicer {
  Buffer operator()(const Buffer& b, std::uint64_t off,
                    std::uint64_t len) const {
    Buffer residue = b.slice(off, len);
    residue.shrink_to_fit();
    return residue;
  }
};

using BufferMap = IntervalMap<Buffer, BufferSlicer>;

/// The bytes of [start, end): the stored runs joined by Buffer::concat
/// (shared, not copied), with unmapped holes read as zeros (the only bytes
/// written). A range inside one stored run comes back as a plain view.
/// Phantom if any overlapping entry is phantom.
Buffer read_range(const BufferMap& m, std::uint64_t start, std::uint64_t end);

}  // namespace csar
