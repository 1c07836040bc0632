#include "pvfs/layout.hpp"

#include <algorithm>

namespace csar::pvfs {

StripeLayout::Extents StripeLayout::decompose(std::uint64_t off,
                                              std::uint64_t len) const {
  Extents out;
  const std::uint64_t end = off + len;
  std::uint64_t pos = off;
  while (pos < end) {
    const std::uint64_t u = unit_of(pos);
    const std::uint64_t unit_end = (u + 1) * stripe_unit;
    const std::uint64_t n = std::min(end, unit_end) - pos;
    out.push_back(Extent{server_of_unit(u), pos, local_off(pos), n});
    pos += n;
  }
  return out;
}

StripeLayout::Extents StripeLayout::decompose_merged(std::uint64_t off,
                                                     std::uint64_t len) const {
  // Per-unit pieces of one server tile a contiguous local range (interior
  // units of a contiguous global range are fully covered), so each server
  // gets exactly one extent, found in closed form: it starts in the
  // server's first unit at or after unit_of(off) and holds server_bytes()
  // bytes. global_off records the first global byte.
  Extents out;
  if (len == 0) return out;
  const std::uint64_t dn = data_servers();
  const std::uint64_t u0 = unit_of(off);
  const std::uint64_t u_last = unit_of(off + len - 1);
  const std::uint64_t s0 = server_of_unit(u0);
  for (std::uint32_t s = 0; s < dn; ++s) {
    const std::uint64_t u = u0 + (s + dn - s0) % dn;
    if (u > u_last) continue;
    const std::uint64_t start = u == u0 ? off : u * stripe_unit;
    out.push_back(
        Extent{s, start, local_off(start), server_bytes(off, len, s)});
  }
  return out;
}

}  // namespace csar::pvfs
