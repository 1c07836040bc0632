#include "pvfs/layout.hpp"

#include <algorithm>

namespace csar::pvfs {

std::vector<StripeLayout::Extent> StripeLayout::decompose(
    std::uint64_t off, std::uint64_t len) const {
  std::vector<Extent> out;
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

std::vector<StripeLayout::Extent> StripeLayout::decompose_merged(
    std::uint64_t off, std::uint64_t len) const {
  // Per-unit pieces of one server tile a contiguous local range (interior
  // units of a contiguous global range are fully covered), so each server
  // gets exactly one extent. global_off records the first global byte.
  std::vector<Extent> per_server(nservers,
                                 Extent{0, 0, 0, 0});
  std::vector<bool> seen(nservers, false);
  for (const Extent& e : decompose(off, len)) {
    if (!seen[e.server]) {
      per_server[e.server] = e;
      seen[e.server] = true;
    } else {
      per_server[e.server].len += e.len;
    }
  }
  std::vector<Extent> out;
  for (std::uint32_t s = 0; s < nservers; ++s) {
    if (seen[s]) out.push_back(per_server[s]);
  }
  return out;
}

}  // namespace csar::pvfs
