// StripeLayout: PVFS round-robin striping math plus CSAR's parity geometry.
//
// Data layout (identical to PVFS, §4 of the paper): the file is split into
// stripe units of `su` bytes; unit u lives on server (u % n) at local unit
// index (u / n) of that server's data file.
//
// Parity geometry (Figure 2): a parity group is N-1 *consecutive* stripe
// units. Because N-1 consecutive units occupy N-1 distinct servers, exactly
// one server holds none of the group's data; that server stores the group's
// parity unit in its redundancy file, and it rotates group by group
// (for group g the parity server is ((g+1)*(N-1)) mod N). Every parity
// group is therefore recoverable from a single server failure, while the
// data layout stays byte-identical to plain PVFS. Parity is the k = N-1,
// m = 1 case of the coded-group geometry below, which also places rs(k,m).
//
// A "full stripe" is W = (N-1)*su consecutive bytes aligned on a multiple of
// W. The Hybrid write rule decomposes every write into a leading partial
// stripe, an integral run of full stripes and a trailing partial stripe.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace csar::pvfs {

/// Where parity units live.
enum class ParityPlacement : std::uint8_t {
  /// CSAR (Figure 2): data striped over all N servers; a group's parity
  /// goes to the one server holding none of its data, rotating per group.
  rotating,
  /// RAID4 (the Swift comparison in §3): data striped over servers
  /// 0..N-2, server N-1 is a dedicated parity server.
  fixed,
};

struct StripeLayout {
  std::uint32_t stripe_unit = 64 * 1024;  ///< su: bytes per unit
  std::uint32_t nservers = 6;             ///< N: number of I/O servers
  ParityPlacement placement = ParityPlacement::rotating;
  /// PVFS's `base` attribute: the server holding the file's first stripe
  /// unit. Spreads the "first server" hot spot when many files coexist.
  std::uint32_t base = 0;

  std::uint64_t su() const { return stripe_unit; }
  std::uint32_t n() const { return nservers; }

  /// Servers holding data units: all N (rotating) or N-1 (fixed parity).
  std::uint32_t data_servers() const {
    return placement == ParityPlacement::rotating ? nservers : nservers - 1;
  }

  /// Width of a full stripe (parity group) in bytes: (N-1) * su in both
  /// placements (a group is one unit per data server under `fixed`, and
  /// N-1 consecutive units under `rotating`). Parity schemes need N >= 2.
  std::uint64_t stripe_width() const {
    assert(nservers >= 2);
    return static_cast<std::uint64_t>(nservers - 1) * stripe_unit;
  }

  // --- unit math ---
  std::uint64_t unit_of(std::uint64_t off) const { return off / stripe_unit; }
  std::uint32_t server_of_unit(std::uint64_t u) const {
    return static_cast<std::uint32_t>((base + u) % data_servers());
  }
  std::uint64_t local_unit(std::uint64_t u) const {
    return u / data_servers();
  }

  /// Server-local byte offset of global file offset `off`.
  std::uint64_t local_off(std::uint64_t off) const {
    return local_unit(unit_of(off)) * stripe_unit + off % stripe_unit;
  }

  /// Inverse of local_off for a fixed server: the global file offset of
  /// byte `local` within `server`'s data file.
  std::uint64_t global_off(std::uint32_t server, std::uint64_t local) const {
    const std::uint64_t dn = data_servers();
    const std::uint64_t k = local / stripe_unit;
    const std::uint64_t r = (server + dn - base % dn) % dn;
    return (k * dn + r) * stripe_unit + local % stripe_unit;
  }

  /// Bytes of the global range [off, off+len) stored on `server`: the sum
  /// of decompose()'s extents for that server, in closed form.
  std::uint64_t server_bytes(std::uint64_t off, std::uint64_t len,
                             std::uint32_t server) const {
    const std::uint64_t dn = data_servers();
    if (server >= dn) return 0;
    // Offset of `server`'s unit within each row of dn consecutive units.
    const std::uint64_t start = (server + dn - base % dn) % dn * stripe_unit;
    const std::uint64_t row = dn * stripe_unit;
    // Bytes of `server` in the global prefix [0, x).
    auto prefix = [&](std::uint64_t x) {
      const std::uint64_t rem = x % row;
      const std::uint64_t part =
          rem > start ? std::min<std::uint64_t>(rem - start, stripe_unit) : 0;
      return x / row * stripe_unit + part;
    };
    return prefix(off + len) - prefix(off);
  }

  // --- coded groups: k data units + m coding units ---
  // One geometry serves every scheme that keeps group coding: RAID4, the
  // RAID5 variants and Hybrid's full stripes are k = N-1, m = 1; rs(k,m)
  // is the general case. A group is k consecutive stripe units, so its data
  // sits on k distinct servers and the data layout stays plain PVFS. The
  // group's m coding units live in the servers' redundancy files:
  //  - rotating: coding unit j of group g goes to the j-th server after the
  //    group's data in rotation order, (base + (g+1)*k + j) mod N, so the
  //    k+m units of a group sit on k+m distinct servers (needs k+m <= N).
  //    With d = gcd(k, N) the coding servers repeat every N/d groups, and in
  //    one such period a server receives at most ceil(m/d) coding units,
  //    all with the same j mod d. Slot (period * ceil(m/d) + j/d) packs
  //    them densely: at most one unused slot per server per period. For
  //    k = N-1, m = 1 this is the paper's rotating parity (Figure 2): group
  //    g's parity goes to the one server holding none of its data, in slot
  //    g/N.
  //  - fixed (RAID4, k = N-1, m = 1): data on servers 0..N-2, every group's
  //    coding unit on server N-1, in slot g.
  std::uint64_t group_width(std::uint32_t k) const {
    return static_cast<std::uint64_t>(k) * stripe_unit;
  }
  std::uint64_t group_of_unit(std::uint64_t u, std::uint32_t k) const {
    return u / k;
  }
  std::uint64_t group_of_off(std::uint64_t off, std::uint32_t k) const {
    return group_of_unit(unit_of(off), k);
  }
  std::uint64_t group_start(std::uint64_t g, std::uint32_t k) const {
    return g * group_width(k);
  }
  std::uint64_t group_end(std::uint64_t g, std::uint32_t k) const {
    return (g + 1) * group_width(k);
  }
  /// Server holding data unit i (unit g*k + i) of group g.
  std::uint32_t data_server(std::uint64_t g, std::uint32_t k,
                            std::uint32_t i) const {
    return server_of_unit(g * k + i);
  }
  /// Server holding coding unit j of group g.
  std::uint32_t coding_server(std::uint64_t g, std::uint32_t k,
                              std::uint32_t j) const {
    if (placement == ParityPlacement::fixed) {
      assert(k == nservers - 1 && j == 0);
      return nservers - 1;
    }
    return static_cast<std::uint32_t>((base + (g + 1) * k + j) % nservers);
  }
  /// Unit-sized slot of group g's coding unit j in its server's redundancy
  /// file (an rs(k,m) file's layout needs m as well as k).
  std::uint64_t coding_slot(std::uint64_t g, std::uint32_t k, std::uint32_t m,
                            std::uint32_t j) const {
    if (placement == ParityPlacement::fixed) return g;
    const std::uint32_t d = std::gcd(k, nservers);
    return g / (nservers / d) * ((m + d - 1) / d) + j / d;
  }
  /// Server-local byte offset of group g's coding unit j.
  std::uint64_t coding_off(std::uint64_t g, std::uint32_t k, std::uint32_t m,
                           std::uint32_t j) const {
    return coding_slot(g, k, m, j) * stripe_unit;
  }
  /// Inverse of (coding_server, coding_slot): the (group, j) whose coding
  /// unit `server` stores in `slot`, or nullopt for an unused slot.
  std::optional<std::pair<std::uint64_t, std::uint32_t>> coding_at(
      std::uint32_t server, std::uint64_t slot, std::uint32_t k,
      std::uint32_t m) const {
    if (placement == ParityPlacement::fixed) {
      if (server != nservers - 1) return std::nullopt;
      return std::pair<std::uint64_t, std::uint32_t>{slot, 0};
    }
    const std::uint32_t d = std::gcd(k, nservers);
    const std::uint32_t per = (m + d - 1) / d;  // slots per period
    const std::uint64_t period = nservers / d;  // groups per period
    const std::uint32_t j0 = static_cast<std::uint32_t>(slot % per) * d;
    for (std::uint64_t g = slot / per * period; g < (slot / per + 1) * period;
         ++g) {
      for (std::uint32_t j = j0; j < std::min(m, j0 + d); ++j) {
        if (coding_server(g, k, j) == server) {
          return std::pair<std::uint64_t, std::uint32_t>{g, j};
        }
      }
    }
    return std::nullopt;
  }

  // --- request decomposition ---
  struct Extent {
    std::uint32_t server;      ///< I/O server holding this piece
    std::uint64_t global_off;  ///< offset within the PVFS file
    std::uint64_t local_off;   ///< offset within the server's data file
    std::uint64_t len;
  };

  /// Split [off, off+len) into per-unit extents in global-offset order.
  std::vector<Extent> decompose(std::uint64_t off, std::uint64_t len) const;

  /// Split [off, off+len) into per-server extents, merging unit runs that
  /// are contiguous in a server's local file (which happens exactly when the
  /// global range covers consecutive rows). Order: by server id.
  std::vector<Extent> decompose_merged(std::uint64_t off,
                                       std::uint64_t len) const;

  /// The Hybrid/RAID5 write split (§4): leading partial stripe, integral
  /// full stripes, trailing partial stripe. Any part may be empty.
  struct WriteSplit {
    std::uint64_t head_start = 0, head_end = 0;  ///< partial group at start
    std::uint64_t full_start = 0, full_end = 0;  ///< whole groups
    std::uint64_t tail_start = 0, tail_end = 0;  ///< partial group at end
  };
  WriteSplit split_write(std::uint64_t off, std::uint64_t len) const {
    return split_write_w(off, len, stripe_width());
  }

  /// split_write for groups of width `w` (the coded paths pass
  /// group_width(k)).
  WriteSplit split_write_w(std::uint64_t off, std::uint64_t len,
                           std::uint64_t w) const {
    WriteSplit ws;
    const std::uint64_t end = off + len;
    const std::uint64_t gs = align_up(off, w);
    const std::uint64_t ge = align_down(end, w);
    if (gs <= ge) {
      ws.head_start = off;
      ws.head_end = gs;
      ws.full_start = gs;
      ws.full_end = ge;
      ws.tail_start = ge;
      ws.tail_end = end;
    } else {
      ws.head_start = off;
      ws.head_end = end;
      ws.full_start = ws.full_end = end;
      ws.tail_start = ws.tail_end = end;
    }
    return ws;
  }
};

}  // namespace csar::pvfs
