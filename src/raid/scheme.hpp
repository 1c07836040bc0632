// Redundancy schemes studied in the paper (§4) plus the two ablations used
// in its evaluation (§5.1, §6.2), generalized to k+m erasure codes.
//
// A Scheme is a small value type: a kind plus, for Reed-Solomon, the
// CodeSpec parameters (k data + m coding fragments per group). The parity
// schemes *are* the code: RAID4, the RAID5 variants and Hybrid's full
// stripes are rs(N-1,1) with fixed or rotating placement, and one
// redundancy engine (the coded paths in csar_fs.cpp, recovery.cpp and
// scrub.cpp) serves them and rs(k,m) alike, parameterised by code(), the
// layout's placement and two flags: R5-NO-LOCK skips the coding locks
// (Fig. 3) and RAID5-npc charges no coding CPU time (Fig. 4a). The kinds
// stay distinct because the paper's figures name them. RAID1 (mirroring)
// and RAID0 keep their own paths. `Scheme::raid5`-style spellings keep
// working via inline static constants.
#pragma once

#include <cassert>
#include <compare>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/codec.hpp"
#include "pvfs/layout.hpp"

namespace csar::raid {

enum class SchemeKind : std::uint8_t {
  raid0,         ///< plain PVFS striping, no redundancy (the baseline)
  raid1,         ///< striped block mirroring (mirror on the next server)
  raid4,         ///< fixed parity server (Swift implemented this; §3 notes
                 ///< it performed worse than RAID5 — see the ablation)
  raid5,         ///< rotated parity, client RMW + distributed parity locks
  raid5_nolock,  ///< "R5 NO LOCK": parity may be left inconsistent (Fig. 3)
  raid5_npc,     ///< "RAID5-npc": parity computation not charged (Fig. 4a)
  hybrid,        ///< CSAR: RAID5 for full stripes, mirrored overflow for
                 ///< partial stripes (the paper's contribution)
  rs,            ///< Reed-Solomon rs(k,m): k data + m coding fragments per
                 ///< group, any k of the k+m recover everything
};

/// Bounds for rs(k,m) parameters — the persisted one-byte scheme tag packs
/// (k-1) in four bits and (m-1) in three (see scheme_tag), which also keeps
/// every rs tag below pvfs::kSchemeUnset (0xFF).
inline constexpr std::uint32_t kMaxRsK = 16;
inline constexpr std::uint32_t kMaxRsM = 7;

struct Scheme {
  SchemeKind kind = SchemeKind::hybrid;
  /// Code parameters; meaningful only when kind == rs (0 otherwise, so
  /// default comparison treats the classic schemes as plain enumerators).
  std::uint8_t k = 0;
  std::uint8_t m = 0;

  friend constexpr auto operator<=>(const Scheme&, const Scheme&) = default;

  /// The rs(k,m) scheme. Bounds: 1 <= k <= kMaxRsK, 1 <= m <= kMaxRsM.
  static constexpr Scheme rs(std::uint32_t k, std::uint32_t m) {
    assert(k >= 1 && k <= kMaxRsK && m >= 1 && m <= kMaxRsM);
    return Scheme{SchemeKind::rs, static_cast<std::uint8_t>(k),
                  static_cast<std::uint8_t>(m)};
  }

  /// The erasure-code view of this scheme: every scheme is a k+m code
  /// (RAID1 is RS(1,1); the parity schemes are RS(data_servers,1)); callers
  /// that need the classic schemes' k resolve it from the layout.
  CodeSpec code(const pvfs::StripeLayout& layout) const {
    switch (kind) {
      case SchemeKind::raid0:
        return CodeSpec{layout.data_servers(), 0};
      case SchemeKind::raid1:
        return CodeSpec{1, 1};
      case SchemeKind::raid4:
      case SchemeKind::raid5:
      case SchemeKind::raid5_nolock:
      case SchemeKind::raid5_npc:
      case SchemeKind::hybrid:
        // A parity group is one unit per data server (fixed) or N-1
        // consecutive units (rotating) — k = N-1 either way.
        return CodeSpec{layout.n() - 1, 1};
      case SchemeKind::rs:
        return CodeSpec{k, m};
    }
    std::abort();
  }

  // The classic schemes as named constants, so `Scheme::raid5` spellings
  // from the enum era keep compiling. Defined out of line below
  // (constant-initialized aggregates; no static-init-order hazard).
  static const Scheme raid0, raid1, raid4, raid5, raid5_nolock, raid5_npc,
      hybrid;
};

inline const Scheme Scheme::raid0{SchemeKind::raid0};
inline const Scheme Scheme::raid1{SchemeKind::raid1};
inline const Scheme Scheme::raid4{SchemeKind::raid4};
inline const Scheme Scheme::raid5{SchemeKind::raid5};
inline const Scheme Scheme::raid5_nolock{SchemeKind::raid5_nolock};
inline const Scheme Scheme::raid5_npc{SchemeKind::raid5_npc};
inline const Scheme Scheme::hybrid{SchemeKind::hybrid};

// The switches below are exhaustive: every enumerator returns, and
// -Werror=switch flags any future SchemeKind addition at compile time. The
// std::abort() after each switch is unreachable (an out-of-range cast is the
// only way there) — there is deliberately no "?" fallback that could mask a
// bogus value in printed output.
inline std::string scheme_name(Scheme s) {
  switch (s.kind) {
    case SchemeKind::raid0:
      return "RAID0";
    case SchemeKind::raid1:
      return "RAID1";
    case SchemeKind::raid4:
      return "RAID4";
    case SchemeKind::raid5:
      return "RAID5";
    case SchemeKind::raid5_nolock:
      return "R5-NOLOCK";
    case SchemeKind::raid5_npc:
      return "RAID5-npc";
    case SchemeKind::hybrid:
      return "Hybrid";
    case SchemeKind::rs:
      return "RS(" + std::to_string(s.k) + "," + std::to_string(s.m) + ")";
  }
  std::abort();
}

/// True when the scheme keeps k+m group coding in the per-server redundancy
/// files — every scheme the coded engine serves: RAID4, the RAID5
/// variants, Hybrid (its full stripes) and rs(k,m).
inline bool uses_group_coding(Scheme s) {
  switch (s.kind) {
    case SchemeKind::raid0:
    case SchemeKind::raid1:
      return false;
    case SchemeKind::raid4:
    case SchemeKind::raid5:
    case SchemeKind::raid5_nolock:
    case SchemeKind::raid5_npc:
    case SchemeKind::hybrid:
    case SchemeKind::rs:
      return true;
  }
  std::abort();
}

/// The parity placement a scheme's files should be created with: RAID4's
/// dedicated parity server, the rotating layout for everything else (data
/// striped over all N servers, identical to plain PVFS).
inline pvfs::ParityPlacement placement_for(Scheme s) {
  switch (s.kind) {
    case SchemeKind::raid4:
      return pvfs::ParityPlacement::fixed;
    case SchemeKind::raid0:
    case SchemeKind::raid1:
    case SchemeKind::raid5:
    case SchemeKind::raid5_nolock:
    case SchemeKind::raid5_npc:
    case SchemeKind::hybrid:
    case SchemeKind::rs:
      return pvfs::ParityPlacement::rotating;
  }
  std::abort();
}

// --- persisted scheme tags ---
// The manager stores a file's scheme as one opaque byte (OpenFile::scheme,
// journaled). Classic kinds map to their enumerator value; rs packs its
// parameters as 0x80 | (k-1)<<3 | (m-1), which tops out at 0xFE — never
// colliding with pvfs::kSchemeUnset (0xFF) or a classic kind.

inline std::uint8_t scheme_tag(Scheme s) {
  if (s.kind == SchemeKind::rs) {
    assert(s.k >= 1 && s.k <= kMaxRsK && s.m >= 1 && s.m <= kMaxRsM);
    return static_cast<std::uint8_t>(0x80 | ((s.k - 1) << 3) | (s.m - 1));
  }
  return static_cast<std::uint8_t>(s.kind);
}

inline Scheme scheme_from_tag(std::uint8_t tag) {
  if (tag & 0x80) {
    return Scheme::rs(((tag >> 3) & 0x0F) + 1u, (tag & 0x07) + 1u);
  }
  assert(tag <= static_cast<std::uint8_t>(SchemeKind::hybrid));
  return Scheme{static_cast<SchemeKind>(tag)};
}

/// Inverse of scheme_name for CLI flags and scripts: accepts the display
/// names case-insensitively plus the lowercase identifiers used in code
/// ("raid5_nolock", "raid5_npc") and "rs(k,m)" specs. nullopt for anything
/// unrecognized or out of the rs bounds.
inline std::optional<Scheme> parse_scheme(std::string_view text) {
  std::string t;
  t.reserve(text.size());
  for (char c : text) {
    t.push_back(c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c);
  }
  if (t == "raid0") return Scheme::raid0;
  if (t == "raid1") return Scheme::raid1;
  if (t == "raid4") return Scheme::raid4;
  if (t == "raid5") return Scheme::raid5;
  if (t == "raid5_nolock" || t == "r5-nolock") return Scheme::raid5_nolock;
  if (t == "raid5_npc" || t == "raid5-npc") return Scheme::raid5_npc;
  if (t == "hybrid") return Scheme::hybrid;
  // rs(k,m) — also accepted as "rs4_2"-style? No: one canonical spelling
  // keeps round-tripping exact; scheme_name prints uppercase, parsing is
  // case-folded above.
  if (t.size() >= 7 && t.substr(0, 3) == "rs(" && t.back() == ')') {
    const std::string_view body = std::string_view(t).substr(3, t.size() - 4);
    const std::size_t comma = body.find(',');
    if (comma == std::string_view::npos) return std::nullopt;
    std::uint32_t k = 0;
    std::uint32_t m = 0;
    const std::string_view ks = body.substr(0, comma);
    const std::string_view ms = body.substr(comma + 1);
    if (ks.empty() || ms.empty()) return std::nullopt;
    for (char c : ks) {
      if (c < '0' || c > '9') return std::nullopt;
      k = k * 10 + static_cast<std::uint32_t>(c - '0');
      if (k > 1000) return std::nullopt;
    }
    for (char c : ms) {
      if (c < '0' || c > '9') return std::nullopt;
      m = m * 10 + static_cast<std::uint32_t>(c - '0');
      if (m > 1000) return std::nullopt;
    }
    if (k < 1 || k > kMaxRsK || m < 1 || m > kMaxRsM) return std::nullopt;
    return Scheme::rs(k, m);
  }
  return std::nullopt;
}

/// Parse a comma-separated scheme list ("hybrid,rs(4,2),raid5") for CLI
/// flags and storm configs. Commas at parenthesis depth > 0 belong to a
/// parameterized spec, not the list — naive splitting would shear "rs(4,2)"
/// into "rs(4" and "2)". Surrounding whitespace per element is ignored.
/// nullopt when the list is empty or any element fails parse_scheme.
inline std::optional<std::vector<Scheme>> parse_scheme_list(
    std::string_view text) {
  std::vector<Scheme> out;
  std::size_t start = 0;
  int depth = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    const bool split = i == text.size() || (text[i] == ',' && depth == 0);
    if (!split) {
      if (text[i] == '(') ++depth;
      if (text[i] == ')') --depth;
      continue;
    }
    std::string_view elem = text.substr(start, i - start);
    while (!elem.empty() && (elem.front() == ' ' || elem.front() == '\t')) {
      elem.remove_prefix(1);
    }
    while (!elem.empty() && (elem.back() == ' ' || elem.back() == '\t')) {
      elem.remove_suffix(1);
    }
    const std::optional<Scheme> s = parse_scheme(elem);
    if (!s) return std::nullopt;
    out.push_back(*s);
    start = i + 1;
  }
  if (depth != 0 || out.empty()) return std::nullopt;
  return out;
}

}  // namespace csar::raid
