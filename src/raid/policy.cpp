#include "raid/policy.hpp"

namespace csar::raid {

Scheme RedundancyPolicy::assign(std::string_view name) const {
  for (const auto& r : p_.rules) {
    if (name.substr(0, r.prefix.size()) == r.prefix) return r.scheme;
  }
  return p_.default_scheme;
}

std::optional<RedundancyPolicy::Transition> RedundancyPolicy::recommend()
    const {
  const AdaptiveParams& a = p_.adaptive;
  if (!a.enabled) return std::nullopt;
  // Fault pressure is the gate: with a healthy cluster the scheme chosen at
  // create time stands. Once early-warning signals accumulate (latent sector
  // errors, a server flapping, RPC deadlines tripping), shrinking the next
  // rebuild becomes worth foreground migration traffic.
  const bool pressure =
      stats_.media_errors >= a.media_error_threshold ||
      stats_.down_transitions >= a.down_transition_threshold ||
      stats_.rpc_pressure >= a.rpc_pressure_threshold;
  if (!pressure) return std::nullopt;
  for (const auto& [h, t] : files_) {
    if (attempted_.contains(h)) continue;
    Scheme cur = t.last_scheme;
    if (auto it = overrides_.find(h); it != overrides_.end()) {
      cur = it->second.scheme;
    }
    // RAID0 has no redundancy to carry through a transition, and RAID4's
    // fixed parity placement does not transpose onto the rotating layouts;
    // both are left alone.
    if (cur == a.small_write_target || cur == Scheme::raid0 ||
        cur == Scheme::raid4) {
      continue;
    }
    const std::uint64_t total = t.full_bytes + t.partial_bytes;
    if (total < a.min_observed_bytes) continue;
    const bool small_write_heavy =
        static_cast<double>(t.partial_bytes) >=
        a.partial_ratio_threshold * static_cast<double>(total);
    if (small_write_heavy) {
      return Transition{h, cur, a.small_write_target};
    }
    // Multi-disk risk: with repeated down transitions a single-parity scheme
    // is one failure away from data loss during its own rebuild window.
    // Full-stripe-heavy files encode cheaply (no RMW on the common path), so
    // they move to the m>=2 erasure-code target. rs files already there (or
    // RAID1, whose rebuild is already minimal) are left alone.
    if (stats_.down_transitions >= a.multi_fault_threshold &&
        a.multi_fault_target.kind == SchemeKind::rs &&
        cur != a.multi_fault_target && cur.kind != SchemeKind::rs &&
        cur != Scheme::raid1) {
      return Transition{h, cur, a.multi_fault_target};
    }
  }
  return std::nullopt;
}

}  // namespace csar::raid
