// Diagnostics: per-rig hardware and protocol counters as a table — what a
// systems paper's "where did the time go" appendix would show. Benches
// print this with CSAR_DIAG=1.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/table.hpp"
#include "common/units.hpp"
#include "raid/rig.hpp"

namespace csar::raid {

/// One row per I/O server: disk traffic, seeks, cache behaviour, parity
/// lock activity.
inline TextTable rig_stats_table(Rig& rig) {
  TextTable t({"server", "disk rd", "disk wr", "seeks", "cache hit%",
               "prereads", "dirty evict", "lock acq", "lock waits",
               "wait tot (ms)"});
  for (std::uint32_t s = 0; s < rig.p.nservers; ++s) {
    auto& node = rig.cluster.node(rig.server(s).node_id());
    const auto d = node.disk()->stats();
    const auto& c = node.cache()->stats();
    const auto& l = rig.server(s).lock_stats();
    // Pages a write allocated without reading are neither hits nor misses:
    // a pure write stream has no hit ratio.
    const std::uint64_t accesses = c.hits + c.misses + c.prereads;
    const std::string hit_pct =
        accesses == 0 ? "-"
                      : TextTable::num(100.0 * static_cast<double>(c.hits) /
                                           static_cast<double>(accesses),
                                       1);
    t.add_row({"s" + std::to_string(s), format_bytes(d.bytes_read),
               format_bytes(d.bytes_written), TextTable::num(d.seeks),
               hit_pct, TextTable::num(c.prereads),
               TextTable::num(c.dirty_evictions),
               TextTable::num(l.acquisitions), TextTable::num(l.waits),
               TextTable::num(sim::to_seconds(l.wait_time) * 1e3, 1)});
  }
  return t;
}

/// One row per scheme the policy layer routed traffic to: write activity,
/// read-modify-write groups, overflow bytes.
inline TextTable policy_stats_table(const RedundancyPolicy& policy) {
  TextTable t({"scheme", "writes", "bytes", "rmw groups", "ovfl bytes"});
  for (const auto& [s, c] : policy.per_scheme()) {
    t.add_row({scheme_name(s), TextTable::num(c.writes),
               format_bytes(c.bytes), TextTable::num(c.rmw_groups),
               format_bytes(c.overflow_bytes)});
  }
  return t;
}

/// Erasure-coding activity: decode/encode traffic of the rs(k,m) paths.
/// The frags/decode column is the decode cost the MDS property promises:
/// exactly k fragments fetched per decoded piece, degraded read or rebuild.
inline TextTable ec_stats_table(const RedundancyPolicy& policy) {
  const EcStats& e = policy.ec_stats();
  TextTable t({"degraded reads", "fragments", "frags/decode", "decode bytes",
               "encode bytes", "rebuild decodes"});
  const std::uint64_t decodes = e.degraded_reads + e.rebuild_decodes;
  const double per_decode =
      decodes == 0 ? 0.0
                   : static_cast<double>(e.fragments_fetched) /
                         static_cast<double>(decodes);
  t.add_row({TextTable::num(e.degraded_reads),
             TextTable::num(e.fragments_fetched), TextTable::num(per_decode, 2),
             format_bytes(e.decode_bytes), format_bytes(e.encode_bytes),
             TextTable::num(e.rebuild_decodes)});
  return t;
}

/// One `label: field=value ...` line, the fields named by the struct.
template <class Stats>
void print_stats(const char* label, const Stats& stats) {
  std::printf("%s:", label);
  stats.for_each([](const char* field, std::uint64_t v) {
    std::printf(" %s=%llu", field, static_cast<unsigned long long>(v));
  });
  std::printf("\n");
}

/// Print the tables when the CSAR_DIAG environment variable is set.
inline void maybe_print_diagnostics(Rig& rig, const std::string& label) {
  if (std::getenv("CSAR_DIAG") == nullptr) return;
  std::printf("\n-- diagnostics: %s --\n", label.c_str());
  rig_stats_table(rig).print();
  print_stats("manager", rig.manager->stats());
  print_stats("journal", rig.manager->journal_stats());
  {
    const EcStats& e = rig.policy().ec_stats();
    if (e.degraded_reads + e.rebuild_decodes + e.encode_bytes != 0) {
      std::printf("\n-- erasure coding: %s --\n", label.c_str());
      ec_stats_table(rig.policy()).print();
    }
  }
  if (!rig.policy().per_scheme().empty()) {
    std::printf("\n-- policy: %s --\n", label.c_str());
    policy_stats_table(rig.policy()).print();
    print_stats("pressure", rig.policy().stats());
  }
}

}  // namespace csar::raid
