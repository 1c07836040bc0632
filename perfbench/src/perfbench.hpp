// perfbench: the CSAR benchmark's shared types.
//
// A run repeats one workload's *iteration* (build a rig, set it up, run the
// measured phase, verify) until its host-time budget is spent. Everything an
// iteration reports on the simulated clock is a pure function of (workload,
// seed), so every iteration of a run must agree on it exactly; host times
// vary and are reported as medians over the iterations.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "raid/rig.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Run `t` to completion on the rig's simulation; false if it never
/// finished (a deadlock: the event queue drained with the task parked).
bool run_sim(csar::raid::Rig& rig, csar::sim::Task<void> t);

/// Exact nearest-rank percentile over raw samples (q in [0,1]); 0 if empty.
double percentile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// FNV-1a fold of one 64-bit word (h == 0 starts a fresh hash).
void fold(std::uint64_t& h, std::uint64_t v);

/// Per-layer counts gathered around a measured phase (traced runs only).
using LayerMetrics = std::map<std::string, double>;

/// What one iteration of a workload produced.
struct IterResult {
  // --- simulated (deterministic per seed) ---
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;      ///< ops that returned an error
  std::uint64_t shed = 0;        ///< open-loop arrivals refused at the cap
  std::uint64_t mismatched = 0;  ///< reads whose bytes differ from the model
  std::vector<double> write_ms;  ///< foreground write latency, from due time
  std::vector<double> read_ms;   ///< foreground read latency, from due time
  std::vector<double> degraded_ms;  ///< ops issued while a server was down
  std::uint64_t user_bytes = 0;  ///< bytes moved by foreground ops
  double fg_sim_s = 0;           ///< simulated length of the foreground phase
  double storage_ratio = 0;      ///< bytes stored per file byte (Table 2)
  double rebuild_s = 0;          ///< simulated blank restart -> admit
  std::uint64_t rebuild_bytes = 0;   ///< reconstruction traffic
  std::uint64_t rebuild_passes = 0;  ///< copier passes, re-copies included
  std::uint64_t recopy_passes = 0;   ///< passes re-copying dirtied regions
  std::uint64_t events = 0;      ///< DES events in the measured phase
  std::uint64_t fingerprint = 0; ///< fold of every completion, in order
  std::vector<std::string> errors;  ///< correctness-gate violations

  // --- host ---
  double host_setup_s = 0;
  double host_measured_s = 0;
  /// The measured phase's host time cut at every Nth op (N fixed per
  /// workload); they sum to host_measured_s. Same work per segment in every
  /// iteration of a seed, since the simulation is deterministic.
  std::vector<double> host_segments_s;
  std::uint64_t measured_ops = 0;  ///< ops completed in the measured phase

  LayerMetrics layer;  ///< filled by traced iterations
};

/// One benchmark workload: runs a full iteration for `seed`; `traced`
/// attaches the span tracer and layer counters to the measured phase.
struct Workload {
  const char* name;
  IterResult (*run)(std::uint64_t seed, bool traced);
};
const std::vector<Workload>& workloads();

/// Observes one rig's measured phase from outside: counter snapshots of
/// every layer before and after, plus (for the simulated-time split) the
/// program's own span tracer and a pass-through fabric hook. Declare it
/// before the rig so the tracer outlives every span the rig still ends.
class LayerObserver {
 public:
  explicit LayerObserver(bool enabled);
  ~LayerObserver();
  LayerObserver(const LayerObserver&) = delete;
  LayerObserver& operator=(const LayerObserver&) = delete;

  /// Snapshot counters and attach the tracer; call right before the
  /// measured phase runs.
  void begin(csar::raid::Rig& rig);
  /// Snapshot again, detach, and fold everything into `out.layer`. `ops` is
  /// the op count the per-op ratios divide by.
  void end(csar::raid::Rig& rig, std::uint64_t ops, std::uint64_t user_bytes,
           IterResult& out);

 private:
  struct State;
  bool enabled_;
  std::unique_ptr<State> st_;
};

/// Host-time probes of single layer functions (per-layer metrics).
void run_probes(LayerMetrics& out);

}  // namespace perfbench
