// Metrics registry: named counters, gauges and fixed-bucket histograms with
// deterministic percentile extraction, plus a sim-time windowed sampler for
// resource probes (queue depths, link/disk utilization).
//
// Determinism rules match the tracer's: all values derive from simulation
// state and all extraction is integer bucket arithmetic, so the same seeded
// run dumps byte-identical CSV/JSON. Percentiles are bucketed — p(q) is the
// upper bound of the bucket containing rank ceil(q*count) (the recorded
// maximum for the overflow bucket) — which trades fidelity for determinism
// and O(1) memory; the bounds are caller-fixed so the obs_test can pin the
// semantics against a brute-force sort.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/simulation.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace csar::obs {

class Counter {
 public:
  void add(std::uint64_t d = 1) { v_ += d; }
  void set(std::uint64_t v) { v_ = v; }
  std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

class Gauge {
 public:
  void set(double v) { v_ = v; }
  double value() const { return v_; }

 private:
  double v_ = 0.0;
};

/// Fixed-bucket histogram over uint64 samples. `bounds` are ascending
/// *inclusive* upper bounds; samples above the last bound land in an
/// implicit overflow bucket.
class Histogram {
 public:
  explicit Histogram(std::vector<std::uint64_t> bounds)
      : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {
    for (std::size_t i = 1; i < bounds_.size(); ++i) {
      assert(bounds_[i] > bounds_[i - 1] && "bounds must ascend");
    }
  }

  void add(std::uint64_t v) {
    std::size_t lo = 0, hi = bounds_.size();
    while (lo < hi) {  // first bucket whose bound >= v
      const std::size_t mid = (lo + hi) / 2;
      if (bounds_[mid] >= v) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    ++counts_[lo];
    ++count_;
    sum_ += v;
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const { return count_ == 0 ? 0 : max_; }

  /// Deterministic bucketed quantile: the upper bound of the bucket holding
  /// rank ceil(q*count) (1-based); the recorded max for the overflow bucket;
  /// 0 when empty.
  std::uint64_t percentile(double q) const {
    if (count_ == 0) return 0;
    std::uint64_t rank = static_cast<std::uint64_t>(
        q * static_cast<double>(count_) + 0.9999999999);
    if (rank < 1) rank = 1;
    if (rank > count_) rank = count_;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
      seen += counts_[i];
      if (seen >= rank) return bounds_[i];
    }
    return max_;
  }

  const std::vector<std::uint64_t>& bounds() const { return bounds_; }
  const std::vector<std::uint64_t>& counts() const { return counts_; }

  /// 1-2-5 log-spaced latency bounds in ns, 1 us .. 100 s — the default for
  /// every duration-valued histogram.
  static std::vector<std::uint64_t> latency_bounds();
  /// Power-of-two bounds 1 .. 64 Ki — for size/count-valued histograms
  /// (batch sizes, queue depths).
  static std::vector<std::uint64_t> size_bounds();

 private:
  std::vector<std::uint64_t> bounds_;
  std::vector<std::uint64_t> counts_;  ///< bounds_.size()+1 (overflow last)
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t max_ = 0;
};

/// Named instrument registry with stable (registration-order) iteration, so
/// dumps are deterministic. Lookup by name returns the existing instrument;
/// a name is bound to one kind for the registry's lifetime.
class Registry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       std::vector<std::uint64_t> bounds = {});

  /// One counter per field of a Stats struct that names its fields
  /// (`for_each`), called `prefix + field`.
  template <class Stats>
  void put(const std::string& prefix, const Stats& stats) {
    stats.for_each([&](const char* field, std::uint64_t v) {
      counter(prefix + field).set(v);
    });
  }

  /// name,kind,count,sum,min,max,p50,p95,p99 (value in `sum` for
  /// counters/gauges).
  std::string to_csv() const;
  std::string to_json() const;
  bool write_file(const std::string& path, bool json = false) const;

 private:
  enum class Kind : std::uint8_t { counter, gauge, histogram };
  struct Entry {
    std::string name;
    Kind kind;
    std::unique_ptr<Counter> c;
    std::unique_ptr<Gauge> g;
    std::unique_ptr<Histogram> h;
  };
  Entry& find_or_add(const std::string& name, Kind kind,
                     std::vector<std::uint64_t> bounds = {});

  std::vector<Entry> entries_;
  std::map<std::string, std::size_t> index_;
};

/// Windowed sampler: a simulation process that evaluates registered probe
/// closures every `window` of sim time and records the series. Utilization
/// probes compute deltas of sim::BandwidthServer::busy_time() over the
/// window. start() spawns the loop; stop() must be called from inside the
/// simulation before expecting run() to drain (one trailing wakeup fires).
class Sampler {
 public:
  Sampler(sim::Simulation& sim, sim::Duration window)
      : sim_(&sim), window_(window) {}
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

  void probe(std::string name, std::function<double()> fn) {
    names_.push_back(std::move(name));
    fns_.push_back(std::move(fn));
  }

  void start();
  void stop() { running_ = false; }

  std::size_t rows() const { return times_.size(); }

  /// time_ms,<probe>,... one row per elapsed window.
  std::string to_csv() const;

 private:
  sim::Task<void> loop();

  sim::Simulation* sim_;
  sim::Duration window_;
  std::vector<std::string> names_;
  std::vector<std::function<double()>> fns_;
  std::vector<sim::Time> times_;
  std::vector<std::vector<double>> samples_;
  bool running_ = false;
};

}  // namespace csar::obs
