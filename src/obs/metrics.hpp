// Telemetry metrics registry: named counters, gauges and fixed-bucket
// histograms shared by every subsystem.
//
// Contract (the reason this lives in its own dependency-free library):
//   * Hot-path updates are lock-free.  Counters and histograms stripe their
//     state across cache-line-padded atomic shards indexed by a stable
//     per-thread id, so worker threads in the execution layer never contend
//     on one cache line; gauges are a single relaxed atomic store.
//   * Registration (name -> metric lookup) takes a mutex, so callers cache
//     the returned reference once — typically in a function-local static —
//     and never pay the lookup on the hot path.  Metric objects are stable:
//     references stay valid for the life of the registry.
//   * The whole layer is gated on a process-wide enabled flag (off by
//     default).  When disabled every update is a single relaxed atomic load
//     and instrumentation is unobservable; enabling it must never perturb
//     simulation results — telemetry reads clocks and bumps integers, it
//     never touches simulation state (guarded by parallel_determinism_test).
//
// Naming scheme (see DESIGN.md "Observability"): subsystem.phase.metric,
// e.g. md.bonded.time_ns, runtime.redistribute.count, machine.model.ns_per_day.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace antmd::obs {

namespace detail {

inline std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

/// Shard count for striped counters/histograms (power of two).
inline constexpr size_t kShards = 16;

/// Stable small id for the calling thread (assigned on first use).
size_t thread_index();

/// thread_index() folded into [0, kShards).
inline size_t shard_index() { return thread_index() & (kShards - 1); }

struct alignas(64) ShardCell {
  std::atomic<uint64_t> value{0};
};

}  // namespace detail

/// Process-wide telemetry switch; off by default.
inline bool enabled() {
  return detail::enabled_flag().load(std::memory_order_relaxed);
}
inline void set_enabled(bool on) {
  detail::enabled_flag().store(on, std::memory_order_relaxed);
}

/// RAII enable/restore for tests and drivers.
class ScopedTelemetry {
 public:
  explicit ScopedTelemetry(bool on) : previous_(enabled()) { set_enabled(on); }
  ~ScopedTelemetry() { set_enabled(previous_); }
  ScopedTelemetry(const ScopedTelemetry&) = delete;
  ScopedTelemetry& operator=(const ScopedTelemetry&) = delete;

 private:
  bool previous_;
};

/// Monotonic event/time accumulator (uint64).
class Counter {
 public:
  void add(uint64_t n = 1) {
    if (!enabled()) return;
    cells_[detail::shard_index()].value.fetch_add(n,
                                                  std::memory_order_relaxed);
  }
  /// Sum over shards (safe to call concurrently with add()).
  [[nodiscard]] uint64_t value() const {
    uint64_t total = 0;
    for (const auto& c : cells_) {
      total += c.value.load(std::memory_order_relaxed);
    }
    return total;
  }
  void reset() {
    for (auto& c : cells_) c.value.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<detail::ShardCell, detail::kShards> cells_;
};

/// Last-written double value (e.g. modeled ns/day, alive node count).
class Gauge {
 public:
  void set(double v) {
    if (!enabled()) return;
    bits_.store(encode(v), std::memory_order_relaxed);
  }
  [[nodiscard]] double value() const {
    return decode(bits_.load(std::memory_order_relaxed));
  }
  void reset() { bits_.store(encode(0.0), std::memory_order_relaxed); }

 private:
  static uint64_t encode(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    __builtin_memcpy(&bits, &v, sizeof(bits));
    return bits;
  }
  static double decode(uint64_t bits) {
    double v;
    __builtin_memcpy(&v, &bits, sizeof(v));
    return v;
  }
  std::atomic<uint64_t> bits_{0};  // bit pattern of 0.0
};

/// Fixed-bucket histogram: bucket i counts observations v <= edges[i]
/// (first matching edge); one overflow bucket catches v > edges.back().
/// Per-shard bucket arrays keep observe() lock-free.
class Histogram {
 public:
  explicit Histogram(std::vector<double> edges);

  void observe(double v);

  [[nodiscard]] const std::vector<double>& edges() const { return edges_; }
  /// Per-bucket counts (size edges()+1; last = overflow), summed over shards.
  [[nodiscard]] std::vector<uint64_t> bucket_counts() const;
  [[nodiscard]] uint64_t count() const;
  [[nodiscard]] double sum() const;
  void reset();

 private:
  struct Shard {
    std::unique_ptr<std::atomic<uint64_t>[]> counts;  ///< edges+1 buckets
    alignas(64) std::atomic<uint64_t> sum_bits{0};    // double bit pattern
  };

  std::vector<double> edges_;
  std::array<Shard, detail::kShards> shards_;
};

/// Snapshot of every registered metric at one instant.  Values come from
/// relaxed loads, so a snapshot taken while workers run is approximate; a
/// snapshot taken at a quiescent point (end of run) is exact.
struct MetricsSnapshot {
  struct HistogramValue {
    std::vector<double> edges;
    std::vector<uint64_t> buckets;  ///< size edges+1, last = overflow
    uint64_t count = 0;
    double sum = 0.0;
  };

  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramValue> histograms;

  [[nodiscard]] uint64_t counter_or(const std::string& name,
                                    uint64_t fallback = 0) const {
    auto it = counters.find(name);
    return it == counters.end() ? fallback : it->second;
  }
  [[nodiscard]] double gauge_or(const std::string& name,
                                double fallback = 0.0) const {
    auto it = gauges.find(name);
    return it == gauges.end() ? fallback : it->second;
  }

  /// Machine-readable dump ({"counters": {...}, "gauges": {...}, ...}).
  [[nodiscard]] std::string to_json() const;
  /// Line-oriented `name value` dump (greppable).
  [[nodiscard]] std::string to_text() const;
  /// Prometheus text exposition (version 0.0.4): names sanitized to
  /// [a-zA-Z0-9_] with an `antmd_` prefix, `# TYPE` lines per family,
  /// histograms as cumulative `_bucket{le="..."}` series plus `_sum` and
  /// `_count`.  Scrape target for fleet aggregation.
  [[nodiscard]] std::string to_prometheus() const;
};

/// One phase's share of the instrumented time (from *.time_ns counters).
struct PhaseShare {
  std::string name;     ///< subsystem.phase (".time_ns" stripped)
  /// Empty for a top-level phase.  For a sub-phase, the phase(s) whose
  /// span encloses it ("md.kspace", or "md.kspace+runtime.kspace" when
  /// both engines ran); "*" for task-graph lane time, summed over lanes
  /// that run at once, which overlaps every phase that runs as a graph
  /// task and can exceed 100 %.
  std::string parent;
  double seconds = 0.0;
  /// Top level: of the sum of top-level phases.  Sub-phase: of its
  /// parents' summed time ("*": of the top-level sum).
  double fraction = 0.0;
};

/// Extracts every `*.time_ns` counter from a snapshot.  Timers that run
/// inside another timer's span are sub-phases and do not add to the
/// total: a timer whose dotted prefix is itself a recorded timer
/// (md.neighbor.tile in md.neighbor), md.kspace.* in md.kspace /
/// runtime.kspace, runtime.kspace in runtime.evaluate, and the lane timers
/// md.exec.busy and runtime.node_eval ("*").  Order: the top-level phases
/// descending by time, then the sub-phases descending.
[[nodiscard]] std::vector<PhaseShare> phase_breakdown(
    const MetricsSnapshot& snapshot);

class MetricsRegistry {
 public:
  /// The process-wide registry every subsystem instruments against.
  static MetricsRegistry& global();

  /// Finds or creates; the reference is stable for the registry's lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// Edges must be ascending and non-empty; a second call with the same
  /// name returns the existing histogram (edges argument ignored).
  Histogram& histogram(std::string_view name, std::vector<double> edges);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Zeroes every metric value, keeping all registered objects (and thus
  /// every cached reference) valid.  Test/bench isolation hook.
  void reset_values();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

/// Pre-registers the canonical metric set (DESIGN.md "Observability") so an
/// exported dump covers every subsystem even when a feature saw no traffic
/// this run — e.g. resilience counters stay visible, at zero, in a healthy
/// run.
void register_standard_metrics(MetricsRegistry& registry =
                                   MetricsRegistry::global());

/// Writes snapshot.to_json() (path ending in .json) or to_text() to `path`.
/// Returns false (and leaves no file guarantees) on I/O failure.
bool write_metrics_file(const std::string& path,
                        const MetricsSnapshot& snapshot);

/// Writes `body` verbatim to `path`; false on I/O failure.  Shared by the
/// CLIs for profile / Prometheus dumps.
bool write_text_file(const std::string& path, const std::string& body);

}  // namespace antmd::obs
