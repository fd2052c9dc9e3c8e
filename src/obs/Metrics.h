//===- Metrics.h - counters, gauges, and histograms -------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declares MetricsRegistry, the process-wide observability hub: named
/// counters (monotonic), gauges (last-value), and fixed-bucket histograms,
/// exported as JSON or human-readable text. The registry answers the
/// questions the paper's evaluation is built on — active-set occupancy
/// (Table II), transitions examined per byte, per-stage compile cost
/// (Fig. 8), prefilter hit rates — without any engine keeping private
/// bookkeeping structures.
///
/// Cost model (see docs/observability.md):
///
///   - Registration (counter()/gauge()/histogram()) takes a mutex and may
///     allocate; engines resolve their handles once, at setMetrics() time.
///   - Updates on resolved handles are single relaxed atomic RMWs — safe
///     from any thread, never blocking, and cheap enough for sampled use on
///     scan hot paths.
///   - The per-byte scan instrumentation is additionally compiled out
///     entirely (MFSA_METRICS_ENABLED == 0) in NDEBUG builds unless the
///     build was configured with -DMFSA_METRICS=1, so a Release engine
///     pays literally nothing when observability is off.
///
/// Naming convention: lowercase dotted paths (`imfant.frontier_size`).
/// Metrics holding wall time end in `_ms` or `_ns`; the golden-JSON tests
/// rely on that suffix to mask the nondeterministic fields.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_OBS_METRICS_H
#define MFSA_OBS_METRICS_H

#include "support/Sync.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

/// Nonzero when the per-byte scan instrumentation is compiled into the
/// engines: always in !NDEBUG builds, and in any build configured with
/// -DMFSA_METRICS=1 (the CMake MFSA_METRICS option). The registry itself is
/// always available — only the hot-loop sampling is gated.
#if defined(MFSA_METRICS) || !defined(NDEBUG)
#define MFSA_METRICS_ENABLED 1
#else
#define MFSA_METRICS_ENABLED 0
#endif

namespace mfsa::obs {

/// Compile-time gate as a testable constant (tests skip scan-path golden
/// checks when the engines were built without instrumentation).
inline constexpr bool kScanMetricsCompiledIn = MFSA_METRICS_ENABLED != 0;

/// Monotonically increasing event count.
///
/// Memory order: all relaxed — each metric cell is an independent statistic;
/// nothing is published through it and cross-metric consistency is not
/// promised (an export may observe counter A's bump before counter B's).
class Counter {
public:
  void add(uint64_t N = 1) { Value.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return Value.load(std::memory_order_relaxed); }
  void reset() { Value.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> Value{0};
};

/// Last-written value (engine sizes, configuration echoes).
///
/// Memory order: relaxed — last-writer-wins is the whole contract; no other
/// data is ordered against a gauge write.
class Gauge {
public:
  void set(int64_t V) { Value.store(V, std::memory_order_relaxed); }
  int64_t value() const { return Value.load(std::memory_order_relaxed); }
  void reset() { Value.store(0, std::memory_order_relaxed); }

private:
  std::atomic<int64_t> Value{0};
};

/// Fixed-bucket histogram over uint64 observations. Buckets are defined by
/// inclusive upper bounds; an observation lands in the first bucket whose
/// bound is >= the value, or in the implicit overflow bucket past the last
/// bound. Count, sum, and max ride along so means and peaks (the Table II
/// avg/max pair) need no separate metric.
///
/// Memory order: relaxed throughout (see Counter) — buckets, Total, Sum,
/// and Max are each independently monotone; a concurrent export may see a
/// bucket bump before the matching Total bump, which the JSON schema
/// tolerates (no cross-field invariant is exported).
class Histogram {
public:
  explicit Histogram(std::vector<uint64_t> UpperBounds);

  void observe(uint64_t V);

  const std::vector<uint64_t> &bounds() const { return Bounds; }
  uint64_t bucketCount(size_t I) const {
    return Counts[I].load(std::memory_order_relaxed);
  }
  size_t numBuckets() const { return Counts.size(); } ///< bounds + overflow.
  uint64_t count() const { return Total.load(std::memory_order_relaxed); }
  uint64_t sum() const { return Sum.load(std::memory_order_relaxed); }
  uint64_t max() const { return Max.load(std::memory_order_relaxed); }
  double mean() const {
    uint64_t N = count();
    return N ? static_cast<double>(sum()) / static_cast<double>(N) : 0.0;
  }
  void reset();

private:
  std::vector<uint64_t> Bounds; ///< Sorted, strictly increasing.
  std::vector<std::atomic<uint64_t>> Counts; ///< Bounds.size() + 1 slots.
  std::atomic<uint64_t> Total{0};
  std::atomic<uint64_t> Sum{0};
  std::atomic<uint64_t> Max{0};
};

/// Power-of-two bucket bounds {1, 2, 4, ..., 2^MaxExp}, the default shape
/// for occupancy and transitions-per-byte distributions.
std::vector<uint64_t> pow2Buckets(unsigned MaxExp);

/// Named-metric registry. Registration is mutex-guarded and idempotent
/// (same name returns the same object); returned references stay valid for
/// the registry's lifetime, so callers cache them and update lock-free.
class MetricsRegistry {
public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry &) = delete;
  MetricsRegistry &operator=(const MetricsRegistry &) = delete;

  Counter &counter(std::string_view Name) MFSA_EXCLUDES(RegistryMutex);
  Gauge &gauge(std::string_view Name) MFSA_EXCLUDES(RegistryMutex);
  /// \p UpperBounds is consulted only on first registration; later calls
  /// with the same name return the existing histogram unchanged.
  Histogram &histogram(std::string_view Name,
                       std::vector<uint64_t> UpperBounds)
      MFSA_EXCLUDES(RegistryMutex);

  /// Zeroes every metric, keeping registrations (and cached handles) alive.
  void reset() MFSA_EXCLUDES(RegistryMutex);

  /// One JSON object with "counters", "gauges", and "histograms" members,
  /// each metric on its own line sorted by name — stable output for golden
  /// tests, greppable for humans.
  std::string toJson() const MFSA_EXCLUDES(RegistryMutex);

  /// Aligned human-readable dump (for --metrics on a terminal).
  std::string toText() const MFSA_EXCLUDES(RegistryMutex);

private:
  /// Rank 80 (see the Sync.h table): a leaf — registration never calls out
  /// while holding it. Acquired under SessionsMutex/QueueMutex/CacheMutex/
  /// SlotMutex on the service paths that count events inside those locks.
  mutable sync::Mutex RegistryMutex MFSA_LOCK_RANK(80);
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> Counters
      MFSA_GUARDED_BY(RegistryMutex);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> Gauges
      MFSA_GUARDED_BY(RegistryMutex);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> Histograms
      MFSA_GUARDED_BY(RegistryMutex);
};

/// Scan-path sampling period: instrumented engines record distribution
/// samples every Nth consumed byte (counters stay exact). Initialized from
/// the MFSA_METRICS_SAMPLE environment variable (default 64, minimum 1).
uint32_t scanSampleEvery();

/// Test hook overriding the sampling period for deterministic goldens.
void setScanSampleEvery(uint32_t N);

} // namespace mfsa::obs

#endif // MFSA_OBS_METRICS_H
