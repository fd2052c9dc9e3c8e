//===- Bench.h - shared pieces of the end-to-end benchmark ------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What the workloads share: the run configuration, the outcome a workload
/// reports (checked operations plus named metrics), statistics helpers, the
/// direct-call replays behind some per-layer metrics, and the layer budget
/// of a traced run. README.md defines every metric.
///
//===----------------------------------------------------------------------===//

#ifndef E2EBENCH_BENCH_H
#define E2EBENCH_BENCH_H

#include "Trace.h"

#include "mfsa/Mfsa.h"

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

/// The library layers of the budget: the repository's modules.
inline constexpr const char *kLayers[] = {"compiler", "analysis",
                                          "mfsa",     "artifact",
                                          "engine",   "input_parallel",
                                          "service"};

/// One invocation's settings (Main.cpp parses them).
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  unsigned Nproc = 1;
  std::string WorkDir;    ///< Scratch for artifacts, caches and sockets.
  std::string TraceOut;   ///< Where a traced run writes its spans.
  std::string Provenance; ///< JSON object: build, host and run settings.
};

/// What a workload reports. Units live in Main.cpp's metric tables.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures; ///< The first few, for stderr.
  std::map<std::string, double> EndToEnd;
  std::map<std::string, double> Layers;
  std::vector<std::string> Notes; ///< Context printed beside the metrics.

  /// Counts one checked operation; a false \p Ok counts it as failed.
  void check(bool Ok, std::string_view What);
  /// Adds another thread's checked operations.
  void merge(const Outcome &Other);
};

double median(std::vector<double> Values);

/// The smallest of \p Values (0 when empty). Scan throughput comes from the
/// fastest scan of a run: the host alternates between two speeds about 1.45x
/// apart every 10-30 s, so a median measures how much of the run the host
/// spent in the slow one (README.md, "Why the fastest scan").
double fastest(const std::vector<double> &Values);

/// A timing's tail: the highest of p99.9, p99, p95, p90 and p75, at most
/// \p Highest, with at least ten samples above it (p50 when none has), and
/// the sample count.
struct Tail {
  double Value = 0;
  double Percentile = 0;
  size_t Samples = 0;
};
Tail tail(std::vector<double> Values, double Highest = 99.9);

double geomean(const std::vector<double> &Values);

/// Peak resident set of this process so far, in MB (10^6 bytes).
double peakRssMb();

/// Adds regex.parse_ms, fsa.build_ms, fsa.optimize_ms and mfsa.merge_ms:
/// the compile stages of \p Rulesets timed by calling parseRegex, buildNfa,
/// optimizeForMerging and mergeInGroups (at \p M) directly, summed.
void addCompileSplit(
    const std::vector<const std::vector<std::string> *> &Rulesets,
    uint32_t M, Outcome &Out);

/// Dense iMFAnt over \p Mfsas on \p Input: ImfantEngine::run is the public
/// run API that returns RunStats.
struct DenseWork {
  uint64_t Transitions = 0;    ///< RunStats::TransitionsEvaluated, summed.
  uint64_t FootprintBytes = 0; ///< ImfantEngine::footprintBytes, summed.
};
DenseWork denseWork(const std::vector<mfsa::Mfsa> &Mfsas,
                    std::string_view Input);

/// Adds the layer budget of a traced pass: layer.<L>.self_ms per library
/// layer, layer.residual_ms (wall time no layer covers), layer.wall_ms, and
/// the tracing overhead (traced minus untraced wall for the same work).
/// Writes the spans to Cfg.TraceOut.
void addLayerBudget(Outcome &Out, const RunConfig &Cfg,
                    const std::vector<const TraceLog *> &Logs,
                    double TracedWallMs, double UntracedWallMs);

Outcome runOffline(const RunConfig &Cfg);
Outcome runService(const RunConfig &Cfg, bool Churn);

} // namespace e2e

#endif // E2EBENCH_BENCH_H
