//===- BenchCommon.h - shared benchmark harness utilities -------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the paper-reproduction benches: dataset compilation,
/// environment-variable knobs (so the full 1 MB / 15-rep paper configuration
/// is one export away from the fast defaults), tabular printing, and the
/// geometric mean the paper summarizes with.
///
/// Knobs:
///   MFSA_STREAM_BYTES  input stream size      (default 262144; paper 2^20)
///   MFSA_REPS          timed repetitions      (default 2; paper 15/30)
///   MFSA_MAX_THREADS   top of the thread sweep (default 32; paper 128)
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_BENCH_BENCHCOMMON_H
#define MFSA_BENCH_BENCHCOMMON_H

#include "compiler/Pipeline.h"
#include "engine/Imfant.h"
#include "obs/Metrics.h"
#include "support/SimdDispatch.h"
#include "workload/Datasets.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

namespace mfsa::bench {

inline uint64_t envOr(const char *Name, uint64_t Default) {
  const char *Value = std::getenv(Name);
  if (!Value || !*Value)
    return Default;
  return std::strtoull(Value, nullptr, 10);
}

inline size_t streamBytes() { return envOr("MFSA_STREAM_BYTES", 1 << 18); }
inline unsigned repetitions() {
  return static_cast<unsigned>(envOr("MFSA_REPS", 2));
}
inline unsigned maxThreads() {
  return static_cast<unsigned>(envOr("MFSA_MAX_THREADS", 32));
}

/// The paper's merging-factor sweep; 0 encodes "all".
inline std::vector<uint32_t> paperMergingFactors() {
  return {1, 2, 5, 10, 20, 50, 100, 0};
}

inline std::string mergingFactorName(uint32_t M) {
  return M == 0 ? "all" : std::to_string(M);
}

/// One compiled dataset: rules, per-rule optimized FSAs, and the stream.
struct CompiledDataset {
  const DatasetSpec *Spec = nullptr;
  std::vector<std::string> Rules;
  std::vector<Nfa> OptimizedFsas;
  std::string Stream;
};

/// Generates and compiles a dataset through stage 3 once; merging at
/// different M is then cheap via mergeInGroups. When \p Metrics is non-null
/// the pipeline's per-stage telemetry is recorded into it (the `compile.*`
/// metrics of the emitted BENCH_*.json).
inline CompiledDataset compileDataset(const DatasetSpec &Spec,
                                      size_t StreamSize,
                                      obs::MetricsRegistry *Metrics = nullptr) {
  CompiledDataset Out;
  Out.Spec = &Spec;
  Out.Rules = generateRuleset(Spec);
  CompileOptions Options;
  Options.MergingFactor = 1;
  Options.EmitAnml = false;
  Result<CompileArtifacts> Artifacts = compileRuleset(Out.Rules, Options);
  if (!Artifacts.ok()) {
    std::fprintf(stderr, "fatal: %s compile failed: %s\n",
                 Spec.Abbrev.c_str(), Artifacts.diag().render().c_str());
    std::exit(1);
  }
  if (Metrics)
    Artifacts->Telemetry.recordTo(*Metrics);
  Out.OptimizedFsas = std::move(Artifacts->OptimizedFsas);
  if (StreamSize > 0)
    Out.Stream = generateStream(Spec, Out.Rules, StreamSize);
  return Out;
}

/// Builds one engine per MFSA of the given merging factor.
inline std::vector<ImfantEngine>
buildEngines(const CompiledDataset &Dataset, uint32_t MergingFactor,
             const MergeOptions &Options = {}) {
  std::vector<Mfsa> Groups =
      mergeInGroups(Dataset.OptimizedFsas, MergingFactor, Options);
  std::vector<ImfantEngine> Engines;
  Engines.reserve(Groups.size());
  for (const Mfsa &Z : Groups)
    Engines.emplace_back(Z);
  return Engines;
}

/// Compiler identification baked into every report so a baseline comparison
/// can refuse to diff numbers from different toolchains.
inline const char *toolchainString() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

/// CMake build type, injected per-bench as MFSA_BUILD_TYPE by
/// bench/CMakeLists.txt; empty for single-config generators run without
/// CMAKE_BUILD_TYPE.
inline const char *buildTypeString() {
#ifdef MFSA_BUILD_TYPE
  return MFSA_BUILD_TYPE;
#else
  return "";
#endif
}

inline double geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double LogSum = 0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

inline std::string jsonEscape(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out.push_back(C);
      }
    }
  }
  return Out;
}

/// Machine-readable bench output: every bench owns one BenchReport, adds its
/// headline numbers with result(), and gets `BENCH_<name>.json` written to
/// the working directory (or $MFSA_BENCH_JSON_DIR) on destruction. The
/// embedded registry collects whatever the bench attaches to it — compile
/// telemetry via compileDataset(), engine scan metrics via setMetrics() —
/// so one file carries the figure-level numbers and the internals that
/// explain them. tools/check_bench_json.py validates the schema in CI.
class BenchReport {
public:
  BenchReport(std::string BenchName, std::string PaperRef)
      : Name(std::move(BenchName)), PaperRef(std::move(PaperRef)) {
    config("stream_bytes", streamBytes());
    config("reps", repetitions());
    config("max_threads", maxThreads());
    config("metrics_compiled_in", obs::kScanMetricsCompiledIn ? 1 : 0);
  }

  BenchReport(const BenchReport &) = delete;
  BenchReport &operator=(const BenchReport &) = delete;
  ~BenchReport() { write(); }

  /// The registry this bench's metrics land in; attach engines and compile
  /// telemetry here.
  obs::MetricsRegistry &registry() { return Registry; }

  void config(const std::string &Key, uint64_t Value) {
    Config.emplace_back(Key, std::to_string(Value));
  }
  void config(const std::string &Key, const std::string &Value) {
    Config.emplace_back(Key, "\"" + jsonEscape(Value) + "\"");
  }

  /// Records one headline result row (a cell of the reproduced figure).
  void result(const std::string &RowName, double Value,
              const std::string &Unit) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.9g", Value);
    Results.emplace_back(RowName, std::string(Buf) + ", \"unit\": \"" +
                                      jsonEscape(Unit) + "\"");
  }

  /// Attaches one planner decision trace (EnginePlan::explainJson()) under
  /// the report's top-level "plans" object, keyed by \p Key. \p RawJson must
  /// be a complete JSON value; it is embedded verbatim. The object is
  /// omitted when no bench calls this, keeping older reports byte-stable.
  void plan(const std::string &Key, const std::string &RawJson) {
    Plans.emplace_back(Key, RawJson);
  }

  std::string path() const {
    const char *Dir = std::getenv("MFSA_BENCH_JSON_DIR");
    std::string Base = (Dir && *Dir) ? std::string(Dir) + "/" : std::string();
    return Base + "BENCH_" + Name + ".json";
  }

  /// Writes the JSON file; called by the destructor, idempotent.
  void write() {
    if (Written)
      return;
    Written = true;
    std::FILE *F = std::fopen(path().c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "warning: cannot write %s\n", path().c_str());
      return;
    }
    std::fprintf(F, "{\n  \"schema_version\": 2,\n");
    std::fprintf(F, "  \"bench\": \"%s\",\n", jsonEscape(Name).c_str());
    std::fprintf(F, "  \"paper_ref\": \"%s\",\n",
                 jsonEscape(PaperRef).c_str());
    // Provenance (schema v2): comparing throughput across different
    // toolchains, build types, or CRC32C bodies is meaningless, so each
    // report states what produced it and tools/compare_bench_json.py checks.
    std::fprintf(F, "  \"toolchain\": \"%s\",\n",
                 jsonEscape(toolchainString()).c_str());
    std::fprintf(F, "  \"build_type\": \"%s\",\n",
                 jsonEscape(buildTypeString()).c_str());
    std::fprintf(F, "  \"simd_level\": \"%s\",\n",
                 simd::levelName(simd::activeLevel()));
    std::fprintf(F, "  \"config\": {");
    for (size_t I = 0; I < Config.size(); ++I)
      std::fprintf(F, "%s\n    \"%s\": %s", I ? "," : "",
                   jsonEscape(Config[I].first).c_str(),
                   Config[I].second.c_str());
    std::fprintf(F, "\n  },\n  \"results\": [");
    for (size_t I = 0; I < Results.size(); ++I)
      std::fprintf(F, "%s\n    {\"name\": \"%s\", \"value\": %s}",
                   I ? "," : "", jsonEscape(Results[I].first).c_str(),
                   Results[I].second.c_str());
    std::fprintf(F, "\n  ],\n");
    if (!Plans.empty()) {
      std::fprintf(F, "  \"plans\": {");
      for (size_t I = 0; I < Plans.size(); ++I)
        std::fprintf(F, "%s\n    \"%s\": %s", I ? "," : "",
                     jsonEscape(Plans[I].first).c_str(),
                     Plans[I].second.c_str());
      std::fprintf(F, "\n  },\n");
    }
    std::fprintf(F, "  \"metrics\": %s\n}\n", Registry.toJson().c_str());
    std::fclose(F);
    std::printf("\nwrote %s\n", path().c_str());
  }

private:
  bool Written = false;
  std::string Name;
  std::string PaperRef;
  std::vector<std::pair<std::string, std::string>> Config;
  std::vector<std::pair<std::string, std::string>> Results;
  std::vector<std::pair<std::string, std::string>> Plans;
  obs::MetricsRegistry Registry;
};

/// Prints the standard bench header with the active configuration.
inline void printHeader(const char *Title, const char *PaperRef) {
  std::printf("=== %s ===\n", Title);
  std::printf("reproduces: %s\n", PaperRef);
  std::printf("config: stream=%zu bytes, reps=%u, max-threads=%u "
              "(override via MFSA_STREAM_BYTES / MFSA_REPS / "
              "MFSA_MAX_THREADS)\n\n",
              streamBytes(), repetitions(), maxThreads());
}

} // namespace mfsa::bench

#endif // MFSA_BENCH_BENCHCOMMON_H
