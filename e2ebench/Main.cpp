//===- Main.cpp - end-to-end benchmark entry point ------------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
///   e2ebench --workload W --seed N --seconds S --trace 0|1 --workdir DIR
///            [--trace-out FILE]
///
/// Runs one workload (offline_table1, service_steady, service_churn) and
/// prints a provenance line, every metric by name with its unit, and as the
/// last line {"correct", "attempted", "failed", "metrics"}: the end-to-end
/// metrics when untraced, the per-layer metrics when traced. Exit codes: 0
/// every check passed, 1 a check failed, 2 usage, 3 a build unfit for
/// timing (not Release, or scan metrics compiled in).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "obs/Metrics.h"
#include "support/SimdDispatch.h"
#include "workload/Datasets.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <sched.h>
#include <string>
#include <thread>
#include <vector>

using namespace e2e;

namespace {

struct MetricSpec {
  std::string Name;
  std::string Unit;
};

/// Reported by every workload; README.md defines each per workload.
std::vector<MetricSpec> endToEndMetrics() {
  return {{"setup_s", "s"},
          {"scan_mb_s", "MB/s"},
          {"scan_par_mb_s", "MB/s"},
          {"peak_rss_mb", "MB"}};
}

/// Reported by every traced run; rows of a layer the workload does not
/// exercise read 0.
std::vector<MetricSpec> layerMetrics() {
  struct PerDataset {
    const char *Prefix, *Suffix, *Unit;
  };
  static const PerDataset Rows[] = {
      {"analysis.", ".plan_ms", "ms"},
      {"compiler.", ".compile_ms", "ms"},
      {"mfsa.", ".merged_states", "count"},
      {"mfsa.", ".merged_transitions", "count"},
      {"engine.", ".build_ms", "ms"},
      {"engine.", ".ns_per_byte", "ns/B"},
      {"engine.", ".plan_drift", "ratio"},
      {"engine.", ".matches", "count"},
      {"engine.", ".transitions_per_byte", "count/B"},
      {"engine.", ".footprint_bytes", "B"},
      {"input_parallel.", ".ns_per_byte", "ns/B"},
      {"input_parallel.", ".speedup", "x"},
  };
  std::vector<MetricSpec> Specs;
  for (const mfsa::DatasetSpec &D : mfsa::standardDatasets())
    for (const PerDataset &R : Rows)
      Specs.push_back({R.Prefix + D.Abbrev + R.Suffix, R.Unit});
  static const MetricSpec Shared[] = {
      {"regex.parse_ms", "ms"},
      {"fsa.build_ms", "ms"},
      {"fsa.optimize_ms", "ms"},
      {"mfsa.merge_ms", "ms"},
      {"artifact.write_ms", "ms"},
      {"artifact.load_ms", "ms"},
      {"artifact.bytes", "B"},
      {"input_parallel.fallback_chunk_ratio", "ratio"},
      {"input_parallel.overlap_bytes_per_mb", "B/MB"},
      {"input_parallel.planner_declined", "count"},
      {"service.engine_feed_us", "us"},
      {"service.overhead_us", "us"},
      {"service.chunk_p50_us", "us"},
      {"service.chunk_p99_us", "us"},
      {"service.mb_s", "MB/s"},
      {"service.hello_hit_ms", "ms"},
      {"service.hello_miss_ms", "ms"},
      {"service.cache_hits", "count"},
      {"service.cache_misses", "count"},
      {"service.cache_evictions", "count"},
      {"service.cache_artifact_hits", "count"},
      {"service.shed_count", "count"},
      {"service.queue_depth_max", "count"},
  };
  Specs.insert(Specs.end(), std::begin(Shared), std::end(Shared));
  for (const char *Layer : kLayers)
    Specs.push_back({std::string("layer.") + Layer + ".self_ms", "ms"});
  static const MetricSpec Budget[] = {
      {"layer.residual_ms", "ms"}, {"layer.wall_ms", "ms"},
      {"trace.overhead_ms", "ms"}, {"trace.overhead_pct", "%"},
      {"trace.spans", "count"},
  };
  Specs.insert(Specs.end(), std::begin(Budget), std::end(Budget));
  return Specs;
}

/// Cores this process may run on, as nproc(1) counts them.
unsigned availableCores() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof Set, &Set) == 0)
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&Set)));
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string number(double V) {
  char Buf[32];
  std::snprintf(Buf, sizeof Buf, "%.17g", V);
  return Buf;
}

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload "
               "offline_table1|service_steady|service_churn --seed N\n"
               "                --seconds S --trace 0|1 --workdir DIR "
               "[--trace-out FILE]\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig Cfg;
  if (Argc % 2 == 0)
    return usage();
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string Flag = Argv[I];
    const char *Value = Argv[I + 1];
    if (Flag == "--workload")
      Cfg.Workload = Value;
    else if (Flag == "--seed")
      Cfg.Seed = std::strtoull(Value, nullptr, 10);
    else if (Flag == "--seconds")
      Cfg.Seconds = std::strtod(Value, nullptr);
    else if (Flag == "--trace")
      Cfg.Trace = std::strcmp(Value, "0") != 0;
    else if (Flag == "--workdir")
      Cfg.WorkDir = Value;
    else if (Flag == "--trace-out")
      Cfg.TraceOut = Value;
    else
      return usage();
  }
  const bool Offline = Cfg.Workload == "offline_table1";
  const bool Service =
      Cfg.Workload == "service_steady" || Cfg.Workload == "service_churn";
  if (!(Offline || Service) || Cfg.WorkDir.empty() || !(Cfg.Seconds > 0))
    return usage();
  Cfg.Nproc = availableCores();

  const bool Release = std::strcmp(E2E_BUILD_TYPE, "Release") == 0;
  const bool Instrumented = mfsa::obs::kScanMetricsCompiledIn;
  const bool Valid = Release && !Instrumented;
  Cfg.Provenance =
      "{\"workload\": \"" + Cfg.Workload +
      "\", \"seed\": " + std::to_string(Cfg.Seed) +
      ", \"seconds\": " + number(Cfg.Seconds) +
      ", \"trace\": " + (Cfg.Trace ? "1" : "0") +
      ", \"nproc\": " + std::to_string(Cfg.Nproc) +
      ", \"toolchain\": \"" E2E_COMPILER "\", \"build_type\": \"" E2E_BUILD_TYPE
      "\", \"simd\": \"" +
      mfsa::simd::levelName(mfsa::simd::activeLevel()) +
      "\", \"scan_metrics_compiled_in\": " + (Instrumented ? "true" : "false") +
      ", \"valid\": " + (Valid ? "true" : "false") + "}";
  std::printf("provenance %s\n", Cfg.Provenance.c_str());
  if (!Valid) {
    std::fprintf(stderr,
                 "error: not a timing build (build type %s, scan metrics %s); "
                 "build Release without MFSA_METRICS\n",
                 E2E_BUILD_TYPE, Instrumented ? "compiled in" : "off");
    return 3;
  }
  std::fflush(stdout);

  Outcome Out = Offline ? runOffline(Cfg)
                        : runService(Cfg, Cfg.Workload == "service_churn");

  const std::vector<MetricSpec> Specs =
      Cfg.Trace ? layerMetrics() : endToEndMetrics();
  const std::map<std::string, double> &Values =
      Cfg.Trace ? Out.Layers : Out.EndToEnd;
  for (const auto &[Name, Value] : Values)
    if (std::none_of(Specs.begin(), Specs.end(),
                     [&](const MetricSpec &S) { return S.Name == Name; }))
      Out.check(false, "metric " + Name + " is reported but not declared");

  std::string Json;
  for (const MetricSpec &S : Specs) {
    const auto It = Values.find(S.Name);
    double V = It == Values.end() ? 0.0 : It->second;
    if (!std::isfinite(V)) {
      Out.check(false, "metric " + S.Name + " is not a finite number");
      V = 0;
    }
    std::printf("metric %-40s %14.6g %s\n", S.Name.c_str(), V, S.Unit.c_str());
    Json += (Json.empty() ? "\"" : ", \"") + S.Name + "\": {\"value\": " +
            number(V) + ", \"unit\": \"" + S.Unit + "\"}";
  }
  const double ErrorRate =
      Out.Attempted ? double(Out.Failed) / double(Out.Attempted) : 0;
  std::printf("metric %-40s %14.6g ratio (%llu failed of %llu attempted)\n",
              "error_rate", ErrorRate,
              static_cast<unsigned long long>(Out.Failed),
              static_cast<unsigned long long>(Out.Attempted));
  for (const std::string &Note : Out.Notes)
    std::printf("note %s\n", Note.c_str());
  for (const std::string &Failure : Out.Failures)
    std::fprintf(stderr, "FAIL %s\n", Failure.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Out.Failed ? "false" : "true",
              static_cast<unsigned long long>(Out.Attempted),
              static_cast<unsigned long long>(Out.Failed), Json.c_str());
  return Out.Failed ? 1 : 0;
}
