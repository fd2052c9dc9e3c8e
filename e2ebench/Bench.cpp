//===- Bench.cpp - shared pieces of the end-to-end benchmark --------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "engine/Imfant.h"
#include "fsa/Builder.h"
#include "fsa/Passes.h"
#include "mfsa/Merge.h"
#include "regex/Parser.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>

namespace e2e {

namespace {
constexpr size_t kMaxFailures = 8;
} // namespace

void Outcome::check(bool Ok, std::string_view What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  if (Failures.size() < kMaxFailures)
    Failures.emplace_back(What);
}

void Outcome::merge(const Outcome &Other) {
  Attempted += Other.Attempted;
  Failed += Other.Failed;
  for (const std::string &F : Other.Failures)
    if (Failures.size() < kMaxFailures)
      Failures.push_back(F);
}

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  const size_t Mid = Values.size() / 2;
  std::nth_element(Values.begin(), Values.begin() + Mid, Values.end());
  const double Upper = Values[Mid];
  if (Values.size() % 2)
    return Upper;
  return (*std::max_element(Values.begin(), Values.begin() + Mid) + Upper) /
         2;
}

double fastest(const std::vector<double> &Values) {
  return Values.empty() ? 0 : *std::min_element(Values.begin(), Values.end());
}

Tail tail(std::vector<double> Values, double Highest) {
  Tail T;
  T.Samples = Values.size();
  if (Values.empty())
    return T;
  std::sort(Values.begin(), Values.end());
  const size_t N = Values.size();
  for (double P : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (P > Highest && P != 50.0)
      continue;
    // Nearest rank; the samples above it are the ones past that index.
    const auto Rank = static_cast<size_t>(std::ceil(P / 100 * double(N)));
    const size_t Index = Rank == 0 ? 0 : Rank - 1;
    if (N - 1 - Index >= 10 || P == 50.0) {
      T.Value = Values[Index];
      T.Percentile = P;
      break;
    }
  }
  return T;
}

double geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double LogSum = 0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / double(Values.size()));
}

double peakRssMb() {
  rusage Usage{};
  if (getrusage(RUSAGE_SELF, &Usage) != 0)
    return 0;
  return double(Usage.ru_maxrss) * 1024 / 1e6; // ru_maxrss is in KiB.
}

void addCompileSplit(
    const std::vector<const std::vector<std::string> *> &Rulesets,
    uint32_t M, Outcome &Out) {
  double ParseMs = 0, BuildMs = 0, OptimizeMs = 0, MergeMs = 0;
  for (const std::vector<std::string> *Rules : Rulesets) {
    std::vector<mfsa::Nfa> Optimized;
    for (const std::string &Rule : *Rules) {
      mfsa::Timer T;
      mfsa::Result<mfsa::Regex> Re = mfsa::parseRegex(Rule);
      ParseMs += T.elapsedMs();
      if (!Re) {
        Out.check(false, "parse: " + Re.diag().render());
        return;
      }
      T.reset();
      mfsa::Result<mfsa::Nfa> Raw = mfsa::buildNfa(*Re);
      BuildMs += T.elapsedMs();
      if (!Raw) {
        Out.check(false, "build: " + Raw.diag().render());
        return;
      }
      T.reset();
      Optimized.push_back(mfsa::optimizeForMerging(*Raw));
      OptimizeMs += T.elapsedMs();
    }
    mfsa::Timer T;
    const std::vector<mfsa::Mfsa> Merged = mfsa::mergeInGroups(Optimized, M);
    MergeMs += T.elapsedMs();
    Out.check(!Merged.empty(), "merge produced no MFSA");
  }
  Out.Layers["regex.parse_ms"] = ParseMs;
  Out.Layers["fsa.build_ms"] = BuildMs;
  Out.Layers["fsa.optimize_ms"] = OptimizeMs;
  Out.Layers["mfsa.merge_ms"] = MergeMs;
}

DenseWork denseWork(const std::vector<mfsa::Mfsa> &Mfsas,
                    std::string_view Input) {
  DenseWork W;
  for (const mfsa::Mfsa &Z : Mfsas) {
    const mfsa::ImfantEngine Engine(Z);
    mfsa::MatchRecorder Recorder;
    mfsa::RunStats Stats;
    Engine.run(Input, Recorder, &Stats);
    W.Transitions += Stats.TransitionsEvaluated;
    W.FootprintBytes += Engine.footprintBytes();
  }
  return W;
}

void addLayerBudget(Outcome &Out, const RunConfig &Cfg,
                    const std::vector<const TraceLog *> &Logs,
                    double TracedWallMs, double UntracedWallMs) {
  const std::map<std::string, double> Self = layerSelfMs(Logs);
  std::string Budget = "budget ms:";
  double Covered = 0;
  for (const char *Layer : kLayers) {
    const auto It = Self.find(Layer);
    const double Ms = It == Self.end() ? 0 : It->second;
    Out.Layers[std::string("layer.") + Layer + ".self_ms"] = Ms;
    Covered += Ms;
    char Row[64];
    std::snprintf(Row, sizeof Row, " %s %.1f +", Layer, Ms);
    Budget += Row;
  }
  const double Residual = TracedWallMs - Covered;
  const double Overhead = TracedWallMs - UntracedWallMs;
  size_t Spans = 0;
  for (const TraceLog *Log : Logs)
    Spans += Log->spans().size();
  Out.Layers["layer.residual_ms"] = Residual;
  Out.Layers["layer.wall_ms"] = TracedWallMs;
  Out.Layers["trace.overhead_ms"] = Overhead;
  Out.Layers["trace.overhead_pct"] = 100 * Overhead / UntracedWallMs;
  Out.Layers["trace.spans"] = double(Spans);

  char Tail[160];
  std::snprintf(Tail, sizeof Tail,
                " residual %.1f = wall %.1f; untraced wall %.1f, tracing "
                "overhead %.1f ms over %zu spans",
                Residual, TracedWallMs, UntracedWallMs, Overhead, Spans);
  Out.Notes.push_back(Budget + Tail);

  if (Cfg.TraceOut.empty())
    return;
  char Walls[96];
  std::snprintf(Walls, sizeof Walls,
                ", \"wall_ms\": %.3f, \"untraced_wall_ms\": %.3f}",
                TracedWallMs, UntracedWallMs);
  const std::string Run = "{\"provenance\": " + Cfg.Provenance + Walls;
  Out.check(writeTrace(Cfg.TraceOut, Run, Logs),
            "cannot write the trace to " + Cfg.TraceOut);
}

} // namespace e2e
