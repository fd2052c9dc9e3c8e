//===- abl_planner.cpp - planner ablation (Engine::Auto vs fixed) ------------===//
//
// Part of the mfsa project. MIT License.
//
// Does the static cost planner (analysis/Planner.h) earn its keep? Every
// Table I dataset is scanned by each fixed engine — dense iMFAnt at its
// best merging factor out of {1, 50, all}, the union DFA and stride-2
// DFA at the fewest feasible groups, and the literal prefilter — and by the
// engine + merging factor the planner picked from the same candidates. The
// headline per dataset is auto_s vs best_fixed_s: a planner that predicts
// well matches the best fixed engine without being told which one it is.
//
// Engine construction is excluded from the timed region (the planner's
// value proposition is picking the right engine, not building it faster);
// the plan's own wall time is reported separately as plan_ms. Every engine's
// match total is cross-checked, and the bench fails outright if Auto is more
// than 20% *and* more than 50 ms behind the best fixed engine — the same
// shape of noise band tools/compare_bench_json.py applies in CI.
//
// Each dataset's full decision trace (EnginePlan::explainJson()) is embedded
// in the report's "plans" object so a regression in the *choice* is visible
// in the JSON diff, not just in the timing drift it causes.
//
// <DS>.probe_m50_ms times the planner's dominant analysis on its own: the
// DFA probe (probeDfaBlowup at the planner's state cap) of every M=50 group,
// one after another on one thread, summed, best of at least five passes (a
// pass takes tens of milliseconds, so even a one-repetition run gets a
// steady minimum on a shared host). Every Table I dataset has at most 6
// groups at M=50, under the planner's sample of 8, so these are exactly the
// probes a plan runs there.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "analysis/CostModel.h"
#include "analysis/Planner.h"
#include "engine/PlannedEngine.h"
#include "mfsa/Merge.h"
#include "support/Timer.h"

#include "CliInput.h"

#include <algorithm>
#include <cstring>
#include <numeric>

using namespace mfsa;
using namespace mfsa::bench;

namespace {

struct EngineTiming {
  bool Feasible = false;
  double Sec = 0.0;
  uint64_t Matches = 0;
  uint32_t Factor = 0;
};

/// Builds \p Choice at merging factor \p M over the dataset and times the
/// scan, best of repetitions(). Infeasible builds (DFA blowup, stride table
/// cap) return Feasible=false instead of dying: the planner is supposed to
/// know about those, the fixed-engine sweep just skips them.
EngineTiming timeEngine(Engine Choice, const CompiledDataset &Dataset,
                        uint32_t M) {
  EnginePlan Fixed;
  Fixed.Choice = Choice;
  Fixed.MergingFactor = M;
  std::vector<uint32_t> Ids(Dataset.OptimizedFsas.size());
  std::iota(Ids.begin(), Ids.end(), 0u);
  Result<PlannedEngineSet> Set = PlannedEngineSet::createFromRuleset(
      Fixed, Dataset.OptimizedFsas, Ids, Dataset.Rules);
  if (!Set.ok())
    return {};
  EngineTiming T;
  T.Feasible = true;
  T.Factor = M;
  for (unsigned Rep = 0; Rep < repetitions(); ++Rep) {
    MatchRecorder Recorder;
    Timer Wall;
    Set->run(Dataset.Stream, Recorder);
    double Sec = Wall.elapsedSec();
    if (Rep == 0 || Sec < T.Sec)
      T.Sec = Sec;
    T.Matches = Recorder.total();
  }
  return T;
}

/// Best feasible timing for \p Choice over the candidate factors, cheapest
/// group counts first so the DFA family stops at its first feasible build.
EngineTiming bestOver(Engine Choice, const CompiledDataset &Dataset,
                      const std::vector<uint32_t> &Factors) {
  EngineTiming Best;
  for (uint32_t M : Factors) {
    EngineTiming T = timeEngine(Choice, Dataset, M);
    if (T.Feasible && (!Best.Feasible || T.Sec < Best.Sec))
      Best = T;
    // The DFA family's cost scales with group count, not group size: the
    // first feasible (fewest-groups) build is also the predicted-best one.
    if (T.Feasible &&
        (Choice == Engine::Dfa || Choice == Engine::StridedDfa))
      break;
  }
  return Best;
}

/// Single-threaded wall time of probing every M=50 group of \p Dataset
/// under the planner's DFA probe options, best of max(5, repetitions()).
double probeM50Ms(const CompiledDataset &Dataset,
                  const std::vector<uint32_t> &Ids) {
  const std::vector<Mfsa> Groups =
      mergeInGroups(Dataset.OptimizedFsas, Ids, 50);
  const DfaProbeOptions Probe = PlannerOptions().Probe;
  double Best = 0.0;
  for (unsigned Rep = 0; Rep < std::max(5u, repetitions()); ++Rep) {
    Timer Wall;
    for (const Mfsa &Group : Groups)
      (void)probeDfaBlowup(Group, Probe);
    const double Ms = Wall.elapsedMs();
    if (Rep == 0 || Ms < Best)
      Best = Ms;
  }
  return Best;
}

} // namespace

int main(int argc, char **argv) {
  // What-if mode: `abl_planner --engine dfa` pins the planner's choice so a
  // single fixed engine can be studied against the sweep. Shares the
  // examples' flag parser (and its exit-code-2 usage contract).
  Engine Forced = Engine::Auto;
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--engine") && I + 1 < argc) {
      if (int Rc = cli::parseEngineFlag(argv[++I], Forced))
        return Rc;
    } else {
      std::fprintf(stderr, "usage: %s [--engine "
                           "auto|dense|dfa|stride2|prefilter]\n",
                   argv[0]);
      return cli::kExitUsage;
    }
  }

  printHeader("Planner ablation - Engine::Auto vs every fixed engine",
              "§V engine choice; static cost analyzer");
  BenchReport Report("abl_planner", "§V engine choice; static cost analyzer");

  bool SelfGateFailed = false;
  std::printf("%-8s %9s %9s %9s %9s | %9s %-14s %9s\n", "dataset", "dense",
              "dfa", "stride2", "prefilt", "auto", "(choice)", "best-fix");
  for (const DatasetSpec &Spec : standardDatasets()) {
    CompiledDataset Dataset = compileDataset(Spec, streamBytes());

    // The planner sees the same candidate factors the fixed sweep uses.
    PlannerOptions PO;
    PO.Force = Forced;
    Timer PlanWall;
    std::vector<uint32_t> Ids(Dataset.OptimizedFsas.size());
    std::iota(Ids.begin(), Ids.end(), 0u);
    EnginePlan Plan =
        planRuleset(Dataset.OptimizedFsas, Ids, Dataset.Rules, PO);
    double PlanMs = PlanWall.elapsedMs();
    Report.plan(Spec.Abbrev, Plan.explainJson());
    Plan.recordTo(Report.registry());
    const double ProbeMs = probeM50Ms(Dataset, Ids);

    const std::vector<uint32_t> ImfantFactors = {0, 50, 1};
    const std::vector<uint32_t> DfaFactors = {0, 50};
    EngineTiming Dense = bestOver(Engine::ImfantDense, Dataset, ImfantFactors);
    EngineTiming Dfa = bestOver(Engine::Dfa, Dataset, DfaFactors);
    EngineTiming Stride2 = bestOver(Engine::StridedDfa, Dataset, DfaFactors);
    EngineTiming Prefilter = timeEngine(Engine::Prefilter, Dataset, 0);

    EngineTiming Auto;
    {
      Result<PlannedEngineSet> Set = PlannedEngineSet::createFromRuleset(
          Plan, Dataset.OptimizedFsas, Ids, Dataset.Rules);
      if (!Set.ok()) {
        // The probe and the real builder disagreed on feasibility; fall
        // back to dense at the plan's factor, as runtime consumers do.
        std::fprintf(stderr, "warning: %s: planned %s engine failed (%s); "
                             "falling back to dense\n",
                     Spec.Abbrev.c_str(), engineName(Plan.Choice),
                     Set.diag().render().c_str());
        Auto = timeEngine(Engine::ImfantDense, Dataset, Plan.MergingFactor);
      } else {
        Auto.Feasible = true;
        Auto.Factor = Plan.MergingFactor;
        for (unsigned Rep = 0; Rep < repetitions(); ++Rep) {
          MatchRecorder Recorder;
          Timer Wall;
          Set->run(Dataset.Stream, Recorder);
          double Sec = Wall.elapsedSec();
          if (Rep == 0 || Sec < Auto.Sec)
            Auto.Sec = Sec;
          Auto.Matches = Recorder.total();
        }
      }
    }

    // Every engine that ran must agree on the match total.
    const EngineTiming *All[] = {&Dense, &Dfa, &Stride2, &Prefilter, &Auto};
    const char *Names[] = {"dense", "dfa", "stride2", "prefilter", "auto"};
    for (size_t I = 0; I < 5; ++I)
      if (All[I]->Feasible && All[I]->Matches != Dense.Matches) {
        std::fprintf(stderr, "MISMATCH on %s: %s found %lu matches, dense "
                             "found %lu\n",
                     Spec.Abbrev.c_str(), Names[I],
                     static_cast<unsigned long>(All[I]->Matches),
                     static_cast<unsigned long>(Dense.Matches));
        return 1;
      }

    double BestFixed = Dense.Sec;
    for (size_t I = 1; I < 4; ++I)
      if (All[I]->Feasible && All[I]->Sec < BestFixed)
        BestFixed = All[I]->Sec;

    auto Cell = [](const EngineTiming &T) -> std::string {
      if (!T.Feasible)
        return "-";
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%.4fs", T.Sec);
      return Buf;
    };
    std::string Choice = std::string(engineName(Plan.Choice)) + "@" +
                         mergingFactorName(Plan.MergingFactor);
    std::printf("%-8s %9s %9s %9s %9s | %8.4fs %-14s %8.4fs\n",
                Spec.Abbrev.c_str(), Cell(Dense).c_str(), Cell(Dfa).c_str(),
                Cell(Stride2).c_str(), Cell(Prefilter).c_str(), Auto.Sec,
                Choice.c_str(), BestFixed);

    Report.result(Spec.Abbrev + ".dense_s", Dense.Sec, "s");
    if (Dfa.Feasible)
      Report.result(Spec.Abbrev + ".dfa_s", Dfa.Sec, "s");
    if (Stride2.Feasible)
      Report.result(Spec.Abbrev + ".stride2_s", Stride2.Sec, "s");
    if (Prefilter.Feasible)
      Report.result(Spec.Abbrev + ".prefilter_s", Prefilter.Sec, "s");
    Report.result(Spec.Abbrev + ".auto_s", Auto.Sec, "s");
    Report.result(Spec.Abbrev + ".best_fixed_s", BestFixed, "s");
    // Unit "ms/plan" keeps this row out of compare_bench_json.py's gated
    // set: planning wall time is informational, not a throughput headline.
    Report.result(Spec.Abbrev + ".plan_ms", PlanMs, "ms/plan");
    Report.result(Spec.Abbrev + ".probe_m50_ms", ProbeMs, "ms");

    // Self-gate, mirroring the CI noise band: Auto may trail the best fixed
    // engine by measurement noise, never by a wrong choice.
    if (Auto.Sec > BestFixed * 1.20 && Auto.Sec - BestFixed > 0.05) {
      std::fprintf(stderr, "PLANNER REGRESSION on %s: auto %.4fs vs best "
                           "fixed %.4fs (chose %s)\n",
                   Spec.Abbrev.c_str(), Auto.Sec, BestFixed, Choice.c_str());
      SelfGateFailed = true;
    }
  }

  std::printf("\nauto within the noise band of best-fixed on every dataset "
              "= the planner never picks a losing engine; '-' = engine "
              "infeasible (DFA blowup / stride table cap)\n");
  return SelfGateFailed ? 1 : 0;
}
