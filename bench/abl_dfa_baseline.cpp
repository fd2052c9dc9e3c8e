//===- abl_dfa_baseline.cpp - ablation F (DFA baseline, §II trade-off) -------===//
//
// Part of the mfsa project. MIT License.
//
// Reproduces the background trade-off motivating the paper (§II): DFAs give
// single-transition traversal but explode in states; NFAs/MFSAs stay small
// but pay per-symbol bandwidth. Per dataset:
//   - per-rule DFAs (M = 1 baseline): total states + scan time,
//   - one union DFA over the whole ruleset (when it fits the state cap),
//   - the M = all MFSA with iMFAnt.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "engine/DfaEngine.h"
#include "fsa/Determinize.h"
#include "support/StringUtil.h"
#include "support/Timer.h"

using namespace mfsa;
using namespace mfsa::bench;

int main() {
  printHeader("Ablation F - DFA baseline vs MFSA",
              "§II DFA/NFA trade-off (state explosion vs bandwidth)");
  BenchReport Report("abl_dfa_baseline",
                     "§II DFA/NFA trade-off (state explosion vs bandwidth)");

  std::printf("%-8s | %10s %9s | %10s %9s | %10s %9s\n", "dataset",
              "perDFA-st", "time[s]", "uniDFA-st", "time[s]", "MFSA-st",
              "time[s]");
  for (const DatasetSpec &Spec : standardDatasets()) {
    CompiledDataset Dataset = compileDataset(Spec, streamBytes());

    // Per-rule DFAs.
    uint64_t PerRuleStates = 0;
    std::vector<DfaEngine> PerRule;
    bool PerRuleOk = true;
    for (size_t I = 0; I < Dataset.OptimizedFsas.size(); ++I) {
      Result<Dfa> D = determinize({Dataset.OptimizedFsas[I]},
                                  {static_cast<uint32_t>(I)});
      if (!D.ok()) {
        PerRuleOk = false;
        break;
      }
      PerRuleStates += D->NumStates;
      PerRule.emplace_back(D.take());
    }
    double PerRuleSec = -1;
    if (PerRuleOk) {
      Timer Wall;
      for (const DfaEngine &Engine : PerRule) {
        MatchRecorder Recorder;
        Engine.run(Dataset.Stream, Recorder);
      }
      PerRuleSec = Wall.elapsedSec();
    }

    // Union DFA over the whole ruleset (capped).
    std::vector<uint32_t> Ids(Dataset.OptimizedFsas.size());
    for (size_t I = 0; I < Ids.size(); ++I)
      Ids[I] = static_cast<uint32_t>(I);
    DeterminizeOptions Capped;
    Capped.MaxStates = 1u << 15; // explosion demonstrated quickly
    Result<Dfa> Union = determinize(Dataset.OptimizedFsas, Ids, Capped);
    double UnionSec = -1;
    uint64_t UnionStates = 0;
    if (Union.ok()) {
      UnionStates = Union->NumStates;
      DfaEngine Engine(Union.take());
      Engine.setMetrics(&Report.registry());
      MatchRecorder Recorder;
      Timer Wall;
      Engine.run(Dataset.Stream, Recorder);
      UnionSec = Wall.elapsedSec();
    }

    // M = all MFSA.
    std::vector<ImfantEngine> Engines = buildEngines(Dataset, 0);
    Engines[0].setMetrics(&Report.registry());
    uint64_t MfsaStates = Engines[0].numStates();
    Timer Wall;
    MatchRecorder Recorder;
    Engines[0].run(Dataset.Stream, Recorder);
    double MfsaSec = Wall.elapsedSec();

    auto TimeStr = [](double Sec) {
      return Sec < 0 ? std::string("   n/a") : formatDouble(Sec, 3);
    };
    std::printf("%-8s | %10lu %9s | %10s %9s | %10lu %9s\n",
                Spec.Abbrev.c_str(),
                static_cast<unsigned long>(PerRuleStates),
                TimeStr(PerRuleSec).c_str(),
                Union.ok() ? std::to_string(UnionStates).c_str()
                           : "EXPLODED",
                TimeStr(UnionSec).c_str(),
                static_cast<unsigned long>(MfsaStates),
                TimeStr(MfsaSec).c_str());
    Report.result(Spec.Abbrev + ".per_rule_dfa_states",
                  static_cast<double>(PerRuleStates), "states");
    Report.result(Spec.Abbrev + ".union_dfa_states",
                  static_cast<double>(UnionStates), "states");
    Report.result(Spec.Abbrev + ".mfsa_states",
                  static_cast<double>(MfsaStates), "states");
    Report.result(Spec.Abbrev + ".mfsa_time_s", MfsaSec, "s");
  }
  std::printf("\nexpected shape: the union DFA is fastest per byte where it "
              "fits but pays orders of magnitude more states (or explodes "
              "on .*-heavy DS9); the MFSA holds the small-memory side of "
              "the trade-off at competitive speed\n");
  return 0;
}
