//===- abl_multistride.cpp - ablation I (multi-stride DFA, §VII) -------------===//
//
// Part of the mfsa project. MIT License.
//
// The related-work baseline (§VII, [11][28][40]): a 2-stride DFA consumes
// two symbols per traversal. Per dataset, per-rule DFAs are squared to
// stride 2 and scanned; reported: table growth (the "complexity ...
// comprises all the k-characters combinations" the paper cites as the
// limiting factor) and the scan-time ratio.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "engine/DfaEngine.h"
#include "engine/MultiStride.h"
#include "support/Timer.h"

using namespace mfsa;
using namespace mfsa::bench;

int main() {
  printHeader("Ablation I - stride-1 vs stride-2 DFA scanning",
              "§VII multi-stride automata discussion");
  BenchReport Report("abl_multistride",
                     "§VII multi-stride automata discussion");

  std::printf("%-8s | %10s %10s %7s | %9s %9s %7s | %8s\n", "dataset",
              "s1-KB", "s2-KB", "growth", "s1[s]", "s2[s]", "speedup",
              "matches");
  for (const DatasetSpec &Spec : standardDatasets()) {
    CompiledDataset Dataset = compileDataset(Spec, streamBytes());

    // Per-rule DFAs (the M = 1 style baseline), stride-1 and stride-2.
    std::vector<DfaEngine> Plain;
    std::vector<StridedDfaEngine> Strided;
    size_t PlainBytes = 0, StridedBytes = 0;
    bool Ok = true;
    for (size_t I = 0; I < Dataset.OptimizedFsas.size() && Ok; ++I) {
      Result<Dfa> D = determinize({Dataset.OptimizedFsas[I]},
                                  {static_cast<uint32_t>(I)});
      if (!D.ok()) {
        Ok = false;
        break;
      }
      Result<StridedDfa> S2 = makeStride2(*D);
      if (!S2.ok()) {
        Ok = false;
        break;
      }
      PlainBytes += D->footprintBytes();
      StridedBytes += S2->footprintBytes();
      Plain.emplace_back(D.take());
      Strided.emplace_back(S2.take());
      Plain.back().setMetrics(&Report.registry());
      Strided.back().setMetrics(&Report.registry());
    }
    if (!Ok) {
      std::printf("%-8s | determinization or striding failed (explosion)\n",
                  Spec.Abbrev.c_str());
      continue;
    }

    uint64_t Matches1 = 0, Matches2 = 0;
    Timer Wall1;
    for (const DfaEngine &Engine : Plain) {
      MatchRecorder Recorder;
      Engine.run(Dataset.Stream, Recorder);
      Matches1 += Recorder.total();
    }
    double Sec1 = Wall1.elapsedSec();

    Timer Wall2;
    for (const StridedDfaEngine &Engine : Strided) {
      MatchRecorder Recorder;
      Engine.run(Dataset.Stream, Recorder);
      Matches2 += Recorder.total();
    }
    double Sec2 = Wall2.elapsedSec();

    if (Matches1 != Matches2) {
      std::fprintf(stderr, "MISMATCH on %s: %lu vs %lu\n",
                   Spec.Abbrev.c_str(),
                   static_cast<unsigned long>(Matches1),
                   static_cast<unsigned long>(Matches2));
      return 1;
    }
    std::printf("%-8s | %10zu %10zu %6.1fx | %9.3f %9.3f %6.2fx | %8lu\n",
                Spec.Abbrev.c_str(), PlainBytes / 1024, StridedBytes / 1024,
                static_cast<double>(StridedBytes) /
                    static_cast<double>(PlainBytes ? PlainBytes : 1),
                Sec1, Sec2, Sec1 / Sec2,
                static_cast<unsigned long>(Matches1));
    Report.result(Spec.Abbrev + ".stride1_time_s", Sec1, "s");
    Report.result(Spec.Abbrev + ".stride2_time_s", Sec2, "s");
    Report.result(Spec.Abbrev + ".table_growth",
                  static_cast<double>(StridedBytes) /
                      static_cast<double>(PlainBytes ? PlainBytes : 1),
                  "x");
  }
  std::printf("\nexpected shape: stride 2 roughly halves the per-byte "
              "traversals at a quadratic (atoms^2) table-size cost — the "
              "trade-off §VII attributes to multi-stride automata\n");
  return 0;
}
