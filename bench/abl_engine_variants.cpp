//===- abl_engine_variants.cpp - ablation G (engine layout) ------------------===//
//
// Part of the mfsa project. MIT License.
//
// The dense engine (ImfantEngine: active states' out-edges plus precomputed
// per-symbol injection lists) versus the sparse one (SparseImfantEngine:
// active states' out-edges plus every initial state's out-edges per byte,
// injection masks computed on the fly). Both are state-major for
// propagation; the ratio isolates what precomputing injection buys.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "engine/SparseImfant.h"
#include "mfsa/Merge.h"
#include "support/Timer.h"

using namespace mfsa;
using namespace mfsa::bench;

int main() {
  printHeader("Ablation G - dense vs sparse iMFAnt engine layout",
              "§V engine design (iNFAnt layout choice)");
  BenchReport Report("abl_engine_variants",
                     "§V engine design (iNFAnt layout choice)");

  const std::vector<uint32_t> Factors = {1, 50, 0};
  std::printf("%-8s %5s %12s %12s %9s\n", "dataset", "M", "dense",
              "sparse", "ratio");
  for (const DatasetSpec &Spec : standardDatasets()) {
    CompiledDataset Dataset = compileDataset(Spec, streamBytes());
    for (uint32_t M : Factors) {
      std::vector<Mfsa> Groups = mergeInGroups(Dataset.OptimizedFsas, M);

      Timer DenseWall;
      uint64_t DenseMatches = 0;
      {
        for (const Mfsa &Z : Groups) {
          ImfantEngine Engine(Z);
          if (M == 0)
            Engine.setMetrics(&Report.registry());
          MatchRecorder Recorder;
          Engine.run(Dataset.Stream, Recorder);
          DenseMatches += Recorder.total();
        }
      }
      double DenseSec = DenseWall.elapsedSec();

      Timer SparseWall;
      uint64_t SparseMatches = 0;
      {
        for (const Mfsa &Z : Groups) {
          SparseImfantEngine Engine(Z);
          if (M == 0)
            Engine.setMetrics(&Report.registry());
          MatchRecorder Recorder;
          Engine.run(Dataset.Stream, Recorder);
          SparseMatches += Recorder.total();
        }
      }
      double SparseSec = SparseWall.elapsedSec();

      if (DenseMatches != SparseMatches) {
        std::fprintf(stderr, "MISMATCH on %s M=%u: %lu vs %lu matches\n",
                     Spec.Abbrev.c_str(), M,
                     static_cast<unsigned long>(DenseMatches),
                     static_cast<unsigned long>(SparseMatches));
        return 1;
      }
      std::printf("%-8s %5s %11.3fs %11.3fs %8.2fx\n", Spec.Abbrev.c_str(),
                  mergingFactorName(M).c_str(), DenseSec, SparseSec,
                  DenseSec / SparseSec);
      Report.result(Spec.Abbrev + ".m_" + mergingFactorName(M) +
                        ".dense_s",
                    DenseSec, "s");
      Report.result(Spec.Abbrev + ".m_" + mergingFactorName(M) +
                        ".sparse_s",
                    SparseSec, "s");
    }
  }
  std::printf("\nratio > 1: sparse wins; engine "
              "construction time included for both (dominated by scanning "
              "at these stream sizes)\n");
  return 0;
}
