//===- fig8_compile_time.cpp - reproduce Fig. 8 (compilation stages) ---------===//
//
// Part of the mfsa project. MIT License.
//
// Paper Fig. 8: per-stage compilation time (front-end, AST-to-FSA,
// ME-single, ME-merging, back-end) for representative merging factors,
// averaged over repetitions. The paper's observations to reproduce: the
// single-FSA stages are independent of M; the merging stage dominates and
// grows with M.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

using namespace mfsa;
using namespace mfsa::bench;

int main() {
  printHeader("Fig. 8 - compilation stage breakdown",
              "Fig. 8 (per-stage time vs merging factor)");
  BenchReport Report("fig8_compile_time",
                     "Fig. 8 (per-stage time vs merging factor)");

  const unsigned Reps = repetitions();
  std::vector<uint32_t> Factors = {1, 2, 10, 50, 0};

  std::printf("%-8s %6s %10s %10s %10s %10s %10s %10s\n", "dataset", "M",
              "FE[ms]", "AST2FSA", "ME-single", "ME-merge", "BE[ms]",
              "total");
  for (const DatasetSpec &Spec : standardDatasets()) {
    std::vector<std::string> Rules = generateRuleset(Spec);
    for (uint32_t M : Factors) {
      StageTimes Sum;
      for (unsigned Rep = 0; Rep < Reps; ++Rep) {
        CompileOptions Options;
        Options.MergingFactor = M;
        Result<CompileArtifacts> Artifacts = compileRuleset(Rules, Options);
        if (!Artifacts.ok()) {
          std::fprintf(stderr, "fatal: %s\n",
                       Artifacts.diag().render().c_str());
          return 1;
        }
        Sum += Artifacts->Times;
        // The last repetition's per-stage telemetry lands in the registry
        // (counters, not timings, so repetitions would double-count them).
        if (Rep + 1 == Reps && M == 0)
          Artifacts->Telemetry.recordTo(Report.registry());
      }
      StageTimes Avg = Sum.scaledBy(1.0 / Reps);
      std::printf("%-8s %6s %10.2f %10.2f %10.2f %10.2f %10.2f %10.2f\n",
                  Spec.Abbrev.c_str(), mergingFactorName(M).c_str(),
                  Avg.FrontEndMs, Avg.AstToFsaMs, Avg.SingleOptMs,
                  Avg.MergingMs, Avg.BackEndMs, Avg.totalMs());
      Report.result(Spec.Abbrev + ".m_" + mergingFactorName(M) + ".total_ms",
                    Avg.totalMs(), "ms");
      Report.result(Spec.Abbrev + ".m_" + mergingFactorName(M) +
                        ".merging_ms",
                    Avg.MergingMs, "ms");
      // ME-single (stage 3): independent of M, so every M re-measures it.
      Report.result(Spec.Abbrev + ".m_" + mergingFactorName(M) + ".single_ms",
                    Avg.SingleOptMs, "ms");
    }
  }
  std::printf("\nexpected shape: FE / AST-to-FSA / ME-single roughly constant "
              "in M; ME-merging grows with M and dominates at M=all\n");
  return 0;
}
