//===- mfsac.cpp - the MFSA compiler driver ------------------------------------===//
//
// Part of the mfsa project. MIT License.
//
// Command-line front door to the compilation framework (paper §IV), the
// analogue of the artifact's compiler + merging.py workflow:
//
//   $ ./mfsac -M 50 -o outdir rules.txt
//
// reads one POSIX ERE per line (blank lines and #-comments skipped),
// compiles with merging factor M (0 = all), writes one extended-ANML file
// per MFSA into outdir, and prints the stage-time and compression summary.
// `--cluster` groups rules by INDEL similarity instead of file order
// (§VIII future work); `-i` folds case rule-wide.
//
//===----------------------------------------------------------------------===//

#include "anml/Anml.h"
#include "artifact/Writer.h"
#include "compiler/Pipeline.h"
#include "obs/Metrics.h"
#include "workload/Clustering.h"

#include "CliInput.h"

#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

using namespace mfsa;

static void usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s [-M factor] [-o outdir] [--no-anml] [--cluster] "
               "[-i] rules.txt\n"
               "  -M factor   merging factor (default 0 = merge all)\n"
               "  -o outdir   directory for the .anml outputs (default .)\n"
               "  --emit-artifact path  also write the compiled MFSAs as one\n"
               "              mmap-able binary artifact (crash-safe atomic "
               "replace;\n"
               "              docs/artifact-format.md)\n"
               "  --no-anml   skip ANML emission (compression study only)\n"
               "  --cluster   group rules by similarity, not file order\n"
               "  -i          case-insensitive matching\n"
               "  --dot       also write Graphviz .dot files per MFSA\n"
               "  --isolate   quarantine broken/over-budget rules and keep "
               "going\n"
               "  --verify-each  run the IR verifier after every pipeline "
               "stage\n"
               "  --validate-passes  prove L(after) == L(before) for every "
               "optimization pass\n"
               "              and every rule's MFSA belonging-set projection "
               "(Eq. 10)\n"
               "  --no-validate  force translation validation off (overrides "
               "MFSA_VALIDATE\n"
               "              and the Debug-build default)\n"
               "  --plan      run the static cost planner over the compiled\n"
               "              ruleset (trial merges at K=1, 50, all) and "
               "print\n"
               "              the chosen engine/merging factor\n"
               "  --explain-plan  like --plan, plus the full JSON decision "
               "trace\n"
               "  --engine e  pin the planned engine: auto|dense|dfa|stride2|\n"
               "              prefilter (default auto = let the planner\n"
               "              choose)\n"
               "  --metrics   dump per-stage compile telemetry (text; "
               "--metrics=json for JSON)\n"
               "exit codes: 0 ok, 1 error, 2 usage, 3 missing/unreadable "
               "input, 4 empty input\n",
               Prog);
}

int main(int argc, char **argv) {
  uint32_t MergingFactor = 0;
  std::string OutDir = ".";
  std::string ArtifactPath;
  std::string RulesPath;
  bool EmitAnml = true;
  bool Cluster = false;
  bool CaseInsensitive = false;
  bool EmitDot = false;
  bool Isolate = false;
  bool VerifyEach = false;
  bool ValidatePasses = false;
  bool NoValidate = false;
  bool Metrics = false;
  bool MetricsJson = false;
  bool Plan = false;
  bool ExplainPlan = false;
  Engine EngineChoice = Engine::Auto;

  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "-M") && I + 1 < argc)
      MergingFactor = static_cast<uint32_t>(std::atoi(argv[++I]));
    else if (!std::strcmp(argv[I], "-o") && I + 1 < argc)
      OutDir = argv[++I];
    else if (!std::strcmp(argv[I], "--emit-artifact") && I + 1 < argc)
      ArtifactPath = argv[++I];
    else if (!std::strcmp(argv[I], "--no-anml"))
      EmitAnml = false;
    else if (!std::strcmp(argv[I], "--cluster"))
      Cluster = true;
    else if (!std::strcmp(argv[I], "-i"))
      CaseInsensitive = true;
    else if (!std::strcmp(argv[I], "--dot"))
      EmitDot = true;
    else if (!std::strcmp(argv[I], "--isolate"))
      Isolate = true;
    else if (!std::strcmp(argv[I], "--verify-each"))
      VerifyEach = true;
    else if (!std::strcmp(argv[I], "--validate-passes"))
      ValidatePasses = true;
    else if (!std::strcmp(argv[I], "--no-validate"))
      NoValidate = true;
    else if (!std::strcmp(argv[I], "--metrics"))
      Metrics = true;
    else if (!std::strcmp(argv[I], "--metrics=json"))
      Metrics = MetricsJson = true;
    else if (!std::strcmp(argv[I], "--plan"))
      Plan = true;
    else if (!std::strcmp(argv[I], "--explain-plan"))
      Plan = ExplainPlan = true;
    else if (!std::strcmp(argv[I], "--engine") && I + 1 < argc) {
      if (int Rc = cli::parseEngineFlag(argv[++I], EngineChoice))
        return Rc;
    } else if (argv[I][0] == '-') {
      usage(argv[0]);
      return 2;
    } else
      RulesPath = argv[I];
  }
  if (RulesPath.empty()) {
    usage(argv[0]);
    return cli::kExitUsage;
  }

  std::vector<std::string> Rules;
  if (int Rc = cli::readRulesFile(RulesPath, Rules))
    return Rc;

  if (Isolate && Cluster) {
    // Clustering regroups by position in the original rule list; mixing it
    // with quarantine holes is a recipe for mislabeled rules.
    std::fprintf(stderr, "error: --isolate and --cluster are exclusive\n");
    return 2;
  }

  CompileOptions Options;
  Options.MergingFactor = MergingFactor;
  Options.EmitAnml = EmitAnml && !Cluster;
  Options.Parse.CaseInsensitive = CaseInsensitive;
  if (Isolate)
    Options.Policy = FailurePolicy::Isolate;
  if (VerifyEach)
    Options.VerifyEach = true;
  if (ValidatePasses && NoValidate) {
    std::fprintf(stderr,
                 "error: --validate-passes and --no-validate are exclusive\n");
    return 2;
  }
  if (ValidatePasses)
    Options.Validate = ValidateMode::On;
  else if (NoValidate)
    Options.Validate = ValidateMode::Off;
  Result<CompileArtifacts> Artifacts = compileRuleset(Rules, Options);
  if (!Artifacts.ok()) {
    std::fprintf(stderr, "error: %s\n", Artifacts.diag().render().c_str());
    return 1;
  }
  for (const QuarantinedRule &Q : Artifacts->Quarantined)
    std::fprintf(stderr, "warning: rule %u quarantined at %s: %s\n",
                 Q.RuleIndex, stageName(Q.Stage), Q.Reason.Message.c_str());
  if (Artifacts->CompiledRuleIds.empty()) {
    std::fprintf(stderr, "error: every rule was quarantined\n");
    return 1;
  }

  if (Cluster) {
    // Regroup by similarity and redo the merge + ANML from the optimized
    // FSAs the pipeline already produced.
    auto Groups = clusterBySimilarity(Rules, MergingFactor);
    Artifacts->Mfsas =
        mergeWithGrouping(Artifacts->OptimizedFsas, Groups, Options.Merge);
    Artifacts->AnmlDocs.clear();
    if (EmitAnml)
      for (size_t I = 0; I < Artifacts->Mfsas.size(); ++I)
        Artifacts->AnmlDocs.push_back(
            writeAnml(Artifacts->Mfsas[I], "mfsa-" + std::to_string(I)));
  }

  uint64_t SingleStates = 0, SingleTrans = 0;
  for (const Nfa &A : Artifacts->OptimizedFsas) {
    SingleStates += A.numStates();
    SingleTrans += A.numTransitions();
  }
  MfsaSetStats Merged = computeSetStats(Artifacts->Mfsas);

  std::printf("compiled %zu/%zu rules -> %zu MFSA(s) at M=%s\n",
              Artifacts->CompiledRuleIds.size(), Rules.size(),
              Artifacts->Mfsas.size(),
              MergingFactor == 0 ? "all" : std::to_string(MergingFactor).c_str());
  std::printf("states: %lu -> %lu (%.2f%%)  transitions: %lu -> %lu "
              "(%.2f%%)\n",
              static_cast<unsigned long>(SingleStates),
              static_cast<unsigned long>(Merged.TotalStates),
              compressionPercent(SingleStates, Merged.TotalStates),
              static_cast<unsigned long>(SingleTrans),
              static_cast<unsigned long>(Merged.TotalTransitions),
              compressionPercent(SingleTrans, Merged.TotalTransitions));
  std::printf("stages [ms]: FE %.2f | AST-to-FSA %.2f | ME-single %.2f | "
              "ME-merging %.2f | BE %.2f\n",
              Artifacts->Times.FrontEndMs, Artifacts->Times.AstToFsaMs,
              Artifacts->Times.SingleOptMs, Artifacts->Times.MergingMs,
              Artifacts->Times.BackEndMs);

  if (ValidatePasses) {
    const ValidateStats &V = Artifacts->Telemetry.Validation;
    std::printf("validation: %lu pass/merge proofs, %lu failed, "
                "%lu inconclusive, %lu skipped (%.2f ms)\n",
                static_cast<unsigned long>(V.Proofs),
                static_cast<unsigned long>(V.Failures),
                static_cast<unsigned long>(V.Inconclusive),
                static_cast<unsigned long>(V.Skipped), V.WallMs);
  }

  // Static cost planning (analysis/Planner.h): trial-merge the optimized
  // FSAs at each candidate factor and pick (engine, K, stride). Runs over
  // the pipeline's stage-3 outputs so quarantined rules are already gone.
  std::optional<EnginePlan> RulesetPlan;
  if (Plan) {
    PlannerOptions PO;
    PO.Force = EngineChoice;
    PO.Merge = Options.Merge;
    RulesetPlan = planRuleset(Artifacts->OptimizedFsas,
                              Artifacts->CompiledRuleIds, Rules, PO);
    const CandidatePlan *Chosen = RulesetPlan->chosen();
    std::printf("plan: engine %s at M=%s (stride %u, est %.2f ns/byte, "
                "planned in %.2f ms)\n",
                engineName(RulesetPlan->Choice),
                RulesetPlan->MergingFactor == 0
                    ? "all"
                    : std::to_string(RulesetPlan->MergingFactor).c_str(),
                RulesetPlan->Stride, Chosen ? Chosen->BestNsPerByte : 0.0,
                RulesetPlan->PlanWallMs);
    if (ExplainPlan)
      std::printf("%s\n", RulesetPlan->explainJson().c_str());
  }

  if (Metrics) {
    obs::MetricsRegistry Registry;
    Artifacts->Telemetry.recordTo(Registry);
    if (RulesetPlan)
      RulesetPlan->recordTo(Registry);
    std::printf("%s", MetricsJson ? Registry.toJson().c_str()
                                  : Registry.toText().c_str());
  }

  if (EmitAnml) {
    for (size_t I = 0; I < Artifacts->AnmlDocs.size(); ++I) {
      std::string Path = OutDir + "/mfsa_" + std::to_string(I) + ".anml";
      if (!saveFile(Path, Artifacts->AnmlDocs[I])) {
        std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
        return 1;
      }
    }
    std::printf("wrote %zu ANML file(s) to %s\n",
                Artifacts->AnmlDocs.size(), OutDir.c_str());
  }
  if (EmitDot) {
    for (size_t I = 0; I < Artifacts->Mfsas.size(); ++I) {
      std::string Path = OutDir + "/mfsa_" + std::to_string(I) + ".dot";
      if (!saveFile(Path,
                    Artifacts->Mfsas[I].writeDot("mfsa_" + std::to_string(I)))) {
        std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
        return 1;
      }
    }
    std::printf("wrote %zu DOT file(s) to %s\n", Artifacts->Mfsas.size(),
                OutDir.c_str());
  }
  if (!ArtifactPath.empty()) {
    artifact::ArtifactWriteOptions WriteOptions;
    WriteOptions.CaseInsensitive = CaseInsensitive;
    WriteOptions.SplitCcByAtoms = Options.SplitCcByAtoms;
    WriteOptions.MergingFactor = MergingFactor;
    // Rules (the full original list) is what GlobalIds index, also under
    // --isolate where some rules were quarantined out of the MFSAs.
    Result<uint64_t> Written = artifact::writeArtifactFile(
        ArtifactPath, Artifacts->Mfsas, Rules, WriteOptions);
    if (!Written.ok()) {
      std::fprintf(stderr, "error: cannot write artifact %s: %s\n",
                   ArtifactPath.c_str(), Written.diag().render().c_str());
      return cli::kExitRuntime;
    }
    std::printf("wrote artifact %s (%lu bytes, %zu MFSA(s))\n",
                ArtifactPath.c_str(), static_cast<unsigned long>(*Written),
                Artifacts->Mfsas.size());
  }
  return 0;
}
