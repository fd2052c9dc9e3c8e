//===- Pipeline.cpp - multi-level compilation framework ----------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
//
// Fault-isolation notes.
//
// Under FailurePolicy::Isolate every per-rule stage filters its input: a
// rule that fails (malformed, over budget, past the stage deadline, or hit
// by the fault-injection hook) is appended to Artifacts.Quarantined and the
// stage vectors are compacted so Asts/RawFsas/OptimizedFsas stay parallel to
// the surviving-rule list. The logical→original remap (CompiledRuleIds) is
// what the merger receives as GlobalIds, so `bel` reports and engine matches
// always carry original input indices no matter how many rules fell out.
//
// Deadlines guarantee progress: they are checked only after at least one
// rule of the stage (or one automaton of a merge) has been processed, so a
// too-tight deadline degrades the batch to a smaller one instead of
// livelocking or emptying it.
//
//===----------------------------------------------------------------------===//

#include "compiler/Pipeline.h"

#include "analysis/Verifier.h"
#include "anml/Anml.h"
#include "fsa/AlphabetPartition.h"
#include "fsa/Passes.h"
#include "obs/Metrics.h"
#include "support/FaultInject.h"

#include <algorithm>
#include <cstdlib>
#include <optional>

using namespace mfsa;

const char *mfsa::stageName(CompileStage Stage) {
  switch (Stage) {
  case CompileStage::FrontEnd:
    return "front-end";
  case CompileStage::AstToFsa:
    return "ast-to-fsa";
  case CompileStage::SingleOpt:
    return "single-fsa-opt";
  case CompileStage::Merging:
    return "merging";
  case CompileStage::BackEnd:
    return "back-end";
  }
  return "unknown";
}

namespace {

/// Maps a pipeline stage to its MFSA_FAULT_STAGE injection point (stage 5
/// has no injection point; the hook predates it and nothing needs one).
FaultPoint toFaultPoint(CompileStage Stage) {
  switch (Stage) {
  case CompileStage::FrontEnd:
    return FaultPoint::Parse;
  case CompileStage::AstToFsa:
    return FaultPoint::Build;
  case CompileStage::SingleOpt:
    return FaultPoint::Opt;
  case CompileStage::Merging:
  case CompileStage::BackEnd:
    return FaultPoint::Merge;
  }
  return FaultPoint::Parse;
}

/// Auto-mode ruleset-size threshold: Debug builds validate by default only
/// rulesets of at most this many rules (proofs are per-pass per-rule).
constexpr uint32_t kValidateAutoMaxRules = 64;

/// Proof resource caps for translation validation (cutoffs; the oracle
/// replay of every counterexample always runs).
constexpr ValidateOptions kValidation{};

/// MFSA_VALIDATE environment override: 1 = force on, 0 = force off,
/// unset/unrecognized = no override.
enum class ValidateEnv : uint8_t { Unset, ForceOn, ForceOff };

ValidateEnv readValidateEnv() {
  const char *Env = std::getenv("MFSA_VALIDATE");
  if (!Env || !*Env)
    return ValidateEnv::Unset;
  const std::string Text(Env);
  if (Text == "1" || Text == "on" || Text == "true")
    return ValidateEnv::ForceOn;
  if (Text == "0" || Text == "off" || Text == "false")
    return ValidateEnv::ForceOff;
  return ValidateEnv::Unset;
}

/// Combines the user's per-rule cap with the budget's absolute and
/// pattern-relative caps (0 = unlimited throughout).
uint32_t effectiveFsaStateCap(uint32_t UserCap, const CompileBudget &Budget,
                              size_t PatternBytes) {
  uint64_t Cap = UserCap;
  auto Tighten = [&](uint64_t Other) {
    if (Other != 0)
      Cap = Cap == 0 ? Other : std::min(Cap, Other);
  };
  Tighten(Budget.MaxFsaStates);
  if (Budget.MaxLoopExpansionFactor != 0)
    Tighten(static_cast<uint64_t>(Budget.MaxLoopExpansionFactor) *
            std::max<size_t>(PatternBytes, 1));
  return static_cast<uint32_t>(std::min<uint64_t>(Cap, UINT32_MAX));
}

} // namespace

bool mfsa::validatePassesEnabled(ValidateMode Mode, size_t NumRules,
                                 uint32_t AutoMaxRules) {
  if (Mode == ValidateMode::On)
    return true;
  if (Mode == ValidateMode::Off)
    return false;
  switch (readValidateEnv()) {
  case ValidateEnv::ForceOn:
    return true;
  case ValidateEnv::ForceOff:
    return false;
  case ValidateEnv::Unset:
    break;
  }
  return kValidatePassesDefault && NumRules <= AutoMaxRules;
}

void CompileTelemetry::recordTo(obs::MetricsRegistry &Registry) const {
  static const char *const Names[5] = {"front_end", "ast_to_fsa",
                                       "single_opt", "merging", "back_end"};
  for (size_t I = 0; I < 5; ++I) {
    const std::string Prefix = std::string("compile.") + Names[I] + ".";
    const StageTelemetry &S = Stages[I];
    Registry.counter(Prefix + "rules_in").add(S.RulesIn);
    Registry.counter(Prefix + "rules_out").add(S.RulesOut);
    Registry.counter(Prefix + "states_out").add(S.StatesOut);
    Registry.counter(Prefix + "transitions_out").add(S.TransitionsOut);
    // Timing is nondeterministic, so it lives under the `_ns` suffix the
    // golden tests mask; nanoseconds keep integral gauges precise for
    // sub-millisecond stages.
    Registry.gauge(Prefix + "wall_ns")
        .set(static_cast<int64_t>(S.WallMs * 1e6));
  }
  Registry.counter("compile.quarantined_rules").add(QuarantinedRules);
  Registry.gauge("compile.peak.rule_states")
      .set(static_cast<int64_t>(PeakRuleStates));
  Registry.gauge("compile.peak.rule_transitions")
      .set(static_cast<int64_t>(PeakRuleTransitions));
  Registry.gauge("compile.peak.merged_states")
      .set(static_cast<int64_t>(PeakMergedStates));
  Registry.gauge("compile.peak.merged_transitions")
      .set(static_cast<int64_t>(PeakMergedTransitions));
  Registry.gauge("compile.budget.max_fsa_states")
      .set(static_cast<int64_t>(BudgetMaxFsaStates));
  Registry.gauge("compile.budget.max_fsa_transitions")
      .set(static_cast<int64_t>(BudgetMaxFsaTransitions));
  Registry.gauge("compile.budget.max_merged_states")
      .set(static_cast<int64_t>(BudgetMaxMergedStates));
  Registry.gauge("compile.budget.max_merged_transitions")
      .set(static_cast<int64_t>(BudgetMaxMergedTransitions));
  // Translation-validation proof cost (ValidateMode; zeros when off). Wall
  // time is a `_ns` gauge like the stage timings so goldens mask it.
  Registry.counter("analysis.inclusion.proofs").add(Validation.Proofs);
  Registry.counter("analysis.inclusion.failures").add(Validation.Failures);
  Registry.counter("analysis.inclusion.inconclusive")
      .add(Validation.Inconclusive);
  Registry.counter("analysis.inclusion.skipped").add(Validation.Skipped);
  Registry.counter("analysis.inclusion.macrostates")
      .add(Validation.MacrostatesExplored);
  Registry.gauge("analysis.inclusion.antichain_peak")
      .set(static_cast<int64_t>(Validation.AntichainPeak));
  Registry.gauge("analysis.inclusion.wall_ns")
      .set(static_cast<int64_t>(Validation.WallMs * 1e6));
}

Result<CompileArtifacts>
mfsa::compileRuleset(const std::vector<std::string> &Patterns,
                     const CompileOptions &Options) {
  CompileArtifacts Artifacts;
  Timer Stage;
  const CompileBudget &Budget = Options.Budget;
  const bool Isolate = Options.Policy == FailurePolicy::Isolate;
  const FaultSpec Fault = readFaultSpec();
  const bool Validate = validatePassesEnabled(
      Options.Validate, Patterns.size(), kValidateAutoMaxRules);

  auto Injected = [&](CompileStage S, uint32_t OriginalId) {
    return Fault.at(toFaultPoint(S), OriginalId);
  };

  // Quarantines under Isolate; under Strict stores the batch-failing
  // diagnostic ("rule N: ..." like the fail-fast pipeline always reported)
  // and returns true so stage loops can abort.
  std::optional<Diag> Failure;
  auto Fail = [&](uint32_t OriginalId, CompileStage At, Diag Reason) {
    if (Isolate) {
      Artifacts.Quarantined.push_back(
          QuarantinedRule{OriginalId, At, std::move(Reason)});
      return false;
    }
    Failure = Result<CompileArtifacts>(std::move(Reason))
                  .withContext("rule " + std::to_string(OriginalId))
                  .takeDiag();
    return true;
  };

  auto StageExpired = [&] {
    return Budget.StageDeadlineMs > 0 &&
           Stage.elapsedMs() > Budget.StageDeadlineMs;
  };
  auto DeadlineDiag = [&](CompileStage At) {
    return Diag(std::string("stage deadline exceeded (") + stageName(At) +
                    ", budget " + std::to_string(Budget.StageDeadlineMs) +
                    " ms)",
                static_cast<size_t>(-1));
  };

  // Logical index -> original index in Patterns, parallel to the per-rule
  // artifact vectors; compacted after every stage that drops rules.
  std::vector<uint32_t> Alive;

  // Telemetry aggregation (always on; a handful of adds per stage).
  CompileTelemetry &Tel = Artifacts.Telemetry;
  Tel.BudgetMaxFsaStates = Budget.MaxFsaStates;
  Tel.BudgetMaxFsaTransitions = Budget.MaxFsaTransitions;
  Tel.BudgetMaxMergedStates = Budget.MaxMergedStates;
  Tel.BudgetMaxMergedTransitions = Budget.MaxMergedTransitions;
  auto StageTel = [&](CompileStage S) -> StageTelemetry & {
    return Tel.Stages[static_cast<size_t>(S)];
  };
  auto SumNfas = [](const std::vector<Nfa> &Fsas, uint64_t &States,
                    uint64_t &Transitions, uint64_t &PeakStates,
                    uint64_t &PeakTransitions) {
    for (const Nfa &A : Fsas) {
      States += A.numStates();
      Transitions += A.numTransitions();
      PeakStates = std::max<uint64_t>(PeakStates, A.numStates());
      PeakTransitions = std::max<uint64_t>(PeakTransitions,
                                           A.numTransitions());
    }
  };

  // Stage 1 — Front-End: lexical and syntactic analyses (§IV-A).
  Stage.reset();
  Artifacts.Asts.reserve(Patterns.size());
  for (uint32_t I = 0; I < Patterns.size(); ++I) {
    if (I > 0 && StageExpired()) {
      if (Fail(I, CompileStage::FrontEnd, DeadlineDiag(CompileStage::FrontEnd)))
        return std::move(*Failure);
      continue;
    }
    Result<Regex> Re = Injected(CompileStage::FrontEnd, I)
                           ? Result<Regex>(injectedFault())
                           : parseRegex(Patterns[I], Options.Parse);
    if (!Re.ok()) {
      if (Fail(I, CompileStage::FrontEnd, Re.takeDiag()))
        return std::move(*Failure);
      continue;
    }
    Artifacts.Asts.push_back(Re.take());
    Alive.push_back(I);
  }
  Artifacts.Times.FrontEndMs = Stage.elapsedMs();
  {
    StageTelemetry &S = StageTel(CompileStage::FrontEnd);
    S.WallMs = Artifacts.Times.FrontEndMs;
    S.RulesIn = Patterns.size();
    S.RulesOut = Artifacts.Asts.size();
  }

  // Stage 2 — AST to FSA: Thompson-like construction (§IV-B), bounded loops
  // expanded per §IV-C (2) under the per-rule state budget.
  Stage.reset();
  {
    std::vector<Regex> KeptAsts;
    std::vector<uint32_t> NextAlive;
    Artifacts.RawFsas.reserve(Alive.size());
    for (size_t L = 0; L < Alive.size(); ++L) {
      const uint32_t Id = Alive[L];
      if (L > 0 && StageExpired()) {
        if (Fail(Id, CompileStage::AstToFsa,
                 DeadlineDiag(CompileStage::AstToFsa)))
          return std::move(*Failure);
        continue;
      }
      BuildOptions Build = Options.Build;
      Build.MaxStates =
          effectiveFsaStateCap(Build.MaxStates, Budget, Patterns[Id].size());
      Result<Nfa> A = Injected(CompileStage::AstToFsa, Id)
                          ? Result<Nfa>(injectedFault())
                          : buildNfa(Artifacts.Asts[L], Build);
      if (!A.ok()) {
        if (Fail(Id, CompileStage::AstToFsa, A.takeDiag()))
          return std::move(*Failure);
        continue;
      }
      if (Options.VerifyEach) {
        std::string Violation = verifyNfaError(*A, IrLevel::RawNfa);
        if (!Violation.empty()) {
          if (Fail(Id, CompileStage::AstToFsa,
                   Diag("stage-2 verifier: " + Violation,
                        static_cast<size_t>(-1))))
            return std::move(*Failure);
          continue;
        }
      }
      Artifacts.RawFsas.push_back(A.take());
      KeptAsts.push_back(std::move(Artifacts.Asts[L]));
      NextAlive.push_back(Id);
    }
    Artifacts.Asts = std::move(KeptAsts);
    Alive = std::move(NextAlive);
  }
  Artifacts.Times.AstToFsaMs = Stage.elapsedMs();
  {
    StageTelemetry &S = StageTel(CompileStage::AstToFsa);
    S.WallMs = Artifacts.Times.AstToFsaMs;
    S.RulesIn = StageTel(CompileStage::FrontEnd).RulesOut;
    S.RulesOut = Artifacts.RawFsas.size();
    SumNfas(Artifacts.RawFsas, S.StatesOut, S.TransitionsOut,
            Tel.PeakRuleStates, Tel.PeakRuleTransitions);
  }

  // Stage 3 — single-FSA optimization: ε-removal, multiplicity folding,
  // compaction (§IV-C (1) and (3)), budgeted because ε-removal may grow the
  // transition set quadratically.
  Stage.reset();
  {
    std::vector<Regex> KeptAsts;
    std::vector<Nfa> KeptRaw;
    std::vector<uint32_t> NextAlive;
    Artifacts.OptimizedFsas.reserve(Alive.size());
    for (size_t L = 0; L < Alive.size(); ++L) {
      const uint32_t Id = Alive[L];
      if (L > 0 && StageExpired()) {
        if (Fail(Id, CompileStage::SingleOpt,
                 DeadlineDiag(CompileStage::SingleOpt)))
          return std::move(*Failure);
        continue;
      }
      // Translation validation binds the per-pass hook: each individual
      // pass application must prove L(after) == L(before) or the rule
      // fails this stage with the counterexample in its diagnostic.
      PassValidator PassCheck;
      if (Validate)
        PassCheck = [&](const char *PassName, const Nfa &Before,
                        const Nfa &After) {
          return validatePassEquivalenceError(Before, After, PassName,
                                              kValidation,
                                              &Tel.Validation);
        };
      Result<Nfa> Optimized =
          Injected(CompileStage::SingleOpt, Id)
              ? Result<Nfa>(injectedFault())
              : optimizeForMergingBudgeted(Artifacts.RawFsas[L],
                                           Budget.MaxFsaStates,
                                           Budget.MaxFsaTransitions,
                                           PassCheck);
      if (!Optimized.ok()) {
        if (Fail(Id, CompileStage::SingleOpt, Optimized.takeDiag()))
          return std::move(*Failure);
        continue;
      }
      if (Options.VerifyEach) {
        std::string Violation =
            verifyNfaError(*Optimized, IrLevel::OptimizedFsa);
        if (!Violation.empty()) {
          if (Fail(Id, CompileStage::SingleOpt,
                   Diag("stage-3 verifier: " + Violation,
                        static_cast<size_t>(-1))))
            return std::move(*Failure);
          continue;
        }
      }
      Artifacts.OptimizedFsas.push_back(Optimized.take());
      KeptAsts.push_back(std::move(Artifacts.Asts[L]));
      KeptRaw.push_back(std::move(Artifacts.RawFsas[L]));
      NextAlive.push_back(Id);
    }
    Artifacts.Asts = std::move(KeptAsts);
    Artifacts.RawFsas = std::move(KeptRaw);
    Alive = std::move(NextAlive);
  }
  if (Options.SplitCcByAtoms) {
    std::vector<Nfa> PreSplit;
    if (Validate)
      PreSplit = Artifacts.OptimizedFsas;
    Artifacts.OptimizedFsas = splitAllByAtoms(Artifacts.OptimizedFsas);
    // Re-verify after the whole-ruleset label refinement: a violation here
    // is a splitter bug, so no single rule is at fault and the batch fails.
    if (Options.VerifyEach)
      for (size_t L = 0; L < Artifacts.OptimizedFsas.size(); ++L) {
        std::string Violation = verifyNfaError(Artifacts.OptimizedFsas[L],
                                               IrLevel::OptimizedFsa);
        if (!Violation.empty())
          return Result<CompileArtifacts>::error(
              "atom-split verifier: rule " + std::to_string(Alive[L]) +
              ": " + Violation);
      }
    // Atom splitting must be language-neutral too; like the verifier, a
    // refutation here is a splitter bug, so the batch fails either way.
    if (Validate)
      for (size_t L = 0; L < Artifacts.OptimizedFsas.size(); ++L) {
        std::string Violation = validatePassEquivalenceError(
            PreSplit[L], Artifacts.OptimizedFsas[L], "split-cc-by-atoms",
            kValidation, &Tel.Validation);
        if (!Violation.empty())
          return Result<CompileArtifacts>::error(
              "translation validation: rule " + std::to_string(Alive[L]) +
              ": " + Violation);
      }
  }
  Artifacts.Times.SingleOptMs = Stage.elapsedMs();
  {
    StageTelemetry &S = StageTel(CompileStage::SingleOpt);
    S.WallMs = Artifacts.Times.SingleOptMs;
    S.RulesIn = StageTel(CompileStage::AstToFsa).RulesOut;
    S.RulesOut = Artifacts.OptimizedFsas.size();
    SumNfas(Artifacts.OptimizedFsas, S.StatesOut, S.TransitionsOut,
            Tel.PeakRuleStates, Tel.PeakRuleTransitions);
  }

  // Stage 4 — merging into ⌈N/M⌉ MFSAs (§III, Algorithm 1). Groups are
  // formed over the surviving logical sequence; a budget overrun quarantines
  // exactly the offending rule and re-merges the group without it, while a
  // deadline overrun abandons the group's unmerged tail.
  Stage.reset();
  {
    const uint32_t N = static_cast<uint32_t>(Artifacts.OptimizedFsas.size());
    uint32_t M = Options.MergingFactor;
    if (M == 0 || M > N)
      M = N;
    std::vector<bool> MergedOut(N, false); // logical ids dropped in stage 4

    for (uint32_t Begin = 0; Begin < N; Begin += M) {
      std::vector<uint32_t> Group; // logical indices
      for (uint32_t L = Begin; L < std::min(Begin + M, N); ++L)
        Group.push_back(L);

      while (!Group.empty()) {
        std::vector<const Nfa *> Members;
        std::vector<uint32_t> Ids;
        Members.reserve(Group.size());
        Ids.reserve(Group.size());
        for (uint32_t L : Group) {
          Members.push_back(&Artifacts.OptimizedFsas[L]);
          Ids.push_back(Alive[L]);
        }

        Result<Mfsa> Z = Diag();
        size_t InjectAt = Ids.size();
        for (size_t K = 0; K < Ids.size(); ++K)
          if (Injected(CompileStage::Merging, Ids[K]))
            InjectAt = K;
        MergeReport Attempt;
        if (InjectAt < Ids.size()) {
          Diag Injection = injectedFault();
          Injection.Offset = InjectAt;
          Z = std::move(Injection);
        } else {
          MergeBudget MB;
          MB.MaxStates = Budget.MaxMergedStates;
          MB.MaxTransitions = Budget.MaxMergedTransitions;
          if (Budget.StageDeadlineMs > 0)
            MB.DeadlineMs = std::max(Budget.StageDeadlineMs -
                                         Stage.elapsedMs(),
                                     1e-9);
          Z = mergeFsasWithBudget(Members, Ids, Options.Merge, MB, &Attempt);
        }

        if (Z.ok()) {
          // A merged MFSA failing verification is a compiler bug (the merge
          // relabeling corrupted a rule's sub-automaton), not an input
          // fault: fail the batch under either policy rather than silently
          // executing a wrong automaton.
          if (Options.VerifyEach) {
            std::string Violation = verifyMfsaError(*Z);
            if (!Violation.empty())
              return Result<CompileArtifacts>::error("stage-4 verifier: " +
                                                     Violation);
          }
          // Translation validation of Eq. 10: every rule's belonging-set
          // projection must accept exactly the language of the optimized
          // FSA that went into the merge. A refutation is a merger bug
          // (the counterexample word names the divergence), so the batch
          // fails under either policy, like a stage-4 verifier failure.
          if (Validate) {
            std::string Violation = validateMergeProjectionError(
                *Z, Members, kValidation, &Tel.Validation);
            if (!Violation.empty())
              return Result<CompileArtifacts>::error(
                  "translation validation: " + Violation);
          }
          Artifacts.Merging += Attempt;
          Artifacts.Mfsas.push_back(Z.take());
          break;
        }

        Diag Reason = Z.takeDiag();
        // The diagnostic's Offset indexes into this merge attempt's members.
        size_t Offender =
            std::min<size_t>(Reason.Offset, Group.size() - 1);
        // Past the stage deadline no single rule is at fault: abandon the
        // whole unmerged tail in one step. Otherwise drop the offender only
        // and retry the rest of the group.
        const size_t DropEnd = StageExpired() ? Group.size() : Offender + 1;
        for (size_t K = Offender; K < DropEnd; ++K) {
          Diag RuleReason = Reason;
          RuleReason.Offset = static_cast<size_t>(-1);
          MergedOut[Group[K]] = true;
          if (Fail(Alive[Group[K]], CompileStage::Merging,
                   std::move(RuleReason)))
            return std::move(*Failure);
        }
        Group.erase(Group.begin() + static_cast<ptrdiff_t>(Offender),
                    Group.begin() + static_cast<ptrdiff_t>(DropEnd));
      }
    }

    // Compact the per-rule artifacts so CompiledRuleIds and Quarantined stay
    // a partition of the input ruleset.
    if (std::find(MergedOut.begin(), MergedOut.end(), true) !=
        MergedOut.end()) {
      std::vector<Regex> KeptAsts;
      std::vector<Nfa> KeptRaw, KeptOpt;
      std::vector<uint32_t> NextAlive;
      for (uint32_t L = 0; L < N; ++L) {
        if (MergedOut[L])
          continue;
        KeptAsts.push_back(std::move(Artifacts.Asts[L]));
        KeptRaw.push_back(std::move(Artifacts.RawFsas[L]));
        KeptOpt.push_back(std::move(Artifacts.OptimizedFsas[L]));
        NextAlive.push_back(Alive[L]);
      }
      Artifacts.Asts = std::move(KeptAsts);
      Artifacts.RawFsas = std::move(KeptRaw);
      Artifacts.OptimizedFsas = std::move(KeptOpt);
      Alive = std::move(NextAlive);
    }
  }
  Artifacts.Times.MergingMs = Stage.elapsedMs();
  {
    StageTelemetry &S = StageTel(CompileStage::Merging);
    S.WallMs = Artifacts.Times.MergingMs;
    S.RulesIn = StageTel(CompileStage::SingleOpt).RulesOut;
    S.RulesOut = Alive.size();
    for (const Mfsa &Z : Artifacts.Mfsas) {
      S.StatesOut += Z.numStates();
      S.TransitionsOut += Z.transitions().size();
      Tel.PeakMergedStates =
          std::max<uint64_t>(Tel.PeakMergedStates, Z.numStates());
      Tel.PeakMergedTransitions = std::max<uint64_t>(
          Tel.PeakMergedTransitions, Z.transitions().size());
    }
  }

  // Stage 5 — Back-End: extended-ANML generation (§IV-E).
  if (Options.EmitAnml) {
    Stage.reset();
    Artifacts.AnmlDocs.reserve(Artifacts.Mfsas.size());
    for (size_t I = 0; I < Artifacts.Mfsas.size(); ++I)
      Artifacts.AnmlDocs.push_back(
          writeAnml(Artifacts.Mfsas[I], "mfsa-" + std::to_string(I)));
    Artifacts.Times.BackEndMs = Stage.elapsedMs();
    StageTelemetry &S = StageTel(CompileStage::BackEnd);
    S.WallMs = Artifacts.Times.BackEndMs;
    S.RulesIn = Artifacts.Mfsas.size();
    S.RulesOut = Artifacts.AnmlDocs.size();
    for (const std::string &Doc : Artifacts.AnmlDocs)
      S.StatesOut += Doc.size(); // document bytes; see StageTelemetry doc
  }

  Tel.QuarantinedRules = Artifacts.Quarantined.size();
  Artifacts.CompiledRuleIds = std::move(Alive);
  return Artifacts;
}
