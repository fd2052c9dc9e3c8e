//===- Pipeline.h - multi-level compilation framework -----------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declares the five-stage compilation framework of the paper's §IV and
/// Fig. 4:
///
///   Front-End    (1) lexical + syntactic analyses         -> ASTs
///   Middle-End   (2) AST-to-FSA Thompson-like conversion  -> ε-NFAs
///                (3) single-FSA optimization (ε-removal, multiplicity
///                    folding, compaction)                 -> optimized FSAs
///                (4) merging with factor M                -> K=⌈N/M⌉ MFSAs
///   Back-End     (5) extended-ANML generation             -> documents
///
/// compileRuleset() runs all stages, recording per-stage wall time
/// (StageTimes, Fig. 8). Stage outputs are all retained in the artifacts so
/// tests and benches can inspect any level.
///
/// On top of the paper's pipeline this header defines the fault-isolation
/// layer: a FailurePolicy choosing between fail-fast (Strict) and
/// quarantine-and-continue (Isolate) semantics, and a CompileBudget bounding
/// per-rule state growth, merged-MFSA size, and per-stage wall clock so one
/// pathological rule cannot take down a large batch. See DESIGN.md
/// "Degraded-mode semantics".
///
/// One deviation from the paper's stage accounting, documented here and in
/// DESIGN.md: loop expansion (§IV-C optimization (2)) executes inside the
/// Thompson construction — expansion is how counter-less automata realize
/// bounded repetition — so its time lands in stage (2) rather than (3).
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_COMPILER_PIPELINE_H
#define MFSA_COMPILER_PIPELINE_H

#include "analysis/TranslationValidate.h"
#include "fsa/Builder.h"
#include "mfsa/Merge.h"
#include "regex/Parser.h"
#include "support/Result.h"
#include "support/Timer.h"

#include <string>
#include <vector>

namespace mfsa {

namespace obs {
class MetricsRegistry;
} // namespace obs

/// How compileRuleset reacts to a rule that fails a stage.
enum class FailurePolicy : uint8_t {
  /// Fail the whole batch on the first malformed or budget-busting rule,
  /// with a "rule N: ..." diagnostic. The historical behavior; right for
  /// interactive use where the ruleset author can fix the rule.
  Strict,
  /// Quarantine the offending rule — recording its index, stage, and
  /// diagnostic in CompileArtifacts::Quarantined — and keep compiling the
  /// healthy rest. The right default for services compiling third-party
  /// rulesets: the batch always produces every MFSA it can.
  Isolate,
};

/// The pipeline stage a quarantined rule fell out of.
enum class CompileStage : uint8_t {
  FrontEnd,  ///< Stage 1: lexical + syntactic analysis.
  AstToFsa,  ///< Stage 2: Thompson construction (incl. loop expansion).
  SingleOpt, ///< Stage 3: per-FSA optimization.
  Merging,   ///< Stage 4: Algorithm-1 merging.
  BackEnd,   ///< Stage 5: ANML generation.
};

/// Human-readable stage name ("front-end", "ast-to-fsa", ...).
const char *stageName(CompileStage Stage);

/// Resource budget enforced throughout the pipeline. Every field accepts 0
/// for "unlimited"; the defaults are far above anything a legitimate rule
/// needs but low enough that an expansion bomb (`a{1000}{1000}` is ~10^6
/// states before optimization even starts) or a runaway merge is caught
/// before it exhausts memory.
struct CompileBudget {
  /// Cap on one rule's NFA states during Thompson construction (stage 2).
  uint32_t MaxFsaStates = 1u << 20;

  /// Additional stage-2 cap relative to the rule's size: a rule may allocate
  /// at most MaxLoopExpansionFactor states per pattern byte. Catches small
  /// patterns whose nested bounded repeats multiply into huge automata while
  /// leaving long literal rules (which grow linearly) untouched.
  uint32_t MaxLoopExpansionFactor = 4096;

  /// Cap on one rule's transitions after stage-3 optimization (ε-removal can
  /// grow the transition set quadratically).
  uint64_t MaxFsaTransitions = 1u << 22;

  /// Caps on each merged MFSA's size (stage 4, Algorithm 1).
  uint64_t MaxMergedStates = 1u << 22;
  uint64_t MaxMergedTransitions = 1u << 23;

  /// Per-stage wall-clock deadline in milliseconds (0 = none). Checked after
  /// each processed rule, so every stage always completes at least one rule:
  /// an expired deadline degrades the batch, it never livelocks it.
  double StageDeadlineMs = 0.0;
};

/// Default for CompileOptions::VerifyEach: on in debug configurations
/// (CMake defines MFSA_VERIFY_EACH_DEFAULT for Debug builds), off
/// otherwise — the LLVM -verify-each convention.
#ifdef MFSA_VERIFY_EACH_DEFAULT
inline constexpr bool kVerifyEachDefault = true;
#else
inline constexpr bool kVerifyEachDefault = false;
#endif

/// Default for ValidateMode::Auto resolution: Debug builds (CMake defines
/// MFSA_VALIDATE_DEFAULT) validate small rulesets by default, mirroring the
/// VerifyEach convention; release builds keep validation opt-in.
#ifdef MFSA_VALIDATE_DEFAULT
inline constexpr bool kValidatePassesDefault = true;
#else
inline constexpr bool kValidatePassesDefault = false;
#endif

/// Whether compileRuleset proves language preservation (translation
/// validation, analysis/TranslationValidate.h) after every optimization
/// pass and the merge.
enum class ValidateMode : uint8_t {
  /// Resolve from the environment: MFSA_VALIDATE=1/on/true forces On,
  /// =0/off/false forces Off; otherwise on iff this is a Debug build
  /// (kValidatePassesDefault) and the ruleset is small (compileRuleset
  /// validates at most 64 rules by default: proofs are per-pass per-rule).
  Auto,
  On,
  Off,
};

/// Resolves \p Mode against the MFSA_VALIDATE environment variable, the
/// build-type default, and the ruleset size: Auto validates by default only
/// when \p NumRules is at most \p AutoMaxRules.
bool validatePassesEnabled(ValidateMode Mode, size_t NumRules,
                           uint32_t AutoMaxRules);

/// End-to-end compilation knobs.
struct CompileOptions {
  ParseOptions Parse;
  BuildOptions Build;
  MergeOptions Merge;

  /// Failure semantics; see FailurePolicy.
  FailurePolicy Policy = FailurePolicy::Strict;

  /// Resource budget; see CompileBudget.
  CompileBudget Budget;

  /// The paper's merging factor M: rules are merged in sequential groups of
  /// this size; 0 means "all" (a single MFSA).
  uint32_t MergingFactor = 0;

  /// Skip stage (5) when the ANML documents are not needed (saves time in
  /// compression-only studies).
  bool EmitAnml = true;

  /// Run the IR verifier (analysis/Verifier.h) on every stage's output:
  /// each stage-2 ε-NFA, each stage-3 optimized FSA, and each stage-4 MFSA.
  /// A rule whose automaton fails verification is treated exactly like a
  /// malformed rule (fail-fast under Strict, quarantined under Isolate); a
  /// merged MFSA failing verification always fails the batch, since no
  /// single input rule is at fault — that is a compiler bug surfacing.
  /// Exposed on the mfsac CLI as `--verify-each`.
  bool VerifyEach = kVerifyEachDefault;

  /// Translation validation (`mfsac --validate-passes`): prove, with the
  /// antichain inclusion checker, that every stage-3 pass application and
  /// the stage-4 merge preserved each rule's language. A refuted per-rule
  /// pass proof is treated like a malformed rule (fail-fast under Strict,
  /// quarantined under Isolate); a refuted merge-projection proof always
  /// fails the batch — like a stage-4 verifier failure, it is a compiler
  /// bug, not an input fault.
  ValidateMode Validate = ValidateMode::Auto;

  /// Enables the paper's proposed partial character-class merging (§VI-A):
  /// after single-FSA optimization, every transition label is split into
  /// the alphabet-partition atoms induced by the whole ruleset
  /// (fsa/AlphabetPartition.h), so overlapping classes share exactly their
  /// common sub-classes during merging. Costs transitions, wins states;
  /// measured by bench/abl_partial_cc.
  bool SplitCcByAtoms = false;
};

/// Aggregate measurements for one pipeline stage: wall time plus the rule
/// and automaton populations flowing through it. StatesOut/TransitionsOut
/// sum the stage's surviving outputs (ASTs have no states, so stage 1
/// reports zeros there; stage 5 reports ANML bytes in StatesOut).
struct StageTelemetry {
  double WallMs = 0;
  uint64_t RulesIn = 0;
  uint64_t RulesOut = 0;
  uint64_t StatesOut = 0;
  uint64_t TransitionsOut = 0;
};

/// Per-compilation telemetry, filled on every compileRuleset() call (the
/// aggregation is a handful of adds per stage, so it is unconditional).
/// recordTo() publishes it into a MetricsRegistry under `compile.*` names;
/// the budget caps ride along so a JSON dump shows consumption against
/// limit (PR 1's CompileBudget) without cross-referencing the options.
struct CompileTelemetry {
  StageTelemetry Stages[5]; ///< Indexed by CompileStage.
  uint64_t QuarantinedRules = 0;

  /// Peak single-rule automaton size observed (stages 2-3) and peak merged
  /// MFSA size (stage 4), against the corresponding CompileBudget caps
  /// (0 = unlimited).
  uint64_t PeakRuleStates = 0;
  uint64_t PeakRuleTransitions = 0;
  uint64_t PeakMergedStates = 0;
  uint64_t PeakMergedTransitions = 0;
  uint64_t BudgetMaxFsaStates = 0;
  uint64_t BudgetMaxFsaTransitions = 0;
  uint64_t BudgetMaxMergedStates = 0;
  uint64_t BudgetMaxMergedTransitions = 0;

  /// Translation-validation proof accounting (zero when validation was off);
  /// recordTo publishes it under `analysis.inclusion.*`.
  ValidateStats Validation;

  const StageTelemetry &stage(CompileStage S) const {
    return Stages[static_cast<size_t>(S)];
  }

  /// Publishes counters/gauges (`compile.<stage>.*`, `compile.budget.*`,
  /// timing gauges `compile.<stage>.wall_ms`) into \p Registry.
  void recordTo(obs::MetricsRegistry &Registry) const;
};

/// One rule the Isolate policy dropped, with full provenance for reporting.
struct QuarantinedRule {
  uint32_t RuleIndex = 0;                   ///< Index into the input Patterns.
  CompileStage Stage = CompileStage::FrontEnd; ///< Stage it fell out of.
  Diag Reason;                              ///< Why (positions refer to the rule).
};

/// Everything the pipeline produced, one level per stage. Under
/// FailurePolicy::Isolate the per-rule vectors (Asts, RawFsas,
/// OptimizedFsas) hold the surviving rules only, in input order;
/// CompiledRuleIds maps each logical index back to the rule's index in the
/// input Patterns, and the MFSAs carry the same original index as each
/// rule's RuleInfo::GlobalId, so engine match reports and `bel` belonging
/// sets always reference original rule ids.
struct CompileArtifacts {
  std::vector<Regex> Asts;           ///< Stage 1, one per surviving rule.
  std::vector<Nfa> RawFsas;          ///< Stage 2, ε-NFAs.
  std::vector<Nfa> OptimizedFsas;    ///< Stage 3, merge-ready FSAs.
  std::vector<Mfsa> Mfsas;           ///< Stage 4, ⌈N/M⌉ automata.
  std::vector<std::string> AnmlDocs; ///< Stage 5, one per MFSA.

  /// Logical rule index -> original index in Patterns (identity when nothing
  /// was quarantined). Disjoint from Quarantined: together they partition
  /// the input ruleset.
  std::vector<uint32_t> CompiledRuleIds;

  /// Rules dropped under FailurePolicy::Isolate; empty under Strict.
  std::vector<QuarantinedRule> Quarantined;

  StageTimes Times;
  MergeReport Merging;
  CompileTelemetry Telemetry;
};

/// Compiles \p Patterns end to end. Under FailurePolicy::Strict (default)
/// it fails with a positioned diagnostic (prefixed by the offending rule's
/// index) on the first malformed or over-budget RE; under Isolate it
/// quarantines offenders and compiles the rest.
///
/// Deterministic fault injection (tests only): setting the environment
/// variable MFSA_FAULT_STAGE="<stage>:<rule>" with stage one of
/// parse|build|opt|merge makes that original rule index fail at that stage
/// as if it were malformed, so the isolation paths are exercisable without
/// crafting pathological REs. The same hook covers the artifact path with
/// the serialize|load stages (support/FaultInject.h has the full catalog).
Result<CompileArtifacts> compileRuleset(const std::vector<std::string> &Patterns,
                                        const CompileOptions &Options = {});

} // namespace mfsa

#endif // MFSA_COMPILER_PIPELINE_H
