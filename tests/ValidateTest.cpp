//===- ValidateTest.cpp - translation validation tests -----------------------===//
//
// Part of the mfsa project. MIT License.
//
// Four groups:
//   - ValidatePass: the per-pass equivalence prover on clean and corrupted
//     transformations, the skip and inconclusive paths.
//   - ValidateMerge: Eq. 10 projection proofs on clean merges, and a crafted
//     mutation corpus — each mutant stays structurally valid (the verifier
//     accepts it, so only validation can catch it), is refuted with a
//     counterexample, and the counterexample demonstrates a real behavioral
//     difference between the iMFAnt engine on the mutant and the AST oracle.
//   - Pipeline: compileRuleset under --validate-passes semantics.
//   - Gating: ValidateMode resolution against the MFSA_VALIDATE variable.
//
//===----------------------------------------------------------------------===//

#include "analysis/TranslationValidate.h"
#include "analysis/Verifier.h"
#include "compiler/Pipeline.h"
#include "engine/Imfant.h"
#include "mfsa/Merge.h"
#include "obs/Metrics.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace mfsa;
using namespace mfsa::test;

namespace {

/// Compiles patterns to optimized FSAs and merges them with sequential ids;
/// also hands back the inputs for projection proofs.
Mfsa mergePatterns(const std::vector<std::string> &Patterns,
                   std::vector<Nfa> *InputsOut = nullptr) {
  std::vector<Nfa> Fsas;
  std::vector<uint32_t> Ids;
  for (size_t I = 0; I < Patterns.size(); ++I) {
    Fsas.push_back(compileOptimized(Patterns[I]));
    Ids.push_back(static_cast<uint32_t>(I));
  }
  Mfsa Z = mergeFsas(Fsas, Ids);
  if (InputsOut)
    *InputsOut = std::move(Fsas);
  return Z;
}

bool hasCheck(const DiagnosticEngine &Diags, const std::string &CheckId) {
  for (const Finding &F : Diags.findings())
    if (F.CheckId == CheckId)
      return true;
  return false;
}

const Finding &findCheck(const DiagnosticEngine &Diags,
                         const std::string &CheckId) {
  for (const Finding &F : Diags.findings())
    if (F.CheckId == CheckId)
      return F;
  ADD_FAILURE() << "no finding with check id " << CheckId << "\n"
                << Diags.renderText();
  static const Finding None;
  return None;
}

/// Runs the iMFAnt engine over \p Input in Collect mode.
std::map<uint32_t, std::set<size_t>> engineEnds(const Mfsa &Z,
                                                const std::string &Input) {
  ImfantEngine Engine(Z);
  MatchRecorder Recorder(MatchRecorder::Mode::Collect);
  Engine.run(Input, Recorder);
  return recorderEnds(Recorder);
}

} // namespace

//===----------------------------------------------------------------------===//
// validatePassEquivalence
//===----------------------------------------------------------------------===//

TEST(ValidatePass, RealPassesProveClean) {
  Result<Regex> Re = parseRegex("a(b|c)*d{1,3}");
  ASSERT_TRUE(Re.ok());
  Result<Nfa> Raw = buildNfa(*Re);
  ASSERT_TRUE(Raw.ok());
  DiagnosticEngine Diags;
  ValidateStats Stats;
  EXPECT_TRUE(validatePassEquivalence(*Raw, optimizeForMerging(*Raw),
                                      "optimize-for-merging", 0, {}, Diags,
                                      &Stats));
  EXPECT_TRUE(Diags.empty()) << Diags.renderText();
  EXPECT_EQ(Stats.Proofs, 1u);
  EXPECT_EQ(Stats.Failures, 0u);
}

TEST(ValidatePass, LanguageChangeIsRefutedWithCounterexample) {
  Nfa Before = compileOptimized("ab|ac");
  Nfa After = compileOptimized("ab"); // a "pass" that dropped a branch
  DiagnosticEngine Diags;
  ValidateStats Stats;
  EXPECT_FALSE(validatePassEquivalence(Before, After, "broken-pass", 3, {},
                                       Diags, &Stats));
  EXPECT_EQ(Stats.Failures, 1u);
  const Finding &F = findCheck(Diags, "validate.pass.language-changed");
  EXPECT_EQ(F.Sev, Severity::Error);
  EXPECT_EQ(F.Span.Rule, 3u);
  EXPECT_EQ(F.Method, "exact");
  ASSERT_TRUE(F.HasCounterexample);
  EXPECT_EQ(F.Counterexample, "ac");
  // The witness is a real language difference, not a prover artifact.
  EXPECT_TRUE(acceptsWord(Before, F.Counterexample));
  EXPECT_FALSE(acceptsWord(After, F.Counterexample));
  EXPECT_NE(F.Message.find("\"ac\""), std::string::npos) << F.Message;
}

TEST(ValidatePass, AnchorFlipIsAnError) {
  Nfa Before = compileOptimized("^ab");
  Nfa After = Before;
  After.setAnchors(false, Before.anchoredEnd());
  DiagnosticEngine Diags;
  EXPECT_FALSE(
      validatePassEquivalence(Before, After, "anchor-eater", 0, {}, Diags));
  EXPECT_TRUE(hasCheck(Diags, "validate.pass.anchor-changed"))
      << Diags.renderText();
}

TEST(ValidatePass, OversizeAutomataAreSkippedNotFailed) {
  Nfa Before = compileOptimized("a(b|c)*d");
  ValidateOptions Options;
  Options.MaxProofStates = 1;
  DiagnosticEngine Diags;
  ValidateStats Stats;
  // Even a language-changing "pass" passes when skipped: not proven wrong.
  EXPECT_TRUE(validatePassEquivalence(Before, compileOptimized("x"), "huge",
                                      0, Options, Diags, &Stats));
  EXPECT_EQ(Stats.Skipped, 1u);
  EXPECT_EQ(Stats.Proofs, 0u);
  EXPECT_TRUE(Diags.empty()) << Diags.renderText();
}

TEST(ValidatePass, MacrostateCutoffIsANote) {
  Nfa Before = compileOptimized("(a|b)*abb");
  ValidateOptions Options;
  Options.Inclusion.MaxMacrostates = 1;
  DiagnosticEngine Diags;
  ValidateStats Stats;
  EXPECT_TRUE(validatePassEquivalence(Before, compileOptimized("(a|b)*abb"),
                                      "slow", 0, Options, Diags, &Stats));
  EXPECT_EQ(Stats.Inconclusive, 1u);
  const Finding &F = findCheck(Diags, "validate.pass.inconclusive");
  EXPECT_EQ(F.Sev, Severity::Note);
}

//===----------------------------------------------------------------------===//
// validateMergeProjection (Eq. 10)
//===----------------------------------------------------------------------===//

TEST(ValidateMerge, CleanMergeProvesEveryRule) {
  std::vector<Nfa> Inputs;
  Mfsa Z = mergePatterns({"a(b|c)*d", "abd", "acd", "xy{1,2}z"}, &Inputs);
  DiagnosticEngine Diags;
  ValidateStats Stats;
  EXPECT_TRUE(
      validateMergeProjection(Z, borrowAll(Inputs), {}, Diags, &Stats));
  EXPECT_TRUE(Diags.empty()) << Diags.renderText();
  EXPECT_EQ(Stats.Proofs, Z.numRules());
  EXPECT_EQ(Stats.Failures, 0u);
}

TEST(ValidateMerge, RandomMergesProveClean) {
  for (uint64_t Seed = 7400; Seed < 7415; ++Seed) {
    Rng Random(Seed);
    std::vector<std::string> Patterns;
    unsigned Count = 2 + Random.nextBelow(4);
    for (unsigned I = 0; I < Count; ++I)
      Patterns.push_back(randomPattern(Random, /*MaxDepth=*/3));
    std::vector<Nfa> Inputs;
    Mfsa Z = mergePatterns(Patterns, &Inputs);
    DiagnosticEngine Diags;
    EXPECT_TRUE(validateMergeProjection(Z, borrowAll(Inputs), {}, Diags))
        << "seed " << Seed << " " << formatPatterns(Patterns) << "\n"
        << Diags.renderText();
  }
}

// Mutation corpus entry M1: retarget rule 0's 'b' arc back to the initial
// state. The MFSA stays structurally valid (every owned arc still reachable,
// belonging sets intact) so the stage verifier accepts it, but rule 0's
// final becomes unreachable: L(projection) = ∅ while L(input) = {"ab"}.
TEST(ValidateMerge, MutantRetargetedArcIsCaughtAndConfirmedByEngine) {
  std::vector<std::string> Patterns = {"ab", "ac"};
  std::vector<Nfa> Inputs;
  Mfsa Z = mergePatterns(Patterns, &Inputs);

  bool Mutated = false;
  for (MfsaTransition &T : Z.transitions())
    if (T.Bel.test(0) && !T.Bel.test(1) && T.Label.contains('b')) {
      T.To = Z.rule(0).Initial;
      Mutated = true;
      break;
    }
  ASSERT_TRUE(Mutated) << "no arc owned solely by rule 0 over 'b'";
  ASSERT_EQ(verifyMfsaError(Z), "") << "mutant must stay structurally valid";

  DiagnosticEngine Diags;
  EXPECT_FALSE(validateMergeProjection(Z, borrowAll(Inputs), {}, Diags));
  const Finding &F = findCheck(Diags, "validate.merge.projection-changed");
  EXPECT_EQ(F.Span.Rule, 0u);
  ASSERT_TRUE(F.HasCounterexample);
  EXPECT_EQ(F.Counterexample, "ab");

  // The counterexample is a real behavioral difference: the engine running
  // the mutant misses rule 0's match that the AST oracle reports.
  auto Oracle = oracleRuleEnds(Patterns, "ab");
  auto Engine = engineEnds(Z, "ab");
  ASSERT_TRUE(Oracle.count(0));
  EXPECT_FALSE(Engine.count(0));
  EXPECT_NE(Oracle, Engine);
}

// Mutation corpus entry M2: widen rule 0's 'b' arc to [bd]. Structurally
// flawless, but the projection now accepts "ad" which the input never did —
// a false-positive-match miscompile the engine observably commits.
TEST(ValidateMerge, MutantWidenedLabelIsCaughtAndConfirmedByEngine) {
  std::vector<std::string> Patterns = {"ab", "ac"};
  std::vector<Nfa> Inputs;
  Mfsa Z = mergePatterns(Patterns, &Inputs);

  bool Mutated = false;
  for (MfsaTransition &T : Z.transitions())
    if (T.Bel.test(0) && !T.Bel.test(1) && T.Label.contains('b')) {
      T.Label.insert('d');
      Mutated = true;
      break;
    }
  ASSERT_TRUE(Mutated) << "no arc owned solely by rule 0 over 'b'";
  ASSERT_EQ(verifyMfsaError(Z), "") << "mutant must stay structurally valid";

  DiagnosticEngine Diags;
  EXPECT_FALSE(validateMergeProjection(Z, borrowAll(Inputs), {}, Diags));
  const Finding &F = findCheck(Diags, "validate.merge.projection-changed");
  EXPECT_EQ(F.Span.Rule, 0u);
  ASSERT_TRUE(F.HasCounterexample);
  EXPECT_EQ(F.Counterexample, "ad");

  // The engine on the mutant reports a rule-0 match the oracle refutes.
  auto Oracle = oracleRuleEnds(Patterns, "ad");
  auto Engine = engineEnds(Z, "ad");
  EXPECT_FALSE(Oracle.count(0));
  ASSERT_TRUE(Engine.count(0));
  EXPECT_TRUE(Engine[0].count(2));
}

// Seeded sweep of the same two mutation operators over random rulesets:
// every structurally-valid language-changing mutant must be refuted, and
// every refutation's witness must replay as a genuine projection/input
// difference through the oracle.
TEST(ValidateMerge, SeededMutantsAreRefutedWithReplayableWitnesses) {
  unsigned Refuted = 0;
  for (uint64_t Seed = 7500; Seed < 7520; ++Seed) {
    Rng Random(Seed);
    std::vector<std::string> Patterns;
    unsigned Count = 2 + Random.nextBelow(3);
    for (unsigned I = 0; I < Count; ++I)
      Patterns.push_back(randomPattern(Random, /*MaxDepth=*/2));
    std::vector<Nfa> Inputs;
    Mfsa Z = mergePatterns(Patterns, &Inputs);
    if (Z.numTransitions() == 0)
      continue;

    // Retarget one pseudo-randomly chosen arc at its own source (a self
    // loop): always structurally valid (reachability is preserved), and
    // usually language-changing.
    uint32_t Pick = static_cast<uint32_t>(Random.nextBelow(Z.numTransitions()));
    Z.transitions()[Pick].To = Z.transitions()[Pick].From;
    if (!verifyMfsaError(Z).empty())
      continue; // mutant tripped the structural verifier; not our quarry

    DiagnosticEngine Diags;
    ValidateStats Stats;
    bool Ok =
        validateMergeProjection(Z, borrowAll(Inputs), {}, Diags, &Stats);
    EXPECT_FALSE(hasCheck(Diags, "validate.replay.diverged"))
        << "seed " << Seed << "\n" << Diags.renderText();
    if (Ok)
      continue; // the mutation happened to preserve every projection
    ++Refuted;
    const Finding &F = findCheck(Diags, "validate.merge.projection-changed");
    ASSERT_TRUE(F.HasCounterexample);
    // Replay: the witness separates the projection from the input FSA.
    RuleId Rule = 0;
    for (RuleId Id = 0; Id < Z.numRules(); ++Id)
      if (Z.rule(Id).GlobalId == F.Span.Rule)
        Rule = Id;
    EXPECT_NE(acceptsWord(Z.extractRule(Rule), F.Counterexample),
              acceptsWord(Inputs[Rule], F.Counterexample))
        << "seed " << Seed << " " << formatPatterns(Patterns);
  }
  EXPECT_GT(Refuted, 3u) << "the mutation sweep stopped finding miscompiles";
}

//===----------------------------------------------------------------------===//
// Pipeline integration
//===----------------------------------------------------------------------===//

TEST(PipelineValidate, CleanRulesetCompilesWithProofs) {
  CompileOptions Options;
  Options.EmitAnml = false;
  Options.Validate = ValidateMode::On;
  Result<CompileArtifacts> Artifacts =
      compileRuleset({"a(b|c)*d", "abd", "ef{1,3}g"}, Options);
  ASSERT_TRUE(Artifacts.ok()) << Artifacts.diag().render();
  const ValidateStats &V = Artifacts->Telemetry.Validation;
  EXPECT_GT(V.Proofs, 0u);
  EXPECT_EQ(V.Failures, 0u);
}

TEST(PipelineValidate, OffModeRunsNoProofs) {
  CompileOptions Options;
  Options.EmitAnml = false;
  Options.Validate = ValidateMode::Off;
  Result<CompileArtifacts> Artifacts =
      compileRuleset({"a(b|c)*d", "abd"}, Options);
  ASSERT_TRUE(Artifacts.ok()) << Artifacts.diag().render();
  const ValidateStats &V = Artifacts->Telemetry.Validation;
  EXPECT_EQ(V.Proofs + V.Failures + V.Inconclusive + V.Skipped, 0u);
}

TEST(PipelineValidate, MetricsExportInclusionCounters) {
  CompileOptions Options;
  Options.EmitAnml = false;
  Options.Validate = ValidateMode::On;
  Result<CompileArtifacts> Artifacts =
      compileRuleset({"ab", "a[bc]d"}, Options);
  ASSERT_TRUE(Artifacts.ok()) << Artifacts.diag().render();
  obs::MetricsRegistry Registry;
  Artifacts->Telemetry.recordTo(Registry);
  std::string Text = Registry.toText();
  EXPECT_NE(Text.find("analysis.inclusion.proofs"), std::string::npos) << Text;
  EXPECT_NE(Text.find("analysis.inclusion.antichain_peak"), std::string::npos)
      << Text;
}

//===----------------------------------------------------------------------===//
// ValidateMode resolution (the MFSA_VALIDATE gate)
//===----------------------------------------------------------------------===//

TEST(ValidateGating, ExplicitModesIgnoreTheEnvironment) {
  ASSERT_EQ(setenv("MFSA_VALIDATE", "0", 1), 0);
  EXPECT_TRUE(validatePassesEnabled(ValidateMode::On, 1000, 64));
  ASSERT_EQ(setenv("MFSA_VALIDATE", "1", 1), 0);
  EXPECT_FALSE(validatePassesEnabled(ValidateMode::Off, 1, 64));
  unsetenv("MFSA_VALIDATE");
}

TEST(ValidateGating, EnvOverridesAutoBothWays) {
  ASSERT_EQ(setenv("MFSA_VALIDATE", "on", 1), 0);
  EXPECT_TRUE(validatePassesEnabled(ValidateMode::Auto, 1000, 64));
  ASSERT_EQ(setenv("MFSA_VALIDATE", "off", 1), 0);
  EXPECT_FALSE(validatePassesEnabled(ValidateMode::Auto, 1, 64));
  unsetenv("MFSA_VALIDATE");
}

TEST(ValidateGating, AutoFollowsBuildDefaultAndRulesetSize) {
  unsetenv("MFSA_VALIDATE");
  EXPECT_EQ(validatePassesEnabled(ValidateMode::Auto, 10, 64),
            kValidatePassesDefault);
  // Above the auto threshold, Auto always resolves off.
  EXPECT_FALSE(validatePassesEnabled(ValidateMode::Auto, 65, 64));
}
