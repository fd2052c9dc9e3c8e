//===- AnalysisTest.cpp - IR verifier + linter + diagnostics tests -----------===//
//
// Part of the mfsa project. MIT License.
//
// Three groups:
//   - Diagnostics: text/JSON rendering, golden strings.
//   - Verifier: clean automata at every level verify, and a corpus of
//     deliberately corrupted automata — one per invariant — each fires its
//     check with a positioned finding and without crashing.
//   - Lint: every catalog rule fires on its seeded fixture; the JSON report
//     over a fixture ruleset is golden.
//   - Lint cost model: the lint.cost.* checks (analysis/CostModel.h) fire on
//     crafted width-heavy / blowup-prone / literal-heavy rulesets with the
//     right exact-vs-heuristic method tags, and their JSON is golden.
//   - Planner: engine-name round trip, forced-engine pinning, and DFA
//     verdicts implied by a blown smaller group instead of probed.
//   - Exactness: determinize() and boundActivationWidth() against
//     clarity-first oracles kept here (a std::map subset construction and a
//     linear-scan antichain search): equal DFA tables and equal WidthBound
//     fields, at and around their state and macrostate budgets.
//
//===----------------------------------------------------------------------===//

#include "analysis/CostModel.h"
#include "analysis/Lint.h"
#include "analysis/Planner.h"
#include "analysis/Verifier.h"
#include "compiler/Pipeline.h"
#include "engine/MultiStride.h"
#include "fsa/AlphabetPartition.h"
#include "fsa/Determinize.h"
#include "mfsa/Merge.h"
#include "obs/Metrics.h"
#include "support/Rng.h"
#include "workload/Datasets.h"

#include "TestHelpers.h"

#include <algorithm>
#include <array>
#include <deque>
#include <map>
#include <numeric>
#include <queue>
#include <unordered_set>

using namespace mfsa;
using namespace mfsa::test;

namespace {

Mfsa mergePatterns(const std::vector<std::string> &Patterns) {
  std::vector<Nfa> Fsas;
  Fsas.reserve(Patterns.size());
  for (const std::string &P : Patterns)
    Fsas.push_back(compileOptimized(P));
  std::vector<uint32_t> Ids(Fsas.size());
  for (uint32_t I = 0; I < Ids.size(); ++I)
    Ids[I] = I;
  return mergeFsas(Fsas, Ids);
}

/// True if any finding in \p Diags carries \p CheckId.
bool hasCheck(const DiagnosticEngine &Diags, const std::string &CheckId) {
  return std::any_of(Diags.findings().begin(), Diags.findings().end(),
                     [&](const Finding &F) { return F.CheckId == CheckId; });
}

/// Returns the first finding with \p CheckId; fails the test if absent.
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

//===----------------------------------------------------------------------===//
// Diagnostics
//===----------------------------------------------------------------------===//

TEST(Diagnostics, TextRenderingIsPositioned) {
  DiagnosticEngine Diags;
  Diags.report(Severity::Error, "verify.nfa.transition-target",
               "transition target 9 out of range", SourceSpan::forElement(3));
  Diags.report(Severity::Warning, "lint.redos.nested-quantifier", "nested",
               SourceSpan::forPattern(2, 4), "unroll it");
  EXPECT_EQ(Diags.renderText(),
            "error: element 3: transition target 9 out of range "
            "[verify.nfa.transition-target]\n"
            "warning: rule 2, offset 4: nested (hint: unroll it) "
            "[lint.redos.nested-quantifier]\n");
  EXPECT_EQ(Diags.numErrors(), 1u);
  EXPECT_EQ(Diags.numWarnings(), 1u);
}

TEST(Diagnostics, JsonRenderingIsGolden) {
  DiagnosticEngine Diags;
  Diags.report(Severity::Error, "verify.mfsa.bel-width",
               "belonging set has width 5", SourceSpan::forElement(1));
  Diags.report(Severity::Note, "lint.subsumed-rule", "a \"quoted\" message",
               SourceSpan::forRule(7), "hint\nline");
  EXPECT_EQ(Diags.renderJson(),
            "{\"findings\":["
            "{\"severity\":\"error\",\"check\":\"verify.mfsa.bel-width\","
            "\"message\":\"belonging set has width 5\",\"element\":1},"
            "{\"severity\":\"note\",\"check\":\"lint.subsumed-rule\","
            "\"message\":\"a \\\"quoted\\\" message\",\"rule\":7,"
            "\"hint\":\"hint\\nline\"}"
            "],\"errors\":1,\"warnings\":0}");
}

TEST(Diagnostics, EmptyEngineRendersEmptyReport) {
  DiagnosticEngine Diags;
  EXPECT_TRUE(Diags.empty());
  EXPECT_EQ(Diags.renderText(), "");
  EXPECT_EQ(Diags.renderJson(), "{\"findings\":[],\"errors\":0,\"warnings\":0}");
}

//===----------------------------------------------------------------------===//
// Verifier: clean automata
//===----------------------------------------------------------------------===//

TEST(Verifier, CleanAutomataVerifyAtEveryLevel) {
  Result<Regex> Re = parseRegex("a(b|c)*d{2,4}");
  ASSERT_TRUE(Re.ok());
  Result<Nfa> Raw = buildNfa(*Re);
  ASSERT_TRUE(Raw.ok());
  EXPECT_EQ(verifyNfaError(*Raw, IrLevel::RawNfa), "");

  Nfa Optimized = optimizeForMerging(*Raw);
  EXPECT_EQ(verifyNfaError(Optimized, IrLevel::OptimizedFsa), "");

  Mfsa Z = mergePatterns({"a(b|c)*d", "abd", "acd"});
  EXPECT_EQ(verifyMfsaError(Z), "");
}

TEST(Verifier, RawLevelPermitsEpsilonsOptimizedDoesNot) {
  Result<Regex> Re = parseRegex("(ab)*");
  ASSERT_TRUE(Re.ok());
  Result<Nfa> Raw = buildNfa(*Re);
  ASSERT_TRUE(Raw.ok());
  ASSERT_TRUE(Raw->hasEpsilons());

  DiagnosticEngine AtRaw;
  EXPECT_TRUE(verifyNfa(*Raw, IrLevel::RawNfa, AtRaw));
  DiagnosticEngine AtOptimized;
  EXPECT_FALSE(verifyNfa(*Raw, IrLevel::OptimizedFsa, AtOptimized));
  EXPECT_TRUE(hasCheck(AtOptimized, "verify.nfa.epsilon"));
}

//===----------------------------------------------------------------------===//
// Verifier: corrupted-NFA corpus
//===----------------------------------------------------------------------===//

TEST(VerifierCorpus, EmptyAutomaton) {
  Nfa Empty;
  DiagnosticEngine Diags;
  EXPECT_FALSE(verifyNfa(Empty, IrLevel::RawNfa, Diags));
  EXPECT_TRUE(hasCheck(Diags, "verify.nfa.empty"));
}

TEST(VerifierCorpus, DanglingTransitionTarget) {
  Nfa A = compileOptimized("abc");
  A.transitions().back().To = A.numStates() + 41;
  A.canonicalize();
  DiagnosticEngine Diags;
  EXPECT_FALSE(verifyNfa(A, IrLevel::OptimizedFsa, Diags));
  const Finding &F = findCheck(Diags, "verify.nfa.transition-target");
  EXPECT_EQ(F.Sev, Severity::Error);
  EXPECT_TRUE(F.Span.hasElement()); // positioned at the offending transition
}

TEST(VerifierCorpus, DanglingTransitionSource) {
  Nfa A = compileOptimized("ab");
  A.transitions().front().From = A.numStates() + 3;
  DiagnosticEngine Diags;
  EXPECT_FALSE(verifyNfa(A, IrLevel::RawNfa, Diags));
  EXPECT_TRUE(hasCheck(Diags, "verify.nfa.transition-source"));
}

TEST(VerifierCorpus, InitialAndFinalOutOfRange) {
  Nfa A = compileOptimized("ab");
  A.setInitial(A.numStates() + 1);
  A.finals().push_back(A.numStates() + 9);
  DiagnosticEngine Diags;
  EXPECT_FALSE(verifyNfa(A, IrLevel::RawNfa, Diags));
  EXPECT_TRUE(hasCheck(Diags, "verify.nfa.initial-range"));
  EXPECT_TRUE(hasCheck(Diags, "verify.nfa.final-range"));
}

TEST(VerifierCorpus, UnsortedCoo) {
  Nfa A = compileOptimized("abcd");
  ASSERT_GE(A.numTransitions(), 2u);
  std::swap(A.transitions().front(), A.transitions().back());
  DiagnosticEngine Diags;
  EXPECT_FALSE(verifyNfa(A, IrLevel::OptimizedFsa, Diags));
  const Finding &F = findCheck(Diags, "verify.nfa.coo-order");
  EXPECT_TRUE(F.Span.hasElement());
}

TEST(VerifierCorpus, DuplicateCooEntry) {
  Nfa A = compileOptimized("ab");
  // Duplicate the first transition; re-sorting keeps the pair adjacent but
  // canonicalize() would have removed it, so insert by hand.
  Transition Dup = A.transitions().front();
  A.transitions().insert(A.transitions().begin(), Dup);
  DiagnosticEngine Diags;
  EXPECT_FALSE(verifyNfa(A, IrLevel::OptimizedFsa, Diags));
  EXPECT_TRUE(hasCheck(Diags, "verify.nfa.coo-duplicate"));
}

TEST(VerifierCorpus, UnsortedFinals) {
  Nfa A = compileOptimized("a|bb");
  // Append a duplicate of the first final: breaks sorted/unique finals.
  ASSERT_FALSE(A.finals().empty());
  A.finals().push_back(A.finals().front());
  DiagnosticEngine Diags;
  EXPECT_FALSE(verifyNfa(A, IrLevel::OptimizedFsa, Diags));
  EXPECT_TRUE(hasCheck(Diags, "verify.nfa.final-order"));
}

TEST(VerifierCorpus, UnreachableAndDeadStates) {
  Nfa A = compileOptimized("ab");
  // An island state unreachable from the initial state...
  StateId Island = A.addState();
  StateId Sink = A.addState();
  // ...and a reachable state that can never reach a final (dead).
  A.transitions().push_back({Island, Sink, SymbolSet::singleton('z')});
  A.transitions().push_back({0, Sink, SymbolSet::singleton('q')});
  A.canonicalize();
  DiagnosticEngine Diags;
  EXPECT_FALSE(verifyNfa(A, IrLevel::OptimizedFsa, Diags));
  EXPECT_TRUE(hasCheck(Diags, "verify.nfa.unreachable-state"));
  EXPECT_TRUE(hasCheck(Diags, "verify.nfa.dead-state"));
}

//===----------------------------------------------------------------------===//
// Verifier: corrupted-MFSA corpus
//===----------------------------------------------------------------------===//

TEST(VerifierCorpus, MfsaDanglingTransition) {
  Mfsa Z = mergePatterns({"ab", "ac"});
  Z.transitions().front().To = Z.numStates() + 17;
  DiagnosticEngine Diags;
  EXPECT_FALSE(verifyMfsa(Z, Diags));
  const Finding &F = findCheck(Diags, "verify.mfsa.transition-target");
  EXPECT_EQ(F.Sev, Severity::Error);
  EXPECT_TRUE(F.Span.hasElement());
  EXPECT_NE(verifyMfsaError(Z), "");
}

TEST(VerifierCorpus, MfsaEpsilonLabel) {
  Mfsa Z = mergePatterns({"ab", "ac"});
  Z.transitions().front().Label = SymbolSet();
  DiagnosticEngine Diags;
  EXPECT_FALSE(verifyMfsa(Z, Diags));
  EXPECT_TRUE(hasCheck(Diags, "verify.mfsa.epsilon-label"));
}

TEST(VerifierCorpus, MfsaBelWidthMismatch) {
  Mfsa Z = mergePatterns({"ab", "ac"});
  // An oversized activation/belonging set: the engines would copy its words
  // out of bounds. The verifier must flag it without ever reading the bits.
  Z.transitions().front().Bel = DynamicBitset(Z.numRules() + 3);
  DiagnosticEngine Diags;
  EXPECT_FALSE(verifyMfsa(Z, Diags));
  const Finding &F = findCheck(Diags, "verify.mfsa.bel-width");
  EXPECT_TRUE(F.Span.hasElement());
}

TEST(VerifierCorpus, MfsaEmptyBelongingSet) {
  Mfsa Z = mergePatterns({"ab", "ac"});
  Z.transitions().front().Bel.clear();
  DiagnosticEngine Diags;
  EXPECT_FALSE(verifyMfsa(Z, Diags));
  EXPECT_TRUE(hasCheck(Diags, "verify.mfsa.bel-empty"));
}

TEST(VerifierCorpus, MfsaDuplicateArc) {
  Mfsa Z = mergePatterns({"ab", "ac"});
  Z.transitions().push_back(Z.transitions().front());
  DiagnosticEngine Diags;
  EXPECT_FALSE(verifyMfsa(Z, Diags));
  EXPECT_TRUE(hasCheck(Diags, "verify.mfsa.duplicate-arc"));
}

TEST(VerifierCorpus, MfsaRuleStatesOutOfRange) {
  Mfsa Z = mergePatterns({"ab", "ac"});
  Z.rule(0).Initial = Z.numStates() + 1;
  Z.rule(1).Finals.push_back(Z.numStates() + 2);
  DiagnosticEngine Diags;
  EXPECT_FALSE(verifyMfsa(Z, Diags));
  EXPECT_TRUE(hasCheck(Diags, "verify.mfsa.rule-initial-range"));
  const Finding &F = findCheck(Diags, "verify.mfsa.rule-final-range");
  EXPECT_TRUE(F.Span.hasRule());
}

TEST(VerifierCorpus, MfsaGlobalIdCollision) {
  Mfsa Z = mergePatterns({"ab", "ac"});
  Z.rule(0).GlobalId = 7;
  Z.rule(1).GlobalId = 7;
  DiagnosticEngine Diags;
  EXPECT_FALSE(verifyMfsa(Z, Diags));
  EXPECT_TRUE(hasCheck(Diags, "verify.mfsa.global-id-collision"));
}

TEST(VerifierCorpus, MfsaDisconnectedRuleArc) {
  Mfsa Z = mergePatterns({"ab", "ac"});
  // An arc owned by rule 0 floating on an island: the injective relabeling
  // of Algorithm 1 can never produce this.
  StateId Island = Z.addState();
  StateId Sink = Z.addState();
  Z.addTransition(Island, Sink, SymbolSet::singleton('z'), Z.makeBel(0));
  DiagnosticEngine Diags;
  EXPECT_FALSE(verifyMfsa(Z, Diags));
  const Finding &F = findCheck(Diags, "verify.mfsa.rule-disconnected");
  EXPECT_TRUE(F.Span.hasRule());
}

//===----------------------------------------------------------------------===//
// Pipeline integration: --verify-each
//===----------------------------------------------------------------------===//

TEST(VerifyEach, CleanRulesetCompiles) {
  CompileOptions Options;
  Options.VerifyEach = true;
  Options.EmitAnml = false;
  Result<CompileArtifacts> Artifacts = compileRuleset(
      {"GET /[a-z]+", "POST /[a-z]+", "[0-9]{1,3}\\.[0-9]{1,3}"}, Options);
  ASSERT_TRUE(Artifacts.ok()) << Artifacts.diag().render();
  EXPECT_EQ(Artifacts->CompiledRuleIds.size(), 3u);
  for (const Mfsa &Z : Artifacts->Mfsas)
    EXPECT_EQ(verifyMfsaError(Z), "");
}

TEST(VerifyEach, DefaultFollowsBuildConfig) {
  CompileOptions Options;
  EXPECT_EQ(Options.VerifyEach, kVerifyEachDefault);
}

//===----------------------------------------------------------------------===//
// Lint
//===----------------------------------------------------------------------===//

TEST(Lint, CatalogRulesFireOnSeededFixtures) {
  LintOptions Options;
  DiagnosticEngine Diags;
  LintSummary Summary = lintRuleset(
      {
          "(a+)+b",        // nested quantifier
          "(a|aa)+x",      // ambiguous loop witness on the NFA
          "(a{99}){999}",  // expansion blowup (skipped from deeper layers)
          "ab(",           // parse error
          "foo[0-9]bar",   // duplicate pair...
          "foo[0-9]bar",   // ...
          ".*",            // universal
      },
      Options, Diags);
  EXPECT_EQ(Summary.RulesBroken, 1u);
  EXPECT_EQ(Summary.RulesAnalyzed, 5u); // 7 - parse error - blowup skip
  EXPECT_TRUE(hasCheck(Diags, "lint.redos.nested-quantifier"));
  EXPECT_TRUE(hasCheck(Diags, "lint.redos.ambiguous-loop"));
  EXPECT_TRUE(hasCheck(Diags, "lint.expansion.state-blowup"));
  EXPECT_TRUE(hasCheck(Diags, "lint.parse-error"));
  EXPECT_TRUE(hasCheck(Diags, "lint.duplicate-rule"));
  EXPECT_TRUE(hasCheck(Diags, "lint.language.universal"));
  const Finding &Parse = findCheck(Diags, "lint.parse-error");
  EXPECT_EQ(Parse.Span.Rule, 3u);
  const Finding &Dup = findCheck(Diags, "lint.duplicate-rule");
  EXPECT_EQ(Dup.Span.Rule, 5u);
}

TEST(Lint, EmptyLanguageRuleFlagged) {
  DiagnosticEngine Diags;
  lintRuleset({"a{0}"}, LintOptions(), Diags);
  EXPECT_TRUE(hasCheck(Diags, "lint.language.empty"));
}

TEST(Lint, CleanRulesetLintsClean) {
  DiagnosticEngine Diags;
  LintSummary Summary =
      lintRuleset({"GET /[a-z]+", "Host: [a-z0-9.-]+", "admin\\.php"},
                  LintOptions(), Diags);
  EXPECT_TRUE(Diags.empty()) << Diags.renderText();
  EXPECT_EQ(Summary.RulesAnalyzed, 3u);
}

TEST(Lint, MergedDuplicatesDetectedViaBelongingSets) {
  Mfsa Z = mergePatterns({"xy[ab]", "xy[ab]", "zz"});
  DiagnosticEngine Diags;
  lintMfsa(Z, LintOptions(), Diags);
  const Finding &F = findCheck(Diags, "lint.merge.identical-rules");
  EXPECT_EQ(F.Span.Rule, 1u); // GlobalId of the duplicate
}

TEST(Lint, MergedUnreachableStateDetected) {
  Mfsa Z = mergePatterns({"ab", "ac"});
  StateId Island = Z.addState();
  Z.addTransition(Island, Island, SymbolSet::singleton('z'), Z.makeBel(0));
  DiagnosticEngine Diags;
  lintMfsa(Z, LintOptions(), Diags);
  EXPECT_TRUE(hasCheck(Diags, "lint.merge.unreachable-state"));
}

TEST(Lint, ExactProverFindsStructurallyDifferentDuplicates) {
  // a{2,3} and aa|aaa denote the same language through different syntax;
  // the antichain prover decides the pair exactly.
  DiagnosticEngine Diags;
  lintRuleset({"a{2,3}", "aa|aaa"}, LintOptions(), Diags);
  const Finding &F = findCheck(Diags, "lint.duplicate-rule");
  EXPECT_EQ(F.Span.Rule, 1u);
  EXPECT_EQ(F.Method, "exact");
}

TEST(Lint, ExactSubsumptionProven) {
  // ab ⊆ a[bc]. The old heuristic oracle was blind to this pair (the
  // effective alphabets differ, so probing was skipped); the prover is not.
  DiagnosticEngine Diags;
  lintRuleset({"ab", "a[bc]"}, LintOptions(), Diags);
  const Finding &F = findCheck(Diags, "lint.subsumed-rule");
  EXPECT_EQ(F.Span.Rule, 0u);
  EXPECT_EQ(F.Method, "exact");
  EXPECT_NE(F.Message.find("inclusion proven"), std::string::npos)
      << F.Message;
}

TEST(Lint, DisablingExactPathRestoresHeuristicBlindness) {
  LintOptions Options;
  Options.ExactCheckMaxStates = 0; // heuristic oracle only
  DiagnosticEngine Diags;
  lintRuleset({"ab", "a[bc]"}, Options, Diags);
  EXPECT_FALSE(hasCheck(Diags, "lint.subsumed-rule")) << Diags.renderText();
}

TEST(Lint, JsonReportIsGolden) {
  // The exact --format=json document for a small fixture: field order,
  // escaping, and finding order are all contractual (docs/static-analysis.md).
  LintOptions Options;
  DiagnosticEngine Diags;
  lintRuleset({"(a+)+b", "foo", "foo"}, Options, Diags);
  EXPECT_EQ(
      Diags.renderJson(),
      "{\"findings\":["
      "{\"severity\":\"warning\",\"check\":\"lint.redos.nested-quantifier\","
      "\"message\":\"unbounded quantifier wraps a variable-iteration "
      "quantifier (catastrophic-ambiguity shape, e.g. (a+)+)\",\"rule\":0,"
      "\"hint\":\"make the inner repetition fixed-count or unroll the outer "
      "one\"},"
      "{\"severity\":\"warning\",\"check\":\"lint.duplicate-rule\","
      "\"message\":\"duplicate of rule 1: identical optimized automaton\","
      "\"rule\":2,\"method\":\"exact\","
      "\"hint\":\"remove one of the two rules\"}"
      "],\"errors\":0,\"warnings\":2}");
}

//===----------------------------------------------------------------------===//
// Lint: cost model (lint.cost.*, analysis/CostModel.h)
//===----------------------------------------------------------------------===//

TEST(LintCost, WidthHotspotFiresWithExactTag) {
  // All three rules are simultaneously active on "ab..." prefixes; with the
  // warn threshold lowered below that, the check must fire, and the
  // completed antichain search must tag the bound exact.
  std::vector<std::string> Patterns = {"a[ab]*b", "ab*", "[ab]{2,4}"};
  Mfsa Z = mergePatterns(Patterns);
  LintOptions Options;
  Options.CostWidthWarnRules = 2;
  DiagnosticEngine Diags;
  lintCost(Z, Patterns, Options, Diags);
  const Finding &F = findCheck(Diags, "lint.cost.width-hotspot");
  EXPECT_EQ(F.Sev, Severity::Warning);
  EXPECT_EQ(F.Method, "exact");
  EXPECT_NE(F.Message.find("simultaneously active"), std::string::npos)
      << F.Message;
}

TEST(LintCost, WidthHotspotHeuristicTagWhenBudgetExhausted) {
  // A one-macrostate budget cannot finish the reachability search, so the
  // analyzer falls back to the trivial (still sound) all-rules bound and
  // must say so via the method tag.
  Mfsa Z = mergePatterns({"a[ab]*b", "ab*", "[ab]{2,4}"});
  LintOptions Options;
  Options.CostWidthWarnRules = 2;
  Options.CostWidthMaxMacrostates = 1;
  DiagnosticEngine Diags;
  lintCost(Z, {}, Options, Diags);
  const Finding &F = findCheck(Diags, "lint.cost.width-hotspot");
  EXPECT_EQ(F.Method, "heuristic");
}

TEST(LintCost, DfaBlowupIsDemonstratedNotEstimated) {
  // Unanchored a[ab]{14}b needs ~2^14 subset states; a 64-state probe cap
  // is exceeded by construction, which makes the finding exact.
  Mfsa Z = mergePatterns({"a[ab]{14}b", "ab"});
  LintOptions Options;
  Options.CostDfaProbeMaxStates = 64;
  DiagnosticEngine Diags;
  lintCost(Z, {}, Options, Diags);
  const Finding &F = findCheck(Diags, "lint.cost.dfa-blowup");
  EXPECT_EQ(F.Sev, Severity::Warning);
  EXPECT_EQ(F.Method, "exact");
}

TEST(LintCost, NoBlowupFindingWhenProbeCompletes) {
  Mfsa Z = mergePatterns({"ab", "cd"});
  DiagnosticEngine Diags;
  lintCost(Z, {}, LintOptions(), Diags);
  EXPECT_FALSE(hasCheck(Diags, "lint.cost.dfa-blowup")) << Diags.renderText();
}

TEST(LintCost, PrefilterDefeatedNotesTheResidualRule) {
  // Three long-literal rules make the ruleset literal-heavy; the lone
  // literal-free rule forces the residual full scan and gets the note.
  std::vector<std::string> Patterns = {"foobar", "bazqux", "plugh42",
                                       "[ab]+"};
  Mfsa Z = mergePatterns(Patterns);
  DiagnosticEngine Diags;
  lintCost(Z, Patterns, LintOptions(), Diags);
  const Finding &F = findCheck(Diags, "lint.cost.prefilter-defeated");
  EXPECT_EQ(F.Sev, Severity::Note);
  EXPECT_EQ(F.Span.Rule, 3u);
  EXPECT_EQ(F.Method, "exact");
}

TEST(LintCost, JsonReportIsGolden) {
  // The exact JSON for the prefilter fixture: field order, method tag, and
  // message text are contractual (docs/static-analysis.md).
  std::vector<std::string> Patterns = {"foobar", "bazqux", "plugh42",
                                       "[ab]+"};
  Mfsa Z = mergePatterns(Patterns);
  DiagnosticEngine Diags;
  lintCost(Z, Patterns, LintOptions(), Diags);
  EXPECT_EQ(
      Diags.renderJson(),
      "{\"findings\":["
      "{\"severity\":\"note\",\"check\":\"lint.cost.prefilter-defeated\","
      "\"message\":\"rule has no required literal of length >= 3 in a "
      "literal-heavy ruleset (3/4 prefilterable); it forces the residual "
      "full scan\",\"rule\":3,\"method\":\"exact\","
      "\"hint\":\"anchor the rule on a distinctive literal, or exclude it "
      "from the prefiltered group\"}"
      "],\"errors\":0,\"warnings\":0}");
}

//===----------------------------------------------------------------------===//
// Planner (analysis/Planner.h)
//===----------------------------------------------------------------------===//

TEST(Planner, EngineNamesRoundTrip) {
  for (Engine E : {Engine::Auto, Engine::ImfantDense, Engine::Dfa,
                   Engine::StridedDfa, Engine::Prefilter}) {
    Engine Parsed;
    ASSERT_TRUE(engineFromName(engineName(E), Parsed)) << engineName(E);
    EXPECT_EQ(Parsed, E);
  }
  Engine Parsed;
  EXPECT_FALSE(engineFromName("hyperscan", Parsed));
  EXPECT_FALSE(engineFromName("sparse", Parsed));
  // The analysis.cost.chosen_engine gauge exports these values.
  EXPECT_EQ(static_cast<int>(Engine::Auto), 0);
  EXPECT_EQ(static_cast<int>(Engine::ImfantDense), 1);
  EXPECT_EQ(static_cast<int>(Engine::Dfa), 3);
  EXPECT_EQ(static_cast<int>(Engine::StridedDfa), 4);
  EXPECT_EQ(static_cast<int>(Engine::Prefilter), 5);
}

TEST(Planner, ForcedEnginePinsChoiceButKeepsTrace) {
  std::vector<std::string> Patterns = {"foobar", "bazqux", "[ab]+c"};
  std::vector<Mfsa> Mfsas;
  Mfsas.push_back(mergePatterns(Patterns));
  PlannerOptions Options;
  Options.Force = Engine::Dfa;
  EnginePlan Plan = planMfsas(Mfsas, Patterns, 0, Options);
  EXPECT_EQ(Plan.Choice, Engine::Dfa);
  ASSERT_NE(Plan.chosen(), nullptr);
  // The trace still evaluates every engine so --explain-plan can show what
  // Auto would have picked.
  EXPECT_EQ(Plan.chosen()->Engines.size(), 4u);
  EXPECT_NE(Plan.explainJson().find("\"candidates\""), std::string::npos);
}

TEST(Planner, InputParallelAcceptedBehindRuntimeGuards) {
  // Dense iMFAnt and the prefilter are accepted — the iMFAnt join's re-scan
  // of the carry until it dies bounds the worst case at run time — while a
  // single input thread declines.
  std::vector<std::string> Patterns = {"foobar", "bazqux", "[ab]+c",
                                       "(a|b)*abb"};
  std::vector<Mfsa> Mfsas;
  Mfsas.push_back(mergePatterns(Patterns));
  auto PlanWith = [&](Engine Force, unsigned InputThreads) {
    PlannerOptions Options;
    Options.Force = Force;
    Options.InputThreads = InputThreads;
    return planMfsas(Mfsas, Patterns, 0, Options);
  };
  for (Engine E : {Engine::ImfantDense, Engine::Prefilter}) {
    const EnginePlan Plan = PlanWith(E, 4);
    EXPECT_TRUE(Plan.ParallelInput) << engineName(E);
    EXPECT_EQ(Plan.InputThreads, 4u);
    EXPECT_NE(Plan.explainJson().find("\"enabled\": true"), std::string::npos)
        << Plan.explainJson();
  }
  for (Engine E : {Engine::ImfantDense, Engine::Prefilter}) {
    const EnginePlan Single = PlanWith(E, 1);
    EXPECT_FALSE(Single.ParallelInput) << engineName(E);
    EXPECT_EQ(Single.ParallelInputWhy, "single input thread requested");
  }
}

TEST(Planner, WidthBoundDominatesTrivialCases) {
  // One-rule automaton: the bound can never exceed one active rule.
  std::vector<std::string> Patterns = {"abc"};
  Mfsa Z = mergePatterns(Patterns);
  const WidthBound W = boundActivationWidth(Z);
  EXPECT_TRUE(W.Exact);
  EXPECT_EQ(W.MaxActiveRules, 1u);
  EXPECT_GE(W.MaxActiveStates, 1u);
}

/// Plans \p Patterns at M = 2 and M = all under a 64-state DFA probe
/// budget, so that a two-rule group can already blow it.
struct PairsAndAllPlan {
  std::vector<Nfa> Fsas;
  std::vector<uint32_t> Ids;
  PlannerOptions Options;
  EnginePlan Plan;
  const CandidatePlan *Pairs = nullptr;
  const CandidatePlan *All = nullptr;

  explicit PairsAndAllPlan(const std::vector<std::string> &Patterns) {
    for (uint32_t I = 0; I < Patterns.size(); ++I) {
      Fsas.push_back(compileOptimized(Patterns[I]));
      Ids.push_back(I);
    }
    Options.Probe.MaxStates = 64;
    Options.CandidateFactors = {2, 0};
    Plan = planRuleset(Fsas, Ids, Patterns, Options);
    for (const CandidatePlan &Cand : Plan.Candidates)
      (Cand.MergingFactor == 2 ? Pairs : All) = &Cand;
  }

  /// A direct probe of the M = all group.
  DfaEstimate probeAll() const {
    return probeDfaBlowup(mergeInGroups(Fsas, Ids, 0).front(),
                          Options.Probe);
  }
};

void expectSameVerdict(const DfaEstimate &A, const DfaEstimate &B) {
  EXPECT_EQ(A.Completed, B.Completed);
  EXPECT_EQ(A.DfaStates, B.DfaStates);
  EXPECT_EQ(A.NumAtoms, B.NumAtoms);
  EXPECT_EQ(A.Stride2Entries, B.Stride2Entries);
  EXPECT_EQ(A.Stride2Feasible, B.Stride2Feasible);
}

TEST(Planner, BlownSubgroupImpliesTheWholeRulesetsVerdict) {
  // "a[ab]{6}x" alone needs ~2^7 scanning-DFA states, past the 64 cap; the
  // M = all group holds its pair, so its DFA is at least as large.
  const PairsAndAllPlan P({"a[ab]{6}x", "hello", "foo", "world"});
  ASSERT_TRUE(P.Pairs && P.All);
  ASSERT_EQ(P.Pairs->Groups.size(), 2u);
  EXPECT_FALSE(P.Pairs->Groups[0].Dfa.Completed);
  EXPECT_FALSE(P.Pairs->Groups[0].Dfa.Implied);
  EXPECT_TRUE(P.Pairs->Groups[1].Dfa.Completed);

  ASSERT_EQ(P.All->Groups.size(), 1u);
  const DfaEstimate &Implied = P.All->Groups[0].Dfa;
  EXPECT_TRUE(Implied.Implied);
  EXPECT_EQ(Implied.WallMs, 0.0) << "an implied verdict runs no probe";
  const DfaEstimate Probed = P.probeAll();
  EXPECT_FALSE(Probed.Implied);
  expectSameVerdict(Implied, Probed);

  obs::MetricsRegistry Registry;
  P.All->Groups[0].recordTo(Registry);
  EXPECT_NE(Registry.toJson().find("\"analysis.cost.dfa_probe_implied\": 1"),
            std::string::npos)
      << Registry.toJson();
}

TEST(Planner, CompletedSubgroupsLeaveTheProbeToRun) {
  // Each pair fits in 45 states, all four need 225: the M = all probe must
  // find that blowup itself.
  const PairsAndAllPlan P({"a.{2}x", "b.{2}y", "c.{2}z", "d.{2}w"});
  ASSERT_TRUE(P.Pairs && P.All);
  for (const CostReport &G : P.Pairs->Groups)
    EXPECT_TRUE(G.Dfa.Completed);
  ASSERT_EQ(P.All->Groups.size(), 1u);
  const DfaEstimate &Ran = P.All->Groups[0].Dfa;
  EXPECT_FALSE(Ran.Implied);
  EXPECT_FALSE(Ran.Completed);
  expectSameVerdict(Ran, P.probeAll());
}

//===----------------------------------------------------------------------===//
// Exactness: the planner's analyses against clarity-first oracles
//===----------------------------------------------------------------------===//

/// Reference scanning subset construction: every subset kept whole and
/// sorted, interned through a std::map, processed from a FIFO worklist.
Result<Dfa> referenceDeterminize(const std::vector<Nfa> &Fsas,
                                 const std::vector<uint32_t> &GlobalIds,
                                 uint32_t MaxStates) {
  const uint32_t NumRules = static_cast<uint32_t>(Fsas.size());
  // Fresh non-final entry clones, so ε-accepting rules never report a
  // zero-length match (fsa/Reference.h semantics).
  std::vector<Nfa> Rules;
  for (const Nfa &Original : Fsas) {
    Nfa A = Original;
    StateId Entry = A.addState();
    for (uint32_t I = 0, E = A.numTransitions(); I != E; ++I) {
      const Transition T = A.transitions()[I];
      if (T.From == A.initial())
        A.addTransition(Entry, T.To, T.Label);
    }
    A.setInitial(Entry);
    A.canonicalize();
    Rules.push_back(std::move(A));
  }
  std::vector<uint32_t> Offset(NumRules + 1, 0);
  for (uint32_t R = 0; R < NumRules; ++R)
    Offset[R + 1] = Offset[R] + Rules[R].numStates();
  const std::vector<SymbolSet> Atoms = computeAlphabetAtoms(Rules);
  const uint32_t NumAtoms = static_cast<uint32_t>(Atoms.size());

  using Subset = std::vector<uint32_t>;
  std::vector<std::vector<Subset>> Moves(Offset[NumRules],
                                         std::vector<Subset>(NumAtoms));
  for (uint32_t R = 0; R < NumRules; ++R)
    for (const Transition &T : Rules[R].transitions())
      for (uint32_t A = 0; A < NumAtoms; ++A)
        if (T.Label.intersects(Atoms[A]))
          Moves[Offset[R] + T.From][A].push_back(Offset[R] + T.To);

  Subset Restart, Start;
  for (uint32_t R = 0; R < NumRules; ++R) {
    Start.push_back(Offset[R] + Rules[R].initial());
    if (!Rules[R].anchoredStart())
      Restart.push_back(Offset[R] + Rules[R].initial());
  }
  std::sort(Start.begin(), Start.end());

  Dfa Out;
  Out.NumAtoms = NumAtoms;
  Out.NumRules = NumRules;
  Out.GlobalIds = GlobalIds;
  Out.AtomOfByte.assign(256, 0);
  for (uint32_t A = 0; A < NumAtoms; ++A)
    Atoms[A].forEach(
        [&](unsigned char C) { Out.AtomOfByte[C] = static_cast<uint8_t>(A); });

  std::map<Subset, uint32_t> Ids;
  std::vector<Subset> Subsets;
  auto Intern = [&](const Subset &S) {
    auto [It, Inserted] =
        Ids.emplace(S, static_cast<uint32_t>(Subsets.size()));
    if (Inserted)
      Subsets.push_back(S);
    return It->second;
  };
  Intern(Start);
  std::queue<uint32_t> Work;
  Work.push(0);
  std::vector<bool> Done;
  while (!Work.empty()) {
    const uint32_t Id = Work.front();
    Work.pop();
    if (Id < Done.size() && Done[Id])
      continue;
    Done.resize(std::max<size_t>(Done.size(), Id + 1), false);
    Done[Id] = true;
    if (Subsets.size() > MaxStates)
      return Result<Dfa>::error("explosion");
    Out.Next.resize(std::max(Out.Next.size(), size_t(Id + 1) * NumAtoms));
    const Subset Current = Subsets[Id];
    for (uint32_t A = 0; A < NumAtoms; ++A) {
      Subset Target = Restart;
      for (uint32_t S : Current)
        Target.insert(Target.end(), Moves[S][A].begin(), Moves[S][A].end());
      std::sort(Target.begin(), Target.end());
      Target.erase(std::unique(Target.begin(), Target.end()), Target.end());
      const uint32_t To = Intern(Target);
      Out.Next[size_t(Id) * NumAtoms + A] = To;
      if (To >= Done.size() || !Done[To])
        Work.push(To);
    }
  }
  Out.NumStates = static_cast<uint32_t>(Subsets.size());
  Out.Next.resize(size_t(Out.NumStates) * NumAtoms, 0);
  Out.Accept.assign(Out.NumStates, DynamicBitset(NumRules));
  Out.AcceptAtEnd.assign(Out.NumStates, DynamicBitset(NumRules));
  for (uint32_t Id = 0; Id < Out.NumStates; ++Id)
    for (uint32_t S : Subsets[Id])
      for (uint32_t R = 0; R < NumRules; ++R) {
        if (S < Offset[R] || S >= Offset[R + 1] ||
            !Rules[R].isFinal(S - Offset[R]))
          continue;
        (Rules[R].anchoredEnd() ? Out.AcceptAtEnd : Out.Accept)[Id].set(R);
      }
  return Out;
}

/// The coarsest atoms refining every distinct label, in first-seen label
/// order: the same construction boundActivationWidth uses, so the
/// exploration order (and with it every counter) is comparable.
std::vector<SymbolSet> referenceAtoms(const Mfsa &Z) {
  std::vector<SymbolSet> Labels;
  std::unordered_set<SymbolSet, SymbolSetHash> Seen;
  for (const MfsaTransition &T : Z.transitions())
    if (Seen.insert(T.Label).second)
      Labels.push_back(T.Label);
  auto Minus = [](const SymbolSet &A, const SymbolSet &B) {
    std::array<uint64_t, SymbolSet::NumWords> W = A.words();
    for (unsigned I = 0; I < SymbolSet::NumWords; ++I)
      W[I] &= ~B.words()[I];
    return SymbolSet::fromWords(W);
  };
  std::vector<SymbolSet> Atoms;
  for (const SymbolSet &L : Labels) {
    if (L.empty())
      continue;
    std::vector<SymbolSet> Next;
    SymbolSet Rest = L;
    for (const SymbolSet &A : Atoms) {
      SymbolSet Common = A & L;
      if (Common.empty()) {
        Next.push_back(A);
        continue;
      }
      if (SymbolSet OnlyA = Minus(A, Common); !OnlyA.empty())
        Next.push_back(OnlyA);
      Next.push_back(Common);
      Rest = Minus(Rest, Common);
    }
    if (!Rest.empty())
      Next.push_back(Rest);
    Atoms = std::move(Next);
  }
  return Atoms;
}

/// Reference width search: the antichain is a plain list scanned linearly
/// by both queries, and the worklist holds its own copy of every frontier.
WidthBound referenceWidth(const Mfsa &Z, uint64_t MaxMacrostates) {
  WidthBound Bound;
  const uint32_t NumStates = Z.numStates();
  const uint32_t NumRules = Z.numRules();
  Bound.ReachableStates = DynamicBitset(NumStates);
  if (NumStates == 0 || Z.numTransitions() == 0) {
    Bound.Exact = true;
    return Bound;
  }
  const std::vector<SymbolSet> Atoms = referenceAtoms(Z);
  DynamicBitset IsInitial(NumStates);
  for (uint32_t R = 0; R < NumRules; ++R)
    IsInitial.set(Z.rule(R).Initial);
  std::vector<DynamicBitset> PossRules(NumStates, DynamicBitset(NumRules));
  for (const MfsaTransition &T : Z.transitions())
    PossRules[T.To] |= T.Bel;
  auto Subset = [](const DynamicBitset &A, const DynamicBitset &B) {
    return (A & B) == A;
  };

  std::vector<DynamicBitset> Antichain;
  std::deque<DynamicBitset> Worklist{DynamicBitset(NumStates)};
  bool Budgeted = false;
  while (!Worklist.empty()) {
    if (MaxMacrostates && Bound.MacrostatesExplored >= MaxMacrostates) {
      Budgeted = true;
      break;
    }
    DynamicBitset S = std::move(Worklist.front());
    Worklist.pop_front();
    ++Bound.MacrostatesExplored;
    Bound.MaxActiveStates = std::max(Bound.MaxActiveStates, S.count());
    DynamicBitset Rules(NumRules);
    S.forEach([&](unsigned Q) { Rules |= PossRules[Q]; });
    Bound.MaxActiveRules = std::max(Bound.MaxActiveRules, Rules.count());
    for (const SymbolSet &Atom : Atoms) {
      DynamicBitset Succ(NumStates);
      for (const MfsaTransition &T : Z.transitions())
        if (T.Label.intersects(Atom) && (S.test(T.From) || IsInitial.test(T.From)))
          Succ.set(T.To);
      if (std::any_of(Antichain.begin(), Antichain.end(),
                      [&](const DynamicBitset &T) { return Subset(Succ, T); }))
        continue;
      std::erase_if(Antichain,
                    [&](const DynamicBitset &T) { return Subset(T, Succ); });
      Bound.ReachableStates |= Succ;
      Antichain.push_back(Succ);
      Bound.AntichainPeak =
          std::max<uint64_t>(Bound.AntichainPeak, Antichain.size());
      Worklist.push_back(std::move(Succ));
    }
  }
  if (Budgeted) {
    Bound.MaxActiveStates = NumStates;
    Bound.MaxActiveRules = NumRules;
    for (uint32_t Q = 0; Q < NumStates; ++Q)
      Bound.ReachableStates.set(Q);
  }
  Bound.Exact = !Budgeted;
  return Bound;
}

void expectSameDfa(const Dfa &Actual, const Dfa &Expected,
                   const std::string &Where) {
  EXPECT_EQ(Actual.NumStates, Expected.NumStates) << Where;
  EXPECT_EQ(Actual.NumAtoms, Expected.NumAtoms) << Where;
  EXPECT_EQ(Actual.NumRules, Expected.NumRules) << Where;
  EXPECT_TRUE(Actual.Next == Expected.Next) << Where;
  EXPECT_TRUE(Actual.Accept == Expected.Accept) << Where;
  EXPECT_TRUE(Actual.AcceptAtEnd == Expected.AcceptAtEnd) << Where;
  EXPECT_TRUE(Actual.AtomOfByte == Expected.AtomOfByte) << Where;
  EXPECT_TRUE(Actual.GlobalIds == Expected.GlobalIds) << Where;
}

/// Determinizes \p Fsas under \p MaxStates both ways and compares.
void checkDeterminize(const std::vector<Nfa> &Fsas, uint32_t MaxStates,
                      const std::string &Where) {
  std::vector<uint32_t> Ids(Fsas.size());
  for (uint32_t I = 0; I < Ids.size(); ++I)
    Ids[I] = 100 + I;
  Result<Dfa> Expected = referenceDeterminize(Fsas, Ids, MaxStates);
  DeterminizeOptions Options;
  Options.MaxStates = MaxStates;
  Result<Dfa> Actual = determinize(Fsas, Ids, Options);
  ASSERT_EQ(Actual.ok(), Expected.ok()) << Where << " cap " << MaxStates;
  if (Actual.ok())
    expectSameDfa(*Actual, *Expected, Where + " cap " +
                                          std::to_string(MaxStates));
}

void expectSameWidth(const WidthBound &Actual, const WidthBound &Expected,
                     const std::string &Where) {
  EXPECT_EQ(Actual.MaxActiveStates, Expected.MaxActiveStates) << Where;
  EXPECT_EQ(Actual.MaxActiveRules, Expected.MaxActiveRules) << Where;
  EXPECT_EQ(Actual.Exact, Expected.Exact) << Where;
  EXPECT_EQ(Actual.MacrostatesExplored, Expected.MacrostatesExplored)
      << Where;
  EXPECT_EQ(Actual.AntichainPeak, Expected.AntichainPeak) << Where;
  EXPECT_TRUE(Actual.ReachableStates == Expected.ReachableStates) << Where;
}

void checkWidth(const Mfsa &Z, uint64_t MaxMacrostates,
                const std::string &Where) {
  WidthOptions Options;
  Options.MaxMacrostates = MaxMacrostates;
  expectSameWidth(boundActivationWidth(Z, Options),
                  referenceWidth(Z, MaxMacrostates),
                  Where + " budget " + std::to_string(MaxMacrostates));
}

/// A seeded ruleset: random patterns, some anchored at the start or the
/// end, some accepting ε.
std::vector<std::string> seededRuleset(uint64_t Seed) {
  Rng Random(Seed);
  std::vector<std::string> Patterns;
  const uint64_t N = 1 + Random.nextBelow(6);
  for (uint64_t I = 0; I < N; ++I) {
    std::string P = randomPattern(Random, 3);
    switch (Random.nextBelow(5)) {
    case 0:
      P = "^" + P;
      break;
    case 1:
      P += "$";
      break;
    case 2:
      P = "(" + P + ")*"; // accepts ε
      break;
    default:
      break;
    }
    Patterns.push_back(P);
  }
  return Patterns;
}

std::vector<Nfa> compileAll(const std::vector<std::string> &Patterns) {
  std::vector<Nfa> Fsas;
  for (const std::string &P : Patterns)
    Fsas.push_back(compileOptimized(P));
  return Fsas;
}

TEST(Exactness, DeterminizeMatchesReferenceOnSeededRulesets) {
  for (uint64_t Seed = 1; Seed <= 60; ++Seed) {
    const std::vector<std::string> Patterns = seededRuleset(Seed);
    const std::vector<Nfa> Fsas = compileAll(Patterns);
    const std::string Where = formatPatterns(Patterns);
    checkDeterminize(Fsas, 1u << 17, Where);
    // A cap equal to the DFA's size admits it; one below refuses it.
    Result<Dfa> Full = determinize(Fsas, std::vector<uint32_t>(Fsas.size()));
    ASSERT_TRUE(Full.ok()) << Where;
    checkDeterminize(Fsas, Full->NumStates, Where);
    checkDeterminize(Fsas, Full->NumStates - 1, Where);
  }
}

TEST(Exactness, DeterminizeMatchesReferenceOnAnchorsAndEpsilon) {
  const std::vector<std::vector<std::string>> Cases = {
      {"^abc", "bc$", "a*"},
      {"^(ab)?", "^a", "b$"},
      {"^abc$", "(a|b)*c", "[ab]{2,4}$"},
      {"x?", "^", "$"},
  };
  for (const std::vector<std::string> &Patterns : Cases) {
    const std::vector<Nfa> Fsas = compileAll(Patterns);
    checkDeterminize(Fsas, 1u << 17, formatPatterns(Patterns));
    checkDeterminize(Fsas, 1, formatPatterns(Patterns));
  }
}

TEST(Exactness, DeterminizeMatchesReferenceOnTableIPrefixes) {
  // Realistic labels and alphabets, under the planner's 4096-state probe
  // cap: BRO's prefix completes, DS9's blows past it.
  for (const char *Abbrev : {"BRO", "DS9"}) {
    std::vector<std::string> Rules = generateRuleset(*findDataset(Abbrev));
    Rules.resize(12);
    checkDeterminize(compileAll(Rules), 1u << 12, Abbrev);
  }
}

/// Dataset \p Abbrev's M=50 group \p Index as the planner probes it: the
/// pipeline's optimized automata of rules [50 Index, 50 Index + 50), merged
/// and projected back to one automaton per rule, with the rules' dataset
/// ids.
struct M50Group {
  Mfsa Z;
  std::vector<Nfa> Fsas;
  std::vector<uint32_t> Ids;

  M50Group(const char *Abbrev, uint32_t Index) {
    const std::vector<std::string> All = generateRuleset(*findDataset(Abbrev));
    const uint32_t First = 50 * Index;
    const uint32_t Last = std::min<uint32_t>(First + 50, All.size());
    CompileOptions Options;
    Options.MergingFactor = 1;
    Options.EmitAnml = false;
    Result<CompileArtifacts> Compiled = compileRuleset(
        std::vector<std::string>(All.begin() + First, All.begin() + Last),
        Options);
    EXPECT_TRUE(Compiled.ok()) << Abbrev;
    std::vector<uint32_t> DatasetIds(Last - First);
    std::iota(DatasetIds.begin(), DatasetIds.end(), First);
    Z = mergeInGroups(Compiled->OptimizedFsas, DatasetIds, 50).front();
    Fsas = Z.extractAllRules();
    for (RuleId R = 0; R < Z.numRules(); ++R)
      Ids.push_back(Z.rule(R).GlobalId);
  }
};

/// The verdict probeDfaBlowup owes \p Reference, a reference construction
/// under the same state cap.
DfaEstimate expectedVerdict(const Result<Dfa> &Reference,
                            const DfaProbeOptions &Options) {
  if (!Reference.ok())
    return blowupEstimate(Options);
  DfaEstimate Est;
  Est.Completed = true;
  Est.DfaStates = Reference->NumStates;
  Est.NumAtoms = Reference->NumAtoms;
  Est.Stride2Entries =
      uint64_t(Est.DfaStates) * Est.NumAtoms * Est.NumAtoms;
  Est.Stride2Feasible =
      Est.NumAtoms > 0 &&
      Est.Stride2Entries <= StrideOptions().MaxTableEntries;
  return Est;
}

TEST(Exactness, DeterminizeMatchesReferenceOnFirstM50Groups) {
  // The planner's probe workload: each dataset's first M=50 group under its
  // 4096-state cap. Most blow it; the probe's verdict must match anyway.
  const DfaProbeOptions Probe = PlannerOptions().Probe;
  ASSERT_EQ(Probe.MaxStates, 1u << 12);
  for (const DatasetSpec &Spec : standardDatasets()) {
    const M50Group G(Spec.Abbrev.c_str(), 0);
    const Result<Dfa> Expected =
        referenceDeterminize(G.Fsas, G.Ids, Probe.MaxStates);
    DeterminizeOptions Options;
    Options.MaxStates = Probe.MaxStates;
    const Result<Dfa> Actual = determinize(G.Fsas, G.Ids, Options);
    ASSERT_EQ(Actual.ok(), Expected.ok()) << Spec.Abbrev;
    if (Actual.ok())
      expectSameDfa(*Actual, *Expected, Spec.Abbrev);
    expectSameVerdict(probeDfaBlowup(G.Z, Probe),
                      expectedVerdict(Expected, Probe));
  }
}

TEST(Exactness, DeterminizeMatchesReferenceAtATableIGroupsExactSize) {
  // BRO's last M=50 group (rules 200-216) is the one Table I group whose
  // probe completes: a cap equal to its DFA's size admits it, one below
  // refuses it, and the probe's verdicts follow.
  const M50Group G("BRO", 4);
  const Result<Dfa> Full = determinize(G.Fsas, G.Ids);
  ASSERT_TRUE(Full.ok());
  ASSERT_GT(Full->NumStates, 100u) << "too small to exercise the cap";
  for (uint32_t Cap : {Full->NumStates, Full->NumStates - 1}) {
    checkDeterminize(G.Fsas, Cap, "BRO group 4");
    DfaProbeOptions Probe;
    Probe.MaxStates = Cap;
    expectSameVerdict(
        probeDfaBlowup(G.Z, Probe),
        expectedVerdict(referenceDeterminize(G.Fsas, G.Ids, Cap), Probe));
  }
}

TEST(Exactness, WidthMatchesLinearAntichainOnSeededRulesets) {
  for (uint64_t Seed = 1; Seed <= 60; ++Seed) {
    const std::vector<std::string> Patterns = seededRuleset(Seed);
    const Mfsa Z = mergePatterns(Patterns);
    const std::string Where = formatPatterns(Patterns);
    const WidthBound Unlimited = boundActivationWidth(Z, WidthOptions{0});
    ASSERT_TRUE(Unlimited.Exact) << Where;
    checkWidth(Z, 0, Where);
    // A budget hit exactly still completes; one less cuts the search.
    checkWidth(Z, Unlimited.MacrostatesExplored, Where);
    checkWidth(Z, Unlimited.MacrostatesExplored - 1, Where);
    checkWidth(Z, 1, Where);
  }
}

TEST(Exactness, WidthKeepsAndThenDropsTheEmptyFrontier) {
  // The first label is not on an initial state's arc, so the first
  // successor of the ∅ seed is ∅ itself: it joins the empty antichain and
  // must leave it once {0} arrives (∅ ⊆ everything).
  Mfsa Z(1);
  for (int I = 0; I < 3; ++I)
    Z.addState();
  Z.rule(0).Initial = 1;
  Z.rule(0).Finals = {2};
  Z.addTransition(0, 2, SymbolSet::singleton('a'), Z.makeBel(0));
  Z.addTransition(1, 0, SymbolSet::singleton('b'), Z.makeBel(0));
  const WidthBound W = boundActivationWidth(Z, WidthOptions{0});
  EXPECT_EQ(W.AntichainPeak, 2u);
  EXPECT_EQ(W.MacrostatesExplored, 4u);
  checkWidth(Z, 0, "hand-built");
  checkWidth(Z, 2, "hand-built");
}

TEST(Exactness, WidthMatchesLinearAntichainOnTableIGroups) {
  // 40-rule groups under the planner's 1024-macrostate budget: antichains
  // of hundreds of members, with members dropped and re-filed throughout.
  for (const char *Abbrev : {"DS9", "PRO", "BRO"}) {
    std::vector<std::string> Rules = generateRuleset(*findDataset(Abbrev));
    Rules.resize(40);
    const Mfsa Z = mergePatterns(Rules);
    checkWidth(Z, 1u << 10, Abbrev);
    checkWidth(Z, 100, Abbrev);
  }
}

} // namespace
