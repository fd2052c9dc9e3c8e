//===- CoverageTest.cpp - focused edge-case coverage --------------------------===//
//
// Part of the mfsa project. MIT License.
//
// Deep edge-case coverage for behaviours the broader suites exercise only
// incidentally: case folding, exhaustive printer round-trips, self-loop and
// boundary merging, merge-report accounting, determinizer internals, and
// per-dataset parameterized invariants.
//
//===----------------------------------------------------------------------===//

#include "compiler/Pipeline.h"
#include "engine/DfaEngine.h"
#include "engine/Imfant.h"
#include "fsa/Determinize.h"
#include "fsa/Reference.h"
#include "mfsa/Merge.h"
#include "workload/Datasets.h"
#include "workload/Indel.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <map>

using namespace mfsa;
using namespace mfsa::test;

//===----------------------------------------------------------------------===//
// Case-insensitive matching
//===----------------------------------------------------------------------===//

TEST(CaseFolding, SymbolSetFoldsBothDirections) {
  EXPECT_EQ(SymbolSet::singleton('a').caseFolded(), SymbolSet::of("aA"));
  EXPECT_EQ(SymbolSet::singleton('Z').caseFolded(), SymbolSet::of("zZ"));
  EXPECT_EQ(SymbolSet::singleton('7').caseFolded(), SymbolSet::singleton('7'));
  EXPECT_EQ(SymbolSet::range('a', 'c').caseFolded(),
            SymbolSet::of("abcABC"));
  // Folding is idempotent.
  SymbolSet Folded = SymbolSet::of("gH+").caseFolded();
  EXPECT_EQ(Folded.caseFolded(), Folded);
}

TEST(CaseFolding, ParserOptionAffectsMatching) {
  ParseOptions Insensitive;
  Insensitive.CaseInsensitive = true;
  Result<Regex> Re = parseRegex("Get[a-z]+", Insensitive);
  ASSERT_TRUE(Re.ok());
  EXPECT_EQ(astMatchEnds(*Re, "GETXY"), (std::set<size_t>{4, 5}));
  EXPECT_EQ(astMatchEnds(*Re, "getab"), (std::set<size_t>{4, 5}));
  // The sensitive default stays strict.
  Result<Regex> Strict = parseRegex("Get[a-z]+");
  ASSERT_TRUE(Strict.ok());
  EXPECT_TRUE(astMatchEnds(*Strict, "GETXY").empty());
}

TEST(CaseFolding, PipelineEndToEnd) {
  CompileOptions Options;
  Options.Parse.CaseInsensitive = true;
  Options.MergingFactor = 0;
  Options.EmitAnml = false;
  Result<CompileArtifacts> Artifacts =
      compileRuleset({"alert", "WARNING"}, Options);
  ASSERT_TRUE(Artifacts.ok());
  ImfantEngine Engine(Artifacts->Mfsas[0]);
  MatchRecorder Recorder;
  Engine.run("ALERT warning AlErT", Recorder);
  EXPECT_EQ(Recorder.total(), 3u);
  // Folding also improves merging: ALERT/alert share all transitions.
  Result<CompileArtifacts> Pair =
      compileRuleset({"alert", "ALERT"}, Options);
  ASSERT_TRUE(Pair.ok());
  EXPECT_EQ(Pair->Mfsas[0].numStates(), 6u);
}

//===----------------------------------------------------------------------===//
// Printer round-trip, exhaustively over all byte singletons
//===----------------------------------------------------------------------===//

TEST(Printer, EveryByteSingletonRoundTrips) {
  for (unsigned C = 0; C < 256; ++C) {
    SymbolSet Single = SymbolSet::singleton(static_cast<unsigned char>(C));
    std::string Printed = Single.toString();
    Result<Regex> Re = parseRegex(Printed);
    ASSERT_TRUE(Re.ok()) << "byte " << C << " printed as '" << Printed << "'";
    ASSERT_EQ(Re->Root->kind(), AstKind::Symbols) << Printed;
    EXPECT_EQ(static_cast<const SymbolsNode &>(*Re->Root).symbols(), Single)
        << "byte " << C;
  }
}

TEST(Printer, RandomClassesRoundTripThroughParser) {
  Rng Random(2027);
  for (int Trial = 0; Trial < 200; ++Trial) {
    SymbolSet Set;
    unsigned Count = 2 + Random.nextBelow(40);
    for (unsigned I = 0; I < Count; ++I)
      Set.insert(static_cast<unsigned char>(Random.nextBelow(256)));
    std::string Printed = Set.toString();
    Result<Regex> Re = parseRegex(Printed);
    ASSERT_TRUE(Re.ok()) << Printed;
    ASSERT_EQ(Re->Root->kind(), AstKind::Symbols) << Printed;
    EXPECT_EQ(static_cast<const SymbolsNode &>(*Re->Root).symbols(), Set)
        << Printed;
  }
}

//===----------------------------------------------------------------------===//
// Merging edge cases
//===----------------------------------------------------------------------===//

namespace {

Mfsa mergeTwo(const std::string &A, const std::string &B,
              MergeReport *Report = nullptr) {
  std::vector<Nfa> Fsas = {compileOptimized(A), compileOptimized(B)};
  return mergeFsas(Fsas, {0, 1}, MergeOptions(), Report);
}

} // namespace

TEST(MergeEdge, SelfLoopsOnlyMergeWithSelfLoops) {
  // a+b has a self-loop on a; ab does not. The merged MFSA must keep both
  // languages exact.
  Mfsa Z = mergeTwo("a+b", "ab");
  ASSERT_EQ(Z.verify(), "");
  EXPECT_EQ(simulateNfa(Z.extractRule(0), "aaab"), (std::set<size_t>{4}));
  EXPECT_EQ(simulateNfa(Z.extractRule(1), "aaab"), (std::set<size_t>{4}));
  EXPECT_EQ(simulateNfa(Z.extractRule(1), "ab"), (std::set<size_t>{2}));
}

TEST(MergeEdge, BothCyclicRulesShareLoops) {
  MergeReport Report;
  Mfsa Z = mergeTwo("x[ab]*y", "x[ab]*z", &Report);
  ASSERT_EQ(Z.verify(), "");
  EXPECT_GT(Report.TransitionsShared, 0u);
  Rng Random(3001);
  for (int Trial = 0; Trial < 10; ++Trial) {
    std::string Input = "x";
    Input += randomInput(Random, 6);
    Input += "yz";
    for (RuleId R = 0; R < 2; ++R) {
      Result<Regex> Re = parseRegex(R == 0 ? "x[ab]*y" : "x[ab]*z");
      ASSERT_TRUE(Re.ok());
      EXPECT_EQ(simulateNfa(Z.extractRule(R), Input),
                astMatchEnds(*Re, Input));
    }
  }
}

TEST(MergeEdge, ReportCountersAreConsistent) {
  MergeReport Report;
  Mfsa Z = mergeTwo("abcdef", "abcdef", &Report);
  // Identical rules: every state and transition of the incoming FSA shared.
  EXPECT_EQ(Report.StatesShared, 7u);
  EXPECT_EQ(Report.TransitionsShared, 6u);
  EXPECT_GT(Report.SeedsAccepted, 0u);
  EXPECT_GE(Report.CandidatePairsTried, Report.SeedsAccepted);
  EXPECT_EQ(Z.numStates(), 7u);
}

TEST(MergeEdge, MinSubpathLengthBoundary) {
  // Shared prefix of exactly 2 singleton transitions: rejected at the
  // default length 3, accepted at 2.
  std::vector<Nfa> Fsas = {compileOptimized("abx"), compileOptimized("aby")};
  MergeOptions Len3;
  Len3.MinSubpathLength = 3;
  Mfsa Strict = mergeFsas(Fsas, {0, 1}, Len3);
  EXPECT_EQ(Strict.numStates(), 8u); // disjoint

  MergeOptions Len2;
  Len2.MinSubpathLength = 2;
  Mfsa Loose = mergeFsas(Fsas, {0, 1}, Len2);
  EXPECT_EQ(Loose.numStates(), 5u); // ab prefix shared
}

TEST(MergeEdge, CcSeedsExemptFromLengthRule) {
  // A single shared CC transition merges even under a strict length rule.
  std::vector<Nfa> Fsas = {compileOptimized("[ab]x"),
                           compileOptimized("[ab]y")};
  MergeOptions Strict;
  Strict.MinSubpathLength = 5;
  Mfsa Z = mergeFsas(Fsas, {0, 1}, Strict);
  EXPECT_EQ(Z.numStates(), 4u);
}

TEST(MergeEdge, MultipleFinalStatesSurvive) {
  Mfsa Z = mergeTwo("ab(c|dd)", "ab");
  ASSERT_EQ(Z.verify(), "");
  // Rule 0 has two distinct accepting paths; both must report.
  EXPECT_EQ(simulateNfa(Z.extractRule(0), "abc abdd"),
            (std::set<size_t>{3, 8}));
}

TEST(MergeEdge, VerifyAgainstInputsDetectsDrift) {
  std::vector<Nfa> Fsas = {compileOptimized("abc"), compileOptimized("abd")};
  Mfsa Z = mergeFsas(Fsas, {0, 1});
  EXPECT_EQ(Z.verifyAgainstInputs(Fsas), "");
  // Wrong inputs are flagged.
  std::vector<Nfa> Wrong = {compileOptimized("abcdef"),
                            compileOptimized("abd")};
  EXPECT_NE(Z.verifyAgainstInputs(Wrong), "");
  EXPECT_NE(Z.verifyAgainstInputs({Fsas[0]}), "");
}

//===----------------------------------------------------------------------===//
// Determinizer internals
//===----------------------------------------------------------------------===//

TEST(DeterminizeDetail, AtomMappingCoversAllBytes) {
  std::vector<Nfa> Fsas = {compileOptimized("[a-f]x|z")};
  Result<Dfa> D = determinize(Fsas, {0});
  ASSERT_TRUE(D.ok());
  ASSERT_EQ(D->AtomOfByte.size(), 256u);
  for (unsigned C = 0; C < 256; ++C)
    EXPECT_LT(D->AtomOfByte[C], D->NumAtoms);
  // Bytes inside one class map to one atom; distinct behaviour splits.
  EXPECT_EQ(D->AtomOfByte['a'], D->AtomOfByte['f']);
  EXPECT_NE(D->AtomOfByte['a'], D->AtomOfByte['x']);
  EXPECT_NE(D->AtomOfByte['x'], D->AtomOfByte['z']);
  EXPECT_EQ(D->AtomOfByte['!'], D->AtomOfByte['~']); // both unused
}

TEST(DeterminizeDetail, TableIsTotal) {
  std::vector<Nfa> Fsas = {compileOptimized("ab|cd")};
  Result<Dfa> D = determinize(Fsas, {0});
  ASSERT_TRUE(D.ok());
  ASSERT_EQ(D->Next.size(),
            static_cast<size_t>(D->NumStates) * D->NumAtoms);
  for (uint32_t Target : D->Next)
    EXPECT_LT(Target, D->NumStates);
}

TEST(DeterminizeDetail, FootprintReflectsStateCount) {
  std::vector<Nfa> Small = {compileOptimized("ab")};
  std::vector<Nfa> Large = {compileOptimized("[ab][cd][ef][gh][ij]")};
  Result<Dfa> DS = determinize(Small, {0});
  Result<Dfa> DL = determinize(Large, {0});
  ASSERT_TRUE(DS.ok());
  ASSERT_TRUE(DL.ok());
  EXPECT_GT(DL->footprintBytes(), DS->footprintBytes());
}

//===----------------------------------------------------------------------===//
// Per-dataset parameterized invariants
//===----------------------------------------------------------------------===//

class DatasetInvariants : public ::testing::TestWithParam<const char *> {};

TEST_P(DatasetInvariants, TableOneShapeSane) {
  const DatasetSpec &Spec = *findDataset(GetParam());
  std::vector<std::string> Rules = generateRuleset(Spec);
  EXPECT_EQ(Rules.size(), Spec.NumRes);

  CompileOptions Options;
  Options.MergingFactor = 1;
  Options.EmitAnml = false;
  Result<CompileArtifacts> Artifacts = compileRuleset(Rules, Options);
  ASSERT_TRUE(Artifacts.ok());

  uint64_t States = 0, Transitions = 0;
  for (const Nfa &A : Artifacts->OptimizedFsas) {
    EXPECT_FALSE(A.hasEpsilons());
    EXPECT_GT(A.numStates(), 1u);
    States += A.numStates();
    Transitions += A.numTransitions();
  }
  double AvgStates = static_cast<double>(States) / Spec.NumRes;
  // Calibration guard: average FSA size within 2x of the paper's Table I
  // figure for the dataset family (9-45 states per FSA).
  EXPECT_GT(AvgStates, 5.0) << GetParam();
  EXPECT_LT(AvgStates, 90.0) << GetParam();
  EXPECT_GT(Transitions, 0u);
}

TEST_P(DatasetInvariants, CompressionMonotoneInM) {
  const DatasetSpec &Spec = *findDataset(GetParam());
  std::vector<std::string> Rules = generateRuleset(Spec);
  CompileOptions Options;
  Options.MergingFactor = 1;
  Options.EmitAnml = false;
  Result<CompileArtifacts> Artifacts = compileRuleset(Rules, Options);
  ASSERT_TRUE(Artifacts.ok());

  uint64_t Prev = UINT64_MAX;
  for (uint32_t M : {1u, 10u, 100u, 0u}) {
    uint64_t States =
        computeSetStats(mergeInGroups(Artifacts->OptimizedFsas, M))
            .TotalStates;
    EXPECT_LE(States, Prev) << GetParam() << " M=" << M;
    Prev = States;
  }
}

TEST_P(DatasetInvariants, SimilarityInPlausibleBand) {
  const DatasetSpec &Spec = *findDataset(GetParam());
  std::vector<std::string> Rules = generateRuleset(Spec);
  double Similarity = averagePairSimilarity(Rules, 20000, Spec.Seed);
  // Fig. 1 band: non-trivial but far from identical rules.
  EXPECT_GT(Similarity, 0.05) << GetParam();
  EXPECT_LT(Similarity, 0.75) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Datasets, DatasetInvariants,
                         ::testing::Values("BRO", "DS9", "PEN", "PRO", "RG1",
                                           "TCP"));

//===----------------------------------------------------------------------===//
// Rule-count word boundaries (the engine's SingleWord fast-path dispatch)
//===----------------------------------------------------------------------===//

namespace {

/// N distinct two-letter rules: "aa", "ab", ..., wrapping through a 5-letter
/// alphabet so many rules share prefixes (plenty of merging).
std::vector<std::string> boundaryRules(unsigned Count) {
  std::vector<std::string> Rules;
  static const char Alphabet[] = "abcde";
  for (unsigned I = 0; I < Count; ++I) {
    std::string Rule;
    Rule.push_back(Alphabet[I % 5]);
    Rule.push_back(Alphabet[(I / 5) % 5]);
    Rule.push_back(Alphabet[(I / 25) % 5]);
    Rules.push_back(Rule);
  }
  return Rules;
}

} // namespace

class WordBoundary : public ::testing::TestWithParam<unsigned> {};

TEST_P(WordBoundary, EngineMatchesOracleAtRuleCount) {
  const unsigned Count = GetParam();
  std::vector<std::string> Rules = boundaryRules(Count);
  std::vector<Nfa> Fsas;
  std::vector<uint32_t> Ids;
  for (unsigned I = 0; I < Count; ++I) {
    Fsas.push_back(compileOptimized(Rules[I]));
    Ids.push_back(I);
  }
  Mfsa Z = mergeFsas(Fsas, Ids);
  ASSERT_EQ(Z.numRules(), Count);
  ImfantEngine Engine(Z);

  Rng Random(5000 + Count);
  for (int Trial = 0; Trial < 5; ++Trial) {
    std::string Input = randomInput(Random, 30);
    MatchRecorder Recorder(MatchRecorder::Mode::Collect);
    Engine.run(Input, Recorder);
    std::map<uint32_t, std::set<size_t>> Got;
    for (const auto &[Rule, End] : Recorder.matches())
      Got[Rule].insert(static_cast<size_t>(End));

    std::map<uint32_t, std::set<size_t>> Expected;
    for (unsigned I = 0; I < Count; ++I) {
      // Exact-string rules: compute ends directly.
      std::set<size_t> Ends;
      for (size_t Pos = 0; Pos + Rules[I].size() <= Input.size(); ++Pos)
        if (Input.compare(Pos, Rules[I].size(), Rules[I]) == 0)
          Ends.insert(Pos + Rules[I].size());
      if (!Ends.empty())
        Expected[I] = Ends;
    }
    EXPECT_EQ(Got, Expected) << Count << " rules, input " << Input;
  }
}

// 63/64 exercise the last single-word ids, 65 the first two-word MFSA,
// 128/129 the second boundary.
INSTANTIATE_TEST_SUITE_P(Boundaries, WordBoundary,
                         ::testing::Values(1u, 63u, 64u, 65u, 127u, 128u,
                                           129u));
