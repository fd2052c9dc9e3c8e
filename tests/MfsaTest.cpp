//===- MfsaTest.cpp - unit + property tests for MFSA merging -----------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "mfsa/Merge.h"
#include "mfsa/Mfsa.h"

#include "anml/Anml.h"
#include "fsa/Passes.h"
#include "fsa/Reference.h"
#include "regex/Parser.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

using namespace mfsa;
using namespace mfsa::test;

namespace {

/// Compiles patterns to optimized FSAs and merges them with sequential ids.
Mfsa mergePatterns(const std::vector<std::string> &Patterns,
                   const MergeOptions &Options = {},
                   MergeReport *Report = nullptr) {
  std::vector<Nfa> Fsas;
  std::vector<uint32_t> Ids;
  for (size_t I = 0; I < Patterns.size(); ++I) {
    Fsas.push_back(compileOptimized(Patterns[I]));
    Ids.push_back(static_cast<uint32_t>(I));
  }
  return mergeFsas(Fsas, Ids, Options, Report);
}

/// Requires the one-pass extractAllRules() to equal extractRule() for every
/// rule of \p Z.
void expectAllRulesExtractAlike(const Mfsa &Z) {
  const std::vector<Nfa> All = Z.extractAllRules();
  ASSERT_EQ(All.size(), Z.numRules());
  for (RuleId R = 0; R < Z.numRules(); ++R)
    EXPECT_TRUE(All[R] == Z.extractRule(R)) << "rule " << R;
}

uint64_t sumStates(const std::vector<Nfa> &Fsas) {
  uint64_t Total = 0;
  for (const Nfa &A : Fsas)
    Total += A.numStates();
  return Total;
}

} // namespace

//===----------------------------------------------------------------------===//
// Mfsa model
//===----------------------------------------------------------------------===//

TEST(Mfsa, VerifyCatchesCorruption) {
  Mfsa Z(1);
  StateId S0 = Z.addState();
  StateId S1 = Z.addState();
  Z.rule(0).Initial = S0;
  Z.rule(0).Finals.push_back(S1);
  Z.addTransition(S0, S1, SymbolSet::singleton('a'), Z.makeBel(0));
  EXPECT_EQ(Z.verify(), "");

  // Duplicate parallel arc.
  Z.addTransition(S0, S1, SymbolSet::singleton('a'), Z.makeBel(0));
  EXPECT_NE(Z.verify(), "");
}

TEST(Mfsa, ExtractRuleNumbersStatesInFirstTouchOrder) {
  // Two rules over five states. Projection numbers the initial state first,
  // then walks the rule's transitions in order and numbers each unseen
  // target before its source; rule 0's final 3 is numbered by the first arc.
  Mfsa Z(2);
  for (int I = 0; I < 6; ++I)
    Z.addState();
  Z.rule(0).Initial = 0;
  Z.rule(0).Finals = {3, 5};
  Z.rule(0).AnchoredStart = true;
  Z.rule(1).Initial = 0;
  Z.rule(1).Finals = {4};
  Z.rule(1).AnchoredEnd = true;
  DynamicBitset Both = Z.makeBel(0);
  Both.set(1);
  Z.addTransition(2, 3, SymbolSet::singleton('c'), Z.makeBel(0));
  Z.addTransition(0, 1, SymbolSet::singleton('a'), Both);
  Z.addTransition(1, 2, SymbolSet::singleton('b'), Z.makeBel(0));
  Z.addTransition(1, 4, SymbolSet::singleton('d'), Z.makeBel(1));
  Z.addTransition(4, 4, SymbolSet::singleton('e'), Z.makeBel(1));
  ASSERT_EQ(Z.verify(), "");

  const Nfa R0 = Z.extractRule(0);
  EXPECT_EQ(R0.numStates(), 4u);
  EXPECT_EQ(R0.initial(), 0u);
  EXPECT_EQ(R0.finals(), (std::vector<StateId>{1}));
  EXPECT_TRUE(R0.anchoredStart());
  EXPECT_FALSE(R0.anchoredEnd());
  EXPECT_EQ(R0.transitions(),
            (std::vector<Transition>{{0, 3, SymbolSet::singleton('a')},
                                     {2, 1, SymbolSet::singleton('c')},
                                     {3, 2, SymbolSet::singleton('b')}}));

  const Nfa R1 = Z.extractRule(1);
  EXPECT_EQ(R1.numStates(), 3u);
  EXPECT_EQ(R1.initial(), 0u);
  EXPECT_EQ(R1.finals(), (std::vector<StateId>{2}));
  EXPECT_FALSE(R1.anchoredStart());
  EXPECT_TRUE(R1.anchoredEnd());
  EXPECT_EQ(R1.transitions(),
            (std::vector<Transition>{{0, 1, SymbolSet::singleton('a')},
                                     {1, 2, SymbolSet::singleton('d')},
                                     {2, 2, SymbolSet::singleton('e')}}));
}

TEST(Mfsa, CompressionPercentFormula) {
  EXPECT_DOUBLE_EQ(compressionPercent(100, 25), 75.0);
  EXPECT_DOUBLE_EQ(compressionPercent(100, 100), 0.0);
  EXPECT_DOUBLE_EQ(compressionPercent(0, 0), 0.0);
}

//===----------------------------------------------------------------------===//
// Merge outcomes of §III-A
//===----------------------------------------------------------------------===//

TEST(Merge, SingleAutomatonIsCopiedAsIs) {
  Nfa A = compileOptimized("ab[cd]");
  Mfsa Z = mergeFsas({A}, {7});
  EXPECT_EQ(Z.numStates(), A.numStates());
  EXPECT_EQ(Z.numTransitions(), A.numTransitions());
  EXPECT_EQ(Z.rule(0).GlobalId, 7u);
  EXPECT_EQ(Z.verify(), "");
  // Extracting rule 0 gives back the same language.
  Nfa Back = Z.extractRule(0);
  Rng Random(3);
  for (int I = 0; I < 10; ++I) {
    std::string Input = randomInput(Random, 12);
    EXPECT_EQ(simulateNfa(A, Input), simulateNfa(Back, Input));
  }
}

TEST(Merge, DisjointLanguagesNoSharedLabels) {
  // Outcome (a): nothing to merge; the MFSA is the disjoint union.
  Nfa A = compileOptimized("aa");
  Nfa B = compileOptimized("bb");
  Mfsa Z = mergeFsas({A, B}, {0, 1});
  EXPECT_EQ(Z.numStates(), A.numStates() + B.numStates());
  EXPECT_EQ(Z.numTransitions(), A.numTransitions() + B.numTransitions());
  EXPECT_EQ(Z.verify(), "");
}

TEST(Merge, IdenticalAutomataFullyOverlap) {
  // Outcome (c): merging an FSA with an identical one adds nothing.
  Nfa A = compileOptimized("ab(c|d)e");
  Nfa B = compileOptimized("ab(c|d)e");
  MergeReport Report;
  Mfsa Z = mergeFsas({A, B}, {0, 1}, MergeOptions(), &Report);
  EXPECT_EQ(Z.numStates(), A.numStates());
  EXPECT_EQ(Z.numTransitions(), A.numTransitions());
  EXPECT_EQ(Report.TransitionsShared, A.numTransitions());
  // Every transition belongs to both rules.
  for (const MfsaTransition &T : Z.transitions()) {
    EXPECT_TRUE(T.Bel.test(0));
    EXPECT_TRUE(T.Bel.test(1));
  }
  EXPECT_EQ(Z.verify(), "");
}

TEST(Merge, SharedPrefixIsMergedOnce) {
  // Outcome (b): common prefix "http" shared, tails distinct.
  Nfa A = compileOptimized("httpx");
  Nfa B = compileOptimized("httpy");
  Mfsa Z = mergeFsas({A, B}, {0, 1});
  // 6 + 6 separate states; prefix path (5 states) shared once.
  EXPECT_EQ(Z.verify(), "");
  EXPECT_LT(Z.numStates(), A.numStates() + B.numStates());
  EXPECT_EQ(Z.numStates(), 7u);
  EXPECT_EQ(Z.numTransitions(), 6u);
}

TEST(Merge, DisabledSearchCopiesDisjointly) {
  Nfa A = compileOptimized("httpx");
  Nfa B = compileOptimized("httpy");
  MergeOptions NoSearch;
  NoSearch.EnableSubpathSearch = false;
  Mfsa Z = mergeFsas({A, B}, {0, 1}, NoSearch);
  EXPECT_EQ(Z.numStates(), A.numStates() + B.numStates());
  EXPECT_EQ(Z.verify(), "");
}

TEST(Merge, CharClassMergeRequiresExactEquality) {
  // [ab] and [ab] merge; [ab] and [abc] must not (§III-A set Y).
  Mfsa Same = mergePatterns({"[ab]x", "[ab]y"});
  EXPECT_EQ(Same.numStates(), 4u); // shared [ab] arc + two tails

  Mfsa Different = mergePatterns({"[ab]x", "[abc]y"});
  EXPECT_EQ(Different.numStates(), 6u); // nothing shared
}

TEST(Merge, CharClassSharingCanBeDisabled) {
  MergeOptions NoCc;
  NoCc.MergeCharClasses = false;
  Mfsa Z = mergePatterns({"[ab]x", "[ab]y"}, NoCc);
  EXPECT_EQ(Z.numStates(), 6u); // classes never seed merges
}

TEST(Merge, Figure5bNoSpuriousLanguage) {
  // Paper Fig. 5b: a1 = (k|h)bc, a2 = kfd. After multiplicity folding the
  // first transition of a1 is [kh] != k, so the merge must not conflate
  // them, and the MFSA must not accept hfd for either rule.
  std::vector<std::string> Patterns = {"(k|h)bc", "kfd"};
  Mfsa Z = mergePatterns(Patterns);
  EXPECT_EQ(Z.verify(), "");
  for (RuleId Rule = 0; Rule < 2; ++Rule) {
    Nfa Sub = Z.extractRule(Rule);
    EXPECT_TRUE(simulateNfa(Sub, "hfd").empty())
        << "rule " << Rule << " wrongly accepts hfd";
  }
  // Sanity: the real languages still match.
  EXPECT_EQ(simulateNfa(Z.extractRule(0), "kbc"), (std::set<size_t>{3}));
  EXPECT_EQ(simulateNfa(Z.extractRule(0), "hbc"), (std::set<size_t>{3}));
  EXPECT_EQ(simulateNfa(Z.extractRule(1), "kfd"), (std::set<size_t>{3}));
}

TEST(Merge, Figure2WorkedExample) {
  // Paper Fig. 2: a1 = a[gj](lm|cd), a2 = kja[gj]cd. The shared sub-paths
  // (a[gj] prefix-of-a1 inside a2, and the cd tail) must compress the union.
  std::vector<Nfa> Fsas = {compileOptimized("a[gj](lm|cd)"),
                           compileOptimized("kja[gj]cd")};
  Mfsa Z = mergeFsas(Fsas, {0, 1});
  EXPECT_EQ(Z.verify(), "");
  EXPECT_LT(Z.numStates(), Fsas[0].numStates() + Fsas[1].numStates());
  // Some transition must belong to both rules (the merged a[gj] or cd path).
  bool SharedArc = false;
  for (const MfsaTransition &T : Z.transitions())
    if (T.Bel.test(0) && T.Bel.test(1))
      SharedArc = true;
  EXPECT_TRUE(SharedArc);
}

//===----------------------------------------------------------------------===//
// extractRule isomorphism / language preservation
//===----------------------------------------------------------------------===//

TEST(Merge, ExtractRulePreservesStructureCounts) {
  std::vector<Nfa> Fsas = {compileOptimized("abcde"), compileOptimized("abd"),
                           compileOptimized("abc[de]")};
  Mfsa Z = mergeFsas(Fsas, {0, 1, 2});
  for (RuleId Rule = 0; Rule < 3; ++Rule) {
    Nfa Sub = Z.extractRule(Rule);
    EXPECT_EQ(Sub.numStates(), Fsas[Rule].numStates()) << "rule " << Rule;
    EXPECT_EQ(Sub.numTransitions(), Fsas[Rule].numTransitions())
        << "rule " << Rule;
  }
}

TEST(Merge, AnchorsSurviveMerging) {
  std::vector<Nfa> Fsas = {compileOptimized("^abc"), compileOptimized("abc$"),
                           compileOptimized("abc")};
  Mfsa Z = mergeFsas(Fsas, {0, 1, 2});
  EXPECT_TRUE(Z.rule(0).AnchoredStart);
  EXPECT_FALSE(Z.rule(0).AnchoredEnd);
  EXPECT_TRUE(Z.rule(1).AnchoredEnd);
  EXPECT_FALSE(Z.rule(2).AnchoredStart);
  // extractRule re-attaches the anchors.
  EXPECT_EQ(simulateNfa(Z.extractRule(0), "xabc"), (std::set<size_t>{}));
  EXPECT_EQ(simulateNfa(Z.extractRule(2), "xabc"), (std::set<size_t>{4}));
}

TEST(ExtractAllRules, RuleWithoutTransitionsKeepsItsInitialState) {
  // Rule 1 accepts only the empty word: no transition carries its bit.
  Mfsa Z(3);
  for (int I = 0; I < 4; ++I)
    Z.addState();
  Z.rule(0).Initial = 0;
  Z.rule(0).Finals = {1};
  Z.rule(1).Initial = 2;
  Z.rule(1).Finals = {2};
  Z.rule(2).Initial = 0;
  Z.rule(2).Finals = {3};
  DynamicBitset Both = Z.makeBel(0);
  Both.set(2);
  Z.addTransition(0, 1, SymbolSet::singleton('a'), Both);
  Z.addTransition(1, 3, SymbolSet::singleton('b'), Z.makeBel(2));
  ASSERT_EQ(Z.verify(), "");
  expectAllRulesExtractAlike(Z);
  const Nfa Empty = Z.extractAllRules()[1];
  EXPECT_EQ(Empty.numStates(), 1u);
  EXPECT_EQ(Empty.numTransitions(), 0u);
  EXPECT_EQ(Empty.finals(), (std::vector<StateId>{0}));
}

TEST(ExtractAllRules, RulesSharingEveryArc) {
  Mfsa Z = mergePatterns({"ab[cd]e*", "ab[cd]e*", "ab[cd]e*"});
  for (const MfsaTransition &T : Z.transitions())
    EXPECT_EQ(T.Bel.count(), 3u);
  expectAllRulesExtractAlike(Z);
  const std::vector<Nfa> All = Z.extractAllRules();
  EXPECT_TRUE(All[1] == All[0]);
  EXPECT_TRUE(All[2] == All[0]);
}

TEST(ExtractAllRules, GroupsWiderThanOneWord) {
  // 64, 65 and 130 rules: belonging sets of one, two and three words.
  Rng Random(2024);
  std::vector<std::string> Patterns;
  for (int I = 0; I < 130; ++I)
    Patterns.push_back(I % 3 ? randomPattern(Random) : "ab" + randomPattern(Random));
  for (size_t Count : {64u, 65u, 130u}) {
    Mfsa Z = mergePatterns(std::vector<std::string>(
        Patterns.begin(), Patterns.begin() + static_cast<ptrdiff_t>(Count)));
    ASSERT_EQ(Z.verify(), "");
    expectAllRulesExtractAlike(Z);
  }
}

TEST(MergeBudgetTest, StateOverrunNamesTheFirstRuleOverTheCap) {
  // Merging only adds, so the MFSA after rule k is the merge of the first
  // k + 1 automata: the offender is the first prefix over the cap.
  Rng Random(99);
  std::vector<Nfa> Fsas;
  std::vector<uint32_t> Ids;
  for (uint32_t I = 0; I < 12; ++I) {
    Fsas.push_back(compileOptimized(I % 2 ? "abc" + randomPattern(Random)
                                          : randomPattern(Random)));
    Ids.push_back(100 + I);
  }
  std::vector<uint32_t> PrefixStates, PrefixTransitions;
  for (size_t K = 1; K <= Fsas.size(); ++K) {
    const Mfsa Z = mergeFsas(
        std::vector<Nfa>(Fsas.begin(), Fsas.begin() + static_cast<ptrdiff_t>(K)),
        std::vector<uint32_t>(Ids.begin(), Ids.begin() + static_cast<ptrdiff_t>(K)));
    PrefixStates.push_back(Z.numStates());
    PrefixTransitions.push_back(Z.numTransitions());
  }
  auto FirstOver = [](const std::vector<uint32_t> &Sizes, uint32_t Cap) {
    return static_cast<size_t>(
        std::find_if(Sizes.begin(), Sizes.end(),
                     [&](uint32_t V) { return V > Cap; }) -
        Sizes.begin());
  };

  MergeBudget States;
  States.MaxStates = PrefixStates[5];
  Result<Mfsa> Over =
      mergeFsasWithBudget(borrowAll(Fsas), Ids, {}, States);
  ASSERT_FALSE(Over.ok());
  EXPECT_EQ(Over.diag().Offset, FirstOver(PrefixStates, PrefixStates[5]));
  EXPECT_GT(Over.diag().Offset, 5u);

  MergeBudget Transitions;
  Transitions.MaxTransitions = PrefixTransitions[3];
  Over = mergeFsasWithBudget(borrowAll(Fsas), Ids, {}, Transitions);
  ASSERT_FALSE(Over.ok());
  EXPECT_EQ(Over.diag().Offset,
            FirstOver(PrefixTransitions, PrefixTransitions[3]));

  // A cap the whole merge fits under is no overrun.
  States.MaxStates = PrefixStates.back();
  EXPECT_TRUE(mergeFsasWithBudget(borrowAll(Fsas), Ids, {}, States).ok());
}

//===----------------------------------------------------------------------===//
// Grouped merging (the paper's K = ceil(N/M) partitioning)
//===----------------------------------------------------------------------===//

TEST(MergeGroups, GroupCountAndMembership) {
  std::vector<Nfa> Fsas;
  for (int I = 0; I < 7; ++I)
    Fsas.push_back(compileOptimized("abc"));
  std::vector<Mfsa> Groups = mergeInGroups(Fsas, 3);
  ASSERT_EQ(Groups.size(), 3u); // 3 + 3 + 1
  EXPECT_EQ(Groups[0].numRules(), 3u);
  EXPECT_EQ(Groups[1].numRules(), 3u);
  EXPECT_EQ(Groups[2].numRules(), 1u);
  // Global ids are assigned sequentially across groups.
  EXPECT_EQ(Groups[1].rule(0).GlobalId, 3u);
  EXPECT_EQ(Groups[2].rule(0).GlobalId, 6u);
}

TEST(MergeGroups, FactorZeroMeansAll) {
  std::vector<Nfa> Fsas = {compileOptimized("ab"), compileOptimized("cd"),
                           compileOptimized("ef")};
  std::vector<Mfsa> Groups = mergeInGroups(Fsas, 0);
  ASSERT_EQ(Groups.size(), 1u);
  EXPECT_EQ(Groups[0].numRules(), 3u);
}

TEST(MergeGroups, ExplicitGlobalIdsArePreserved) {
  std::vector<Nfa> Fsas;
  for (const char *P : {"ab", "cd", "ef", "gh", "ij"})
    Fsas.push_back(compileOptimized(P));
  const std::vector<uint32_t> GlobalIds = {40, 7, 12, 3, 99};
  std::vector<Mfsa> Groups = mergeInGroups(Fsas, GlobalIds, 2);
  ASSERT_EQ(Groups.size(), 3u); // 2 + 2 + 1
  std::vector<uint32_t> Seen;
  for (const Mfsa &Z : Groups)
    for (RuleId R = 0; R < Z.numRules(); ++R)
      Seen.push_back(Z.rule(R).GlobalId);
  EXPECT_EQ(Seen, GlobalIds);

  // With the ids 0..N-1 the overload builds what the index version builds.
  for (uint32_t M : {0u, 1u, 2u, 5u, 9u}) {
    std::vector<Mfsa> ByIndex = mergeInGroups(Fsas, M);
    std::vector<Mfsa> ById = mergeInGroups(Fsas, {0, 1, 2, 3, 4}, M);
    ASSERT_EQ(ById.size(), ByIndex.size()) << "M=" << M;
    for (size_t G = 0; G < ById.size(); ++G)
      EXPECT_EQ(writeAnml(ById[G], "z"), writeAnml(ByIndex[G], "z"))
          << "M=" << M << " group " << G;
  }
}

TEST(MergeGroups, LargerMNeverIncreasesTotalStates) {
  // Monotone compression sanity on a synthetic similar family.
  std::vector<std::string> Patterns;
  for (int I = 0; I < 12; ++I)
    Patterns.push_back("getuser" + std::string(1, static_cast<char>('a' + I)) +
                       "[0-9]");
  std::vector<Nfa> Fsas;
  for (const std::string &P : Patterns)
    Fsas.push_back(compileOptimized(P));
  uint64_t Baseline = sumStates(Fsas);
  uint64_t PrevStates = Baseline;
  for (uint32_t M : {2u, 4u, 6u, 12u}) {
    std::vector<Mfsa> Groups = mergeInGroups(Fsas, M);
    MfsaSetStats Stats = computeSetStats(Groups);
    EXPECT_LE(Stats.TotalStates, PrevStates) << "M=" << M;
    PrevStates = Stats.TotalStates;
  }
  EXPECT_LT(PrevStates, Baseline / 2); // strong sharing in this family
}

//===----------------------------------------------------------------------===//
// Property test: per-rule language preserved for random rulesets
//===----------------------------------------------------------------------===//

class MergePreservesLanguages : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MergePreservesLanguages, RandomRulesets) {
  Rng Random(GetParam());
  // Draw a small ruleset of random patterns, some duplicated to force
  // overlap.
  std::vector<std::string> Patterns;
  unsigned Count = 3 + Random.nextBelow(4);
  for (unsigned I = 0; I < Count; ++I)
    Patterns.push_back(randomPattern(Random));
  if (Count > 2)
    Patterns.push_back(Patterns[0] + Patterns[1]);

  std::vector<Nfa> Fsas;
  std::vector<uint32_t> Ids;
  std::vector<Regex> Regexes;
  for (size_t I = 0; I < Patterns.size(); ++I) {
    Result<Regex> Re = parseRegex(Patterns[I]);
    ASSERT_TRUE(Re.ok()) << Patterns[I];
    Regexes.push_back(Re.take());
    Fsas.push_back(compileOptimized(Patterns[I]));
    Ids.push_back(static_cast<uint32_t>(I));
  }
  Mfsa Z = mergeFsas(Fsas, Ids);
  ASSERT_EQ(Z.verify(), "");
  expectAllRulesExtractAlike(Z);

  for (size_t Rule = 0; Rule < Patterns.size(); ++Rule) {
    Nfa Sub = Z.extractRule(static_cast<RuleId>(Rule));
    for (int Trial = 0; Trial < 5; ++Trial) {
      std::string Input = randomInput(Random, 14);
      EXPECT_EQ(astMatchEnds(Regexes[Rule], Input), simulateNfa(Sub, Input))
          << "rule " << Patterns[Rule] << " on " << Input;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergePreservesLanguages,
                         ::testing::Values(7, 11, 19, 23, 31, 41, 59, 71, 83,
                                           97));
