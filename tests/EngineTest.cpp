//===- EngineTest.cpp - unit + property tests for iMFAnt ---------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "engine/Imfant.h"
#include "engine/Parallel.h"

#include "fsa/Passes.h"
#include "fsa/Reference.h"
#include "mfsa/Merge.h"
#include "regex/Parser.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>

using namespace mfsa;
using namespace mfsa::test;

namespace {

/// Compiles + merges patterns and returns the engine-ready MFSA.
Mfsa mergePatterns(const std::vector<std::string> &Patterns) {
  std::vector<Nfa> Fsas;
  std::vector<uint32_t> Ids;
  for (size_t I = 0; I < Patterns.size(); ++I) {
    Fsas.push_back(compileOptimized(Patterns[I]));
    Ids.push_back(static_cast<uint32_t>(I));
  }
  return mergeFsas(Fsas, Ids);
}

/// Runs the engine and returns per-global-rule match-end sets.
std::map<uint32_t, std::set<size_t>> engineEnds(const Mfsa &Z,
                                                const std::string &Input) {
  ImfantEngine Engine(Z);
  MatchRecorder Recorder(MatchRecorder::Mode::Collect);
  Engine.run(Input, Recorder);
  std::map<uint32_t, std::set<size_t>> Ends;
  for (const auto &[Rule, End] : Recorder.matches())
    Ends[Rule].insert(static_cast<size_t>(End));
  return Ends;
}

/// Oracle ends per rule, from the original patterns.
std::map<uint32_t, std::set<size_t>>
oracleEnds(const std::vector<std::string> &Patterns,
           const std::string &Input) {
  std::map<uint32_t, std::set<size_t>> Ends;
  for (size_t I = 0; I < Patterns.size(); ++I) {
    Result<Regex> Re = parseRegex(Patterns[I]);
    EXPECT_TRUE(Re.ok()) << Patterns[I];
    std::set<size_t> E = astMatchEnds(*Re, Input);
    if (!E.empty())
      Ends[static_cast<uint32_t>(I)] = E;
  }
  return Ends;
}

} // namespace

//===----------------------------------------------------------------------===//
// Single-rule engine == iNFAnt baseline
//===----------------------------------------------------------------------===//

TEST(Imfant, SingleRuleBasicMatch) {
  Mfsa Z = mergePatterns({"abc"});
  EXPECT_EQ(engineEnds(Z, "zabcabc"),
            (std::map<uint32_t, std::set<size_t>>{{0, {4, 7}}}));
  EXPECT_TRUE(engineEnds(Z, "zzzz").empty());
  EXPECT_TRUE(engineEnds(Z, "").empty());
}

TEST(Imfant, OverlappingSelfMatches) {
  Mfsa Z = mergePatterns({"aa"});
  // "aaaa": matches end at 2, 3, 4 (dedup of simultaneous paths).
  EXPECT_EQ(engineEnds(Z, "aaaa"),
            (std::map<uint32_t, std::set<size_t>>{{0, {2, 3, 4}}}));
  ImfantEngine Engine(Z);
  MatchRecorder Recorder;
  Engine.run("aaaa", Recorder);
  EXPECT_EQ(Recorder.total(), 3u); // not double-counted
}

TEST(Imfant, ClassesAndRepeats) {
  Mfsa Z = mergePatterns({"[0-9]{2,3}x"});
  EXPECT_EQ(engineEnds(Z, "a12x34xb"),
            (std::map<uint32_t, std::set<size_t>>{{0, {4, 7}}}));
  EXPECT_EQ(engineEnds(Z, "123x"),
            (std::map<uint32_t, std::set<size_t>>{{0, {4}}}));
  EXPECT_TRUE(engineEnds(Z, "1x").empty());
}

TEST(Imfant, AnchoredRules) {
  Mfsa Z = mergePatterns({"^ab", "ab$", "ab"});
  auto Ends = engineEnds(Z, "abxab");
  EXPECT_EQ(Ends[0], (std::set<size_t>{2}));    // ^ab only at offset 0
  EXPECT_EQ(Ends[1], (std::set<size_t>{5}));    // ab$ only at stream end
  EXPECT_EQ(Ends[2], (std::set<size_t>{2, 5})); // unanchored both
}

//===----------------------------------------------------------------------===//
// Paper worked examples
//===----------------------------------------------------------------------===//

TEST(Imfant, Figure3ActivationTrace) {
  // a1 = bcdegh, a2 = def (Fig. 3).
  Mfsa Z = mergePatterns({"bcdegh", "def"});
  // s1 = degh: a2 activates on d,e then dies on g; no matches at all.
  EXPECT_TRUE(engineEnds(Z, "degh").empty());
  // s2 = bcdef: a2 matches def (end 5); a1 dies at f.
  EXPECT_EQ(engineEnds(Z, "bcdef"),
            (std::map<uint32_t, std::set<size_t>>{{1, {5}}}));
  // Full a1 match for completeness.
  EXPECT_EQ(engineEnds(Z, "bcdegh"),
            (std::map<uint32_t, std::set<size_t>>{{0, {6}}}));
}

TEST(Imfant, Figure6MatchingProcedure) {
  // a1 = (ad|cb)ab, a2 = a(b|c); input acbab yields ac and ab for a2 and
  // cbab for a1 — three matches (§V).
  Mfsa Z = mergePatterns({"(ad|cb)ab", "a(b|c)"});
  auto Ends = engineEnds(Z, "acbab");
  EXPECT_EQ(Ends[0], (std::set<size_t>{5}));    // cbab
  EXPECT_EQ(Ends[1], (std::set<size_t>{2, 5})); // ac, ab
  ImfantEngine Engine(Z);
  MatchRecorder Recorder;
  Engine.run("acbab", Recorder);
  EXPECT_EQ(Recorder.total(), 3u);
}

TEST(Imfant, NoFalsePositivesAcrossMergedRules) {
  // The Fig. 2 hazard: merged z1,2 must NOT accept kjaglm (a path mixing
  // a2's prefix with a1's suffix) for either rule.
  std::vector<std::string> Patterns = {"a[gj](lm|cd)", "kja[gj]cd"};
  Mfsa Z = mergePatterns(Patterns);
  auto Ends = engineEnds(Z, "kjaglm");
  // Oracle: a1 = a[gj](lm|cd) matches "aglm" (ends at 6) inside the input!
  // So rule 0 legitimately matches; rule 1 must not.
  auto Expected = oracleEnds(Patterns, "kjaglm");
  EXPECT_EQ(Ends, Expected);
  EXPECT_EQ(Ends.count(1), 0u);
}

//===----------------------------------------------------------------------===//
// Equivalence with per-rule oracles (the core correctness property)
//===----------------------------------------------------------------------===//

TEST(Imfant, MergedEqualsPerRuleOracleOnPlantedInput) {
  std::vector<std::string> Patterns = {"user=admin", "user=root",
                                       "user=[a-z]+x", "pass(wd)?=",
                                       "user=admin"}; // duplicate rule
  Mfsa Z = mergePatterns(Patterns);
  std::string Input = "zzuser=adminzzpass=zzuser=aaaxpasswd=user=rootz";
  EXPECT_EQ(engineEnds(Z, Input), oracleEnds(Patterns, Input));
}

class ImfantAgainstOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ImfantAgainstOracle, RandomRulesetsRandomInputs) {
  Rng Random(GetParam());
  std::vector<std::string> Patterns;
  unsigned Count = 2 + Random.nextBelow(5);
  for (unsigned I = 0; I < Count; ++I)
    Patterns.push_back(randomPattern(Random));
  Mfsa Z = mergePatterns(Patterns);
  ASSERT_EQ(Z.verify(), "");
  ImfantEngine Engine(Z);
  for (int Trial = 0; Trial < 8; ++Trial) {
    std::string Input = randomInput(Random, 20);
    EXPECT_EQ(engineEnds(Z, Input), oracleEnds(Patterns, Input))
        << "input " << Input;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImfantAgainstOracle,
                         ::testing::Values(101, 103, 107, 109, 113, 127, 131,
                                           137, 139, 149, 151, 157));

TEST(Imfant, MergingFactorInvariance) {
  // The same ruleset merged at M = 1, 2, 3, all must report identical
  // matches.
  std::vector<std::string> Patterns = {"ab+c", "abc", "a[bc]{2}",
                                       "c(a|b)c",  "bca"};
  std::vector<Nfa> Fsas;
  for (const std::string &P : Patterns)
    Fsas.push_back(compileOptimized(P));

  Rng Random(777);
  for (int Trial = 0; Trial < 5; ++Trial) {
    std::string Input = randomInput(Random, 40);
    std::map<uint32_t, std::set<size_t>> Reference =
        oracleEnds(Patterns, Input);
    for (uint32_t M : {1u, 2u, 3u, 0u}) {
      std::vector<Mfsa> Groups = mergeInGroups(Fsas, M);
      std::map<uint32_t, std::set<size_t>> Combined;
      for (const Mfsa &Z : Groups)
        for (auto &[Rule, Ends] : engineEnds(Z, Input))
          Combined[Rule].insert(Ends.begin(), Ends.end());
      EXPECT_EQ(Combined, Reference) << "M=" << M << " input " << Input;
    }
  }
}

//===----------------------------------------------------------------------===//
// Run statistics (Table II)
//===----------------------------------------------------------------------===//

TEST(Imfant, RunStatsActiveRules) {
  Mfsa Z = mergePatterns({"aaaa", "aaab"});
  ImfantEngine Engine(Z);
  MatchRecorder Recorder;
  RunStats Stats;
  Engine.run("aaaaa", Recorder, &Stats);
  EXPECT_EQ(Stats.Steps, 5u);
  // Shared prefix keeps both rules active most steps.
  EXPECT_GE(Stats.MaxActiveRules, 2u);
  EXPECT_GT(Stats.AvgActiveRules, 0.0);
  EXPECT_GT(Stats.TransitionsEvaluated, 0u);
}

TEST(Imfant, StatsDoNotChangeMatches) {
  Mfsa Z = mergePatterns({"ab", "b+"});
  MatchRecorder WithStats(MatchRecorder::Mode::Collect);
  MatchRecorder WithoutStats(MatchRecorder::Mode::Collect);
  RunStats Stats;
  ImfantEngine Engine(Z);
  Engine.run("abbb", WithStats, &Stats);
  Engine.run("abbb", WithoutStats);
  EXPECT_EQ(WithStats.matches(), WithoutStats.matches());
}

//===----------------------------------------------------------------------===//
// MatchRecorder modes
//===----------------------------------------------------------------------===//

TEST(MatchRecorder, CountOnlySkipsPairs) {
  MatchRecorder Recorder(MatchRecorder::Mode::CountOnly);
  Recorder.onMatch(3, 10);
  Recorder.onMatch(3, 11);
  Recorder.onMatch(5, 12);
  EXPECT_EQ(Recorder.total(), 3u);
  EXPECT_TRUE(Recorder.matches().empty());
  ASSERT_GE(Recorder.perRule().size(), 6u);
  EXPECT_EQ(Recorder.perRule()[3], 2u);
  EXPECT_EQ(Recorder.perRule()[5], 1u);
}

TEST(MatchRecorder, CollectHonoursCap) {
  MatchRecorder Recorder(MatchRecorder::Mode::Collect);
  Recorder.Cap = 2;
  Recorder.onMatch(0, 1);
  Recorder.onMatch(0, 2);
  Recorder.onMatch(0, 3);
  EXPECT_EQ(Recorder.total(), 3u);
  EXPECT_EQ(Recorder.matches().size(), 2u);
}

//===----------------------------------------------------------------------===//
// Parallel executor
//===----------------------------------------------------------------------===//

TEST(Parallel, MatchesEqualSequential) {
  std::vector<std::string> Patterns = {"abc", "bcd", "cde", "dea", "eab",
                                       "ab",  "bc",  "cd"};
  std::vector<Nfa> Fsas;
  for (const std::string &P : Patterns)
    Fsas.push_back(compileOptimized(P));
  std::vector<Mfsa> Groups = mergeInGroups(Fsas, 2);
  std::vector<ImfantEngine> Engines;
  for (const Mfsa &Z : Groups)
    Engines.emplace_back(Z);

  Rng Random(4242);
  std::string Input = randomInput(Random, 500);

  // Sequential reference.
  uint64_t SequentialTotal = 0;
  for (const ImfantEngine &Engine : Engines) {
    MatchRecorder Recorder;
    Engine.run(Input, Recorder);
    SequentialTotal += Recorder.total();
  }

  for (unsigned Threads : {1u, 2u, 4u, 9u}) {
    std::vector<MatchRecorder> Recorders(Engines.size());
    ParallelRunResult Result =
        runParallel(Engines, Input, Threads, &Recorders);
    EXPECT_EQ(Result.TotalMatches, SequentialTotal) << Threads << " threads";
    EXPECT_GT(Result.WallSeconds, 0.0);
  }
}

TEST(Parallel, MoreEnginesThanThreadsAllRun) {
  std::vector<Nfa> Fsas;
  for (int I = 0; I < 17; ++I)
    Fsas.push_back(compileOptimized("x"));
  std::vector<Mfsa> Groups = mergeInGroups(Fsas, 1);
  std::vector<ImfantEngine> Engines;
  for (const Mfsa &Z : Groups)
    Engines.emplace_back(Z);
  std::vector<MatchRecorder> Recorders(Engines.size());
  ParallelRunResult Result = runParallel(Engines, "xx", 3, &Recorders);
  EXPECT_EQ(Result.TotalMatches, 17u * 2u);
  for (const MatchRecorder &R : Recorders)
    EXPECT_EQ(R.total(), 2u);
}

TEST(Parallel, UnboundedRunReportsFullCompletion) {
  std::vector<Nfa> Fsas = {compileOptimized("ab"), compileOptimized("cd"),
                           compileOptimized("ef")};
  std::vector<Mfsa> Groups = mergeInGroups(Fsas, 1);
  std::vector<ImfantEngine> Engines;
  for (const Mfsa &Z : Groups)
    Engines.emplace_back(Z);
  std::vector<MatchRecorder> Recorders(Engines.size());
  ParallelRunResult Result = runParallel(Engines, "abcdef", 2, &Recorders);
  EXPECT_EQ(Result.TotalMatches, Engines.size());
  for (const MatchRecorder &Recorder : Recorders)
    EXPECT_EQ(Recorder.total(), 1u);
}

//===----------------------------------------------------------------------===//
// Hand-built MFSAs: propagation (Eq. 6) and injection (Eq. 4) run over
// separate index structures and match reporting (Eq. 5) runs after the step,
// so these cases put both paths on one state, one destination and one final
// byte, and check the (rule, offset) set against the per-rule NFA oracle.
//===----------------------------------------------------------------------===//

namespace {

using RuleEnds = std::map<uint32_t, std::set<size_t>>;

/// Builds an MFSA by hand. Logical rule k of a case maps to rule id
/// Ids[k]; every other id gets a filler automaton `z`, so a wide case (>= 65 rules) spreads its logical rules
/// over several bitset words.
class HandMfsa {
public:
  HandMfsa(uint32_t NumRules, std::vector<RuleId> Ids)
      : Z(NumRules), Ids(std::move(Ids)) {}

  StateId state() { return Z.addState(); }

  void edge(StateId From, StateId To, const std::string &Symbols,
            std::initializer_list<uint32_t> Logical) {
    edge(From, To, SymbolSet::of(Symbols), Logical);
  }

  void edge(StateId From, StateId To, const SymbolSet &Label,
            std::initializer_list<uint32_t> Logical) {
    DynamicBitset Bel(Z.numRules());
    for (uint32_t K : Logical)
      Bel.set(Ids[K]);
    Z.addTransition(From, To, Label, Bel);
  }

  void rule(uint32_t Logical, StateId Initial, std::vector<StateId> Finals,
            bool AnchoredStart = false, bool AnchoredEnd = false) {
    setRule(Ids[Logical], Initial, std::move(Finals), AnchoredStart,
            AnchoredEnd);
  }

  /// Adds the fillers (after the case's own states, so those keep ids
  /// 0, 1, ...) and returns the verified MFSA.
  Mfsa take() {
    for (RuleId R = 0; R < Z.numRules(); ++R) {
      if (std::find(Ids.begin(), Ids.end(), R) != Ids.end())
        continue;
      StateId From = Z.addState(), To = Z.addState();
      Z.addTransition(From, To, SymbolSet::of("z"), Z.makeBel(R));
      setRule(R, From, {To}, false, false);
    }
    EXPECT_EQ(Z.verify(), "");
    return std::move(Z);
  }

private:
  void setRule(RuleId R, StateId Initial, std::vector<StateId> Finals,
               bool AnchoredStart, bool AnchoredEnd) {
    Mfsa::RuleInfo &Info = Z.rule(R);
    Info.Initial = Initial;
    Info.Finals = std::move(Finals);
    Info.AnchoredStart = AnchoredStart;
    Info.AnchoredEnd = AnchoredEnd;
    Info.GlobalId = R;
  }

  Mfsa Z;
  std::vector<RuleId> Ids;
};

/// Rule ids for a case's logical rules: adjacent in one word, or spread
/// across words of a 70-rule MFSA.
std::vector<RuleId> caseIds(bool Wide, uint32_t Count) {
  std::vector<RuleId> Ids;
  for (uint32_t K = 0; K < Count; ++K)
    Ids.push_back(Wide ? 3 + 64 * (K % 2) + K : K);
  return Ids;
}

/// Per-rule oracle: simulateNfa over each rule's own sub-automaton
/// (extractRule restores its anchors), for a scan whose first byte sits at
/// absolute offset \p Base. Away from offset 0 a `^` rule cannot match.
RuleEnds oracleMfsaEnds(const Mfsa &Z, std::string_view Input,
                        uint64_t Base = 0) {
  RuleEnds Ends;
  for (RuleId R = 0; R < Z.numRules(); ++R) {
    if (Base > 0 && Z.rule(R).AnchoredStart)
      continue;
    for (size_t End : simulateNfa(Z.extractRule(R), Input))
      Ends[Z.rule(R).GlobalId].insert(Base + End);
  }
  return Ends;
}

/// Groups collected pairs per rule, failing on a repeated (rule, offset)
/// pair or on offsets that go backwards.
RuleEnds groupEnds(const MatchRecorder &Recorder, const std::string &Tag) {
  RuleEnds Ends;
  uint64_t Last = 0;
  for (const auto &[Rule, End] : Recorder.matches()) {
    EXPECT_GE(End, Last) << Tag << ": offsets must be nondecreasing";
    Last = End;
    EXPECT_TRUE(Ends[Rule].insert(End).second)
        << Tag << ": duplicate match (" << Rule << ", " << End << ")";
  }
  return Ends;
}

/// Streams \p Input through a Scanner started at \p Base in \p Step-byte
/// feeds.
RuleEnds scanEnds(const ImfantEngine &Engine, std::string_view Input,
                  uint64_t Base, size_t Step, const std::string &Tag) {
  ImfantEngine::Scanner Scan(Engine);
  if (Base > 0)
    Scan.startAt(Base);
  MatchRecorder Recorder(MatchRecorder::Mode::Collect);
  for (size_t Pos = 0; Pos < Input.size(); Pos += Step)
    Scan.feed(Input.substr(Pos, Step), Recorder);
  Scan.finish(Recorder);
  EXPECT_EQ(Scan.offset(), Base + Input.size()) << Tag;
  return groupEnds(Recorder, Tag);
}

/// The equivalence check every hand-built case runs: whole-input run(),
/// 1-byte feeds, and startAt(Base) feeds against the oracle.
void checkHandMfsa(const Mfsa &Z, const std::vector<std::string> &Inputs) {
  ImfantEngine Engine(Z);
  for (const std::string &Input : Inputs) {
    const std::string Tag = "rules=" + std::to_string(Z.numRules()) +
                            " input=\"" + Input + "\"";
    const RuleEnds Expected = oracleMfsaEnds(Z, Input);

    MatchRecorder Whole(MatchRecorder::Mode::Collect);
    Engine.run(Input, Whole);
    EXPECT_EQ(groupEnds(Whole, Tag), Expected) << Tag << " run()";

    EXPECT_EQ(scanEnds(Engine, Input, 0, 1, Tag), Expected)
        << Tag << " 1-byte feeds";
    for (uint64_t Base : {1u, 7u})
      EXPECT_EQ(scanEnds(Engine, Input, Base, 1, Tag),
                oracleMfsaEnds(Z, Input, Base))
          << Tag << " startAt(" << Base << ")";
  }
}

/// Rule 0 starts at state S0, which rule 1 also reaches through
/// propagation: on `xc` the `c` step both propagates rule 1 out of the
/// active state S0 and injects rule 0 from it, into the same destination.
Mfsa activeInitialCase(bool Wide) {
  HandMfsa H(Wide ? 70 : 2, caseIds(Wide, 2));
  StateId S0 = H.state(), S1 = H.state(), Fin = H.state();
  H.edge(S1, S0, "x", {1});
  H.edge(S0, Fin, "c", {0, 1});
  H.edge(S0, S0, "a", {0, 1});
  H.rule(0, S0, {Fin});
  H.rule(1, S1, {Fin});
  return H.take();
}

/// `^ab` and `ab` share their states; `^`-injection happens only when the
/// scan starts at absolute offset 0.
Mfsa anchoredStartCase(bool Wide) {
  HandMfsa H(Wide ? 70 : 2, caseIds(Wide, 2));
  StateId S0 = H.state(), S1 = H.state(), S2 = H.state();
  H.edge(S0, S1, "a", {0, 1});
  H.edge(S1, S2, "b", {0, 1});
  H.rule(0, S0, {S2}, /*AnchoredStart=*/true);
  H.rule(1, S0, {S2});
  return H.take();
}

/// `(ab)*a$` next to the unanchored `(ab)*a`: on a final `a` after `ab` the
/// final state is reached by propagation from S0 (active via `b`) and by
/// injection from S0 (the rules' initial state) in the same step.
Mfsa anchoredEndCase(bool Wide) {
  HandMfsa H(Wide ? 70 : 2, caseIds(Wide, 2));
  StateId S0 = H.state(), S1 = H.state();
  H.edge(S0, S1, "a", {0, 1});
  H.edge(S1, S0, "b", {0, 1});
  H.rule(0, S0, {S1}, false, /*AnchoredEnd=*/true);
  H.rule(1, S0, {S1});
  return H.take();
}

const std::vector<std::string> HandInputs = {
    "",       "a",        "c",     "xc",    "xac",      "ab",
    "abab",   "aba",      "ababa", "xcxc",  "zxczab",   "ba",
    "aaxaac", "abxcabab", "zzz",   "xcaba", "abaxcaca", "bab"};

} // namespace

TEST(ImfantSplit, InitialStateActiveAndInjectedInOneStep) {
  for (bool Wide : {false, true}) {
    Mfsa Z = activeInitialCase(Wide);
    checkHandMfsa(Z, HandInputs);
    // Both paths land in one destination on the `c` of `xc`: rule 0 by
    // injection, rule 1 by propagation, each reported once.
    MatchRecorder Recorder(MatchRecorder::Mode::Collect);
    ImfantEngine(Z).run("xc", Recorder);
    const std::vector<RuleId> Ids = caseIds(Wide, 2);
    EXPECT_EQ(groupEnds(Recorder, "xc"),
              (RuleEnds{{Ids[0], {2}}, {Ids[1], {2}}}));
  }
}

TEST(ImfantSplit, StartAnchorOnlyAtOffsetZero) {
  for (bool Wide : {false, true}) {
    Mfsa Z = anchoredStartCase(Wide);
    checkHandMfsa(Z, HandInputs);
    const std::vector<RuleId> Ids = caseIds(Wide, 2);
    ImfantEngine Engine(Z);
    EXPECT_EQ(scanEnds(Engine, "abab", 0, 4, "base 0"),
              (RuleEnds{{Ids[0], {2}}, {Ids[1], {2, 4}}}));
    EXPECT_EQ(scanEnds(Engine, "abab", 5, 1, "base 5"),
              (RuleEnds{{Ids[1], {7, 9}}}));
  }
}

TEST(ImfantSplit, EndAnchorReachedByBothPathsOnLastByte) {
  for (bool Wide : {false, true}) {
    Mfsa Z = anchoredEndCase(Wide);
    checkHandMfsa(Z, HandInputs);
    const std::vector<RuleId> Ids = caseIds(Wide, 2);
    MatchRecorder Recorder(MatchRecorder::Mode::Collect);
    ImfantEngine(Z).run("aba", Recorder);
    EXPECT_EQ(groupEnds(Recorder, "aba"),
              (RuleEnds{{Ids[0], {3}}, {Ids[1], {1, 3}}}));
  }
}

TEST(ImfantSplit, InjectionOffStopsAtFrontierDeath) {
  for (bool Wide : {false, true}) {
    Mfsa Z = activeInitialCase(Wide);
    ImfantEngine Engine(Z);
    const std::vector<RuleId> Ids = caseIds(Wide, 2);
    // Seed rule 1 on S0 (state 0): `a` keeps it alive, `c` reaches the
    // final state, which has no out-edges, so the frontier dies on the next
    // byte and the rest of the chunk is never consumed.
    ActivationSet Seed;
    Seed.Words = Engine.ruleWords();
    Seed.States = {0};
    Seed.RuleBlocks.assign(Seed.Words, 0);
    Seed.RuleBlocks[Ids[1] / 64] = 1ULL << (Ids[1] % 64);
    for (size_t Step : {size_t(1), size_t(16)}) {
      ImfantEngine::Scanner Scan(Engine);
      Scan.startAt(10);
      Scan.setInjection(false);
      Scan.seedActivation(Seed);
      MatchRecorder Recorder(MatchRecorder::Mode::Collect);
      const std::string Input = "aacxcxcaaa";
      for (size_t Pos = 0; Pos < Input.size(); Pos += Step)
        Scan.feed(std::string_view(Input).substr(Pos, Step), Recorder);
      EXPECT_TRUE(Scan.frontierEmpty());
      EXPECT_EQ(Scan.offset(), 14u) << "step " << Step;
      Scan.finish(Recorder);
      EXPECT_EQ(groupEnds(Recorder, "seeded"), (RuleEnds{{Ids[1], {13}}}));
    }
  }
}

namespace {

/// Byte classes at their edges: labels whose bounds sit on 0x00, 0x3F|0x40,
/// 0x7F|0x80, 0xBF|0xC0 and 0xFF (the SymbolSet word boundaries), labels
/// straddling those boundaries, the partially overlapping `[a-c]` and
/// `[b-d]`, and a wide `[^\n]`. Rules 0-2 share I -> P -> {Q, F1} with
/// per-rule belonging; rules 3 and 4 start at J, whose overlapping edges
/// both enter L; L carries a `[^\n]` self-loop (rules 3, 4), so once L is
/// live, a byte in `a`-`d` reaches it both by its own loop and by injection
/// in the same step. Rule 5 is a lone `[^\n]` byte.
Mfsa byteClassCase(bool Wide) {
  HandMfsa H(Wide ? 80 : 6, caseIds(Wide, 6));
  StateId I = H.state(), P = H.state(), Q = H.state(), F1 = H.state(),
          F2 = H.state(), F3 = H.state(), J = H.state(), L = H.state(),
          F4 = H.state(), K = H.state(), F5 = H.state();
  const SymbolSet NotNewline = SymbolSet::singleton('\n').complement();
  H.edge(I, P, SymbolSet::range(0x00, 0x3F), {0, 1});
  H.edge(I, P, SymbolSet::range(0x80, 0xBF), {2});
  H.edge(P, F1, SymbolSet::range(0x40, 0x7F), {0});
  H.edge(P, F1, SymbolSet::range(0xC0, 0xFF), {1, 2});
  H.edge(P, Q, SymbolSet::range(0x3F, 0x40), {0, 1, 2});
  H.edge(Q, F2, SymbolSet::range(0x7F, 0x80), {1});
  H.edge(Q, F2, SymbolSet::range(0xBF, 0xC0), {2});
  H.edge(Q, F3, SymbolSet::singleton(0x00), {0});
  H.edge(Q, F3, SymbolSet::singleton(0xFF), {0, 1, 2});
  H.edge(J, L, SymbolSet::range('a', 'c'), {3});
  H.edge(J, L, SymbolSet::range('b', 'd'), {4});
  H.edge(L, L, NotNewline, {3, 4});
  H.edge(L, F4, SymbolSet::range(0x00, 0x3F), {3});
  H.edge(L, F4, SymbolSet::singleton(0xFF), {4});
  H.edge(K, F5, NotNewline, {5});
  H.rule(0, I, {F1, F3});
  H.rule(1, I, {F1, F2, F3});
  H.rule(2, I, {F1, F2, F3});
  H.rule(3, J, {F4});
  H.rule(4, J, {F4});
  H.rule(5, K, {F5});
  return H.take();
}

/// Streams \p Input in the chunks \p Cuts describe, handing the activation
/// to a fresh scanner at every cut through captureActivation() and
/// seedActivation() (startAt() keeps offsets absolute).
RuleEnds roundTripEnds(const ImfantEngine &Engine, std::string_view Input,
                       const std::vector<uint64_t> &Cuts,
                       const std::string &Tag) {
  MatchRecorder Recorder(MatchRecorder::Mode::Collect);
  auto Scan = std::make_unique<ImfantEngine::Scanner>(Engine);
  for (std::string_view Chunk : chunksFromCuts(Input, Cuts)) {
    Scan->feed(Chunk, Recorder);
    const ActivationSet Carried = Scan->captureActivation();
    const uint64_t Offset = Scan->offset();
    Scan = std::make_unique<ImfantEngine::Scanner>(Engine);
    if (Offset > 0)
      Scan->startAt(Offset);
    Scan->seedActivation(Carried);
    EXPECT_EQ(Scan->frontierEmpty(), Carried.empty()) << Tag;
  }
  Scan->finish(Recorder);
  return groupEnds(Recorder, Tag);
}

} // namespace

TEST(ImfantClasses, AllBytesShuffledAcrossClassBoundaries) {
  std::string Bytes(256, '\0');
  for (unsigned C = 0; C < 256; ++C)
    Bytes[C] = static_cast<char>(C);
  Rng Random(0xC1A55);
  std::vector<std::string> Inputs;
  for (int Round = 0; Round < 3; ++Round) {
    std::string Input = Bytes;
    for (size_t I = Input.size() - 1; I > 0; --I)
      std::swap(Input[I], Input[Random.nextBelow(I + 1)]);
    Inputs.push_back(Input);
  }
  Inputs.push_back(Inputs[0] + Inputs[1]);

  for (bool Wide : {false, true}) {
    const Mfsa Z = byteClassCase(Wide);
    const ImfantEngine Engine(Z);
    std::set<uint32_t> MatchedRules;
    for (size_t In = 0; In < Inputs.size(); ++In) {
      const std::string &Input = Inputs[In];
      const std::string Tag = "rules=" + std::to_string(Z.numRules()) +
                              " input#" + std::to_string(In);
      const RuleEnds Expected = oracleMfsaEnds(Z, Input);
      for (const auto &Entry : Expected)
        MatchedRules.insert(Entry.first);

      MatchRecorder Whole(MatchRecorder::Mode::Collect);
      Engine.run(Input, Whole);
      EXPECT_EQ(groupEnds(Whole, Tag), Expected) << Tag << " run()";
      for (const std::vector<uint64_t> &Cuts :
           adversarialCuts(Random, Input, Expected))
        EXPECT_EQ(roundTripEnds(Engine, Input, Cuts, Tag), Expected)
            << Tag << " round trip at " << Cuts.size() << " cuts";
      for (uint64_t Base : {1u, 7u})
        EXPECT_EQ(scanEnds(Engine, Input, Base, 1, Tag),
                  oracleMfsaEnds(Z, Input, Base))
            << Tag << " startAt(" << Base << ")";
    }
    for (RuleId Id : caseIds(Wide, 6))
      EXPECT_TRUE(MatchedRules.count(Id)) << "rule " << Id << " never matched";
  }
}

//===----------------------------------------------------------------------===//
// One- and two-byte attempts: a match attempt's first byte and the byte
// after it. Rule 0 `a`, rule 1 `a$` and rule 2 `^a` end on their first
// byte; rule 3 `ab` and rule 4 `[ab]b` end on their second; rule 5 `ba*`
// ends on both and stays alive.
//===----------------------------------------------------------------------===//

namespace {

Mfsa shortAttemptCase(bool Wide) {
  HandMfsa H(Wide ? 80 : 6, caseIds(Wide, 6));
  StateId S0 = H.state(), A = H.state(), AB = H.state(), T0 = H.state(),
          T1 = H.state(), B0 = H.state(), B1 = H.state();
  H.edge(S0, A, "a", {0, 1, 2, 3});
  H.edge(A, AB, "b", {3});
  H.edge(T0, T1, "ab", {4});
  H.edge(T1, AB, "b", {4});
  H.edge(B0, B1, "b", {5});
  H.edge(B1, B1, "a", {5});
  H.rule(0, S0, {A});
  H.rule(1, S0, {A}, false, /*AnchoredEnd=*/true);
  H.rule(2, S0, {A}, /*AnchoredStart=*/true);
  H.rule(3, S0, {AB});
  H.rule(4, T0, {AB});
  H.rule(5, B0, {B1});
  return H.take();
}

/// The Table II values recomputed from the configuration captured after
/// every byte.
RunStats statsFromCaptures(const ImfantEngine &Engine,
                           std::string_view Input) {
  RunStats Out;
  uint64_t Sum = 0;
  ImfantEngine::Scanner Scan(Engine);
  MatchRecorder Discard;
  for (size_t Pos = 0; Pos < Input.size(); ++Pos) {
    Scan.feed(Input.substr(Pos, 1), Discard);
    const ActivationSet Config = Scan.captureActivation();
    std::vector<uint64_t> Union(Engine.ruleWords(), 0);
    for (size_t I = 0; I < Config.size(); ++I)
      for (uint32_t W = 0; W < Config.Words; ++W)
        Union[W] |= Config.block(I)[W];
    uint32_t Active = 0;
    for (uint64_t W : Union)
      Active += static_cast<uint32_t>(__builtin_popcountll(W));
    Sum += Active;
    Out.MaxActiveRules = std::max(Out.MaxActiveRules, Active);
    Out.MaxFrontier =
        std::max(Out.MaxFrontier, static_cast<uint32_t>(Config.size()));
  }
  Out.Steps = Input.size();
  if (!Input.empty())
    Out.AvgActiveRules = static_cast<double>(Sum) / Input.size();
  return Out;
}

} // namespace

TEST(ImfantPairs, ShortAttemptsMatchOracle) {
  for (bool Wide : {false, true})
    checkHandMfsa(shortAttemptCase(Wide),
                  {"", "a", "b", "ab", "ba", "aab", "abb", "bb", "baab",
                   "abab", "bbab", "xaxbb", "ba$", "aaaa", "babab"});
}

TEST(ImfantPairs, TableIIStatsEqualCapturedConfigurations) {
  // AvgActiveRules, MaxActiveRules and MaxFrontier are the Table II values
  // of the configuration after each byte, however the step reaches it.
  std::vector<Mfsa> Cases = {shortAttemptCase(false), shortAttemptCase(true),
                             activeInitialCase(true), byteClassCase(false),
                             mergePatterns({"a", "ab", "[ab]a$", "^b",
                                            "b[ab]*c", "c"})};
  Rng Random(0x7ab1e2);
  for (size_t Case = 0; Case < Cases.size(); ++Case) {
    const ImfantEngine Engine(Cases[Case]);
    std::vector<std::string> Inputs = {"", "a", "ab", "abcab", "xcxcaba"};
    for (int Trial = 0; Trial < 3; ++Trial)
      Inputs.push_back(randomInput(Random, 40));
    for (const std::string &Input : Inputs) {
      const std::string Tag =
          "case " + std::to_string(Case) + " \"" + Input + "\"";
      const RunStats Expected = statsFromCaptures(Engine, Input);
      RunStats Whole;
      MatchRecorder Discard;
      Engine.run(Input, Discard, &Whole);
      EXPECT_EQ(Whole.Steps, Expected.Steps) << Tag;
      EXPECT_EQ(Whole.MaxActiveRules, Expected.MaxActiveRules) << Tag;
      EXPECT_EQ(Whole.MaxFrontier, Expected.MaxFrontier) << Tag;
      EXPECT_NEAR(Whole.AvgActiveRules, Expected.AvgActiveRules, 1e-9) << Tag;
    }
  }
}

//===----------------------------------------------------------------------===//
// Engine preprocessing
//===----------------------------------------------------------------------===//

TEST(Imfant, FootprintGrowsWithAutomaton) {
  Mfsa Small = mergePatterns({"ab"});
  Mfsa Large = mergePatterns({"abcdefghij", "jihgfedcba", "[a-z]{4}x"});
  EXPECT_GT(ImfantEngine(Large).footprintBytes(),
            ImfantEngine(Small).footprintBytes());
}

//===----------------------------------------------------------------------===//
// Activation tracing agrees with the AST oracle
//===----------------------------------------------------------------------===//

#include "engine/Trace.h"

TEST(Trace, MatchesAgreeWithEngine) {
  // The trace is read off the engine's own scanner, so it is checked
  // against the independent AST oracle, not against ImfantEngine::run.
  auto Check = [](const std::vector<std::string> &Patterns,
                  const std::string &Input) {
    Mfsa Z = mergePatterns(Patterns);
    std::map<uint32_t, std::set<size_t>> FromTrace;
    for (const TraceStep &Step : traceActivation(Z, Input))
      for (const auto &[Rule, GlobalId] : Step.Matches) {
        EXPECT_EQ(Z.rule(Rule).GlobalId, GlobalId) << Input;
        EXPECT_TRUE(FromTrace[GlobalId].insert(Step.Offset).second)
            << "duplicate (rule, end) " << GlobalId << "," << Step.Offset
            << " " << Input;
      }
    EXPECT_EQ(FromTrace, oracleRuleEnds(Patterns, Input))
        << formatPatterns(Patterns) << " input=" << Input;
  };
  Rng Random(1234);
  for (int Round = 0; Round < 6; ++Round) {
    std::vector<std::string> Patterns;
    unsigned Count = 2 + Random.nextBelow(3);
    for (unsigned I = 0; I < Count; ++I)
      Patterns.push_back(randomPattern(Random));
    for (int Trial = 0; Trial < 4; ++Trial)
      Check(Patterns, randomInput(Random, 18));
  }
  // The scanner reports `$` matches at finish(); the trace puts them on
  // the last step.
  for (const char *Input : {"ab", "xab", "abab", "b"})
    Check({"ab$", "^ab", "b$", "a(b|c)"}, Input);
}

TEST(Trace, FormatShowsActivationSets) {
  Mfsa Z = mergePatterns({"ab", "ac"});
  std::string Text = formatTrace(Z, "ab");
  EXPECT_NE(Text.find("J={"), std::string::npos);
  EXPECT_NE(Text.find("match: rule 0"), std::string::npos);
}

TEST(Trace, EmptyInputEmptyTrace) {
  Mfsa Z = mergePatterns({"ab"});
  EXPECT_TRUE(traceActivation(Z, "").empty());
}
