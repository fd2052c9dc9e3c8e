//===- PrefilterTest.cpp - Aho-Corasick, literal analysis, prefilter engine --===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "compiler/Pipeline.h"
#include "engine/AhoCorasick.h"
#include "engine/PlannedEngine.h"
#include "engine/Prefilter.h"
#include "fsa/LiteralAnalysis.h"
#include "fsa/Reference.h"
#include "regex/Parser.h"
#include "workload/Datasets.h"
#include "workload/Sampler.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string_view>

using namespace mfsa;
using namespace mfsa::test;

//===----------------------------------------------------------------------===//
// Aho-Corasick
//===----------------------------------------------------------------------===//

namespace {

/// All (literal, end) pairs the automaton reports.
std::multiset<std::pair<uint32_t, size_t>>
acHits(const std::vector<std::string> &Literals, const std::string &Input) {
  AhoCorasick Automaton(Literals);
  std::multiset<std::pair<uint32_t, size_t>> Hits;
  Automaton.scan(Input,
                 [&](uint32_t L, size_t End) { Hits.emplace(L, End); });
  return Hits;
}

/// Naive quadratic reference.
std::multiset<std::pair<uint32_t, size_t>>
naiveHits(const std::vector<std::string> &Literals,
          const std::string &Input) {
  std::multiset<std::pair<uint32_t, size_t>> Hits;
  for (uint32_t L = 0; L < Literals.size(); ++L) {
    const std::string &Lit = Literals[L];
    for (size_t Pos = 0; Pos + Lit.size() <= Input.size(); ++Pos)
      if (Input.compare(Pos, Lit.size(), Lit) == 0)
        Hits.emplace(L, Pos + Lit.size());
  }
  return Hits;
}

} // namespace

TEST(AhoCorasick, BasicOccurrences) {
  std::vector<std::string> Literals = {"he", "she", "his", "hers"};
  EXPECT_EQ(acHits(Literals, "ushers"), naiveHits(Literals, "ushers"));
  // The classic: "ushers" contains she(4), he(4), hers(6).
  auto Hits = acHits(Literals, "ushers");
  EXPECT_EQ(Hits.size(), 3u);
  EXPECT_TRUE(Hits.count({0, 4}));
  EXPECT_TRUE(Hits.count({1, 4}));
  EXPECT_TRUE(Hits.count({3, 6}));
}

TEST(AhoCorasick, OverlappingAndNested) {
  std::vector<std::string> Literals = {"aa", "aaa", "a"};
  EXPECT_EQ(acHits(Literals, "aaaa"), naiveHits(Literals, "aaaa"));
}

TEST(AhoCorasick, DuplicateLiteralsBothReport) {
  std::vector<std::string> Literals = {"ab", "ab"};
  auto Hits = acHits(Literals, "xabx");
  EXPECT_EQ(Hits.size(), 2u);
}

TEST(AhoCorasick, RandomAgainstNaive) {
  Rng Random(404);
  for (int Trial = 0; Trial < 20; ++Trial) {
    std::vector<std::string> Literals;
    unsigned Count = 1 + Random.nextBelow(6);
    for (unsigned I = 0; I < Count; ++I)
      Literals.push_back(randomInput(Random, 1 + Random.nextBelow(4)));
    std::string Input = randomInput(Random, 60);
    EXPECT_EQ(acHits(Literals, Input), naiveHits(Literals, Input));
  }
}

TEST(AhoCorasick, NoMatches) {
  EXPECT_TRUE(acHits({"xyz"}, "abcabc").empty());
  EXPECT_TRUE(acHits({"abc"}, "").empty());
}

TEST(AhoCorasick, RootSkipAgreesWithFind) {
  // 1 start byte takes memchr, 2 and 8 the block compares, 9 turn the skip
  // off. Lengths straddle 16-byte blocks; start bytes sit at the first
  // position, the last, both, or nowhere.
  Rng Random(0x5C1B);
  for (unsigned NumStarts : {1u, 2u, 8u, 9u}) {
    std::set<char> Starts;
    std::vector<std::string> Literals;
    for (unsigned I = 0; I < NumStarts; ++I) {
      const char S = static_cast<char>(I * 29 + 3); // never 'x' or 'y'
      Starts.insert(S);
      Literals.push_back(std::string{S, 'x', 'y'});
      if (I % 2 == 0)
        Literals.push_back(std::string(1, S));
    }
    const AhoCorasick Automaton(Literals);
    ASSERT_EQ(Automaton.rootSkipEnabled(),
              NumStarts <= AhoCorasick::kMaxRootNeedles);

    for (size_t Len : {0, 1, 2, 3, 15, 16, 17, 31, 32, 33, 48, 63, 64, 65, 200})
      for (int Placement = 0; Placement < 4; ++Placement) {
        std::string Input(Len, '\0');
        for (char &C : Input)
          do
            C = static_cast<char>(Random.nextBelow(256));
          while (Starts.count(C));
        const std::string &Lit = Literals[Random.nextBelow(Literals.size())];
        if ((Placement & 1) && Len >= Lit.size())
          Input.replace(0, Lit.size(), Lit);
        if ((Placement & 2) && Len >= Lit.size())
          Input.replace(Len - Lit.size(), Lit.size(), Lit);
        if (Placement == 3 && Len > 0)
          for (int Plant = 0; Plant < 3; ++Plant) {
            const std::string &P = Literals[Random.nextBelow(Literals.size())];
            const size_t At = Random.nextBelow(Len);
            Input.replace(At, std::min(P.size(), Len - At), P, 0,
                          std::min(P.size(), Len - At));
          }

        std::multiset<std::pair<uint32_t, size_t>> Expected;
        const std::string_view View(Input);
        for (uint32_t L = 0; L < Literals.size(); ++L)
          for (size_t At = View.find(Literals[L]); At != View.npos;
               At = View.find(Literals[L], At + 1))
            Expected.emplace(L, At + Literals[L].size());
        EXPECT_EQ(acHits(Literals, Input), Expected)
            << "starts=" << NumStarts << " len=" << Len
            << " placement=" << Placement;
      }
  }
}

//===----------------------------------------------------------------------===//
// Literal analysis
//===----------------------------------------------------------------------===//

namespace {

std::string literalOf(const std::string &Pattern) {
  Result<Regex> Re = parseRegex(Pattern);
  EXPECT_TRUE(Re.ok()) << Pattern;
  return mandatoryLiteral(*Re->Root);
}

} // namespace

TEST(LiteralAnalysis, PlainLiteralsAndRuns) {
  EXPECT_EQ(literalOf("abcdef"), "abcdef");
  EXPECT_EQ(literalOf("ab[xy]cdef"), "cdef"); // class breaks the run
  EXPECT_EQ(literalOf("(abc)def"), "abcdef"); // groups flatten
  EXPECT_EQ(literalOf("ab.*cdefg"), "cdefg");
}

TEST(LiteralAnalysis, QuantifiersAreConservative) {
  EXPECT_EQ(literalOf("abc(d)?ef"), "abc"); // optional breaks
  EXPECT_EQ(literalOf("abcx{2,5}"), "abcxx");
  EXPECT_EQ(literalOf("(abcd){1,3}"), "abcd");
  EXPECT_EQ(literalOf("(abcd)*x"), "x"); // star body skippable
}

TEST(LiteralAnalysis, AlternationsNeedCommonLiteral) {
  EXPECT_EQ(literalOf("(abc|xyz)"), "");
  EXPECT_EQ(literalOf("(abc|abc)"), "abc");
  EXPECT_EQ(literalOf("x(aaa|bbb)y"), "x"); // falls back to the frame runs
}

TEST(LiteralAnalysis, MandatoryLiteralIsActuallyMandatory) {
  // Property: every sampled match contains the extracted literal.
  const char *Patterns[] = {"ab[cd]efg",     "x{2}y(z|w)abc", "(abc)+d",
                            "q.*longword.*p", "no(pe|pq)literal"};
  Rng Random(505);
  for (const char *Pattern : Patterns) {
    Result<Regex> Re = parseRegex(Pattern);
    ASSERT_TRUE(Re.ok());
    std::string Literal = mandatoryLiteral(*Re->Root);
    if (Literal.empty())
      continue;
    for (int Trial = 0; Trial < 20; ++Trial) {
      std::string Sample = sampleMatch(*Re, Random);
      EXPECT_NE(Sample.find(Literal), std::string::npos)
          << Pattern << ": '" << Sample << "' lacks '" << Literal << "'";
    }
  }
}

TEST(LiteralAnalysis, BoundedMatchLength) {
  EXPECT_EQ(boundedMatchLength(compileOptimized("abc")), 3u);
  EXPECT_EQ(boundedMatchLength(compileOptimized("a{2,5}")), 5u);
  EXPECT_EQ(boundedMatchLength(compileOptimized("(ab|cdef)g")), 5u);
  EXPECT_EQ(boundedMatchLength(compileOptimized("ab*c")), 0u);  // cyclic
  EXPECT_EQ(boundedMatchLength(compileOptimized("a.*b")), 0u);  // cyclic
}

TEST(LiteralAnalysis, PrefilterDecision) {
  auto Analyze = [](const std::string &Pattern) {
    Result<Regex> Re = parseRegex(Pattern);
    EXPECT_TRUE(Re.ok());
    return analyzeForPrefilter(*Re, compileOptimized(Pattern));
  };
  EXPECT_TRUE(Analyze("hello[0-9]world").Prefilterable);
  EXPECT_FALSE(Analyze("^helloworld").Prefilterable); // anchored
  EXPECT_FALSE(Analyze("hello.*world").Prefilterable); // unbounded
  EXPECT_FALSE(Analyze("[ab][cd]").Prefilterable);     // no literal
  EXPECT_FALSE(Analyze("ab").Prefilterable);           // below min length
  PrefilterInfo Info = Analyze("xy(abc|abc)z{1,2}");
  EXPECT_TRUE(Info.Prefilterable);
  EXPECT_EQ(Info.MaxMatchLength, 7u);
}

//===----------------------------------------------------------------------===//
// Prefilter engine end-to-end
//===----------------------------------------------------------------------===//

namespace {

/// The prefilter plan over \p Groups: the residual group, then the gate.
PlannedEngineSet prefilterPlan(const std::vector<Mfsa> &Groups,
                               const std::vector<std::string> &Patterns) {
  Result<PlannedEngineSet> Set =
      PlannedEngineSet::create(Engine::Prefilter, Groups, Patterns);
  EXPECT_TRUE(Set.ok()) << Set.diag().render();
  return Set.take();
}

std::map<uint32_t, std::set<size_t>>
prefilterEnds(const PlannedEngineSet &Plan, const std::string &Input) {
  MatchRecorder Recorder(MatchRecorder::Mode::Collect);
  Plan.run(Input, Recorder);
  std::map<uint32_t, std::set<size_t>> Ends;
  for (const auto &[Rule, End] : Recorder.matches()) {
    // Engine-level dedup only holds within a window; assert pairs unique.
    EXPECT_TRUE(Ends[Rule].insert(static_cast<size_t>(End)).second)
        << "duplicate (rule,end) " << Rule << "," << End;
  }
  return Ends;
}

std::map<uint32_t, std::set<size_t>>
oracleEnds(const std::vector<std::string> &Patterns,
           const std::string &Input) {
  std::map<uint32_t, std::set<size_t>> Ends;
  for (size_t I = 0; I < Patterns.size(); ++I) {
    Result<Regex> Re = parseRegex(Patterns[I]);
    EXPECT_TRUE(Re.ok());
    std::set<size_t> E = astMatchEnds(*Re, Input);
    if (!E.empty())
      Ends[static_cast<uint32_t>(I)] = E;
  }
  return Ends;
}

} // namespace

TEST(PrefilterEngine, SplitsRulesAndMatchesOracle) {
  std::vector<std::string> Patterns = {
      "attack[0-9]{1,3}", // prefilterable
      "^session",         // residual: anchored
      "evil.*payload",    // residual: unbounded
      "exploit(42|77)",   // prefilterable
      "[ab][cd]",         // residual: no literal
  };
  std::string Input =
      "session evil stuff payload attack17 exploit42 ac bd attack9";
  // One rule per group, groups of two, and one group: the split and the
  // matches must not depend on how the rules were merged.
  for (uint32_t M : {1u, 2u, 0u}) {
    const PlannedEngineSet Plan =
        prefilterPlan(compileMerged(Patterns, M), Patterns);
    EXPECT_EQ(Plan.numGroups(), 2u) << "M=" << M;
    EXPECT_EQ(prefilterSplit(Plan).Gated, 2u) << "M=" << M;
    EXPECT_EQ(prefilterSplit(Plan).Residual, 3u) << "M=" << M;
    EXPECT_EQ(prefilterEnds(Plan, Input), oracleEnds(Patterns, Input))
        << "M=" << M;
  }
}

TEST(PrefilterEngine, OverlappingHitsDoNotDuplicate) {
  // Repeated adjacent literals force window coalescing.
  std::vector<std::string> Patterns = {"abab[xy]?"};
  const PlannedEngineSet Plan =
      prefilterPlan(compileMerged(Patterns, 1), Patterns);
  ASSERT_EQ(prefilterSplit(Plan).Gated, 1u);
  std::string Input = "ababababababx";
  EXPECT_EQ(prefilterEnds(Plan, Input), oracleEnds(Patterns, Input));
}

TEST(PrefilterEngine, AllResidualStillWorks) {
  std::vector<std::string> Patterns = {"a.*b", "^cd"};
  const PlannedEngineSet Plan =
      prefilterPlan(compileMerged(Patterns, 0), Patterns);
  EXPECT_EQ(prefilterSplit(Plan).Gated, 0u);
  EXPECT_EQ(prefilterSplit(Plan).Residual, 2u);
  std::string Input = "cdaxxb";
  EXPECT_EQ(prefilterEnds(Plan, Input), oracleEnds(Patterns, Input));
}

TEST(PrefilterEngine, AllPrefilteredNoResidual) {
  std::vector<std::string> Patterns = {"alpha", "beta[0-9]"};
  const PlannedEngineSet Plan =
      prefilterPlan(compileMerged(Patterns, 0), Patterns);
  EXPECT_EQ(Plan.numGroups(), 1u); // the gate alone
  EXPECT_EQ(prefilterSplit(Plan).Residual, 0u);
  std::string Input = "xxalphayy beta7 alpha";
  EXPECT_EQ(prefilterEnds(Plan, Input), oracleEnds(Patterns, Input));
}

TEST(PrefilterEngine, RejectsMalformedRules) {
  // The engine is built from compiled MFSAs, so a malformed rule is the
  // compiler's diagnostic and never reaches it.
  Result<CompileArtifacts> Compiled = compileRuleset({"ok", "bad("});
  ASSERT_FALSE(Compiled.ok());
  EXPECT_NE(Compiled.diag().Message.find("rule 1"), std::string::npos);
}

TEST(PrefilterEngine, RuleWithoutPatternTextJoinsResidual) {
  // The texts only supply literals: a rule whose GlobalId has no text, or
  // an unparseable one, is scanned by the residual and still matches.
  const std::vector<std::string> Patterns = {"alpha[0-9]", "beta", "gamma"};
  const std::vector<Mfsa> Groups = compileMerged(Patterns, 1);
  const std::string Input = "alpha7 beta gamma betabeta";
  const std::vector<std::vector<std::string>> Texts = {
      {"alpha[0-9]", "beta"},          // too short: no text for rule 2
      {"alpha[0-9]", "beta(", "gamma"} // rule 1's text does not parse
  };
  for (const std::vector<std::string> &T : Texts) {
    const PlannedEngineSet Plan = prefilterPlan(Groups, T);
    EXPECT_EQ(prefilterSplit(Plan).Gated, 2u);
    EXPECT_EQ(prefilterSplit(Plan).Residual, 1u);
    EXPECT_EQ(prefilterEnds(Plan, Input), oracleEnds(Patterns, Input));
  }
}

TEST(PrefilterEngine, QuarantinedRuleStaysQuarantined) {
  // Rule 1 exceeds the state budget and is quarantined at compile time.
  // The prefilter reads the same MFSAs as dense, so it must not report it
  // either (a prefilter recompiled from the texts reported (1,320)).
  const std::vector<std::string> Patterns = {"abcdef", "hello[a-z]{300}world",
                                             "zzz[0-9]+"};
  CompileOptions Options;
  Options.Policy = FailurePolicy::Isolate;
  Options.Budget.MaxFsaStates = 100;
  Options.MergingFactor = 1;
  Options.EmitAnml = false;
  Result<CompileArtifacts> Compiled = compileRuleset(Patterns, Options);
  ASSERT_TRUE(Compiled.ok()) << Compiled.diag().render();
  ASSERT_EQ(Compiled->Quarantined.size(), 1u);
  ASSERT_EQ(Compiled->Quarantined[0].RuleIndex, 1u);

  const std::string Input =
      "xx abcdef hello" + std::string(300, 'q') + "world zzz12";
  auto Ends = [&](Engine Choice) {
    Result<PlannedEngineSet> Set =
        PlannedEngineSet::create(Choice, Compiled->Mfsas, Patterns);
    EXPECT_TRUE(Set.ok()) << engineName(Choice);
    MatchRecorder Recorder(MatchRecorder::Mode::Collect);
    if (Set.ok())
      Set->run(Input, Recorder);
    return recorderEnds(Recorder);
  };
  std::map<uint32_t, std::set<size_t>> Expected = oracleEnds(Patterns, Input);
  ASSERT_EQ(Expected.erase(1), 1u); // the input does match the dropped rule
  const std::map<uint32_t, std::set<size_t>> Dense = Ends(Engine::ImfantDense);
  EXPECT_EQ(Dense, Expected);
  EXPECT_EQ(Ends(Engine::Prefilter), Dense);
}

TEST(PrefilterEngine, DatasetSliceAgainstFullScan) {
  // Compare against the straightforward full-ruleset MFSA scan on a real
  // dataset slice with planted matches.
  const DatasetSpec &Spec = *findDataset("TCP");
  std::vector<std::string> Rules = generateRuleset(Spec);
  Rules.resize(30);
  std::string Stream = generateStream(Spec, Rules, 8192);

  const PlannedEngineSet Plan = prefilterPlan(compileMerged(Rules, 1), Rules);
  EXPECT_EQ(prefilterEnds(Plan, Stream), oracleEnds(Rules, Stream));
}
