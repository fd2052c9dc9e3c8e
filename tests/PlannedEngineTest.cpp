//===- PlannedEngineTest.cpp - PlannedEngineSet over every engine ------------===//
//
// Part of the mfsa project. MIT License.
//
// Builds a PlannedEngineSet for every concrete engine at merging factors 1
// and "all", and checks both of its scan paths against the AST oracle
// (fsa/Reference.h): run(), and runInputParallel() under the adversarial cut
// sets of TestHelpers.h plus even splits, with and without a thread pool.
// The group count must be K = ceil(N/M), or 2 for the prefilter: its
// residual group and the literal gate. runInputParallel()'s stats must add
// up the per-group executor stats.
//
// PlannedEngineSetGolden pins the exact Collect-mode match sequence — not
// the set — that run() and runInputParallel() emit for every engine, at
// M=1 and M=all, against tests/golden/scan/sequences.txt. The prefilter's
// residual-then-windows order, `^`/`$` rules, inputs of length 0-3 and
// stride-2's ragged odd byte are all in it. After an intended change to
// the emission order, regenerate with
//   MFSA_UPDATE_SCAN_GOLDENS=1 build/tests/test_planned_engine
// and review the diff.
//
//===----------------------------------------------------------------------===//

#include "analysis/Planner.h"
#include "engine/PlannedEngine.h"
#include "mfsa/Merge.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

using namespace mfsa;
using namespace mfsa::test;

namespace {

/// Literal-gated and residual rules, anchors and a loop: every engine is
/// feasible on it, and the prefilter has both a literal and a residual part.
const std::vector<std::string> &ruleset() {
  static const std::vector<std::string> Rules = {
      "abc", "dab[a-c]?", "bca", "^ab", "[ab]+c", "cd$", "(a|b)*abb", "x.y"};
  return Rules;
}

using Param = std::tuple<Engine, uint32_t, bool>;

class PlannedEngineSetTest : public ::testing::TestWithParam<Param> {};

TEST_P(PlannedEngineSetTest, RunAndInputParallelMatchOracle) {
  const auto [Choice, M, Pooled] = GetParam();
  const std::vector<std::string> &Patterns = ruleset();
  std::vector<Nfa> Fsas;
  for (const std::string &P : Patterns)
    Fsas.push_back(compileOptimized(P));
  std::vector<uint32_t> Ids(Fsas.size());
  std::iota(Ids.begin(), Ids.end(), 0u);

  EnginePlan Plan;
  Plan.Choice = Choice;
  Plan.MergingFactor = M;
  Result<PlannedEngineSet> Set =
      PlannedEngineSet::createFromRuleset(Plan, Fsas, Ids, Patterns);
  ASSERT_TRUE(Set.ok()) << Set.diag().render();
  EXPECT_EQ(Set->engine(), Choice);
  const size_t N = Patterns.size();
  const size_t K = M == 0 ? 1 : (N + M - 1) / M;
  // The prefilter plan is its residual group and the gate.
  EXPECT_EQ(Set->numGroups(), Choice == Engine::Prefilter ? 2u : K);

  Rng Random(0x5eed + M);
  std::vector<std::string> Inputs = {"", "abcdabcab", "abxaybabbcd"};
  for (int Trial = 0; Trial < 2; ++Trial)
    Inputs.push_back(randomInput(Random, 40 + Random.nextBelow(40)));

  for (const std::string &Input : Inputs) {
    const auto Expected = oracleRuleEnds(Patterns, Input);
    // Each chunking is (Threads, cuts); empty cuts mean an even split.
    std::vector<std::pair<unsigned, std::vector<uint64_t>>> Chunkings;
    for (unsigned T : {2u, 3u})
      Chunkings.emplace_back(T, std::vector<uint64_t>{});
    for (std::vector<uint64_t> &Cuts : adversarialCuts(Random, Input, Expected))
      Chunkings.emplace_back(4u, std::move(Cuts));

    const std::string Tag = std::string(engineName(Choice)) + " M=" +
                            std::to_string(M) + " input=\"" + Input + "\"";
    MatchRecorder Seq(MatchRecorder::Mode::Collect);
    Set->run(Input, Seq);
    EXPECT_EQ(recorderEnds(Seq), Expected) << "run() " << Tag;

    for (const auto &[Threads, Cuts] : Chunkings) {
      InputParallelOptions Opts;
      Opts.Threads = Threads;
      Opts.MinChunkBytes = 1;
      Opts.CutOverride = Cuts;
      Opts.UseThreadPool = Pooled;
      MatchRecorder Par(MatchRecorder::Mode::Collect);
      InputParallelStats Stats;
      Set->runInputParallel(Input, Par, Opts, &Stats);
      std::string Where = "runInputParallel() T=" + std::to_string(Threads) +
                          " cuts={";
      for (uint64_t C : Cuts)
        Where += std::to_string(C) + ",";
      EXPECT_EQ(recorderEnds(Par), Expected) << Where << "} " << Tag;
      EXPECT_EQ(Par.total(), Seq.total()) << Where << "} " << Tag;
    }
  }
}

/// runInputParallel()'s stats are the per-group stats added up: each group
/// is scanned alone as a one-group set, and the whole set's counters must
/// be the sums, with Chunks = numGroups() x the chunk count.
TEST(PlannedEngineSetStats, InputParallelStatsSumOverGroups) {
  const std::vector<std::string> &Patterns = ruleset();
  std::vector<Nfa> Fsas;
  for (const std::string &P : Patterns)
    Fsas.push_back(compileOptimized(P));
  std::vector<uint32_t> Ids(Fsas.size());
  std::iota(Ids.begin(), Ids.end(), 0u);
  Rng Random(0x57a75);
  std::string Input = randomInput(Random, 2048);
  InputParallelOptions Opts;
  Opts.Threads = 4;
  Opts.MinChunkBytes = 1;
  const std::vector<uint64_t> Bounds = inputChunkBounds(Opts, Input.size());
  const size_t Chunks = Bounds.size() - 1;
  ASSERT_EQ(Chunks, 4u);
  // An "abc" across every cut gives each boundary a carry to resolve.
  for (size_t I = 1; I < Chunks; ++I)
    Input.replace(Bounds[I] - 1, 3, "abc");

  for (Engine Choice : {Engine::ImfantDense, Engine::Dfa, Engine::StridedDfa})
    for (uint32_t M : {1u, 3u}) {
      const std::string Tag =
          std::string(engineName(Choice)) + " M=" + std::to_string(M);
      const std::vector<Mfsa> Groups = mergeInGroups(Fsas, Ids, M);
      Result<PlannedEngineSet> Set =
          PlannedEngineSet::create(Choice, Groups, Patterns);
      ASSERT_TRUE(Set.ok()) << Set.diag().render() << " " << Tag;
      ASSERT_EQ(Set->numGroups(), Groups.size()) << Tag;
      MatchRecorder Whole(MatchRecorder::Mode::CountOnly);
      InputParallelStats Total;
      Set->runInputParallel(Input, Whole, Opts, &Total);

      InputParallelStats Sum;
      for (const Mfsa &Z : Groups) {
        Result<PlannedEngineSet> One =
            PlannedEngineSet::create(Choice, {Z}, Patterns);
        ASSERT_TRUE(One.ok()) << One.diag().render() << " " << Tag;
        MatchRecorder Part(MatchRecorder::Mode::CountOnly);
        InputParallelStats Stats;
        One->runInputParallel(Input, Part, Opts, &Stats);
        EXPECT_EQ(Stats.Chunks, Chunks) << Tag;
        Sum.RescanFallbackChunks += Stats.RescanFallbackChunks;
        Sum.OverlapBytes += Stats.OverlapBytes;
        Sum.CarryMatches += Stats.CarryMatches;
      }
      EXPECT_EQ(Total.Chunks, Set->numGroups() * Chunks) << Tag;
      EXPECT_EQ(Total.RescanFallbackChunks, Sum.RescanFallbackChunks) << Tag;
      EXPECT_EQ(Total.OverlapBytes, Sum.OverlapBytes) << Tag;
      EXPECT_EQ(Total.CarryMatches, Sum.CarryMatches) << Tag;
      EXPECT_GT(Sum.CarryMatches, 0u) << Tag;
    }
}

/// Every field of \p Stats, for comparing two runs' stats.
std::vector<uint64_t> statFields(const InputParallelStats &Stats) {
  return {Stats.Threads,              Stats.Chunks,
          Stats.RescanFallbackChunks, Stats.OverlapBytes,
          Stats.MaxCarryFrontier,     Stats.MaxAliveClasses,
          Stats.IsoMatches,           Stats.CarryMatches};
}

std::vector<std::pair<uint32_t, uint64_t>>
sortedMatches(const MatchRecorder &Recorder) {
  std::vector<std::pair<uint32_t, uint64_t>> Out = Recorder.matches();
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// Dozens of groups in one pool round: a dense M=1 plan over 48 rules and
/// a prefilter plan (residual + gate), scanned at T=4. The pooled Collect
/// sequence must be the unpooled one, whose sorted set must be run()'s, and
/// the stats must not depend on the pool.
TEST(PlannedEngineSetManyGroups, PooledRoundMatchesUnpooled) {
  Rng Random(0x3a4f);
  std::vector<std::string> Patterns = ruleset();
  while (Patterns.size() < 48)
    Patterns.push_back(randomPattern(Random, 3));
  std::vector<Nfa> Fsas;
  for (const std::string &P : Patterns)
    Fsas.push_back(compileOptimized(P));
  std::vector<uint32_t> Ids(Fsas.size());
  std::iota(Ids.begin(), Ids.end(), 0u);
  std::string Input;
  while (Input.size() < (1u << 15))
    Input += Random.nextBool(0.1) ? Patterns[Random.nextBelow(8)]
                                  : randomInput(Random, 32);

  for (Engine Choice : {Engine::ImfantDense, Engine::Prefilter}) {
    Result<PlannedEngineSet> Set = PlannedEngineSet::create(
        Choice, mergeInGroups(Fsas, Ids, 1), Patterns);
    ASSERT_TRUE(Set.ok()) << Set.diag().render();
    const std::string Tag = engineName(Choice);
    EXPECT_GE(Set->numGroups(), Choice == Engine::Prefilter ? 2u : 40u)
        << Tag;
    MatchRecorder Seq(MatchRecorder::Mode::Collect);
    Set->run(Input, Seq);
    ASSERT_GT(Seq.total(), 0u) << Tag;

    InputParallelOptions Opts;
    Opts.Threads = 4;
    MatchRecorder Serial(MatchRecorder::Mode::Collect);
    InputParallelStats SerialStats;
    Opts.UseThreadPool = false;
    Set->runInputParallel(Input, Serial, Opts, &SerialStats);
    EXPECT_EQ(sortedMatches(Serial), sortedMatches(Seq)) << Tag;
    EXPECT_EQ(Serial.perRule(), Seq.perRule()) << Tag;
    EXPECT_EQ(SerialStats.Chunks, Set->numGroups() * 4u) << Tag;

    Opts.UseThreadPool = true;
    for (int Rep = 0; Rep < 3; ++Rep) {
      MatchRecorder Pooled(MatchRecorder::Mode::Collect);
      InputParallelStats PooledStats;
      Set->runInputParallel(Input, Pooled, Opts, &PooledStats);
      EXPECT_EQ(Pooled.matches(), Serial.matches()) << Tag;
      EXPECT_EQ(statFields(PooledStats), statFields(SerialStats)) << Tag;
    }
  }
}

/// Two fixed rulesets, each with literal-gated and residual rules for the
/// prefilter, a `^` and a `$` rule, and fixed inputs of lengths 0-3 and
/// odd lengths (stride-2's ragged byte).
struct GoldenCase {
  const char *Name;
  std::vector<std::string> Patterns;
  std::vector<std::string> Inputs;
};

std::vector<GoldenCase> goldenCases() {
  std::vector<GoldenCase> Cases;
  Cases.push_back({"mixed", ruleset(),
                   {"", "a", "ab", "abc", "abcdabcab", "abxaybabbcd",
                    "cdabcabbcdxzyabca", "babbabcdabbcd"}});
  Rng Random(0x901d);
  for (size_t Len : {41u, 57u})
    Cases.front().Inputs.push_back(randomInput(Random, Len));
  Cases.push_back({"web",
                   {"hello", "^GET /", "wor?ld$", "[0-9]+x", "a.c",
                    "lo w", "(ab|cd)+e"},
                   {"", "h", "GE", "GET", "GET /hello world",
                    "xhello wor", "123x hellohello worldd", "a1c9x0xabcde",
                    "cdabe hello wold"}});
  return Cases;
}

std::string formatSequence(const MatchRecorder &Recorder) {
  std::string Out;
  for (const auto &[Rule, End] : Recorder.matches()) {
    Out += ' ';
    Out += std::to_string(Rule);
    Out += '@';
    Out += std::to_string(End);
  }
  return Out;
}

TEST(PlannedEngineSetGolden, CollectSequencesMatchCommittedGolden) {
  std::string Actual;
  for (const GoldenCase &Case : goldenCases()) {
    std::vector<Nfa> Fsas;
    for (const std::string &P : Case.Patterns)
      Fsas.push_back(compileOptimized(P));
    std::vector<uint32_t> Ids(Fsas.size());
    std::iota(Ids.begin(), Ids.end(), 0u);
    for (Engine Choice : {Engine::ImfantDense, Engine::Dfa,
                          Engine::StridedDfa, Engine::Prefilter})
      for (uint32_t M : {1u, 0u}) {
        Result<PlannedEngineSet> Set = PlannedEngineSet::create(
            Choice, mergeInGroups(Fsas, Ids, M), Case.Patterns);
        ASSERT_TRUE(Set.ok()) << Set.diag().render();
        for (const std::string &Input : Case.Inputs) {
          const std::string Tag = std::string(Case.Name) + " " +
                                  engineName(Choice) + " M=" +
                                  std::to_string(M) + " \"" + Input + "\"";
          MatchRecorder Seq(MatchRecorder::Mode::Collect);
          Set->run(Input, Seq);
          Actual += Tag + " run:" + formatSequence(Seq) + "\n";

          InputParallelOptions Even;
          Even.Threads = 3;
          Even.MinChunkBytes = 1;
          InputParallelOptions Cut = Even;
          Cut.Threads = 4;
          Cut.CutOverride = {1, 2, 5, 5, 8};
          for (const InputParallelOptions *Opts : {&Even, &Cut}) {
            MatchRecorder Par(MatchRecorder::Mode::Collect);
            Set->runInputParallel(Input, Par, *Opts);
            Actual += Tag + (Opts == &Even ? " par T=3:" : " par cuts:") +
                      formatSequence(Par) + "\n";
          }
        }
      }
  }

  const std::string Path =
      std::string(MFSA_SCAN_GOLDEN_DIR) + "/sequences.txt";
  const char *Update = std::getenv("MFSA_UPDATE_SCAN_GOLDENS");
  if (Update && std::string(Update) == "1") {
    std::ofstream(Path, std::ios::binary) << Actual;
    GTEST_SKIP() << "rewrote " << Path;
  }
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In) << "missing golden " << Path;
  std::ostringstream Golden;
  Golden << In.rdbuf();
  EXPECT_EQ(Actual, Golden.str()) << "match sequence drifted from " << Path;
}

std::string paramName(const ::testing::TestParamInfo<Param> &Info) {
  const auto [Choice, M, Pooled] = Info.param;
  return std::string(engineName(Choice)) + "_M" +
         (M == 0 ? std::string("all") : std::to_string(M)) +
         (Pooled ? "_pooled" : "_unpooled");
}

INSTANTIATE_TEST_SUITE_P(
    Engines, PlannedEngineSetTest,
    ::testing::Combine(::testing::Values(Engine::ImfantDense, Engine::Dfa,
                                         Engine::StridedDfa,
                                         Engine::Prefilter),
                       ::testing::Values(1u, 0u), ::testing::Bool()),
    paramName);

} // namespace
