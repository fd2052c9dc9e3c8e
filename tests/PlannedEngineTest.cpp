//===- PlannedEngineTest.cpp - PlannedEngineSet over every engine ------------===//
//
// Part of the mfsa project. MIT License.
//
// Builds a PlannedEngineSet for every concrete engine at merging factors 1
// and "all", and checks both of its scan paths against the AST oracle
// (fsa/Reference.h): run(), and runInputParallel() under the adversarial cut
// sets of TestHelpers.h plus even splits, with and without a thread pool, at
// every available SIMD level. The group count must be K = ceil(N/M), or 1
// for the prefilter, which covers the whole ruleset. runInputParallel()'s
// stats must add up the per-group executor stats.
//
//===----------------------------------------------------------------------===//

#include "analysis/Planner.h"
#include "engine/PlannedEngine.h"
#include "mfsa/Merge.h"
#include "support/SimdDispatch.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <tuple>
#include <vector>

using namespace mfsa;
using namespace mfsa::test;

namespace {

struct SimdLevelGuard {
  ~SimdLevelGuard() { simd::resetToEnv(); }
};

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
  EXPECT_EQ(Set->numGroups(), Choice == Engine::Prefilter ? 1u : K);

  Rng Random(0x5eed + M);
  std::vector<std::string> Inputs = {"", "abcdabcab", "abxaybabbcd"};
  for (int Trial = 0; Trial < 2; ++Trial)
    Inputs.push_back(randomInput(Random, 40 + Random.nextBelow(40)));

  SimdLevelGuard Guard;
  for (const std::string &Input : Inputs) {
    const auto Expected = oracleRuleEnds(Patterns, Input);
    // Each chunking is (Threads, cuts); empty cuts mean an even split.
    std::vector<std::pair<unsigned, std::vector<uint64_t>>> Chunkings;
    for (unsigned T : {2u, 3u})
      Chunkings.emplace_back(T, std::vector<uint64_t>{});
    for (std::vector<uint64_t> &Cuts : adversarialCuts(Random, Input, Expected))
      Chunkings.emplace_back(4u, std::move(Cuts));

    for (simd::Level Lvl : simd::availableLevels()) {
      ASSERT_TRUE(simd::setLevel(Lvl));
      const std::string Tag = std::string(engineName(Choice)) +
                              " M=" + std::to_string(M) + " input=\"" +
                              Input + "\" simd=" + simd::levelName(Lvl);
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
