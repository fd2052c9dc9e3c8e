//===- DifferentialTest.cpp - cross-engine differential harness --------------===//
//
// Part of the mfsa project. MIT License.
//
// Runs the same seeded rulesets and inputs through every execution engine the
// library ships — dense iMFAnt, the union DFA, the stride-2 DFA, and the
// literal prefilter — plus the brute-force AST
// oracle, and asserts identical per-rule match-end sets. Everything derives
// from one deterministic RNG seed, so any failure reproduces from the
// (ruleset, input, seed) triple printed in the assertion message.
//
// The DFA-family engines are best-effort by design: subset construction can
// blow past its state budget and stride pairing past its table budget. The
// harness then skips those two engines for that ruleset and still
// cross-checks the rest — a silent skip of *all* engines is impossible since
// dense iMFAnt, the prefilter and the oracle always run.
//
// The static cost analyzer rides along on every case: the Engine::Auto plan
// is built and run like a fifth engine (same oracle assertion), and the
// analyzer's activation-width bound is asserted to dominate the dense
// engine's observed peak active rules and frontier on every input — an
// end-to-end soundness check of boundActivationWidth.
//
// A sixth leg runs the input-parallel executor (engine/InputParallel.h)
// over the dense engine on every case, asserting both the oracle match set
// and that the per-chunk speculative frontiers stay within the static
// width bound — the soundness fact the executor's speculation relies on.
//
// A seventh leg runs PlannedEngineSet::runInputParallel on the Auto plan
// (T=3, 1-byte minimum chunks), so whichever engine the planner picks —
// the prefilter included — is also checked under input-parallel chunking.
//
// An eighth leg feeds the dense engine's streaming Scanner at every
// adversarial cut set (TestHelpers.h), so state carried across feed()
// calls is checked at each activation width the rulesets produce.
//
//===----------------------------------------------------------------------===//

#include "analysis/CostModel.h"
#include "analysis/Planner.h"
#include "engine/DfaEngine.h"
#include "engine/Imfant.h"
#include "engine/InputParallel.h"
#include "engine/MultiStride.h"
#include "engine/PlannedEngine.h"
#include "fsa/Determinize.h"
#include "mfsa/Merge.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

using namespace mfsa;
using namespace mfsa::test;

namespace {

using RuleEnds = std::map<uint32_t, std::set<size_t>>;

std::string formatCase(uint64_t Seed,
                       const std::vector<std::string> &Patterns,
                       const std::string &Input) {
  return "seed=" + std::to_string(Seed) +
         " ruleset=" + formatPatterns(Patterns) + " input=\"" + Input + "\"";
}

/// Compiles \p Patterns into every engine and checks each \p Input against
/// the AST oracle. \p Seed only labels failures.
void checkRuleset(uint64_t Seed, const std::vector<std::string> &Patterns,
                  const std::vector<std::string> &Inputs) {
  std::vector<Nfa> Fsas;
  std::vector<uint32_t> Ids;
  for (size_t I = 0; I < Patterns.size(); ++I) {
    Fsas.push_back(compileOptimized(Patterns[I]));
    Ids.push_back(static_cast<uint32_t>(I));
  }
  std::vector<Mfsa> MergedVec;
  MergedVec.push_back(mergeFsas(Fsas, Ids));
  const Mfsa &Merged = MergedVec.front();
  ASSERT_EQ(Merged.verify(), "") << formatPatterns(Patterns);

  ImfantEngine Imfant(Merged);

  // Static analyzer cross-checks (analysis/CostModel.h): the sound
  // activation-width bound must dominate what the dense engine actually
  // observes on every input, and the Auto-planned engine must agree with
  // the oracle like every fixed engine.
  const WidthBound Width = boundActivationWidth(Merged);
  EnginePlan Plan = planMfsas(MergedVec, Patterns, 0);
  Result<PlannedEngineSet> Planned =
      PlannedEngineSet::create(Plan.Choice, MergedVec, Patterns);
  ASSERT_TRUE(Planned.ok()) << "planned engine " << engineName(Plan.Choice)
                            << ": " << Planned.diag().render() << " "
                            << formatPatterns(Patterns);

  std::optional<DfaEngine> UnionDfa;
  std::optional<StridedDfaEngine> Stride2;
  if (Result<Dfa> D = determinize(Fsas, Ids); D.ok()) {
    if (Result<StridedDfa> S2 = makeStride2(*D); S2.ok())
      Stride2.emplace(S2.take());
    UnionDfa.emplace(D.take());
  }

  Result<PlannedEngineSet> Prefilter =
      PlannedEngineSet::create(Engine::Prefilter, MergedVec, Patterns);
  ASSERT_TRUE(Prefilter.ok()) << Prefilter.diag().render();

  // Input-parallel leg: the chunked executor over the dense engine must
  // reproduce the sequential match set, and its speculative per-chunk
  // frontiers must stay inside the analyzer's static width bound.
  InputParallelOptions ParOpts;
  ParOpts.Threads = 3;
  ParOpts.MinChunkBytes = 1;
  InputParallelOptions PlannedParOpts;
  PlannedParOpts.Threads = 3;
  PlannedParOpts.MinChunkBytes = 1;

  Rng CutRandom(Seed);
  for (const std::string &Input : Inputs) {
    RuleEnds Expected = oracleRuleEnds(Patterns, Input);
    const std::vector<std::vector<uint64_t>> CutSets =
        adversarialCuts(CutRandom, Input, Expected);

    const std::string Tag = formatCase(Seed, Patterns, Input);

    {
      MatchRecorder Recorder(MatchRecorder::Mode::Collect);
      RunStats Stats;
      Imfant.run(Input, Recorder, &Stats);
      EXPECT_EQ(recorderEnds(Recorder), Expected) << "engine=imfant " << Tag;
      // Soundness of the static width bound against the observed run.
      EXPECT_GE(Width.MaxActiveRules, Stats.MaxActiveRules)
          << "width rules bound " << Tag;
      EXPECT_GE(Width.MaxActiveStates, Stats.MaxFrontier)
          << "width states bound " << Tag;
    }
    for (const std::vector<uint64_t> &Cuts : CutSets) {
      ImfantEngine::Scanner Scan(Imfant);
      MatchRecorder Recorder(MatchRecorder::Mode::Collect);
      for (std::string_view Chunk : chunksFromCuts(Input, Cuts))
        Scan.feed(Chunk, Recorder);
      Scan.finish(Recorder);
      EXPECT_EQ(recorderEnds(Recorder), Expected)
          << "engine=imfant-streamed cuts=" << Cuts.size() << " " << Tag;
    }
    if (UnionDfa) {
      MatchRecorder Recorder(MatchRecorder::Mode::Collect);
      UnionDfa->run(Input, Recorder);
      EXPECT_EQ(recorderEnds(Recorder), Expected) << "engine=dfa " << Tag;
    }
    if (Stride2) {
      MatchRecorder Recorder(MatchRecorder::Mode::Collect);
      Stride2->run(Input, Recorder);
      EXPECT_EQ(recorderEnds(Recorder), Expected) << "engine=stride2 "
                                                  << Tag;
    }
    {
      MatchRecorder Recorder(MatchRecorder::Mode::Collect);
      Prefilter->run(Input, Recorder);
      EXPECT_EQ(recorderEnds(Recorder), Expected) << "engine=prefilter "
                                                  << Tag;
    }
    {
      MatchRecorder Recorder(MatchRecorder::Mode::Collect);
      Planned->run(Input, Recorder);
      EXPECT_EQ(recorderEnds(Recorder), Expected)
          << "engine=auto(" << engineName(Plan.Choice) << ") " << Tag;
    }
    {
      MatchRecorder Recorder(MatchRecorder::Mode::Collect);
      InputParallelStats ParStats;
      runInputParallel(Imfant, Input, Recorder, ParOpts, &ParStats);
      EXPECT_EQ(recorderEnds(Recorder), Expected)
          << "engine=input-parallel " << Tag;
      EXPECT_GE(Width.MaxActiveStates, ParStats.MaxCarryFrontier)
          << "carry frontier bound " << Tag;
    }
    {
      MatchRecorder Recorder(MatchRecorder::Mode::Collect);
      Planned->runInputParallel(Input, Recorder, PlannedParOpts);
      EXPECT_EQ(recorderEnds(Recorder), Expected)
          << "engine=auto(" << engineName(Plan.Choice) << ")-input-parallel "
          << Tag;
    }
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Seeded random rulesets: 30 seeds x 4 inputs = 120 differential cases.
//===----------------------------------------------------------------------===//

class DifferentialAllEngines : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialAllEngines, MatchSetsAgree) {
  const uint64_t Seed = GetParam();
  Rng Random(Seed);

  std::vector<std::string> Patterns;
  unsigned Count = 1 + Random.nextBelow(6);
  for (unsigned I = 0; I < Count; ++I)
    Patterns.push_back(randomPattern(Random));

  std::vector<std::string> Inputs;
  Inputs.push_back(""); // the degenerate stream, where nullable rules lurk
  for (int Trial = 0; Trial < 3; ++Trial)
    Inputs.push_back(randomInput(Random, 8 + Random.nextBelow(56)));

  checkRuleset(Seed, Patterns, Inputs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialAllEngines,
                         ::testing::Range<uint64_t>(9000, 9030));

//===----------------------------------------------------------------------===//
// Short-rule seeds: rulesets dense in one- and two-byte rules (literals,
// classes, `^`/`$` variants) with a few random shapes, so most match
// attempts end on their first or second byte: 12 seeds x 4 inputs.
//===----------------------------------------------------------------------===//

namespace {

std::string shortPattern(Rng &Random) {
  static const char *Atoms[] = {"a", "b", "c", "d", "[ab]", "[b-d]", "."};
  std::string Body = Atoms[Random.nextBelow(7)];
  if (Random.nextBelow(2))
    Body += Atoms[Random.nextBelow(7)];
  switch (Random.nextBelow(6)) {
  case 0:
    return "^" + Body;
  case 1:
    return Body + "$";
  case 2:
    return randomPattern(Random, /*MaxDepth=*/2);
  default:
    return Body;
  }
}

} // namespace

class DifferentialShortRules : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialShortRules, MatchSetsAgree) {
  const uint64_t Seed = GetParam();
  Rng Random(Seed);
  std::vector<std::string> Patterns;
  const unsigned Count = 3 + Random.nextBelow(12);
  for (unsigned I = 0; I < Count; ++I)
    Patterns.push_back(shortPattern(Random));
  std::vector<std::string> Inputs = {""};
  for (int Trial = 0; Trial < 3; ++Trial)
    Inputs.push_back(randomInput(Random, 1 + Random.nextBelow(40)));
  checkRuleset(Seed, Patterns, Inputs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialShortRules,
                         ::testing::Range<uint64_t>(9100, 9112));

//===----------------------------------------------------------------------===//
// Curated rulesets: shapes the random generator never emits (anchors, long
// literals that engage the prefilter, overlapping and duplicate rules).
//===----------------------------------------------------------------------===//

TEST(Differential, AnchoredRules) {
  Rng Random(4242);
  std::vector<std::string> Patterns = {"^ab", "ab$", "ab", "^a[bc]*d$"};
  std::vector<std::string> Inputs = {"abxab", "abcdab", ""};
  for (int Trial = 0; Trial < 3; ++Trial)
    Inputs.push_back(randomInput(Random, 24));
  checkRuleset(4242, Patterns, Inputs);
}

TEST(Differential, LiteralHeavyRules) {
  // Long required literals push rules onto the prefilter fast path; the
  // stride-2 DFA gets both parities since inputs have odd and even lengths.
  Rng Random(4243);
  std::vector<std::string> Patterns = {"abcde", "bcd(a|b)+", "cab{2,3}ca",
                                       "abcde"}; // duplicate on purpose
  std::vector<std::string> Inputs = {"abcdeabcde", "xbcdabcaabbca"};
  for (int Trial = 0; Trial < 4; ++Trial)
    Inputs.push_back(randomInput(Random, 31 + Trial));
  checkRuleset(4243, Patterns, Inputs);
}

TEST(Differential, SelfOverlappingRules) {
  Rng Random(4244);
  std::vector<std::string> Patterns = {"aa", "(ab)+", "a{2,4}b?"};
  std::vector<std::string> Inputs = {"aaaaab", "abababa"};
  for (int Trial = 0; Trial < 4; ++Trial)
    Inputs.push_back(randomInput(Random, 40));
  checkRuleset(4244, Patterns, Inputs);
}

//===----------------------------------------------------------------------===//
// Wide rulesets: everything above stays under 64 rules, where the iMFAnt
// step runs one activation word. These rule counts sweep the widths the
// step is instantiated for: both sides of every 64-rule boundary up to 321
// rules (1-6 words, covering each fixed-width instantiation) and 400 rules
// (7 words, the runtime-width loop). Each count ends in a `^` and a `$` rule
// so anchored matches land in the highest word.
//===----------------------------------------------------------------------===//

namespace {

/// \p Count deterministic patterns: every 2-byte literal over {a..e}, then
/// 3-byte literals, then a band of random shapes for operator coverage.
std::vector<std::string> widePatterns(size_t Count, uint64_t Seed) {
  static const char Alphabet[] = "abcde";
  std::vector<std::string> Patterns;
  for (int A = 0; A < 5 && Patterns.size() < Count; ++A)
    for (int B = 0; B < 5 && Patterns.size() < Count; ++B)
      Patterns.push_back({Alphabet[A], Alphabet[B]});
  for (int A = 0; A < 5 && Patterns.size() < Count; ++A)
    for (int B = 0; B < 5 && Patterns.size() < Count; ++B)
      for (int C = 0; C < 5 && Patterns.size() < Count; ++C)
        Patterns.push_back({Alphabet[A], Alphabet[B], Alphabet[C]});
  Rng Random(Seed);
  while (Patterns.size() < Count)
    Patterns.push_back(randomPattern(Random, /*MaxDepth=*/3));
  Patterns[Count - 2] = "^a[bc]+d";
  Patterns[Count - 1] = "(ab|cd)+e$";
  return Patterns;
}

/// Runs checkRuleset on widePatterns(Count, Seed) for each count, with an
/// empty input, one that both anchored rules match, and \p NumInputs
/// random ones.
void checkWideRulesets(std::initializer_list<size_t> Counts, uint64_t Seed,
                       int NumInputs) {
  for (size_t Count : Counts) {
    SCOPED_TRACE("rules=" + std::to_string(Count));
    Rng Random(Seed + Count);
    std::vector<std::string> Inputs = {"",
                                       "abbd" + randomInput(Random, 20) +
                                           "abcde"};
    for (int Trial = 0; Trial < NumInputs; ++Trial)
      Inputs.push_back(randomInput(Random, 30 + Random.nextBelow(35)));
    checkRuleset(Seed + Count, widePatterns(Count, Seed), Inputs);
  }
}

} // namespace

TEST(Differential, WideRulesetTwoWords) {
  // The last one-word width, then two words from the first to the last.
  checkWideRulesets({64, 65, 70, 128}, 4245, 3);
}

TEST(Differential, WideRulesetManyWords) {
  checkWideRulesets({129, 192, 193, 256, 257, 261, 320, 321, 400}, 4246, 3);
}
