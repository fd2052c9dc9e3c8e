//===- InputParallelTest.cpp - input-parallel stitching property tests -------===//
//
// Part of the mfsa project. MIT License.
//
// Property: the match set of the input-parallel executors (makeChunkScan)
// is invariant under the chunking. Every backend (dense iMFAnt, union DFA,
// stride-2 DFA) x every thread count x every adversarial cut set
// (TestHelpers.h: cuts at match ends, mid-match, 1-byte chunks, empty
// chunks, random) must reproduce the AST oracle's per-rule match-end sets
// exactly — the "byte-identical to a sequential scan" contract of
// engine/InputParallel.h. A ThreadPool case runs the same property with the
// chunk tasks actually concurrent, which the tsan CI leg exercises.
// Stride-2's pairing at even absolute offsets is pinned on step() itself.
//
// The prefilter plan (PlannedEngineSet: the residual group, then the
// literal gate) gets the same treatment on rulesets mixing literal-gated and
// residual rules, with extra cuts aimed at its literal slices and confirm
// windows, and runInputParallel() is compared against run() as well as the
// oracle.
//
//===----------------------------------------------------------------------===//

#include "analysis/CostModel.h"
#include "engine/InputParallel.h"
#include "engine/MultiStride.h"
#include "fsa/Determinize.h"
#include "fsa/LiteralAnalysis.h"
#include "mfsa/Merge.h"
#include "regex/Parser.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

using namespace mfsa;
using namespace mfsa::test;

namespace {

using RuleEnds = std::map<uint32_t, std::set<size_t>>;

std::string formatCuts(const std::vector<uint64_t> &Cuts) {
  std::string Out = "cuts={";
  for (uint64_t C : Cuts)
    Out += std::to_string(C) + ",";
  return Out + "}";
}

/// Compiles \p Patterns once and checks every backend x chunking against
/// the oracle on every input. \p Seed labels failures and
/// seeds the adversarial cut generator.
void checkInputParallel(uint64_t Seed,
                        const std::vector<std::string> &Patterns,
                        const std::vector<std::string> &Inputs) {
  std::vector<Nfa> Fsas;
  std::vector<uint32_t> Ids;
  for (size_t I = 0; I < Patterns.size(); ++I) {
    Fsas.push_back(compileOptimized(Patterns[I]));
    Ids.push_back(static_cast<uint32_t>(I));
  }
  Mfsa Merged = mergeFsas(Fsas, Ids);
  ASSERT_EQ(Merged.verify(), "") << formatPatterns(Patterns);

  ImfantEngine Imfant(Merged);
  const WidthBound Width = boundActivationWidth(Merged);

  std::optional<DfaEngine> UnionDfa;
  std::optional<StridedDfaEngine> Stride2;
  if (Result<Dfa> D = determinize(Fsas, Ids); D.ok()) {
    if (Result<StridedDfa> S2 = makeStride2(*D); S2.ok())
      Stride2.emplace(S2.take());
    UnionDfa.emplace(D.take());
  }

  auto MakeOpts = [&](unsigned Threads, std::vector<uint64_t> Cuts) {
    InputParallelOptions Opts;
    Opts.Threads = Threads;
    Opts.MinChunkBytes = 1; // Test inputs are tiny: always really split.
    Opts.CutOverride = std::move(Cuts);
    return Opts;
  };

  Rng Random(Seed ^ 0x9e3779b97f4a7c15ull);
  for (const std::string &Input : Inputs) {
    const RuleEnds Expected = oracleRuleEnds(Patterns, Input);
    std::vector<std::vector<uint64_t>> CutSets =
        adversarialCuts(Random, Input, Expected);
    // The default even split at each requested thread count rides along as
    // additional "cut sets" (empty = use Threads).
    std::vector<std::pair<unsigned, std::vector<uint64_t>>> Chunkings;
    for (unsigned T : {2u, 3u, 8u})
      Chunkings.emplace_back(T, std::vector<uint64_t>{});
    for (std::vector<uint64_t> &Cuts : CutSets)
      Chunkings.emplace_back(0u, std::move(Cuts));

    for (const auto &[Threads, Cuts] : Chunkings) {
      const std::string Tag =
          "seed=" + std::to_string(Seed) + " ruleset=" +
          formatPatterns(Patterns) + " input=\"" + Input +
          "\" T=" + std::to_string(Threads) + " " + formatCuts(Cuts);

      {
        MatchRecorder Recorder(MatchRecorder::Mode::Collect);
        InputParallelStats Stats;
        runInputParallel(Imfant, Input, Recorder, MakeOpts(Threads, Cuts),
                         &Stats);
        EXPECT_EQ(recorderEnds(Recorder), Expected)
            << "backend=imfant " << Tag;
        // Carry re-scans start inside reachable configurations, so the
        // static width bound dominates their observed frontiers too.
        EXPECT_GE(Width.MaxActiveStates, Stats.MaxCarryFrontier)
            << "carry frontier bound " << Tag;
      }
      if (UnionDfa) {
        MatchRecorder Recorder(MatchRecorder::Mode::Collect);
        runInputParallel(*UnionDfa, Input, Recorder, MakeOpts(Threads, Cuts));
        EXPECT_EQ(recorderEnds(Recorder), Expected)
            << "backend=dfa " << Tag;
      }
      if (Stride2) {
        MatchRecorder Recorder(MatchRecorder::Mode::Collect);
        runInputParallel(*Stride2, Input, Recorder, MakeOpts(Threads, Cuts));
        EXPECT_EQ(recorderEnds(Recorder), Expected)
            << "backend=stride2 " << Tag;
      }
    }
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Seeded random rulesets.
//===----------------------------------------------------------------------===//

class InputParallelProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InputParallelProperty, MatchSetInvariantUnderChunking) {
  const uint64_t Seed = GetParam();
  Rng Random(Seed);

  std::vector<std::string> Patterns;
  unsigned Count = 1 + Random.nextBelow(5);
  for (unsigned I = 0; I < Count; ++I)
    Patterns.push_back(randomPattern(Random));

  std::vector<std::string> Inputs;
  Inputs.push_back("");
  for (int Trial = 0; Trial < 2; ++Trial)
    Inputs.push_back(randomInput(Random, 16 + Random.nextBelow(48)));

  checkInputParallel(Seed, Patterns, Inputs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InputParallelProperty,
                         ::testing::Range<uint64_t>(9100, 9112));

//===----------------------------------------------------------------------===//
// Curated boundary shapes.
//===----------------------------------------------------------------------===//

TEST(InputParallel, AnchorsAcrossCuts) {
  // `^` must inject only at stream offset 0 (never at a chunk base) and `$`
  // must fire only at the true stream end (never at a cut, including cuts
  // that leave a trailing empty chunk).
  Rng Random(4301);
  std::vector<std::string> Patterns = {"^ab", "ab$", "ab", "^a[bc]*d$"};
  std::vector<std::string> Inputs = {"abxab", "abcdab", "ab", ""};
  for (int Trial = 0; Trial < 2; ++Trial)
    Inputs.push_back(randomInput(Random, 24));
  checkInputParallel(4301, Patterns, Inputs);
}

TEST(InputParallel, MatchAcrossThreeConsecutiveBoundaries) {
  // One occurrence of "abcd" sliced by three consecutive cuts: the carry
  // must survive two boundary handoffs before the match completes.
  std::vector<std::string> Patterns = {"abcd", "bc"};
  std::string Input = "xxabcdxx";
  Mfsa Merged = [&] {
    std::vector<Nfa> Fsas;
    std::vector<uint32_t> Ids;
    for (size_t I = 0; I < Patterns.size(); ++I) {
      Fsas.push_back(compileOptimized(Patterns[I]));
      Ids.push_back(static_cast<uint32_t>(I));
    }
    return mergeFsas(Fsas, Ids);
  }();
  ImfantEngine Imfant(Merged);
  const RuleEnds Expected = oracleRuleEnds(Patterns, Input);
  InputParallelOptions Opts;
  Opts.MinChunkBytes = 1;
  Opts.CutOverride = {3, 4, 5}; // "xxa|b|c|dxx" — cuts inside the match.
  MatchRecorder Recorder(MatchRecorder::Mode::Collect);
  runInputParallel(Imfant, Input, Recorder, Opts);
  EXPECT_EQ(recorderEnds(Recorder), Expected);
}

TEST(InputParallel, SelfOverlappingRules) {
  Rng Random(4302);
  std::vector<std::string> Patterns = {"aa", "(ab)+", "a{2,4}b?"};
  std::vector<std::string> Inputs = {"aaaaab", "abababa"};
  for (int Trial = 0; Trial < 2; ++Trial)
    Inputs.push_back(randomInput(Random, 40));
  checkInputParallel(4302, Patterns, Inputs);
}

TEST(InputParallel, WideRulesetMultiWordActivation) {
  // 70 rules forces two-word activation bitsets, so the speculative
  // possible-rule masks and table masking exercise the multi-word path.
  Rng Random(4303);
  std::vector<std::string> Patterns;
  static const char Alphabet[] = "abcde";
  for (int A = 0; A < 5; ++A)
    for (int B = 0; B < 5; ++B)
      Patterns.push_back({Alphabet[A], Alphabet[B]});
  for (int A = 0; A < 5 && Patterns.size() < 70; ++A)
    for (int B = 0; B < 5 && Patterns.size() < 70; ++B)
      for (int C = 0; C < 5 && Patterns.size() < 70; ++C)
        Patterns.push_back({Alphabet[A], Alphabet[B], Alphabet[C]});
  std::vector<std::string> Inputs = {randomInput(Random, 64)};
  checkInputParallel(4303, Patterns, Inputs);
}

TEST(InputParallel, ThreadPoolPhaseOneIsRaceFree) {
  // Chunk tasks actually concurrent (the tsan leg's target): per-chunk
  // results land in disjoint slots, and the join runs on the worker that
  // finishes the last chunk.
  Rng Random(4304);
  std::vector<std::string> Patterns = {"ab(c|d)*", "bc", "a{2,}", "cd$"};
  std::string Input = randomInput(Random, 4096);
  std::vector<Nfa> Fsas;
  std::vector<uint32_t> Ids;
  for (size_t I = 0; I < Patterns.size(); ++I) {
    Fsas.push_back(compileOptimized(Patterns[I]));
    Ids.push_back(static_cast<uint32_t>(I));
  }
  Mfsa Merged = mergeFsas(Fsas, Ids);
  ImfantEngine Imfant(Merged);
  const RuleEnds Expected = oracleRuleEnds(Patterns, Input);

  InputParallelOptions Opts;
  Opts.Threads = 4;
  Opts.MinChunkBytes = 1;
  Opts.UseThreadPool = true;
  {
    MatchRecorder Recorder(MatchRecorder::Mode::Collect);
    InputParallelStats Stats;
    runInputParallel(Imfant, Input, Recorder, Opts, &Stats);
    EXPECT_EQ(recorderEnds(Recorder), Expected);
    EXPECT_EQ(Stats.Chunks, 4u);
  }
  Result<Dfa> UnionDfa = determinize(Fsas, Ids);
  ASSERT_TRUE(UnionDfa.ok());
  {
    const DfaEngine Engine(UnionDfa.take());
    MatchRecorder Recorder(MatchRecorder::Mode::Collect);
    runInputParallel(Engine, Input, Recorder, Opts);
    EXPECT_EQ(recorderEnds(Recorder), Expected);
  }
}

TEST(InputParallel, StatsClassifyChunks) {
  // Literal rules without `.*` keep frontiers short-lived: a carry dies
  // within a pattern's length of the cut, so no non-leading chunk is
  // re-scanned in full and the overlap stays a few bytes per boundary.
  std::vector<std::string> Patterns = {"abc", "bcd"};
  Rng Random(4305);
  std::string Input = randomInput(Random, 2048);
  std::vector<Nfa> Fsas;
  std::vector<uint32_t> Ids;
  for (size_t I = 0; I < Patterns.size(); ++I) {
    Fsas.push_back(compileOptimized(Patterns[I]));
    Ids.push_back(static_cast<uint32_t>(I));
  }
  Mfsa Merged = mergeFsas(Fsas, Ids);
  ImfantEngine Imfant(Merged);

  InputParallelOptions Opts;
  Opts.Threads = 4;
  Opts.MinChunkBytes = 1;
  MatchRecorder Recorder(MatchRecorder::Mode::Collect);
  InputParallelStats Stats;
  runInputParallel(Imfant, Input, Recorder, Opts, &Stats);
  EXPECT_EQ(recorderEnds(Recorder), oracleRuleEnds(Patterns, Input));
  EXPECT_EQ(Stats.Chunks, 4u);
  EXPECT_EQ(Stats.RescanFallbackChunks, 0u);
  // A live carry is at most two bytes into a three-byte literal: it
  // reaches the final state by the second byte past the cut and dies on
  // the third.
  EXPECT_LE(Stats.OverlapBytes, 3u * 3u);
  EXPECT_EQ(Stats.IsoMatches + Stats.CarryMatches, Recorder.total());
}

TEST(InputParallel, CarryCrossingWholeChunksIsRescanned) {
  // One match attempt spans the whole stream: `a`, then 64 KiB the loop
  // accepts, then `z`. Its carry enters every non-empty chunk after the
  // first byte alive and leaves it alive, so the join re-scans each such
  // chunk in full, and only those.
  const std::string Pattern = "a[b-y]*z";
  Rng Random(4311);
  std::string Input = "a";
  for (size_t I = 0; I < (1u << 16); ++I)
    Input.push_back(static_cast<char>('b' + Random.nextBelow(24)));
  Input.push_back('z');
  // The NFA-simulation oracle: the AST evaluator is quadratic in the
  // length of a starred run, far too slow for 64 KiB.
  Result<Regex> Re = parseRegex(Pattern);
  ASSERT_TRUE(Re.ok());
  Result<Nfa> Raw = buildNfa(*Re);
  ASSERT_TRUE(Raw.ok());
  const RuleEnds Expected = {{0u, simulateNfa(*Raw, Input)}};
  ASSERT_EQ(Expected.at(0), std::set<size_t>{Input.size()});

  std::vector<Nfa> Fsas = {compileOptimized(Pattern)};
  Mfsa Merged = mergeFsas(Fsas, {0});
  ImfantEngine Imfant(Merged);

  std::vector<std::vector<uint64_t>> CutSets =
      adversarialCuts(Random, Input, Expected);
  CutSets.push_back({Input.size() / 4, Input.size() / 2,
                     3 * Input.size() / 4});
  for (const std::vector<uint64_t> &Cuts : CutSets) {
    InputParallelOptions Opts;
    Opts.CutOverride = Cuts;
    const std::vector<uint64_t> Bounds =
        inputChunkBounds(Opts, Input.size());
    uint64_t Crossed = 0, CrossedBytes = 0;
    for (size_t I = 0; I + 1 < Bounds.size(); ++I)
      if (Bounds[I] > 0 && Bounds[I + 1] > Bounds[I]) {
        ++Crossed;
        CrossedBytes += Bounds[I + 1] - Bounds[I];
      }
    const std::string Tag = formatCuts(Cuts);
    MatchRecorder Recorder(MatchRecorder::Mode::Collect);
    InputParallelStats Stats;
    runInputParallel(Imfant, Input, Recorder, Opts, &Stats);
    EXPECT_EQ(recorderEnds(Recorder), Expected) << Tag;
    EXPECT_EQ(Stats.RescanFallbackChunks, Crossed) << Tag;
    EXPECT_EQ(Stats.OverlapBytes, CrossedBytes) << Tag;
  }
}

TEST(InputParallel, Stride2PairsAtEvenAbsoluteOffsets) {
  // StridedDfaEngine::step() pairs bytes at EVEN ABSOLUTE offsets, whatever
  // the chunk's base: at an odd base it half-steps once to realign, at an
  // even base it pairs at once, and a chunk's last byte at an even offset
  // half-steps. Pairing at chunk-relative offsets reports the same matches,
  // so only the bytes each step consumes show the difference.
  const std::vector<std::string> Patterns = {"ab", "bab", "a$", "c[ab]*d"};
  std::vector<Nfa> Fsas;
  std::vector<uint32_t> Ids;
  for (size_t I = 0; I < Patterns.size(); ++I) {
    Fsas.push_back(compileOptimized(Patterns[I]));
    Ids.push_back(static_cast<uint32_t>(I));
  }
  Result<Dfa> D = determinize(Fsas, Ids);
  ASSERT_TRUE(D.ok());
  Result<StridedDfa> S2 = makeStride2(*D);
  ASSERT_TRUE(S2.ok());
  const StridedDfaEngine Engine(S2.take());

  const std::string Chunk = "babab";
  auto Ignore = [](uint32_t, uint64_t) {};
  uint32_t State = 0;
  // Based at 7: byte 0 sits at odd offset 7, byte 1 at 8.
  EXPECT_EQ(Engine.step(State, Chunk, 0, 7, Ignore), 1u);
  EXPECT_EQ(Engine.step(State, Chunk, 1, 7, Ignore), 2u);
  EXPECT_EQ(Engine.step(State, Chunk, 3, 7, Ignore), 2u);
  // Based at 8: pairs from byte 0; byte 4 (offset 12) has no partner.
  State = 0;
  EXPECT_EQ(Engine.step(State, Chunk, 0, 8, Ignore), 2u);
  EXPECT_EQ(Engine.step(State, Chunk, 2, 8, Ignore), 2u);
  EXPECT_EQ(Engine.step(State, Chunk, 4, 8, Ignore), 1u);

  // Through the executor under odd cuts, pooled and not: run()'s exact
  // Collect sequence, and the oracle's set.
  Rng Random(4312);
  const std::string Input = randomInput(Random, 257);
  MatchRecorder Seq(MatchRecorder::Mode::Collect);
  Engine.run(Input, Seq);
  ASSERT_EQ(recorderEnds(Seq), oracleRuleEnds(Patterns, Input));
  ASSERT_GT(Seq.total(), 0u);
  const std::vector<std::vector<uint64_t>> CutSets = {
      {1, 3, 7, 101}, {5, 5, 131, 255}, {2, 3, 129, 201}};
  for (const std::vector<uint64_t> &Cuts : CutSets)
    for (bool Pooled : {false, true}) {
      InputParallelOptions Opts;
      Opts.Threads = 4;
      Opts.MinChunkBytes = 1;
      Opts.CutOverride = Cuts;
      Opts.UseThreadPool = Pooled;
      MatchRecorder Par(MatchRecorder::Mode::Collect);
      runInputParallel(Engine, Input, Par, Opts);
      EXPECT_EQ(Par.matches(), Seq.matches())
          << formatCuts(Cuts) << (Pooled ? " pooled" : " serial");
    }
}

//===----------------------------------------------------------------------===//
// Prefilter plan: the residual group through the iMFAnt executor, the
// gate's literal slices over the same chunks, confirm windows spread across
// workers.
//===----------------------------------------------------------------------===//

namespace {

using MatchList = std::vector<std::pair<uint32_t, uint64_t>>;

/// The prefilter plan over \p Patterns merged in groups of \p M.
PlannedEngineSet prefilterPlan(const std::vector<std::string> &Patterns,
                               uint32_t M) {
  Result<PlannedEngineSet> Set = PlannedEngineSet::create(
      Engine::Prefilter, compileMerged(Patterns, M), Patterns);
  EXPECT_TRUE(Set.ok()) << Set.diag().render();
  return Set.take();
}

MatchList sortedMatches(const MatchRecorder &Recorder) {
  MatchList Out = Recorder.matches();
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// Cut sets aimed at the literal stage. For every occurrence of a
/// prefiltered rule's literal: a cut inside it; cuts at its end and one
/// byte either side; cuts half a confirm window before and after its end,
/// which land inside coalesced windows. Plus 0, len and duplicates, which
/// leave empty chunks.
std::vector<std::vector<uint64_t>>
literalCuts(const std::vector<std::string> &Patterns,
            const std::string &Input) {
  std::vector<uint64_t> Inside, AtEnds, InWindows;
  for (const std::string &Pattern : Patterns) {
    Result<Regex> Re = parseRegex(Pattern);
    EXPECT_TRUE(Re.ok()) << Pattern;
    const PrefilterInfo Info =
        analyzeForPrefilter(*Re, compileOptimized(Pattern));
    if (!Info.Prefilterable)
      continue;
    const uint64_t Half = Info.MaxMatchLength / 2;
    for (size_t At = Input.find(Info.Literal); At != std::string::npos;
         At = Input.find(Info.Literal, At + 1)) {
      const uint64_t End = At + Info.Literal.size();
      Inside.push_back(At + Info.Literal.size() / 2);
      AtEnds.insert(AtEnds.end(), {End - 1, End, End + 1});
      InWindows.insert(InWindows.end(), {End > Half ? End - Half : 0,
                                         End + Half});
    }
  }
  const uint64_t Len = Input.size();
  return {Inside, AtEnds, InWindows, {0, 0, Len / 3, Len / 3, Len, Len}};
}

/// Checks the prefilter plan's runInputParallel() against run() and the
/// oracle on every input, under the default split at several thread counts,
/// the shared adversarial cuts and literalCuts, with and without a thread
/// pool: identical sorted (rule, end) lists, total() and perRule(). The plan
/// is built over one group per rule, as from an M=1 artifact.
void checkPrefilterInputParallel(uint64_t Seed,
                                 const std::vector<std::string> &Patterns,
                                 const std::vector<std::string> &Inputs) {
  const PlannedEngineSet Pre = prefilterPlan(Patterns, 1);

  Rng Random(Seed ^ 0x51ed270b4c3a9f1dull);
  for (const std::string &Input : Inputs) {
    const RuleEnds Expected = oracleRuleEnds(Patterns, Input);
    std::vector<std::pair<unsigned, std::vector<uint64_t>>> Chunkings;
    for (unsigned T : {2u, 3u, 8u})
      Chunkings.emplace_back(T, std::vector<uint64_t>{});
    for (std::vector<uint64_t> &Cuts : adversarialCuts(Random, Input, Expected))
      Chunkings.emplace_back(4u, std::move(Cuts));
    for (std::vector<uint64_t> &Cuts : literalCuts(Patterns, Input))
      Chunkings.emplace_back(4u, std::move(Cuts));

    MatchRecorder Seq(MatchRecorder::Mode::Collect);
    Pre.run(Input, Seq);
    const std::string CaseTag = "seed=" + std::to_string(Seed) +
                                " ruleset=" + formatPatterns(Patterns) +
                                " input=\"" + Input + "\"";
    ASSERT_EQ(recorderEnds(Seq), Expected) << "sequential " << CaseTag;
    const MatchList Want = sortedMatches(Seq);

    for (const auto &[Threads, Cuts] : Chunkings)
      for (bool Pooled : {false, true}) {
        const std::string Tag = CaseTag + " T=" + std::to_string(Threads) +
                                " " + formatCuts(Cuts) +
                                (Pooled ? " pooled" : " serial");
        InputParallelOptions Opts;
        Opts.Threads = Threads;
        Opts.MinChunkBytes = 1;
        Opts.CutOverride = Cuts;
        Opts.UseThreadPool = Pooled;
        MatchRecorder Par(MatchRecorder::Mode::Collect);
        InputParallelStats Stats;
        Pre.runInputParallel(Input, Par, Opts, &Stats);
        EXPECT_EQ(sortedMatches(Par), Want) << Tag;
        EXPECT_EQ(Par.total(), Seq.total()) << Tag;
        EXPECT_EQ(Par.perRule(), Seq.perRule()) << Tag;
        EXPECT_EQ(recorderEnds(Par), Expected) << Tag;
        const size_t Chunks = inputChunkBounds(Opts, Input.size()).size() - 1;
        EXPECT_EQ(Stats.Chunks, Pre.numGroups() * Chunks) << Tag;
      }
  }
}

/// Prefiltered and residual rules side by side: literal-gated rules with
/// bounded matches, and residual ones that are `^`- or `$`-anchored,
/// literal-poor or unbounded.
const std::vector<std::string> &mixedRuleset() {
  static const std::vector<std::string> Patterns = {
      "abc",          "cab(a|b){1,2}", "d[ab]cd",  "bcd(a|c)?e",
      "^ab",          "ce$",           "^a[bc]*d$", "(ab)+c",
      "aab[cd]{0,3}", "b{2,}c"};
  return Patterns;
}

} // namespace

TEST(InputParallelPrefilter, MixedRulesetUnderAdversarialCuts) {
  const PrefilterSplit Split = prefilterSplit(prefilterPlan(mixedRuleset(), 1));
  ASSERT_GT(Split.Gated, 0u);
  ASSERT_GT(Split.Residual, 0u);

  Rng Random(4401);
  std::vector<std::string> Inputs = {
      "",
      "abcabcabc",                          // overlapping literal hits
      "abdxabcdxcababxdacdbcdaeaabcdcdce",  // every literal, `$` at the end
      "abcadbcdceecababbxxbbbcaabdd",
  };
  for (int Trial = 0; Trial < 3; ++Trial)
    Inputs.push_back(randomInput(Random, 40 + Random.nextBelow(40)));
  checkPrefilterInputParallel(4401, mixedRuleset(), Inputs);
}

class InputParallelPrefilterProperty
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(InputParallelPrefilterProperty, MatchesSequentialUnderChunking) {
  const uint64_t Seed = GetParam();
  Rng Random(Seed);

  // Literal-gated rules (3-4 byte literal, bounded tail) plus random
  // shapes, which mostly land in the residual MFSA.
  static const char Letters[] = "abcd";
  std::vector<std::string> Patterns;
  const unsigned Literal = 1 + Random.nextBelow(3);
  for (unsigned I = 0; I < Literal; ++I) {
    std::string P;
    for (uint64_t L = 0, N = 3 + Random.nextBelow(2); L < N; ++L)
      P.push_back(Letters[Random.nextBelow(4)]);
    if (Random.nextBool(0.5))
      P += "[a-c]{0," + std::to_string(1 + Random.nextBelow(3)) + "}";
    Patterns.push_back(P);
  }
  for (unsigned I = 0, N = 1 + Random.nextBelow(3); I < N; ++I)
    Patterns.push_back(randomPattern(Random, 3));
  if (Random.nextBool(0.5))
    Patterns.push_back("^" + randomPattern(Random, 2));
  if (Random.nextBool(0.5))
    Patterns.push_back(randomPattern(Random, 2) + "$");

  std::vector<std::string> Inputs;
  for (int Trial = 0; Trial < 2; ++Trial)
    Inputs.push_back(randomInput(Random, 24 + Random.nextBelow(64)));
  // Back-to-back literal copies: windows coalesce across several hits.
  Inputs.push_back(Patterns[0].substr(0, 3) + Patterns[0].substr(0, 3) + "e" +
                   Patterns[0].substr(0, 3) + randomInput(Random, 16));
  checkPrefilterInputParallel(Seed, Patterns, Inputs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InputParallelPrefilterProperty,
                         ::testing::Range<uint64_t>(9200, 9210));

TEST(InputParallelPrefilter, PrefilterOnlyAndResidualOnly) {
  // No residual group: the gate alone. No literal: the residual group and
  // an empty gate.
  Rng Random(4402);
  std::vector<std::string> Inputs = {"", "abcdabcab", randomInput(Random, 60)};
  checkPrefilterInputParallel(4402, {"abc", "dab[a-c]?", "bca"}, Inputs);
  checkPrefilterInputParallel(4403, {"^ab", "[ab]+c", "cd$"}, Inputs);
}

TEST(InputParallelPrefilter, PooledPhasesAreRaceFree) {
  // Every phase concurrent on one pool (the tsan leg's target): each
  // residual chunk, literal slice and confirm run writes only its own slot,
  // and the caller's recorder is touched by the calling thread alone.
  Rng Random(4404);
  std::string Input;
  while (Input.size() < (1u << 16))
    Input += Random.nextBool(0.2) ? mixedRuleset()[Random.nextBelow(4)]
                                  : randomInput(Random, 24);
  // Groups of three rules: confirm automata are extracted from multi-rule
  // MFSAs.
  const PlannedEngineSet Pre = prefilterPlan(mixedRuleset(), 3);
  MatchRecorder Seq(MatchRecorder::Mode::Collect);
  Pre.run(Input, Seq);
  ASSERT_GT(Seq.total(), 0u);

  InputParallelOptions Opts;
  Opts.Threads = 4;
  Opts.MinChunkBytes = 1;
  Opts.UseThreadPool = true;
  for (int Rep = 0; Rep < 4; ++Rep) {
    MatchRecorder Par(MatchRecorder::Mode::Collect);
    InputParallelStats Stats;
    Pre.runInputParallel(Input, Par, Opts, &Stats);
    EXPECT_EQ(sortedMatches(Par), sortedMatches(Seq));
    EXPECT_EQ(Par.perRule(), Seq.perRule());
    EXPECT_EQ(Stats.Chunks, Pre.numGroups() * 4u);
    EXPECT_EQ(Stats.RescanFallbackChunks, 0u);
  }
}
