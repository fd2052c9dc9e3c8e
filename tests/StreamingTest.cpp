//===- StreamingTest.cpp - chunked scanning and stride-2 DFA tests -----------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "engine/DfaEngine.h"
#include "engine/Imfant.h"
#include "engine/MultiStride.h"
#include "fsa/Determinize.h"
#include "fsa/Passes.h"
#include "mfsa/Merge.h"
#include "regex/Parser.h"
#include "workload/Datasets.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

using namespace mfsa;
using namespace mfsa::test;

namespace {

Mfsa mergePatterns(const std::vector<std::string> &Patterns) {
  std::vector<Nfa> Fsas;
  std::vector<uint32_t> Ids;
  for (size_t I = 0; I < Patterns.size(); ++I) {
    Fsas.push_back(compileOptimized(Patterns[I]));
    Ids.push_back(static_cast<uint32_t>(I));
  }
  return mergeFsas(Fsas, Ids);
}

using Matches = std::vector<std::pair<uint32_t, uint64_t>>;

Matches oneShot(const ImfantEngine &Engine, const std::string &Input) {
  MatchRecorder Recorder(MatchRecorder::Mode::Collect);
  Engine.run(Input, Recorder);
  Matches Out = Recorder.matches();
  std::sort(Out.begin(), Out.end());
  return Out;
}

Matches chunked(const ImfantEngine &Engine, const std::string &Input,
                const std::vector<size_t> &ChunkSizes) {
  MatchRecorder Recorder(MatchRecorder::Mode::Collect);
  ImfantEngine::Scanner Scan(Engine);
  size_t Pos = 0;
  size_t ChunkIdx = 0;
  while (Pos < Input.size()) {
    size_t Len = ChunkSizes.empty()
                     ? Input.size()
                     : std::min(ChunkSizes[ChunkIdx % ChunkSizes.size()],
                                Input.size() - Pos);
    if (Len == 0)
      Len = 1;
    Scan.feed(std::string_view(Input).substr(Pos, Len), Recorder);
    Pos += Len;
    ++ChunkIdx;
  }
  Scan.finish(Recorder);
  Matches Out = Recorder.matches();
  std::sort(Out.begin(), Out.end());
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Streaming scanner
//===----------------------------------------------------------------------===//

TEST(Scanner, ChunkedEqualsOneShot) {
  Mfsa Z = mergePatterns({"abcd", "bc", "a[bc]+d"});
  ImfantEngine Engine(Z);
  std::string Input = "xxabcdyyabcbcd";
  Matches Reference = oneShot(Engine, Input);
  for (const std::vector<size_t> &Chunks :
       {std::vector<size_t>{1}, {2}, {3}, {5}, {1, 7}, {100}})
    EXPECT_EQ(chunked(Engine, Input, Chunks), Reference);
}

TEST(Scanner, MatchSpanningChunkBoundary) {
  Mfsa Z = mergePatterns({"hello"});
  ImfantEngine Engine(Z);
  MatchRecorder Recorder(MatchRecorder::Mode::Collect);
  ImfantEngine::Scanner Scan(Engine);
  Scan.feed("xxhel", Recorder);
  EXPECT_EQ(Recorder.total(), 0u);
  Scan.feed("loyy", Recorder);
  Scan.finish(Recorder);
  ASSERT_EQ(Recorder.total(), 1u);
  EXPECT_EQ(Recorder.matches()[0], (std::pair<uint32_t, uint64_t>{0, 7}));
}

TEST(Scanner, AnchorsAcrossChunks) {
  Mfsa Z = mergePatterns({"^ab", "cd$"});
  ImfantEngine Engine(Z);
  MatchRecorder Recorder(MatchRecorder::Mode::Collect);
  ImfantEngine::Scanner Scan(Engine);
  Scan.feed("a", Recorder);
  Scan.feed("bxc", Recorder);
  // cd is not complete yet and ^ab already matched at absolute offset 2.
  EXPECT_EQ(Recorder.total(), 1u);
  Scan.feed("d", Recorder);
  // cd ends the stream, but only finish() can know that.
  EXPECT_EQ(Recorder.total(), 1u);
  Scan.finish(Recorder);
  ASSERT_EQ(Recorder.total(), 2u);
  EXPECT_EQ(Recorder.matches()[1], (std::pair<uint32_t, uint64_t>{1, 5}));
}

TEST(Scanner, DollarNotReportedMidStream) {
  Mfsa Z = mergePatterns({"ab$"});
  ImfantEngine Engine(Z);
  MatchRecorder Recorder(MatchRecorder::Mode::Collect);
  ImfantEngine::Scanner Scan(Engine);
  Scan.feed("ab", Recorder);
  Scan.feed("ab", Recorder); // the first "ab" is no longer at the end
  Scan.finish(Recorder);
  ASSERT_EQ(Recorder.total(), 1u);
  EXPECT_EQ(Recorder.matches()[0].second, 4u);
}

TEST(Scanner, ResetEqualsFreshScanner) {
  // The previous stream leaves a live frontier mid-match, a `$` match
  // pending and a non-zero offset, and sometimes is finished and sometimes
  // not; a reset scanner must match like a fresh one, `^` at its offset 0
  // included.
  Mfsa Z = mergePatterns({"^ab", "cd$", "x[0-9]+y", "b[a-d]*c"});
  ImfantEngine Engine(Z);
  const std::vector<std::string> Previous = {"", "abx12", "zzcd", "bab",
                                             "ab cd"};
  const std::vector<std::string> Next = {"", "ab", "abx12y cd", "12ycd",
                                         "bbcx9y ab cd"};
  for (const std::string &Before : Previous)
    for (bool Finish : {false, true})
      for (const std::string &Input : Next) {
        ImfantEngine::Scanner Scan(Engine);
        MatchRecorder Discard;
        Scan.feed(Before, Discard);
        if (Finish)
          Scan.finish(Discard);
        else
          Scan.setInjection(false); // reset turns injection back on
        Scan.reset();
        EXPECT_EQ(Scan.offset(), 0u);
        MatchRecorder Recorder(MatchRecorder::Mode::Collect);
        Scan.feed(Input, Recorder);
        Scan.finish(Recorder);
        Matches Got = Recorder.matches();
        std::sort(Got.begin(), Got.end());
        EXPECT_EQ(Got, oneShot(Engine, Input))
            << "before=\"" << Before << "\" finished=" << Finish
            << " input=\"" << Input << "\"";

        // A configuration seeded after the reset starts from an empty
        // frontier, not from the states the previous stream left active.
        ImfantEngine::Scanner Source(Engine);
        Source.feed("zx1", Discard);
        const ActivationSet Carry = Source.captureActivation();
        ImfantEngine::Scanner Fresh(Engine);
        Scan.reset();
        Scan.feed(Before, Discard);
        Scan.reset();
        for (ImfantEngine::Scanner *S : {&Scan, &Fresh}) {
          S->startAt(3);
          S->seedActivation(Carry);
        }
        MatchRecorder FromReset(MatchRecorder::Mode::Collect);
        MatchRecorder FromFresh(MatchRecorder::Mode::Collect);
        Scan.feed(Input, FromReset);
        Scan.finish(FromReset);
        Fresh.feed(Input, FromFresh);
        Fresh.finish(FromFresh);
        EXPECT_EQ(FromReset.matches(), FromFresh.matches())
            << "seeded; before=\"" << Before << "\" input=\"" << Input
            << "\"";
      }
}

TEST(Scanner, OffsetTracksAbsolutePosition) {
  Mfsa Z = mergePatterns({"x"});
  ImfantEngine Engine(Z);
  ImfantEngine::Scanner Scan(Engine);
  MatchRecorder Recorder;
  EXPECT_EQ(Scan.offset(), 0u);
  Scan.feed("abc", Recorder);
  EXPECT_EQ(Scan.offset(), 3u);
  Scan.feed("de", Recorder);
  EXPECT_EQ(Scan.offset(), 5u);
}

TEST(Scanner, RandomChunkingsProperty) {
  Rng Random(811);
  for (int Round = 0; Round < 8; ++Round) {
    std::vector<std::string> Patterns;
    unsigned Count = 2 + Random.nextBelow(3);
    for (unsigned I = 0; I < Count; ++I)
      Patterns.push_back(randomPattern(Random));
    Mfsa Z = mergePatterns(Patterns);
    ImfantEngine Engine(Z);
    std::string Input = randomInput(Random, 60);
    Matches Reference = oneShot(Engine, Input);
    for (int Trial = 0; Trial < 4; ++Trial) {
      std::vector<size_t> Chunks;
      for (int C = 0; C < 5; ++C)
        Chunks.push_back(1 + Random.nextBelow(9));
      EXPECT_EQ(chunked(Engine, Input, Chunks), Reference)
          << "round " << Round;
    }
  }
}

namespace {

/// Feeds \p Input split at \p Cuts — verbatim, INCLUDING zero-length
/// chunks — so empty feeds must leave the carried activation state intact.
Matches chunkedAtCuts(const ImfantEngine &Engine, const std::string &Input,
                      const std::vector<uint64_t> &Cuts) {
  MatchRecorder Recorder(MatchRecorder::Mode::Collect);
  ImfantEngine::Scanner Scan(Engine);
  for (std::string_view Chunk : chunksFromCuts(Input, Cuts))
    Scan.feed(Chunk, Recorder);
  Scan.finish(Recorder);
  Matches Out = Recorder.matches();
  std::sort(Out.begin(), Out.end());
  return Out;
}

} // namespace

TEST(Scanner, AdversarialChunkingsEqualOneShot) {
  // The shared adversarial chunker (TestHelpers.h) aims cut points at the
  // places carried activation state can be dropped: match ends, mid-match,
  // 1-byte chunks, and empty chunks from duplicate/terminal cuts.
  Rng Random(812);
  for (int Round = 0; Round < 6; ++Round) {
    std::vector<std::string> Patterns;
    unsigned Count = 2 + Random.nextBelow(3);
    for (unsigned I = 0; I < Count; ++I)
      Patterns.push_back(randomPattern(Random));
    Patterns.push_back("^a[ab]*d$"); // anchors under adversarial cuts too
    Mfsa Z = mergePatterns(Patterns);
    ImfantEngine Engine(Z);
    std::string Input = randomInput(Random, 60);
    Matches Reference = oneShot(Engine, Input);
    for (const std::vector<uint64_t> &Cuts :
         adversarialCuts(Random, Input, oracleRuleEnds(Patterns, Input)))
      EXPECT_EQ(chunkedAtCuts(Engine, Input, Cuts), Reference)
          << "round " << Round << " " << formatPatterns(Patterns);
  }
}

TEST(Scanner, MatchStraddlingThreeConsecutiveBoundaries) {
  // One "abcd" occurrence split across four chunks ("xxa|b|c|dxx"): the
  // partial-match activation must survive three consecutive handoffs.
  Mfsa Z = mergePatterns({"abcd", "bc"});
  ImfantEngine Engine(Z);
  std::string Input = "xxabcdxx";
  EXPECT_EQ(chunkedAtCuts(Engine, Input, {3, 4, 5}), oneShot(Engine, Input));
  // The same cuts plus empty chunks at both stream edges.
  EXPECT_EQ(chunkedAtCuts(Engine, Input, {0, 3, 4, 5, 8}),
            oneShot(Engine, Input));
}

TEST(Scanner, StatsAccumulateAcrossFeeds) {
  Mfsa Z = mergePatterns({"aa", "ab"});
  ImfantEngine Engine(Z);
  RunStats Whole;
  MatchRecorder R1;
  Engine.run("aaabab", R1, &Whole);

  RunStats Split;
  MatchRecorder R2;
  ImfantEngine::Scanner Scan(Engine);
  Scan.feed("aaa", R2, &Split);
  Scan.feed("bab", R2, &Split);
  Scan.finish(R2);
  EXPECT_EQ(Split.Steps, Whole.Steps);
  EXPECT_EQ(Split.TransitionsEvaluated, Whole.TransitionsEvaluated);
  EXPECT_EQ(Split.ActiveStates, Whole.ActiveStates);
  EXPECT_EQ(Split.FinalProbes, Whole.FinalProbes);
  EXPECT_GT(Whole.ActiveStates, 0u);
  EXPECT_GT(Whole.FinalProbes, 0u);
  EXPECT_EQ(Split.MaxActiveRules, Whole.MaxActiveRules);
  EXPECT_NEAR(Split.AvgActiveRules, Whole.AvgActiveRules, 1e-9);
  EXPECT_EQ(R1.total(), R2.total());
}

//===----------------------------------------------------------------------===//
// Short rules: one- and two-byte matches, anchors and feed boundaries
//
// Match attempts that begin at a byte are the ones a scan most often drops
// or doubles at a feed boundary. Every case below checks run(), byte-by-byte
// feeding and random splits with empty feeds against the AST oracle, and
// pins the configuration captureActivation() reports after every byte
// against tests/golden/activation/captures.txt (states sorted: the order of
// an ActivationSet's states is unspecified). After an intended change to
// the configurations, regenerate with
//   MFSA_UPDATE_ACTIVATION_GOLDENS=1 build/tests/test_streaming
// and review the diff.
//===----------------------------------------------------------------------===//

namespace {

struct ShortRuleCase {
  std::string Name;
  std::vector<std::string> Patterns;
  std::vector<std::string> Inputs;
};

/// \p Count rules cycling through one-byte, two-byte, `$` and `^` shapes
/// over {a,b,x,y}, so the group fills its last activation word to either
/// side of a 64-rule boundary.
std::vector<std::string> shortRules(size_t Count) {
  static const char Letters[] = "abxy";
  std::vector<std::string> Patterns;
  for (size_t I = 0; I < Count; ++I) {
    const char A = Letters[I % 4], B = Letters[(I / 4) % 4];
    switch ((I / 16) % 4) {
    case 0:
      Patterns.push_back(I % 2 ? std::string{A, B} : std::string{A});
      break;
    case 1:
      Patterns.push_back(std::string{'[', A, B, ']'} + (I % 2 ? "$" : ""));
      break;
    case 2:
      Patterns.push_back(std::string{'^', A} + (I % 2 ? std::string{B} : ""));
      break;
    default:
      Patterns.push_back(std::string{A, B} + (I % 2 ? "$" : "y"));
      break;
    }
  }
  return Patterns;
}

std::string shortInput(Rng &Random, size_t Length) {
  static const char Alphabet[] = "abxyz";
  std::string Out;
  for (size_t I = 0; I < Length; ++I)
    Out.push_back(Alphabet[Random.nextBelow(5)]);
  return Out;
}

std::vector<ShortRuleCase> shortRuleCases() {
  Rng Random(0x5e7);
  const std::vector<std::string> Fixed = {"",     "a",    "b",   "ab",
                                          "aab",  "xyab", "ba",  "abab",
                                          "yxa",  "zaz",  "bbaa"};
  std::vector<ShortRuleCase> Cases = {
      {"one-byte", {"a", "[xy]"}, Fixed},
      {"one-byte-end", {"a$", "b", "[xy]$"}, Fixed},
      {"anchored", {"^a", "^ab", "b"}, Fixed},
      {"two-byte", {"ab", "[xy]b", "ba"}, Fixed},
      {"mixed", {"a", "ab$", "^b", "[xy]", "yx", "a[bx]*y"}, Fixed}};
  for (ShortRuleCase &Case : Cases)
    for (size_t Len : {17u, 33u})
      Case.Inputs.push_back(shortInput(Random, Len));
  for (size_t Count : {63u, 64u, 65u}) {
    ShortRuleCase Case{"rules" + std::to_string(Count), shortRules(Count),
                       {"", "a", "ab", "xyab", "bbaa"}};
    Case.Inputs.push_back(shortInput(Random, 21));
    Cases.push_back(std::move(Case));
  }
  return Cases;
}

Matches collected(const MatchRecorder &Recorder) {
  Matches Out = Recorder.matches();
  std::sort(Out.begin(), Out.end());
  return Out;
}

Matches oracleMatches(const std::vector<std::string> &Patterns,
                      const std::string &Input) {
  Matches Out;
  for (const auto &[Rule, Ends] : oracleRuleEnds(Patterns, Input))
    for (size_t End : Ends)
      Out.emplace_back(Rule, End);
  std::sort(Out.begin(), Out.end());
  return Out;
}

/// One configuration as "state:word.word" entries sorted by state.
std::string formatActivation(const ActivationSet &Config) {
  std::vector<std::pair<StateId, std::string>> Entries;
  for (size_t I = 0; I < Config.size(); ++I) {
    std::string Words;
    for (uint32_t W = 0; W < Config.Words; ++W) {
      char Hex[24];
      std::snprintf(Hex, sizeof(Hex), "%s%llx", W ? "." : "",
                    static_cast<unsigned long long>(Config.block(I)[W]));
      Words += Hex;
    }
    Entries.emplace_back(Config.States[I], Words);
  }
  std::sort(Entries.begin(), Entries.end());
  std::string Out;
  for (const auto &[State, Words] : Entries)
    Out += " " + std::to_string(State) + ":" + Words;
  return Out;
}

} // namespace

TEST(ShortRules, EveryFeedingMatchesOracle) {
  Rng Random(0x5e8);
  for (const ShortRuleCase &Case : shortRuleCases()) {
    const Mfsa Z = mergePatterns(Case.Patterns);
    const ImfantEngine Engine(Z);
    for (const std::string &Input : Case.Inputs) {
      const std::string Tag = Case.Name + " \"" + Input + "\"";
      const Matches Expected = oracleMatches(Case.Patterns, Input);
      EXPECT_EQ(oneShot(Engine, Input), Expected) << "run " << Tag;
      EXPECT_EQ(chunked(Engine, Input, {1}), Expected) << "bytes " << Tag;
      for (int Trial = 0; Trial < 6; ++Trial) {
        // Cuts may repeat and may sit at 0 or the end: empty feeds.
        std::vector<uint64_t> Cuts;
        for (uint64_t C = Random.nextBelow(6); C > 0; --C)
          Cuts.push_back(Random.nextBelow(Input.size() + 1));
        EXPECT_EQ(chunkedAtCuts(Engine, Input, Cuts), Expected)
            << "cuts=" << Cuts.size() << " " << Tag;
      }
    }
  }
}

TEST(ShortRules, ResetAndInjectionOffAtEveryByte) {
  // Stop a stream after every prefix P of each input, then:
  //  - reset() and scan the whole input: it must match like a fresh scan;
  //  - turn injection off and feed the rest R: the attempts begun in P,
  //    with those a fresh scan of R begins at offset |P|, must give every
  //    match of P + R (the input-parallel join's decomposition);
  //  - capture the configuration and seed it, injection off, into a
  //    scanner positioned at |P|: it must report what the carried scan
  //    reports.
  for (const ShortRuleCase &Case : shortRuleCases()) {
    const Mfsa Z = mergePatterns(Case.Patterns);
    const ImfantEngine Engine(Z);
    for (const std::string &Input : Case.Inputs) {
      const Matches Expected = oracleMatches(Case.Patterns, Input);
      for (size_t Cut = 0; Cut <= Input.size(); ++Cut) {
        const std::string Tag = Case.Name + " \"" + Input.substr(0, Cut) +
                                "|" + Input.substr(Cut) + "\"";
        const std::string_view Prefix = std::string_view(Input).substr(0, Cut);
        const std::string_view Rest = std::string_view(Input).substr(Cut);
        {
          ImfantEngine::Scanner Scan(Engine);
          MatchRecorder Discard;
          Scan.feed(Prefix, Discard);
          Scan.reset();
          MatchRecorder Recorder(MatchRecorder::Mode::Collect);
          Scan.feed(Input, Recorder);
          Scan.finish(Recorder);
          EXPECT_EQ(collected(Recorder), Expected) << "reset " << Tag;
        }
        MatchRecorder Whole(MatchRecorder::Mode::Collect);
        ImfantEngine::Scanner Carried(Engine);
        Carried.feed(Prefix, Whole);
        const ActivationSet Boundary = Carried.captureActivation();
        Carried.setInjection(false);
        MatchRecorder CarriedOnly(MatchRecorder::Mode::Collect);
        Carried.feed(Rest, CarriedOnly);
        Carried.finish(CarriedOnly);
        for (const auto &[Rule, End] : CarriedOnly.matches())
          Whole.onMatch(Rule, End);
        ImfantEngine::Scanner Iso(Engine);
        Iso.startAt(Cut);
        Iso.feed(Rest, Whole);
        Iso.finish(Whole);
        Matches Union = collected(Whole);
        Union.erase(std::unique(Union.begin(), Union.end()), Union.end());
        EXPECT_EQ(Union, Expected) << "injection off " << Tag;

        ImfantEngine::Scanner Seeded(Engine);
        Seeded.startAt(Cut);
        Seeded.setInjection(false);
        Seeded.seedActivation(Boundary);
        EXPECT_EQ(Seeded.frontierEmpty(), Boundary.empty()) << Tag;
        MatchRecorder FromSeed(MatchRecorder::Mode::Collect);
        Seeded.feed(Rest, FromSeed);
        if (!Rest.empty())
          Seeded.finish(FromSeed);
        Matches CarriedRest = collected(CarriedOnly);
        if (Rest.empty()) // `$` matches at |P| are the prefix scan's own
          CarriedRest.clear();
        EXPECT_EQ(collected(FromSeed), CarriedRest) << "seeded " << Tag;
      }
    }
  }
}

TEST(ShortRules, CapturedConfigurationsMatchCommittedGolden) {
  std::string Actual;
  for (const ShortRuleCase &Case : shortRuleCases()) {
    const Mfsa Z = mergePatterns(Case.Patterns);
    const ImfantEngine Engine(Z);
    for (const std::string &Input : Case.Inputs) {
      Actual += Case.Name + " \"" + Input + "\"\n";
      ImfantEngine::Scanner Scan(Engine);
      MatchRecorder Discard;
      for (size_t Pos = 0; Pos < Input.size(); ++Pos) {
        Scan.feed(std::string_view(Input).substr(Pos, 1), Discard);
        Actual += "  @" + std::to_string(Pos + 1) +
                  formatActivation(Scan.captureActivation()) + "\n";
      }
    }
  }

  const std::string Path =
      std::string(MFSA_ACTIVATION_GOLDEN_DIR) + "/captures.txt";
  const char *Update = std::getenv("MFSA_UPDATE_ACTIVATION_GOLDENS");
  if (Update && std::string(Update) == "1") {
    std::ofstream(Path, std::ios::binary) << Actual;
    GTEST_SKIP() << "rewrote " << Path;
  }
  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In) << "missing golden " << Path;
  std::ostringstream Golden;
  Golden << In.rdbuf();
  EXPECT_EQ(Actual, Golden.str()) << "configurations drifted from " << Path;
}

//===----------------------------------------------------------------------===//
// Stride-2 DFA
//===----------------------------------------------------------------------===//

namespace {

std::map<uint32_t, std::set<size_t>> dfaEnds(const Dfa &D,
                                             const std::string &Input) {
  DfaEngine Engine(D);
  MatchRecorder Recorder(MatchRecorder::Mode::Collect);
  Engine.run(Input, Recorder);
  std::map<uint32_t, std::set<size_t>> Ends;
  for (const auto &[Rule, End] : Recorder.matches())
    Ends[Rule].insert(static_cast<size_t>(End));
  return Ends;
}

std::map<uint32_t, std::set<size_t>> stridedEnds(const StridedDfa &D,
                                                 const std::string &Input) {
  StridedDfaEngine Engine(D);
  MatchRecorder Recorder(MatchRecorder::Mode::Collect);
  Engine.run(Input, Recorder);
  std::map<uint32_t, std::set<size_t>> Ends;
  for (const auto &[Rule, End] : Recorder.matches())
    Ends[Rule].insert(static_cast<size_t>(End));
  return Ends;
}

} // namespace

TEST(MultiStride, EquivalentToStride1) {
  std::vector<std::string> Patterns = {"abc", "a[bc]d", "xy", "b{2,3}"};
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

  Rng Random(911);
  for (int Trial = 0; Trial < 20; ++Trial) {
    // Both even- and odd-length inputs (odd exercises the trailing byte).
    std::string Input = randomInput(Random, 10 + Random.nextBelow(12));
    EXPECT_EQ(dfaEnds(*D, Input), stridedEnds(*S2, Input)) << Input;
  }
  EXPECT_EQ(dfaEnds(*D, ""), stridedEnds(*S2, ""));
  EXPECT_EQ(dfaEnds(*D, "a"), stridedEnds(*S2, "a"));
}

TEST(MultiStride, AnchoredEndAtOddAndEvenOffsets) {
  std::vector<Nfa> Fsas = {compileOptimized("ab$"),
                           compileOptimized("abc$")};
  Result<Dfa> D = determinize(Fsas, {0, 1});
  ASSERT_TRUE(D.ok());
  Result<StridedDfa> S2 = makeStride2(*D);
  ASSERT_TRUE(S2.ok());
  // Even-length input: `$` fires on the full-stride boundary.
  EXPECT_EQ(stridedEnds(*S2, "xxab"), dfaEnds(*D, "xxab"));
  // Odd-length input: `$` fires on the trailing half-stride.
  EXPECT_EQ(stridedEnds(*S2, "xxxab"), dfaEnds(*D, "xxxab"));
  EXPECT_EQ(stridedEnds(*S2, "xxabc"), dfaEnds(*D, "xxabc"));
}

TEST(MultiStride, TableBlowupCapTriggers) {
  std::vector<Nfa> Fsas = {compileOptimized("[a-z]{4}[0-9]{3}x")};
  Result<Dfa> D = determinize(Fsas, {0});
  ASSERT_TRUE(D.ok());
  StrideOptions Options;
  Options.MaxTableEntries = 16;
  Result<StridedDfa> S2 = makeStride2(*D, Options);
  ASSERT_FALSE(S2.ok());
  EXPECT_NE(S2.diag().Message.find("blowup"), std::string::npos);
}

TEST(MultiStride, QuadraticTableGrowth) {
  std::vector<Nfa> Fsas = {compileOptimized("abc[def]g")};
  Result<Dfa> D = determinize(Fsas, {0});
  ASSERT_TRUE(D.ok());
  Result<StridedDfa> S2 = makeStride2(*D);
  ASSERT_TRUE(S2.ok());
  EXPECT_EQ(S2->Next2.size(), static_cast<size_t>(D->NumStates) *
                                  D->NumAtoms * D->NumAtoms);
  EXPECT_GT(S2->footprintBytes(), D->footprintBytes());
}
