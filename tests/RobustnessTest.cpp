//===- RobustnessTest.cpp - fuzz-style robustness tests ----------------------===//
//
// Part of the mfsa project. MIT License.
//
// The front-end and the ANML reader consume untrusted input; these tests
// hammer them with garbage and mutations. The invariant is never "rejects" —
// it is "never crashes, and whatever is accepted behaves consistently".
//
//===----------------------------------------------------------------------===//

#include "anml/Anml.h"
#include "compiler/Pipeline.h"
#include "engine/Imfant.h"
#include "engine/Parallel.h"
#include "fsa/Builder.h"
#include "fsa/Passes.h"
#include "fsa/Reference.h"
#include "mfsa/Merge.h"
#include "regex/Parser.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>

using namespace mfsa;
using namespace mfsa::test;

namespace {

/// Random bytes over the full 0..255 range, newline-free to keep failure
/// messages printable-ish.
std::string randomBytes(Rng &Random, size_t Length) {
  std::string Out;
  Out.reserve(Length);
  for (size_t I = 0; I < Length; ++I) {
    unsigned char C = static_cast<unsigned char>(Random.nextBelow(256));
    Out.push_back(static_cast<char>(C == '\n' ? ' ' : C));
  }
  return Out;
}

/// Random strings biased toward RE metacharacters so the parser's error
/// paths actually trigger.
std::string randomMetaSoup(Rng &Random, size_t Length) {
  static const char Soup[] = "()[]{}|*+?^$-\\.,abz09";
  std::string Out;
  Out.reserve(Length);
  for (size_t I = 0; I < Length; ++I)
    Out.push_back(Soup[Random.nextBelow(sizeof(Soup) - 1)]);
  return Out;
}

} // namespace

TEST(Robustness, ParserSurvivesMetaSoup) {
  Rng Random(1001);
  unsigned Accepted = 0;
  for (int Trial = 0; Trial < 2000; ++Trial) {
    std::string Pattern = randomMetaSoup(Random, 1 + Random.nextBelow(24));
    Result<Regex> Re = parseRegex(Pattern);
    if (!Re.ok())
      continue;
    ++Accepted;
    // Whatever parses must build, optimize, and round-trip stably.
    Result<Nfa> Built = buildNfa(*Re);
    if (!Built.ok())
      continue; // bound cap may trigger; that is a clean diagnostic
    Nfa Optimized = optimizeForMerging(*Built);
    std::string Printed = printAst(*Re->Root);
    Result<Regex> Again = parseRegex(Printed);
    ASSERT_TRUE(Again.ok()) << "printer output unparsable: " << Printed;
    EXPECT_EQ(printAst(*Again->Root), Printed) << Pattern;
  }
  // Sanity: the soup isn't rejecting everything (the fuzz would be vacuous).
  EXPECT_GT(Accepted, 100u);
}

TEST(Robustness, ParserSurvivesRawBytes) {
  Rng Random(1009);
  for (int Trial = 0; Trial < 1000; ++Trial) {
    std::string Pattern = randomBytes(Random, 1 + Random.nextBelow(32));
    Result<Regex> Re = parseRegex(Pattern); // must not crash
    if (Re.ok()) {
      EXPECT_NE(Re->Root, nullptr);
    }
  }
}

TEST(Robustness, AcceptedGarbageMatchesItsOwnSemantics) {
  // For accepted random patterns, the three semantic layers must agree on
  // random inputs — garbage in, consistency out.
  Rng Random(1013);
  int Checked = 0;
  for (int Trial = 0; Trial < 400 && Checked < 60; ++Trial) {
    std::string Pattern = randomMetaSoup(Random, 1 + Random.nextBelow(12));
    Result<Regex> Re = parseRegex(Pattern);
    if (!Re.ok())
      continue;
    Result<Nfa> Built = buildNfa(*Re);
    if (!Built.ok())
      continue;
    if (Built->numStates() > 300)
      continue; // keep the oracle affordable
    ++Checked;
    Nfa Optimized = optimizeForMerging(*Built);
    std::string Input = randomBytes(Random, 16);
    EXPECT_EQ(astMatchEnds(*Re, Input), simulateNfa(Optimized, Input))
        << Pattern;
  }
  EXPECT_GT(Checked, 20);
}

TEST(Robustness, AnmlReaderSurvivesMutations) {
  // Start from a valid document and apply random point mutations.
  std::vector<Nfa> Fsas = {compileOptimized("ab[cd]e{1,2}"),
                           compileOptimized("xy|z")};
  Mfsa Z = mergeFsas(Fsas, {0, 1});
  std::string Document = writeAnml(Z, "fuzz");

  Rng Random(1019);
  for (int Trial = 0; Trial < 1500; ++Trial) {
    std::string Mutated = Document;
    unsigned Mutations = 1 + Random.nextBelow(4);
    for (unsigned M = 0; M < Mutations; ++M) {
      size_t Pos = Random.nextBelow(Mutated.size());
      switch (Random.nextBelow(3)) {
      case 0: // flip a byte
        Mutated[Pos] = static_cast<char>(Random.nextBelow(128));
        break;
      case 1: // truncate
        Mutated.resize(Pos);
        break;
      default: // duplicate a slice
        Mutated.insert(Pos, Mutated.substr(Pos, Random.nextBelow(8)));
        break;
      }
      if (Mutated.empty())
        break;
    }
    Result<Mfsa> Back = readAnml(Mutated); // must not crash
    if (Back.ok()) {
      EXPECT_EQ(Back->verify(), ""); // accepted => internally consistent
    }
  }
}

TEST(Robustness, EngineHandlesFullByteRange) {
  // Transitions over the whole byte alphabet, input over the whole byte
  // alphabet, including NUL.
  std::vector<Nfa> Fsas = {compileOptimized("\\x00\\xff"),
                           compileOptimized("[\\x00-\\x1f]{2}"),
                           compileOptimized(".a")};
  Mfsa Z = mergeFsas(Fsas, {0, 1, 2});
  ImfantEngine Engine(Z);

  std::string Input;
  Input.push_back('\0');
  Input.push_back('\xff');
  Input.push_back('\0');
  Input.push_back('\x01');
  Input.push_back('a');
  MatchRecorder Recorder(MatchRecorder::Mode::Collect);
  Engine.run(Input, Recorder);

  std::set<std::pair<uint32_t, uint64_t>> Got(Recorder.matches().begin(),
                                              Recorder.matches().end());
  // \x00\xff at offset 2; [\x00-\x1f]{2} at 4 (\x00\x01); .a at 5 (\x01 a).
  EXPECT_TRUE(Got.count({0, 2}));
  EXPECT_TRUE(Got.count({1, 4}));
  EXPECT_TRUE(Got.count({2, 5}));
}

TEST(Robustness, PipelineRejectsWithoutLeakingState) {
  // A ruleset failing mid-way must produce a clean diagnostic regardless of
  // how many rules preceded the bad one.
  for (int Prefix = 0; Prefix < 5; ++Prefix) {
    std::vector<std::string> Patterns(Prefix, "good");
    Patterns.push_back("bad[");
    Result<CompileArtifacts> Artifacts = compileRuleset(Patterns);
    ASSERT_FALSE(Artifacts.ok());
    EXPECT_NE(Artifacts.diag().Message.find("rule " + std::to_string(Prefix)),
              std::string::npos);
  }
}

TEST(Robustness, IsolatePolicySurvivesMixedGarbageRulesets) {
  // Fuzz the fault-isolating pipeline: rulesets mixing healthy patterns,
  // meta-soup garbage, and the occasional expansion bomb. Invariants:
  //  - compileRuleset never fails under Isolate (empty survivor set is fine),
  //  - CompiledRuleIds and Quarantined partition the input ruleset,
  //  - every surviving rule matches its brute-force oracle on random input,
  //    reported under its *original* index.
  Rng Random(2003);
  static const char *Healthy[] = {"abc", "a[bc]+d", "x.?y", "q{1,3}z", "m|n"};
  for (int Trial = 0; Trial < 40; ++Trial) {
    std::vector<std::string> Patterns;
    size_t NumRules = 2 + Random.nextBelow(6);
    for (size_t I = 0; I < NumRules; ++I) {
      switch (Random.nextBelow(4)) {
      case 0:
        Patterns.push_back(randomMetaSoup(Random, 1 + Random.nextBelow(10)));
        break;
      case 1:
        Patterns.push_back("a{400}{400}"); // budget buster
        break;
      default:
        Patterns.push_back(Healthy[Random.nextBelow(5)]);
        break;
      }
    }

    CompileOptions Options;
    Options.Policy = FailurePolicy::Isolate;
    Options.MergingFactor = 1 + Random.nextBelow(3);
    Result<CompileArtifacts> Artifacts = compileRuleset(Patterns, Options);
    ASSERT_TRUE(Artifacts.ok());

    // Partition invariant.
    std::set<uint32_t> Seen;
    for (uint32_t Id : Artifacts->CompiledRuleIds)
      EXPECT_TRUE(Seen.insert(Id).second);
    for (const QuarantinedRule &Q : Artifacts->Quarantined)
      EXPECT_TRUE(Seen.insert(Q.RuleIndex).second);
    EXPECT_EQ(Seen.size(), Patterns.size());

    // Oracle agreement on random input, keyed by original indices.
    std::string Input = randomBytes(Random, 24);
    std::map<uint32_t, std::set<size_t>> Expected;
    for (uint32_t Id : Artifacts->CompiledRuleIds) {
      Result<Regex> Re = parseRegex(Patterns[Id]);
      ASSERT_TRUE(Re.ok()); // survivors parsed once already
      std::set<size_t> Ends = astMatchEnds(*Re, Input);
      if (!Ends.empty())
        Expected[Id] = Ends;
    }
    std::map<uint32_t, std::set<size_t>> Got;
    for (const Mfsa &Z : Artifacts->Mfsas) {
      ImfantEngine Engine(Z);
      MatchRecorder Recorder(MatchRecorder::Mode::Collect);
      Engine.run(Input, Recorder);
      for (auto &[Rule, End] : Recorder.matches())
        Got[Rule].insert(static_cast<size_t>(End));
    }
    EXPECT_EQ(Got, Expected);
  }
}

TEST(Robustness, ExpansionBombIsQuarantinedNotFatal) {
  // a{1000}{1000} would be a million states; the per-rule budget turns it
  // into a quarantine entry instead of an allocation storm.
  std::vector<std::string> Patterns = {"safe", "a{1000}{1000}"};
  CompileOptions Options;
  Options.Policy = FailurePolicy::Isolate;
  Options.Budget.MaxFsaStates = 10000;
  Result<CompileArtifacts> Artifacts = compileRuleset(Patterns, Options);
  ASSERT_TRUE(Artifacts.ok());
  ASSERT_EQ(Artifacts->Quarantined.size(), 1u);
  EXPECT_EQ(Artifacts->Quarantined[0].RuleIndex, 1u);
  EXPECT_EQ(Artifacts->Quarantined[0].Stage, CompileStage::AstToFsa);
  EXPECT_NE(Artifacts->Quarantined[0].Reason.Message.find("state budget"),
            std::string::npos);
  EXPECT_EQ(Artifacts->CompiledRuleIds, (std::vector<uint32_t>{0}));
}

TEST(Robustness, ParallelRunExpiredDeadlineReturnsFlaggedPartialResult) {
  // An already-expired deadline must come back promptly with Degraded set and
  // a truthful completion bitmap — never block on the full input.
  std::vector<std::string> Patterns = {"ab", "cd", "ef", "gh"};
  CompileOptions Options;
  Options.MergingFactor = 1; // one engine per rule
  Result<CompileArtifacts> Artifacts = compileRuleset(Patterns, Options);
  ASSERT_TRUE(Artifacts.ok());
  std::vector<ImfantEngine> Engines;
  for (const Mfsa &Z : Artifacts->Mfsas)
    Engines.emplace_back(Z);

  Rng Random(2011);
  std::string Input = randomBytes(Random, 1 << 20);

  ParallelRunOptions Run;
  Run.DeadlineMs = 1e-6; // expired before any worker can claim
  Run.ChunkBytes = 4096;
  ParallelRunResult Partial = runParallel(Engines, Input, 2, nullptr, Run);
  EXPECT_TRUE(Partial.Degraded);
  EXPECT_LT(Partial.NumCompleted, Engines.size());
  EXPECT_EQ(Partial.Completed.size(), Engines.size());
  EXPECT_EQ(Partial.Completed.count(), Partial.NumCompleted);

  // A pre-tripped cancellation token behaves the same way.
  std::atomic<bool> Cancel{true};
  ParallelRunOptions Cancelled;
  Cancelled.CancelToken = &Cancel;
  Cancelled.ChunkBytes = 4096;
  ParallelRunResult Stopped =
      runParallel(Engines, Input, 2, nullptr, Cancelled);
  EXPECT_TRUE(Stopped.Degraded);
  EXPECT_EQ(Stopped.NumCompleted, 0u);
  EXPECT_EQ(Stopped.TotalMatches, 0u);
}

TEST(Robustness, HugeClassAndDeepNesting) {
  // Deep nesting and full-range classes stress the recursive descent.
  const int Depth = 200;
  std::string Deep;
  for (int I = 0; I < Depth; ++I)
    Deep += "(a";
  Deep += "b";
  for (int I = 0; I < Depth; ++I)
    Deep += ")";
  Result<Regex> Re = parseRegex(Deep);
  ASSERT_TRUE(Re.ok());
  Result<Nfa> Built = buildNfa(*Re);
  ASSERT_TRUE(Built.ok());
  // The language is exactly Depth a's followed by b.
  std::string Match(Depth, 'a');
  Match += 'b';
  EXPECT_EQ(simulateNfa(*Built, Match), (std::set<size_t>{Match.size()}));
  EXPECT_TRUE(simulateNfa(*Built, Match.substr(1)).empty());

  Result<Regex> Wide = parseRegex("[\\x00-\\xff]{3}");
  ASSERT_TRUE(Wide.ok());
  Nfa WideFsa = optimizeForMerging(*buildNfa(*Wide));
  EXPECT_EQ(simulateNfa(WideFsa, "xyz"), (std::set<size_t>{3}));
}
