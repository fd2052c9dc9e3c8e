//===- TestHelpers.h - shared test utilities --------------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for the test suite: a random-but-valid RE generator for
/// property tests, random input strings biased toward a small alphabet (so
/// matches actually occur), and oracle comparison utilities.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_TESTS_TESTHELPERS_H
#define MFSA_TESTS_TESTHELPERS_H

#include "engine/Imfant.h"
#include "engine/InputParallel.h"
#include "engine/PlannedEngine.h"
#include "fsa/Builder.h"
#include "fsa/Passes.h"
#include "fsa/Reference.h"
#include "mfsa/Merge.h"
#include "regex/Parser.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace mfsa::test {

/// Runs one engine's scanChunks() executor over \p Options' chunks on a
/// pool of its own — one group of PlannedEngineSet::runInputParallel —
/// filling in \p Stats' Threads and Chunks as the set does.
template <class EngineT>
void runInputParallel(const EngineT &Engine, std::string_view Input,
                      MatchRecorder &Recorder,
                      const InputParallelOptions &Options,
                      InputParallelStats *Stats = nullptr) {
  const std::vector<uint64_t> Bounds = inputChunkBounds(Options, Input.size());
  const size_t Chunks = Bounds.size() - 1;
  if (Stats) {
    Stats->Threads = static_cast<unsigned>(Chunks);
    Stats->Chunks = Chunks;
  }
  const std::unique_ptr<ThreadPool> Pool = makeInputPool(Options, Chunks);
  scanChunks(Engine, Input, Bounds, Recorder, Stats, Pool.get());
}

/// A prefilter plan's rule split, read off its groups: the dense residual
/// group's rules and the gate's.
struct PrefilterSplit {
  size_t Gated = 0;
  size_t Residual = 0;
};

inline PrefilterSplit prefilterSplit(const PlannedEngineSet &Set) {
  PrefilterSplit Split;
  for (const PlannedEngineSet::Group &G : Set.groups()) {
    if (const auto *Gate = std::get_if<PrefilterEngine>(&G))
      Split.Gated += Gate->numPrefiltered();
    else if (const auto *Dense = std::get_if<ImfantEngine>(&G))
      Split.Residual += Dense->numRules();
  }
  return Split;
}

/// Generates a random syntactically valid ERE over a tiny alphabet
/// ({a,b,c,d} plus classes) so random inputs hit matches often.
inline std::string randomPattern(Rng &Random, unsigned MaxDepth = 4) {
  if (MaxDepth == 0 || Random.nextBool(0.4)) {
    // Leaf: a character or a small class.
    switch (Random.nextBelow(6)) {
    case 0:
      return "a";
    case 1:
      return "b";
    case 2:
      return "c";
    case 3:
      return "[ab]";
    case 4:
      return "[b-d]";
    default:
      return "d";
    }
  }
  switch (Random.nextBelow(7)) {
  case 0: // concatenation
    return randomPattern(Random, MaxDepth - 1) +
           randomPattern(Random, MaxDepth - 1);
  case 1: // alternation
    return "(" + randomPattern(Random, MaxDepth - 1) + "|" +
           randomPattern(Random, MaxDepth - 1) + ")";
  case 2:
    return "(" + randomPattern(Random, MaxDepth - 1) + ")*";
  case 3:
    return "(" + randomPattern(Random, MaxDepth - 1) + ")+";
  case 4:
    return "(" + randomPattern(Random, MaxDepth - 1) + ")?";
  case 5: {
    uint64_t Lo = Random.nextBelow(3);
    uint64_t Hi = Lo + Random.nextBelow(3);
    return "(" + randomPattern(Random, MaxDepth - 1) + "){" +
           std::to_string(Lo) + "," + std::to_string(Hi) + "}";
  }
  default: {
    uint64_t Lo = 1 + Random.nextBelow(2);
    return "(" + randomPattern(Random, MaxDepth - 1) + "){" +
           std::to_string(Lo) + ",}";
  }
  }
}

/// Random input over {a,b,c,d,e}; 'e' keeps some symbols unmatched.
inline std::string randomInput(Rng &Random, size_t Length) {
  static const char Alphabet[] = "abcde";
  std::string Out;
  Out.reserve(Length);
  for (size_t I = 0; I < Length; ++I)
    Out.push_back(Alphabet[Random.nextBelow(5)]);
  return Out;
}

/// Parses + builds + fully optimizes one pattern; aborts the test on error.
inline Nfa compileOptimized(const std::string &Pattern) {
  Result<Regex> Re = parseRegex(Pattern);
  EXPECT_TRUE(Re.ok()) << Pattern;
  Result<Nfa> Built = buildNfa(*Re);
  EXPECT_TRUE(Built.ok()) << Pattern;
  return optimizeForMerging(*Built);
}

/// Borrows every automaton of \p Fsas, in order: the input form of
/// mergeFsasWithBudget and validateMergeProjection.
inline std::vector<const Nfa *> borrowAll(const std::vector<Nfa> &Fsas) {
  std::vector<const Nfa *> Out;
  Out.reserve(Fsas.size());
  for (const Nfa &A : Fsas)
    Out.push_back(&A);
  return Out;
}

/// Compiles \p Patterns (global ids = indices) and merges them in
/// sequential groups of \p MergingFactor rules (0 = all).
inline std::vector<Mfsa> compileMerged(const std::vector<std::string> &Patterns,
                                       uint32_t MergingFactor) {
  std::vector<Nfa> Fsas;
  for (const std::string &Pattern : Patterns)
    Fsas.push_back(compileOptimized(Pattern));
  return mergeInGroups(Fsas, MergingFactor);
}

/// Formats a set of offsets for failure messages.
inline std::string formatEnds(const std::set<size_t> &Ends) {
  std::string Out = "{";
  for (size_t E : Ends)
    Out += std::to_string(E) + ",";
  Out += "}";
  return Out;
}

/// Per-global-rule match-end sets from a Collect-mode recorder; the common
/// currency of the differential harness (every engine reports through a
/// MatchRecorder, so normalizing here makes the comparisons engine-blind).
inline std::map<uint32_t, std::set<size_t>>
recorderEnds(const MatchRecorder &Recorder) {
  std::map<uint32_t, std::set<size_t>> Ends;
  for (const auto &[Rule, End] : Recorder.matches())
    Ends[Rule].insert(static_cast<size_t>(End));
  return Ends;
}

/// Brute-force oracle: per-rule match ends straight off the ASTs, keyed
/// like recorderEnds (rules with no matches omitted).
inline std::map<uint32_t, std::set<size_t>>
oracleRuleEnds(const std::vector<std::string> &Patterns,
               std::string_view Input) {
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

/// Adversarial cut-point sets for chunked/input-parallel scanning: each
/// entry is a list of interior cut offsets (unsorted, may repeat, may
/// include 0 and Input.size() — i.e. empty chunks) designed to land
/// boundaries exactly where stitching bugs hide:
///
///   1. at every oracle match END (a match completes at a boundary);
///   2. one byte BEFORE and AFTER every match end (boundary mid-match);
///   3. every byte (1-byte chunks; strided capped for long inputs);
///   4. duplicated cuts plus cuts at 0 and len (empty chunks everywhere);
///   5-6. seeded random cut sets.
///
/// Shared by the streaming Scanner tests (feed per chunk) and the
/// input-parallel tests (InputParallelOptions::CutOverride), so both
/// boundary-stitching mechanisms face identical adversaries.
inline std::vector<std::vector<uint64_t>>
adversarialCuts(Rng &Random, std::string_view Input,
                const std::map<uint32_t, std::set<size_t>> &OracleEnds) {
  const uint64_t Len = Input.size();
  std::set<uint64_t> MatchEnds;
  for (const auto &[Rule, Ends] : OracleEnds)
    for (size_t E : Ends)
      MatchEnds.insert(static_cast<uint64_t>(E));

  std::vector<std::vector<uint64_t>> Variants;
  auto Keep = [&](const std::set<uint64_t> &Cuts) {
    std::vector<uint64_t> Out;
    for (uint64_t C : Cuts)
      if (C <= Len)
        Out.push_back(C);
    Variants.push_back(std::move(Out));
  };

  Keep(MatchEnds);
  {
    std::set<uint64_t> Straddle;
    for (uint64_t E : MatchEnds) {
      if (E > 0)
        Straddle.insert(E - 1);
      Straddle.insert(E + 1);
    }
    Keep(Straddle);
  }
  {
    std::vector<uint64_t> Every;
    const uint64_t Step = Len <= 256 ? 1 : Len / 256;
    for (uint64_t C = 1; C < Len; C += Step)
      Every.push_back(C);
    Variants.push_back(std::move(Every));
  }
  {
    std::vector<uint64_t> Empties = {0, 0, Len, Len};
    if (Len > 1) {
      Empties.push_back(Len / 2);
      Empties.push_back(Len / 2);
    }
    Variants.push_back(std::move(Empties));
  }
  for (int V = 0; V < 2; ++V) {
    std::vector<uint64_t> Cuts;
    const size_t N = 1 + Random.nextBelow(6);
    for (size_t I = 0; I < N; ++I)
      Cuts.push_back(Random.nextBelow(Len + 1));
    Variants.push_back(std::move(Cuts));
  }
  return Variants;
}

/// Splits \p Input at \p Cuts (sorted/clamped here), INCLUDING zero-length
/// chunks from duplicate or terminal cuts — callers feeding a streaming
/// Scanner must forward those empty feeds verbatim.
inline std::vector<std::string_view>
chunksFromCuts(std::string_view Input, std::vector<uint64_t> Cuts) {
  for (uint64_t &C : Cuts)
    C = std::min<uint64_t>(C, Input.size());
  std::sort(Cuts.begin(), Cuts.end());
  std::vector<std::string_view> Chunks;
  uint64_t Prev = 0;
  for (uint64_t C : Cuts) {
    Chunks.push_back(Input.substr(Prev, C - Prev));
    Prev = C;
  }
  Chunks.push_back(Input.substr(Prev));
  return Chunks;
}

/// Formats a whole ruleset for failure messages.
inline std::string formatPatterns(const std::vector<std::string> &Patterns) {
  std::string Out = "{";
  for (const std::string &P : Patterns)
    Out += "\"" + P + "\",";
  Out += "}";
  return Out;
}

} // namespace mfsa::test

#endif // MFSA_TESTS_TESTHELPERS_H
