//===- ExtensionsTest.cpp - alphabet atoms, DFA, clustering ------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "compiler/Pipeline.h"
#include "engine/DfaEngine.h"
#include "fsa/AlphabetPartition.h"
#include "fsa/Determinize.h"
#include "fsa/Reference.h"
#include "mfsa/Merge.h"
#include "workload/Clustering.h"
#include "workload/Datasets.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <map>

using namespace mfsa;
using namespace mfsa::test;

namespace {

std::vector<Nfa> compileAll(const std::vector<std::string> &Patterns) {
  std::vector<Nfa> Fsas;
  for (const std::string &P : Patterns)
    Fsas.push_back(compileOptimized(P));
  return Fsas;
}

std::vector<uint32_t> iota(size_t N) {
  std::vector<uint32_t> Ids(N);
  for (size_t I = 0; I < N; ++I)
    Ids[I] = static_cast<uint32_t>(I);
  return Ids;
}

/// Per-rule match-end sets from any engine-like callable.
template <typename RunT>
std::map<uint32_t, std::set<size_t>> collect(RunT &&Run) {
  MatchRecorder Recorder(MatchRecorder::Mode::Collect);
  Run(Recorder);
  std::map<uint32_t, std::set<size_t>> Ends;
  for (const auto &[Rule, End] : Recorder.matches())
    Ends[Rule].insert(static_cast<size_t>(End));
  return Ends;
}

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
// Alphabet partition (partial CC merging, paper §VI-A proposal)
//===----------------------------------------------------------------------===//

TEST(AlphabetPartition, AtomsPartitionTheLabels) {
  std::vector<Nfa> Fsas = compileAll({"[abce]x", "[bcd]y"});
  std::vector<SymbolSet> Atoms = computeAlphabetAtoms(Fsas);

  // Atoms are pairwise disjoint and cover the whole alphabet.
  SymbolSet Union;
  for (size_t I = 0; I < Atoms.size(); ++I) {
    EXPECT_FALSE(Atoms[I].empty());
    for (size_t J = I + 1; J < Atoms.size(); ++J)
      EXPECT_FALSE(Atoms[I].intersects(Atoms[J]));
    Union |= Atoms[I];
  }
  EXPECT_EQ(Union.count(), 256u);

  // [bc] must be an atom (the shared part), and every label a union of
  // atoms.
  bool FoundBc = false;
  for (const SymbolSet &Atom : Atoms)
    if (Atom == SymbolSet::of("bc"))
      FoundBc = true;
  EXPECT_TRUE(FoundBc);
  for (const Nfa &A : Fsas)
    for (const Transition &T : A.transitions())
      for (const SymbolSet &Atom : Atoms)
        if (T.Label.intersects(Atom)) {
          EXPECT_EQ((T.Label & Atom), Atom)
              << "label " << T.Label.toString() << " splits atom "
              << Atom.toString();
        }
}

TEST(AlphabetPartition, SplitPreservesLanguage) {
  std::vector<Nfa> Fsas =
      compileAll({"[a-d]{2}e", "x[b-f]y", "[ab]|[cd]"});
  std::vector<Nfa> Split = splitAllByAtoms(Fsas);
  Rng Random(31);
  for (size_t I = 0; I < Fsas.size(); ++I) {
    EXPECT_GE(Split[I].numTransitions(), Fsas[I].numTransitions());
    EXPECT_EQ(Split[I].numStates(), Fsas[I].numStates());
    for (int Trial = 0; Trial < 10; ++Trial) {
      std::string Input = randomInput(Random, 15);
      EXPECT_EQ(simulateNfa(Fsas[I], Input), simulateNfa(Split[I], Input));
    }
  }
}

TEST(AlphabetPartition, EnablesPartialCcMerging) {
  // The paper's own example: [abce] and [bcd] share [bc] only. With exact
  // matching nothing merges; with atom splitting the [bc] piece does.
  std::vector<std::string> Patterns = {"[abce]x", "[bcd]x"};
  std::vector<Nfa> Exact = compileAll(Patterns);
  Mfsa NoSplit = mergeFsas(Exact, iota(2));

  std::vector<Nfa> Split = splitAllByAtoms(Exact);
  Mfsa WithSplit = mergeFsas(Split, iota(2));

  EXPECT_LT(WithSplit.numStates(), NoSplit.numStates());
  // A [bc]-labeled transition belonging to both rules must exist.
  bool SharedBc = false;
  for (const MfsaTransition &T : WithSplit.transitions())
    if (T.Label == SymbolSet::of("bc") && T.Bel.test(0) && T.Bel.test(1))
      SharedBc = true;
  EXPECT_TRUE(SharedBc);
  EXPECT_EQ(WithSplit.verify(), "");
}

TEST(AlphabetPartition, PipelineOptionPreservesMatches) {
  std::vector<std::string> Patterns = {"[abce]x", "[bcd]x", "a[0-9]{2}"};
  CompileOptions Plain;
  Plain.MergingFactor = 0;
  Plain.EmitAnml = false;
  CompileOptions SplitOpt = Plain;
  SplitOpt.SplitCcByAtoms = true;

  Result<CompileArtifacts> A = compileRuleset(Patterns, Plain);
  Result<CompileArtifacts> B = compileRuleset(Patterns, SplitOpt);
  ASSERT_TRUE(A.ok());
  ASSERT_TRUE(B.ok());
  ImfantEngine EngineA(A->Mfsas[0]), EngineB(B->Mfsas[0]);
  std::string Input = "zax bx cx dx a42 e19";
  EXPECT_EQ(collect([&](MatchRecorder &R) { EngineA.run(Input, R); }),
            collect([&](MatchRecorder &R) { EngineB.run(Input, R); }));
}

//===----------------------------------------------------------------------===//
// Determinization + DFA engine
//===----------------------------------------------------------------------===//

TEST(Determinize, SingleRuleAgainstOracle) {
  const char *Patterns[] = {"abc", "a[bc]+d", "x.*y", "a{2,4}", "(ab|ba)c"};
  Rng Random(61);
  for (const char *Pattern : Patterns) {
    std::vector<Nfa> Fsas = compileAll({Pattern});
    Result<Dfa> D = determinize(Fsas, {0});
    ASSERT_TRUE(D.ok()) << Pattern;
    DfaEngine Engine(*D);
    for (int Trial = 0; Trial < 10; ++Trial) {
      std::string Input = randomInput(Random, 25);
      EXPECT_EQ(collect([&](MatchRecorder &R) { Engine.run(Input, R); }),
                oracleEnds({Pattern}, Input))
          << Pattern << " on " << Input;
    }
  }
}

TEST(Determinize, MultiRuleUnionAgainstOracle) {
  std::vector<std::string> Patterns = {"abc", "ab", "b+c", "[cd]a"};
  std::vector<Nfa> Fsas = compileAll(Patterns);
  Result<Dfa> D = determinize(Fsas, iota(Patterns.size()));
  ASSERT_TRUE(D.ok());
  DfaEngine Engine(*D);
  Rng Random(67);
  for (int Trial = 0; Trial < 15; ++Trial) {
    std::string Input = randomInput(Random, 30);
    EXPECT_EQ(collect([&](MatchRecorder &R) { Engine.run(Input, R); }),
              oracleEnds(Patterns, Input))
        << Input;
  }
}

TEST(Determinize, AnchorsRespected) {
  std::vector<std::string> Patterns = {"^ab", "ab$", "ab", "a*"};
  std::vector<Nfa> Fsas = compileAll(Patterns);
  Result<Dfa> D = determinize(Fsas, iota(Patterns.size()));
  ASSERT_TRUE(D.ok());
  DfaEngine Engine(*D);
  std::string Input = "abxab";
  auto Ends = collect([&](MatchRecorder &R) { Engine.run(Input, R); });
  EXPECT_EQ(Ends, oracleEnds(Patterns, Input));
  EXPECT_EQ(Ends[0], (std::set<size_t>{2}));
  EXPECT_EQ(Ends[1], (std::set<size_t>{5}));
}

TEST(Determinize, EmptyMatchingRuleNeverReportsEmpty) {
  // a* matches ε everywhere; only non-empty runs may be reported.
  std::vector<Nfa> Fsas = compileAll({"a*"});
  Result<Dfa> D = determinize(Fsas, {0});
  ASSERT_TRUE(D.ok());
  DfaEngine Engine(*D);
  auto Ends = collect([&](MatchRecorder &R) { Engine.run("bab", R); });
  EXPECT_EQ(Ends[0], (std::set<size_t>{2}));
}

TEST(Determinize, ExplosionCapTriggers) {
  // Many .* patterns force exponential subset growth.
  std::vector<std::string> Patterns;
  for (char C = 'a'; C <= 'j'; ++C)
    Patterns.push_back(std::string(1, C) + ".*" + std::string(1, C) + ".*" +
                       std::string(1, C));
  std::vector<Nfa> Fsas = compileAll(Patterns);
  DeterminizeOptions Options;
  Options.MaxStates = 64;
  Result<Dfa> D = determinize(Fsas, iota(Patterns.size()), Options);
  ASSERT_FALSE(D.ok());
  EXPECT_NE(D.diag().Message.find("explosion"), std::string::npos);
}

TEST(Determinize, DfaMatchesImfantOnMergedRuleset) {
  std::vector<std::string> Patterns = {"get[a-z]+", "post[a-z]+", "getx",
                                       "puty{1,3}"};
  std::vector<Nfa> Fsas = compileAll(Patterns);
  Mfsa Z = mergeFsas(Fsas, iota(Patterns.size()));
  ImfantEngine Nfa(Z);
  Result<Dfa> D = determinize(Fsas, iota(Patterns.size()));
  ASSERT_TRUE(D.ok());
  DfaEngine Dfa(*D);

  Rng Random(71);
  for (int Trial = 0; Trial < 6; ++Trial) {
    std::string Input = "getab postcd getx putyyy " + randomInput(Random, 20);
    EXPECT_EQ(collect([&](MatchRecorder &R) { Nfa.run(Input, R); }),
              collect([&](MatchRecorder &R) { Dfa.run(Input, R); }));
  }
}

//===----------------------------------------------------------------------===//
// Clustering (paper §VIII future work)
//===----------------------------------------------------------------------===//

TEST(Clustering, ProducesAPartition) {
  std::vector<std::string> Patterns = {"aaaa", "aaab", "bbbb", "bbbc",
                                       "cccc", "cccd", "dddd"};
  auto Groups = clusterBySimilarity(Patterns, 2);
  std::vector<bool> Seen(Patterns.size(), false);
  size_t Total = 0;
  for (const auto &Group : Groups) {
    EXPECT_LE(Group.size(), 2u);
    for (uint32_t I : Group) {
      EXPECT_FALSE(Seen[I]);
      Seen[I] = true;
      ++Total;
    }
  }
  EXPECT_EQ(Total, Patterns.size());
}

TEST(Clustering, GroupsSimilarPatterns) {
  // Interleaved families; similarity clustering must reunite them.
  std::vector<std::string> Patterns = {"aaaax", "zzzzy", "aaaaw", "zzzzq"};
  auto Groups = clusterBySimilarity(Patterns, 2);
  ASSERT_EQ(Groups.size(), 2u);
  EXPECT_EQ(Groups[0], (std::vector<uint32_t>{0, 2}));
  EXPECT_EQ(Groups[1], (std::vector<uint32_t>{1, 3}));
}

TEST(Clustering, GroupSizeZeroIsOneGroup) {
  std::vector<std::string> Patterns = {"a", "b", "c"};
  auto Groups = clusterBySimilarity(Patterns, 0);
  ASSERT_EQ(Groups.size(), 1u);
  EXPECT_EQ(Groups[0].size(), 3u);
}

TEST(Clustering, RandomGroupingIsDeterministicPartition) {
  auto A = randomGrouping(11, 3, 42);
  auto B = randomGrouping(11, 3, 42);
  EXPECT_EQ(A, B);
  auto C = randomGrouping(11, 3, 43);
  EXPECT_NE(A, C);
  std::vector<bool> Seen(11, false);
  for (const auto &Group : A)
    for (uint32_t I : Group) {
      EXPECT_FALSE(Seen[I]);
      Seen[I] = true;
    }
}

TEST(Clustering, MergeWithGroupingPreservesGlobalIds) {
  std::vector<std::string> Patterns = {"aaaax", "zzzzy", "aaaaw", "zzzzq"};
  std::vector<Nfa> Fsas = compileAll(Patterns);
  auto Groups = clusterBySimilarity(Patterns, 2);
  std::vector<Mfsa> Merged = mergeWithGrouping(Fsas, Groups);
  ASSERT_EQ(Merged.size(), 2u);
  EXPECT_EQ(Merged[0].rule(0).GlobalId, 0u);
  EXPECT_EQ(Merged[0].rule(1).GlobalId, 2u);
  EXPECT_EQ(Merged[1].rule(0).GlobalId, 1u);
  EXPECT_EQ(Merged[1].rule(1).GlobalId, 3u);

  // Matches carry the original rule identity.
  ImfantEngine Engine(Merged[0]);
  auto Ends = collect(
      [&](MatchRecorder &R) { Engine.run("aaaax aaaaw", R); });
  EXPECT_TRUE(Ends.count(0));
  EXPECT_TRUE(Ends.count(2));
}

TEST(Clustering, ClusteredCompressionBeatsRandom) {
  // On a family-structured dataset, clustering at least matches random
  // grouping (it should typically beat it clearly at small M).
  const DatasetSpec &Spec = *findDataset("BRO");
  std::vector<std::string> Rules = generateRuleset(Spec);
  CompileOptions Options;
  Options.MergingFactor = 1;
  Options.EmitAnml = false;
  Result<CompileArtifacts> Artifacts = compileRuleset(Rules, Options);
  ASSERT_TRUE(Artifacts.ok());
  const std::vector<Nfa> &Fsas = Artifacts->OptimizedFsas;

  auto StatesWith = [&](const std::vector<std::vector<uint32_t>> &Groups) {
    return computeSetStats(mergeWithGrouping(Fsas, Groups)).TotalStates;
  };
  uint64_t Clustered = StatesWith(clusterBySimilarity(Rules, 5));
  uint64_t Random = StatesWith(randomGrouping(Rules.size(), 5, 7));
  EXPECT_LT(Clustered, Random);
}

