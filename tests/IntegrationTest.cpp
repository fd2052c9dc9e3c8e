//===- IntegrationTest.cpp - dataset-scale end-to-end tests -------------------===//
//
// Part of the mfsa project. MIT License.
//
// Crosses the whole stack at realistic scale: standard-dataset subsets are
// compiled, merged at several factors, serialized through ANML, executed by
// dense iMFAnt, the union DFA and the literal prefilter, and checked for
// mutual agreement and against the NFA simulation oracle.
//
//===----------------------------------------------------------------------===//

#include "anml/Anml.h"
#include "compiler/Pipeline.h"
#include "engine/DfaEngine.h"
#include "engine/Imfant.h"
#include "engine/Parallel.h"
#include "engine/PlannedEngine.h"
#include "fsa/Determinize.h"
#include "fsa/Reference.h"
#include "workload/Datasets.h"

#include "TestHelpers.h"

#include <gtest/gtest.h>

#include <map>

using namespace mfsa;
using namespace mfsa::test;

namespace {

/// First \p Count rules of a standard dataset.
std::vector<std::string> datasetSlice(const char *Abbrev, size_t Count) {
  const DatasetSpec *Spec = findDataset(Abbrev);
  EXPECT_NE(Spec, nullptr);
  std::vector<std::string> Rules = generateRuleset(*Spec);
  Rules.resize(std::min(Count, Rules.size()));
  return Rules;
}

std::map<uint32_t, std::set<size_t>>
runEngine(const ImfantEngine &Engine, const std::string &Input) {
  MatchRecorder Recorder(MatchRecorder::Mode::Collect);
  Engine.run(Input, Recorder);
  std::map<uint32_t, std::set<size_t>> Ends;
  for (const auto &[Rule, End] : Recorder.matches())
    Ends[Rule].insert(static_cast<size_t>(End));
  return Ends;
}

} // namespace

class DatasetIntegration : public ::testing::TestWithParam<const char *> {};

TEST_P(DatasetIntegration, MergedMatchesPerRuleSimulation) {
  // 40 rules, 4 KB planted stream: merged iMFAnt vs per-rule NFA simulation.
  const DatasetSpec &Spec = *findDataset(GetParam());
  std::vector<std::string> Rules = datasetSlice(GetParam(), 40);
  std::string Stream = generateStream(Spec, Rules, 4096);

  CompileOptions Options;
  Options.MergingFactor = 0;
  Options.EmitAnml = false;
  Result<CompileArtifacts> Artifacts = compileRuleset(Rules, Options);
  ASSERT_TRUE(Artifacts.ok());
  ASSERT_EQ(Artifacts->Mfsas[0].verify(), "");

  ImfantEngine Engine(Artifacts->Mfsas[0]);
  std::map<uint32_t, std::set<size_t>> Got = runEngine(Engine, Stream);

  std::map<uint32_t, std::set<size_t>> Expected;
  for (size_t I = 0; I < Rules.size(); ++I) {
    std::set<size_t> Ends =
        simulateNfa(Artifacts->OptimizedFsas[I], Stream);
    if (!Ends.empty())
      Expected[static_cast<uint32_t>(I)] = Ends;
  }
  EXPECT_EQ(Got, Expected) << GetParam();
}

TEST_P(DatasetIntegration, AnmlRoundTripAtScale) {
  std::vector<std::string> Rules = datasetSlice(GetParam(), 60);
  CompileOptions Options;
  Options.MergingFactor = 20;
  Result<CompileArtifacts> Artifacts = compileRuleset(Rules, Options);
  ASSERT_TRUE(Artifacts.ok());
  ASSERT_EQ(Artifacts->Mfsas.size(), 3u);
  for (size_t I = 0; I < Artifacts->Mfsas.size(); ++I) {
    Result<Mfsa> Back = readAnml(Artifacts->AnmlDocs[I]);
    ASSERT_TRUE(Back.ok()) << Back.diag().render();
    EXPECT_EQ(writeAnml(*Back, "x"), writeAnml(Artifacts->Mfsas[I], "x"));
  }
}

TEST_P(DatasetIntegration, AllEnginesAgree) {
  const DatasetSpec &Spec = *findDataset(GetParam());
  std::vector<std::string> Rules = datasetSlice(GetParam(), 25);
  std::string Stream = generateStream(Spec, Rules, 2048, /*SeedSalt=*/3);

  CompileOptions Options;
  Options.MergingFactor = 0;
  Options.EmitAnml = false;
  Result<CompileArtifacts> Artifacts = compileRuleset(Rules, Options);
  ASSERT_TRUE(Artifacts.ok());
  const Mfsa &Z = Artifacts->Mfsas[0];

  // Dense iMFAnt.
  ImfantEngine Dense(Z);
  auto FromDense = runEngine(Dense, Stream);

  // Literal prefilter over the same MFSA, literals from the source patterns.
  Result<PlannedEngineSet> Prefilter =
      PlannedEngineSet::create(Engine::Prefilter, Artifacts->Mfsas, Rules);
  ASSERT_TRUE(Prefilter.ok()) << Prefilter.diag().render();
  MatchRecorder PrefilterRecorder(MatchRecorder::Mode::Collect);
  Prefilter->run(Stream, PrefilterRecorder);
  EXPECT_EQ(FromDense, recorderEnds(PrefilterRecorder));

  // Union DFA.
  std::vector<uint32_t> Ids(Rules.size());
  for (size_t I = 0; I < Ids.size(); ++I)
    Ids[I] = static_cast<uint32_t>(I);
  DeterminizeOptions Capped;
  Capped.MaxStates = 1u << 16;
  Result<Dfa> D = determinize(Artifacts->OptimizedFsas, Ids, Capped);
  if (D.ok()) { // .*-heavy slices may legitimately explode
    const DfaEngine DfaEng(D.take());
    MatchRecorder DfaRecorder(MatchRecorder::Mode::Collect);
    DfaEng.run(Stream, DfaRecorder);
    std::map<uint32_t, std::set<size_t>> FromDfa;
    for (const auto &[Rule, End] : DfaRecorder.matches())
      FromDfa[Rule].insert(static_cast<size_t>(End));
    EXPECT_EQ(FromDense, FromDfa);
  }
}

TEST_P(DatasetIntegration, GroupedEnginesPartitionTheMatches) {
  // Merging factor M partitions rules over K MFSAs; the union of matches
  // must be invariant in M, and runParallel must agree with sequential.
  const DatasetSpec &Spec = *findDataset(GetParam());
  std::vector<std::string> Rules = datasetSlice(GetParam(), 30);
  std::string Stream = generateStream(Spec, Rules, 2048, /*SeedSalt=*/7);

  CompileOptions Options;
  Options.MergingFactor = 1;
  Options.EmitAnml = false;
  Result<CompileArtifacts> Artifacts = compileRuleset(Rules, Options);
  ASSERT_TRUE(Artifacts.ok());

  std::map<uint32_t, std::set<size_t>> Reference;
  for (uint32_t M : {1u, 7u, 0u}) {
    std::vector<Mfsa> Groups =
        mergeInGroups(Artifacts->OptimizedFsas, M);
    std::vector<ImfantEngine> Engines;
    for (const Mfsa &Z : Groups)
      Engines.emplace_back(Z);

    std::map<uint32_t, std::set<size_t>> Combined;
    uint64_t Total = 0;
    for (const ImfantEngine &Engine : Engines) {
      auto Part = runEngine(Engine, Stream);
      for (auto &[Rule, Ends] : Part) {
        auto &Slot = Combined[Rule];
        for (size_t E : Ends) {
          EXPECT_TRUE(Slot.insert(E).second)
              << "duplicate (rule,end) across groups";
          ++Total;
        }
      }
    }
    if (M == 1)
      Reference = Combined;
    else
      EXPECT_EQ(Combined, Reference) << "M=" << M;

    std::vector<MatchRecorder> Recorders(Engines.size());
    ParallelRunResult Parallel =
        runParallel(Engines, Stream, 4, &Recorders);
    EXPECT_EQ(Parallel.TotalMatches, Total) << "M=" << M;
  }
}

INSTANTIATE_TEST_SUITE_P(Datasets, DatasetIntegration,
                         ::testing::Values("BRO", "DS9", "PEN", "PRO", "RG1",
                                           "TCP"));

TEST(Integration, FullDatasetCompilesAndVerifies) {
  // Whole-dataset smoke: every standard dataset compiles at M=all, the MFSA
  // verifies, and the engine scans a stream without reporting zero matches.
  for (const DatasetSpec &Spec : standardDatasets()) {
    std::vector<std::string> Rules = generateRuleset(Spec);
    CompileOptions Options;
    Options.MergingFactor = 0;
    Options.EmitAnml = false;
    Result<CompileArtifacts> Artifacts = compileRuleset(Rules, Options);
    ASSERT_TRUE(Artifacts.ok()) << Spec.Abbrev;
    ASSERT_EQ(Artifacts->Mfsas.size(), 1u);
    EXPECT_EQ(Artifacts->Mfsas[0].verify(), "") << Spec.Abbrev;

    std::string Stream = generateStream(Spec, Rules, 16384);
    ImfantEngine Engine(Artifacts->Mfsas[0]);
    MatchRecorder Recorder;
    Engine.run(Stream, Recorder);
    EXPECT_GT(Recorder.total(), 0u) << Spec.Abbrev;
  }
}
