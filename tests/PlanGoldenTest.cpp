//===- PlanGoldenTest.cpp - planner decisions pinned per Table I dataset --===//
//
// Part of the mfsa project. MIT License.
//
// Two goldens per Table I dataset.
//
// Plan traces.
// For each Table I dataset: compileRuleset at M=1, planRuleset with default
// PlannerOptions and InputThreads = 4, then compare explainJson() — minus
// its wall-clock "plan_wall_ms" line — byte for byte against
// tests/golden/plans/<DS>.json. The trace holds every cost-model fact the
// planner used (DFA probe verdicts, literal profile, per-engine estimates),
// so any change to the analyses' results shows up here even when the final
// choice happens to survive it.
//
// After an intended planner change, regenerate the files with
//   MFSA_UPDATE_PLAN_GOLDENS=1 build/tests/test_plan_golden
// and review the diff.
//
// Scan work. At the plan's merging factor, the dense iMFAnt engine scans a
// 64 KiB prefix of the dataset's stream and counts its work: the entries it
// examines (RunStats::TransitionsEvaluated: the out-edges the byte enables
// on active states plus injection entries), the active states it walks
// (RunStats::ActiveStates) and the final-state arrivals it probes
// (RunStats::FinalProbes). The counts are deterministic, so they are
// compared exactly against tests/golden/work/<DS>.json, and the entries
// examined must stay strictly below the symbol-major table's row sum over
// the same bytes (what iNFAnt's per-symbol walk visits). After an intended
// engine change, regenerate with
//   MFSA_UPDATE_WORK_GOLDENS=1 build/tests/test_plan_golden
//
//===----------------------------------------------------------------------===//

#include "analysis/Planner.h"
#include "compiler/Pipeline.h"
#include "engine/Imfant.h"
#include "workload/Datasets.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

using namespace mfsa;

namespace {

std::string goldenPath(const std::string &Abbrev) {
  return std::string(MFSA_PLAN_GOLDEN_DIR) + "/" + Abbrev + ".json";
}

std::string workGoldenPath(const std::string &Abbrev) {
  return std::string(MFSA_WORK_GOLDEN_DIR) + "/" + Abbrev + ".json";
}

bool updateRequested(const char *Var) {
  const char *Value = std::getenv(Var);
  return Value && std::string(Value) == "1";
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Text;
  Text << In.rdbuf();
  return Text.str();
}

/// explainJson() without the "plan_wall_ms" line (the only field that
/// varies between runs of identical work).
std::string stripWallClock(std::string Json) {
  const std::string Key = "  \"plan_wall_ms\": ";
  size_t Begin = Json.find(Key);
  if (Begin == std::string::npos)
    return Json;
  size_t End = Json.find('\n', Begin);
  Json.erase(Begin, End == std::string::npos ? End : End + 1 - Begin);
  return Json;
}

class PlanGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(PlanGolden, ExplainJsonMatchesCommittedTrace) {
  const DatasetSpec *Spec = findDataset(GetParam());
  ASSERT_NE(Spec, nullptr);
  const std::vector<std::string> Rules = generateRuleset(*Spec);

  CompileOptions Compile;
  Compile.MergingFactor = 1;
  Compile.EmitAnml = false;
  Result<CompileArtifacts> Compiled = compileRuleset(Rules, Compile);
  ASSERT_TRUE(Compiled) << Compiled.diag().render();

  PlannerOptions Opts;
  Opts.InputThreads = 4;
  EnginePlan Plan = planRuleset(Compiled->OptimizedFsas,
                                Compiled->CompiledRuleIds, Rules, Opts);
  const std::string Actual = stripWallClock(Plan.explainJson()) + "\n";

  const std::string Path = goldenPath(GetParam());
  if (updateRequested("MFSA_UPDATE_PLAN_GOLDENS")) {
    std::ofstream(Path, std::ios::binary) << Actual;
    GTEST_SKIP() << "rewrote " << Path;
  }

  ASSERT_TRUE(std::ifstream(Path)) << "missing golden " << Path;
  EXPECT_EQ(Actual, readFile(Path)) << "plan trace drifted from " << Path;
}

/// The merging factor the committed plan golden chose for \p Abbrev.
uint32_t plannedMergingFactor(const std::string &Abbrev) {
  const std::string Plan = readFile(goldenPath(Abbrev));
  const std::string Key = "\"merging_factor\": ";
  const size_t At = Plan.find(Key);
  EXPECT_NE(At, std::string::npos) << goldenPath(Abbrev);
  return At == std::string::npos
             ? 0
             : static_cast<uint32_t>(std::stoul(Plan.substr(At + Key.size())));
}

class WorkGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkGolden, ExaminedEntriesMatchCommittedCount) {
  const DatasetSpec *Spec = findDataset(GetParam());
  ASSERT_NE(Spec, nullptr);
  const std::vector<std::string> Rules = generateRuleset(*Spec);
  const uint32_t M = plannedMergingFactor(GetParam());

  CompileOptions Compile;
  Compile.MergingFactor = M;
  Compile.EmitAnml = false;
  Result<CompileArtifacts> Compiled = compileRuleset(Rules, Compile);
  ASSERT_TRUE(Compiled) << Compiled.diag().render();

  constexpr size_t PrefixBytes = 64 * 1024;
  const std::string Stream = generateStream(*Spec, Rules, PrefixBytes);
  std::array<uint64_t, 256> ByteCounts{};
  for (unsigned char C : Stream)
    ++ByteCounts[C];

  uint64_t Examined = 0, ActiveStates = 0, FinalProbes = 0, SymbolMajor = 0;
  for (const Mfsa &Z : Compiled->Mfsas) {
    ImfantEngine Engine(Z);
    MatchRecorder Recorder;
    RunStats Stats;
    Engine.run(Stream, Recorder, &Stats);
    Examined += Stats.TransitionsEvaluated;
    ActiveStates += Stats.ActiveStates;
    FinalProbes += Stats.FinalProbes;
    // iNFAnt's symbol-major walk visits every transition the byte enables.
    for (const MfsaTransition &T : Z.transitions())
      T.Label.forEach([&](unsigned char C) { SymbolMajor += ByteCounts[C]; });
  }
  EXPECT_LT(Examined, SymbolMajor) << GetParam();

  char PerByte[32];
  std::snprintf(PerByte, sizeof PerByte, "%.4f",
                double(Examined) / double(Stream.size()));
  const std::string Actual =
      "{\"dataset\": \"" + GetParam() + "\", \"merging_factor\": " +
      std::to_string(M) + ", \"groups\": " +
      std::to_string(Compiled->Mfsas.size()) + ", \"bytes\": " +
      std::to_string(Stream.size()) + ", \"examined\": " +
      std::to_string(Examined) + ", \"examined_per_byte\": " + PerByte +
      ", \"active_states\": " + std::to_string(ActiveStates) +
      ", \"final_probes\": " + std::to_string(FinalProbes) +
      ", \"symbol_major\": " + std::to_string(SymbolMajor) + "}\n";

  const std::string Path = workGoldenPath(GetParam());
  if (updateRequested("MFSA_UPDATE_WORK_GOLDENS")) {
    std::ofstream(Path, std::ios::binary) << Actual;
    GTEST_SKIP() << "rewrote " << Path;
  }
  ASSERT_TRUE(std::ifstream(Path)) << "missing golden " << Path;
  EXPECT_EQ(Actual, readFile(Path)) << "scan work drifted from " << Path;
}

INSTANTIATE_TEST_SUITE_P(TableI, PlanGolden,
                         ::testing::Values("BRO", "DS9", "PEN", "PRO", "RG1",
                                           "TCP"),
                         [](const auto &Info) { return Info.param; });

INSTANTIATE_TEST_SUITE_P(TableI, WorkGolden,
                         ::testing::Values("BRO", "DS9", "PEN", "PRO", "RG1",
                                           "TCP"),
                         [](const auto &Info) { return Info.param; });

} // namespace
