//===- PlanGoldenTest.cpp - planner decisions pinned per Table I dataset --===//
//
// Part of the mfsa project. MIT License.
//
// For each Table I dataset: compileRuleset at M=1, planRuleset with default
// PlannerOptions and InputThreads = 4, then compare explainJson() — minus
// its wall-clock "plan_wall_ms" line — byte for byte against
// tests/golden/plans/<DS>.json. The trace holds every cost-model fact the
// planner used (width bounds, DFA probe verdicts, literal profile, per-engine
// estimates), so any change to the analyses' results shows up here even when
// the final choice happens to survive it.
//
// After an intended planner change, regenerate the files with
//   MFSA_UPDATE_PLAN_GOLDENS=1 build/tests/test_plan_golden
// and review the diff.
//
//===----------------------------------------------------------------------===//

#include "analysis/Planner.h"
#include "compiler/Pipeline.h"
#include "workload/Datasets.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

using namespace mfsa;

namespace {

std::string goldenPath(const std::string &Abbrev) {
  return std::string(MFSA_PLAN_GOLDEN_DIR) + "/" + Abbrev + ".json";
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
  if (const char *Update = std::getenv("MFSA_UPDATE_PLAN_GOLDENS");
      Update && std::string(Update) == "1") {
    std::ofstream(Path, std::ios::binary) << Actual;
    GTEST_SKIP() << "rewrote " << Path;
  }

  std::ifstream In(Path, std::ios::binary);
  ASSERT_TRUE(In) << "missing golden " << Path;
  std::ostringstream Expected;
  Expected << In.rdbuf();
  EXPECT_EQ(Actual, Expected.str()) << "plan trace drifted from " << Path;
}

INSTANTIATE_TEST_SUITE_P(TableI, PlanGolden,
                         ::testing::Values("BRO", "DS9", "PEN", "PRO", "RG1",
                                           "TCP"),
                         [](const auto &Info) { return Info.param; });

} // namespace
