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
// choice happens to survive it. The same plan at InputThreads = 1 (no
// planner pool) must match the golden too, apart from its
// "parallel_input" line; PlanThreads.* hold the same invariant on an empty,
// a one-rule and a three-rule ruleset.
//
// After an intended planner change, regenerate the files with
//   MFSA_UPDATE_PLAN_GOLDENS=1 build/tests/test_plan_golden
// and review the diff.
//
// Scan work. At the plan's merging factor and at M=all (one golden row
// each), the dense iMFAnt engine scans a 64 KiB prefix of the dataset's
// stream and counts its work: the entries it examines
// (RunStats::TransitionsEvaluated: the out-edges the byte enables on active
// states plus injection entries), the active states it walks
// (RunStats::ActiveStates) and the final-state arrivals it probes
// (RunStats::FinalProbes). The counts are deterministic, so they are
// compared exactly against tests/golden/work/<DS>.json, and the entries
// examined must stay strictly below the symbol-major table's row sum over
// the same bytes (what iNFAnt's per-symbol walk visits). After an intended
// engine change, regenerate with
//   MFSA_UPDATE_WORK_GOLDENS=1 build/tests/test_plan_golden
//
// Merged MFSAs. At the plan's merging factor, M=1, M=50 and M=all (and at M=50
// under each MergeOptions switch), mergeInGroups merges the dataset's
// optimized FSAs; tests/golden/merge/<DS>.json records, per merging factor,
// the group count, the summed MergeReport counters and a hash over every
// group's structure (states, transitions with labels and belonging words,
// rule info), and for up to 16 groups one line per group with its own hash
// and counters. Algorithm 1 is a deterministic greedy search, so any change
// in seed order or in the indexes it walks shows up here. After an intended
// merge change, regenerate with
//   MFSA_UPDATE_MERGE_GOLDENS=1 build/tests/test_plan_golden
//
//===----------------------------------------------------------------------===//

#include "analysis/Planner.h"
#include "compiler/Pipeline.h"
#include "engine/Imfant.h"
#include "mfsa/Merge.h"
#include "workload/Datasets.h"

#include <gtest/gtest.h>

#include <algorithm>
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

std::string mergeGoldenPath(const std::string &Abbrev) {
  return std::string(MFSA_MERGE_GOLDEN_DIR) + "/" + Abbrev + ".json";
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

/// \p Json without the top-level line that starts with \p Key.
std::string stripLine(std::string Json, const std::string &Key) {
  size_t Begin = Json.find("  \"" + Key + "\": ");
  if (Begin == std::string::npos)
    return Json;
  size_t End = Json.find('\n', Begin);
  Json.erase(Begin, End == std::string::npos ? End : End + 1 - Begin);
  return Json;
}

/// explainJson() without the "plan_wall_ms" line (the only field that
/// varies between runs of identical work).
std::string stripWallClock(std::string Json) {
  return stripLine(std::move(Json), "plan_wall_ms");
}

/// The trace minus what the requested thread count legitimately changes:
/// the wall clock and the "parallel_input" decision.
std::string threadFreeTrace(const std::string &Json) {
  return stripLine(stripWallClock(Json), "parallel_input");
}

/// Plans \p Rules at \p InputThreads with default PlannerOptions.
EnginePlan planAt(const CompileArtifacts &Compiled,
                  const std::vector<std::string> &Rules,
                  unsigned InputThreads) {
  PlannerOptions Opts;
  Opts.InputThreads = InputThreads;
  return planRuleset(Compiled.OptimizedFsas, Compiled.CompiledRuleIds, Rules,
                     Opts);
}

/// The analysis tasks the planner had for \p Plan: one trial merge per
/// candidate, and a literal task and a probe task per analyzed group.
size_t planTasks(const EnginePlan &Plan) {
  size_t Tasks = Plan.Candidates.size();
  for (const CandidatePlan &Cand : Plan.Candidates)
    Tasks += 2 * Cand.Groups.size();
  return Tasks;
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

  EnginePlan Plan = planAt(*Compiled, Rules, 4);
  const std::string Actual = stripWallClock(Plan.explainJson()) + "\n";

  const std::string Path = goldenPath(GetParam());
  if (updateRequested("MFSA_UPDATE_PLAN_GOLDENS")) {
    std::ofstream(Path, std::ios::binary) << Actual;
    GTEST_SKIP() << "rewrote " << Path;
  }

  ASSERT_TRUE(std::ifstream(Path)) << "missing golden " << Path;
  const std::string Golden = readFile(Path);
  EXPECT_EQ(Actual, Golden) << "plan trace drifted from " << Path;

  // Planning on the calling thread alone must reach the same trace.
  EnginePlan Single = planAt(*Compiled, Rules, 1);
  EXPECT_EQ(Single.PlanWorkers, 1u);
  EXPECT_EQ(threadFreeTrace(Single.explainJson()) + "\n",
            threadFreeTrace(Golden))
      << "single-threaded plan drifted from " << Path;
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

/// One row of a work golden: the dense iMFAnt engine scans \p Stream with
/// the dataset's rules merged at \p M (0 = all rules in one MFSA), and the
/// row records the work it counted. The examined entries must stay below
/// the symbol-major row sum over the same bytes.
std::string workRow(const std::string &Abbrev,
                    const std::vector<std::string> &Rules,
                    const std::string &Stream, uint32_t M) {
  CompileOptions Compile;
  Compile.MergingFactor = M;
  Compile.EmitAnml = false;
  Result<CompileArtifacts> Compiled = compileRuleset(Rules, Compile);
  if (!Compiled) {
    ADD_FAILURE() << Compiled.diag().render();
    return "";
  }

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
  EXPECT_LT(Examined, SymbolMajor) << Abbrev << " at M=" << M;

  char PerByte[32];
  std::snprintf(PerByte, sizeof PerByte, "%.4f",
                double(Examined) / double(Stream.size()));
  return "{\"dataset\": \"" + Abbrev + "\", \"merging_factor\": " +
         (M == 0 ? std::string("\"all\"") : std::to_string(M)) +
         ", \"groups\": " + std::to_string(Compiled->Mfsas.size()) +
         ", \"bytes\": " + std::to_string(Stream.size()) +
         ", \"examined\": " + std::to_string(Examined) +
         ", \"examined_per_byte\": " + PerByte +
         ", \"active_states\": " + std::to_string(ActiveStates) +
         ", \"final_probes\": " + std::to_string(FinalProbes) +
         ", \"symbol_major\": " + std::to_string(SymbolMajor) + "}\n";
}

class WorkGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkGolden, ExaminedEntriesMatchCommittedCount) {
  const DatasetSpec *Spec = findDataset(GetParam());
  ASSERT_NE(Spec, nullptr);
  const std::vector<std::string> Rules = generateRuleset(*Spec);

  constexpr size_t PrefixBytes = 64 * 1024;
  const std::string Stream = generateStream(*Spec, Rules, PrefixBytes);
  // The plan's M is single-word on every dataset; M=all holds every rule
  // in one MFSA, so its row pins the multi-word step.
  const std::string Actual =
      workRow(GetParam(), Rules, Stream, plannedMergingFactor(GetParam())) +
      workRow(GetParam(), Rules, Stream, 0);

  const std::string Path = workGoldenPath(GetParam());
  if (updateRequested("MFSA_UPDATE_WORK_GOLDENS")) {
    std::ofstream(Path, std::ios::binary) << Actual;
    GTEST_SKIP() << "rewrote " << Path;
  }
  ASSERT_TRUE(std::ifstream(Path)) << "missing golden " << Path;
  EXPECT_EQ(Actual, readFile(Path)) << "scan work drifted from " << Path;
}

/// FNV-1a over 64-bit words.
struct Fnv {
  uint64_t H = 0xcbf29ce484222325ULL;
  void add(uint64_t V) {
    for (int I = 0; I < 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 0x100000001b3ULL;
    }
  }
};

/// Hash of everything a merge produces: state and rule counts, every
/// transition (endpoints, label words, belonging words) in order, and every
/// rule's initial state, finals, anchors and global id.
uint64_t hashMfsa(const Mfsa &Z) {
  Fnv F;
  F.add(Z.numStates());
  F.add(Z.numRules());
  F.add(Z.numTransitions());
  for (const MfsaTransition &T : Z.transitions()) {
    F.add(T.From);
    F.add(T.To);
    for (uint64_t W : T.Label.words())
      F.add(W);
    for (uint64_t W : T.Bel.words())
      F.add(W);
  }
  for (RuleId R = 0; R < Z.numRules(); ++R) {
    const Mfsa::RuleInfo &Info = Z.rule(R);
    F.add(Info.Initial);
    F.add(Info.Finals.size());
    for (StateId S : Info.Finals)
      F.add(S);
    F.add(Info.AnchoredStart);
    F.add(Info.AnchoredEnd);
    F.add(Info.GlobalId);
  }
  return F.H;
}

std::string hex(uint64_t V) {
  char Buf[24];
  std::snprintf(Buf, sizeof Buf, "\"%016llx\"",
                static_cast<unsigned long long>(V));
  return Buf;
}

std::string reportFields(const MergeReport &R) {
  return "\"pairs_tried\": " + std::to_string(R.CandidatePairsTried) +
         ", \"seeds_accepted\": " + std::to_string(R.SeedsAccepted) +
         ", \"states_shared\": " + std::to_string(R.StatesShared) +
         ", \"transitions_shared\": " + std::to_string(R.TransitionsShared);
}

/// The merge golden's lines for one merging factor \p M (0 = all) under
/// \p Options, labelled \p Variant: a summary line over every group, then
/// one line per group when there are at most 16. Each group is also merged
/// on its own through mergeFsas, which must reproduce the group exactly.
std::string mergeRows(const CompileArtifacts &Compiled, uint32_t M,
                      const MergeOptions &Options,
                      const std::string &Variant) {
  const std::vector<Nfa> &Fsas = Compiled.OptimizedFsas;
  const std::vector<uint32_t> &Ids = Compiled.CompiledRuleIds;
  MergeReport Total;
  const std::vector<Mfsa> Groups = mergeInGroups(Fsas, Ids, M, Options, &Total);

  const std::string Head = "{\"merging_factor\": " +
                           (M == 0 ? std::string("\"all\"") : std::to_string(M)) +
                           ", \"options\": \"" + Variant + "\"";
  Fnv All;
  MfsaSetStats Stats = computeSetStats(Groups);
  std::string GroupLines;
  MergeReport Summed;
  const uint32_t Factor = M == 0 ? static_cast<uint32_t>(Fsas.size()) : M;
  for (size_t G = 0; G < Groups.size(); ++G) {
    const uint64_t Hash = hashMfsa(Groups[G]);
    All.add(Hash);
    const size_t Begin = G * Factor;
    const size_t End = std::min(Begin + Factor, Fsas.size());
    MergeReport Own;
    const Mfsa Alone =
        mergeFsas(std::vector<Nfa>(Fsas.begin() + Begin, Fsas.begin() + End),
                  std::vector<uint32_t>(Ids.begin() + Begin, Ids.begin() + End),
                  Options, &Own);
    EXPECT_EQ(hashMfsa(Alone), Hash) << Variant << " M=" << M << " group " << G;
    Summed += Own;
    if (Groups.size() <= 16)
      GroupLines += Head + ", \"group\": " + std::to_string(G) +
                    ", \"rules\": " + std::to_string(Groups[G].numRules()) +
                    ", \"states\": " + std::to_string(Groups[G].numStates()) +
                    ", \"transitions\": " +
                    std::to_string(Groups[G].numTransitions()) +
                    ", \"hash\": " + hex(Hash) + ", " + reportFields(Own) +
                    "}\n";
  }
  EXPECT_EQ(reportFields(Summed), reportFields(Total))
      << Variant << " M=" << M;
  return Head + ", \"groups\": " + std::to_string(Groups.size()) +
         ", \"states\": " + std::to_string(Stats.TotalStates) +
         ", \"transitions\": " + std::to_string(Stats.TotalTransitions) +
         ", \"hash\": " + hex(All.H) + ", " + reportFields(Total) + "}\n" +
         GroupLines;
}

class MergeGolden : public ::testing::TestWithParam<std::string> {};

TEST_P(MergeGolden, MergedGroupsMatchCommittedHashes) {
  const DatasetSpec *Spec = findDataset(GetParam());
  ASSERT_NE(Spec, nullptr);
  const std::vector<std::string> Rules = generateRuleset(*Spec);
  CompileOptions Compile;
  Compile.MergingFactor = 1;
  Compile.EmitAnml = false;
  Result<CompileArtifacts> Compiled = compileRuleset(Rules, Compile);
  ASSERT_TRUE(Compiled) << Compiled.diag().render();

  // M=1 hashes every optimized FSA on its own, so it pins the single-FSA
  // passes for all of the dataset's rules.
  std::vector<uint32_t> Factors = {plannedMergingFactor(GetParam())};
  for (uint32_t M : {1u, 50u, 0u})
    if (std::find(Factors.begin(), Factors.end(), M) == Factors.end())
      Factors.push_back(M);
  std::string Actual;
  for (uint32_t M : Factors)
    Actual += mergeRows(*Compiled, M, MergeOptions(), "default");

  // Every search switch, at M=50.
  MergeOptions NoClasses;
  NoClasses.MergeCharClasses = false;
  MergeOptions NoSearch;
  NoSearch.EnableSubpathSearch = false;
  MergeOptions ShortPaths;
  ShortPaths.MinSubpathLength = 1;
  Actual += mergeRows(*Compiled, 50, NoClasses, "no_char_classes");
  Actual += mergeRows(*Compiled, 50, NoSearch, "no_subpath_search");
  Actual += mergeRows(*Compiled, 50, ShortPaths, "min_subpath_1");

  const std::string Path = mergeGoldenPath(GetParam());
  if (updateRequested("MFSA_UPDATE_MERGE_GOLDENS")) {
    std::ofstream(Path, std::ios::binary) << Actual;
    GTEST_SKIP() << "rewrote " << Path;
  }
  ASSERT_TRUE(std::ifstream(Path)) << "missing golden " << Path;
  EXPECT_EQ(Actual, readFile(Path)) << "merged MFSAs drifted from " << Path;
}

/// Plans \p Rules at one thread and at \p Threads, and requires the same
/// trace and a pool no larger than the task count.
void expectThreadCountInvariant(const std::vector<std::string> &Rules,
                                unsigned Threads) {
  CompileOptions Compile;
  Compile.MergingFactor = 1;
  Compile.EmitAnml = false;
  Result<CompileArtifacts> Compiled = compileRuleset(Rules, Compile);
  ASSERT_TRUE(Compiled) << Compiled.diag().render();
  const EnginePlan Single = planAt(*Compiled, Rules, 1);
  const EnginePlan Pooled = planAt(*Compiled, Rules, Threads);
  EXPECT_EQ(threadFreeTrace(Pooled.explainJson()),
            threadFreeTrace(Single.explainJson()));
  EXPECT_EQ(Single.PlanWorkers, 1u);
  EXPECT_GT(Pooled.PlanWorkers, 1u) << "the pooled plan ran on one thread";
  EXPECT_LE(Pooled.PlanWorkers, Threads);
  EXPECT_LE(Pooled.PlanWorkers, std::max<size_t>(1, planTasks(Pooled)));
}

TEST(PlanThreads, EmptyRulesetPlansAlike) {
  expectThreadCountInvariant({}, 4);
}

TEST(PlanThreads, OneRulePlansAlike) {
  expectThreadCountInvariant({"GET /index\\.html"}, 4);
}

TEST(PlanThreads, PoolNeverExceedsTheTaskCount) {
  // Three rules give 3 trial merges and 5 analyzed groups: 13 tasks, so a
  // 64-thread grant must start at most 13 workers.
  expectThreadCountInvariant({"foo[0-9]+bar", "a.{2}x", "hello"}, 64);
}

INSTANTIATE_TEST_SUITE_P(TableI, PlanGolden,
                         ::testing::Values("BRO", "DS9", "PEN", "PRO", "RG1",
                                           "TCP"),
                         [](const auto &Info) { return Info.param; });

INSTANTIATE_TEST_SUITE_P(TableI, MergeGolden,
                         ::testing::Values("BRO", "DS9", "PEN", "PRO", "RG1",
                                           "TCP"),
                         [](const auto &Info) { return Info.param; });

INSTANTIATE_TEST_SUITE_P(TableI, WorkGolden,
                         ::testing::Values("BRO", "DS9", "PEN", "PRO", "RG1",
                                           "TCP"),
                         [](const auto &Info) { return Info.param; });

} // namespace
