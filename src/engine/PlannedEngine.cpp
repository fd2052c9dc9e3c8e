//===- PlannedEngine.cpp - uniform execution of a planned engine ----------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "engine/PlannedEngine.h"

#include "analysis/CostModel.h"
#include "fsa/Determinize.h"
#include "mfsa/Merge.h"
#include "support/ThreadPool.h"

#include <utility>

namespace mfsa {

Result<PlannedEngineSet>
PlannedEngineSet::create(Engine Choice, const std::vector<Mfsa> &Mfsas,
                         const std::vector<std::string> &Patterns) {
  PlannedEngineSet Set;
  Set.Choice = Choice;
  switch (Choice) {
  case Engine::Auto:
    return Result<PlannedEngineSet>::error(
        "Engine::Auto is not buildable; resolve it through the planner");
  case Engine::ImfantDense:
    Set.Groups.reserve(Mfsas.size());
    for (const Mfsa &Z : Mfsas)
      Set.Groups.emplace_back(std::in_place_type<ImfantEngine>, Z);
    return Set;
  case Engine::Dfa:
  case Engine::StridedDfa:
    Set.Groups.reserve(Mfsas.size());
    for (size_t G = 0; G < Mfsas.size(); ++G) {
      const Mfsa &Z = Mfsas[G];
      std::vector<uint32_t> GlobalIds;
      for (RuleId R = 0; R < Z.numRules(); ++R)
        GlobalIds.push_back(Z.rule(R).GlobalId);
      Result<Dfa> D = determinize(Z.extractAllRules(), GlobalIds);
      if (!D)
        return D.withContext("group " + std::to_string(G)).takeDiag();
      if (Choice == Engine::Dfa) {
        Set.Groups.emplace_back(std::in_place_type<DfaEngine>, D.take());
        continue;
      }
      Result<StridedDfa> S = makeStride2(*D);
      if (!S)
        return S.withContext("group " + std::to_string(G)).takeDiag();
      Set.Groups.emplace_back(std::in_place_type<StridedDfaEngine>,
                              S.take());
    }
    return Set;
  case Engine::Prefilter: {
    if (Patterns.empty())
      return Result<PlannedEngineSet>::error(
          "prefilter engine needs the source patterns");
    // profileLiterals decides each rule, the planner's own partition; a
    // rule without a parseable pattern is not gated.
    std::vector<Nfa> ResidualFsas;
    std::vector<uint32_t> ResidualIds;
    std::vector<PrefilterEngine::GatedRule> Gated;
    for (const Mfsa &Z : Mfsas) {
      std::vector<Nfa> RuleFsas = Z.extractAllRules();
      LiteralProfile Profile = profileLiterals(Z, RuleFsas, Patterns);
      for (RuleId R = 0; R < Z.numRules(); ++R) {
        const uint32_t GlobalId = Z.rule(R).GlobalId;
        if (Profile.Rules.empty() || !Profile.Rules[R].Prefilterable) {
          ResidualFsas.push_back(std::move(RuleFsas[R]));
          ResidualIds.push_back(GlobalId);
          continue;
        }
        Gated.push_back({std::move(RuleFsas[R]), GlobalId,
                         std::move(Profile.Rules[R].Literal),
                         Profile.Rules[R].MaxMatchLength});
      }
    }
    // The residual scans first, so run() reports its matches before the
    // gate's windows.
    if (!ResidualFsas.empty())
      Set.Groups.emplace_back(std::in_place_type<ImfantEngine>,
                              mergeFsas(ResidualFsas, ResidualIds));
    Set.Groups.emplace_back(std::in_place_type<PrefilterEngine>,
                            std::move(Gated));
    return Set;
  }
  }
  return Result<PlannedEngineSet>::error("unknown engine choice");
}

Result<PlannedEngineSet> PlannedEngineSet::createFromRuleset(
    const EnginePlan &Plan, const std::vector<Nfa> &OptimizedFsas,
    const std::vector<uint32_t> &GlobalIds,
    const std::vector<std::string> &Patterns, const MergeOptions &Merge) {
  return create(Plan.Choice,
                mergeInGroups(OptimizedFsas, GlobalIds, Plan.MergingFactor,
                              Merge),
                Patterns);
}

namespace {

/// Accumulates one group's input-parallel stats into the caller's: counters
/// add up, peaks take the maximum.
void accumulateStats(InputParallelStats &Into,
                     const InputParallelStats &Group) {
  Into.RescanFallbackChunks += Group.RescanFallbackChunks;
  Into.OverlapBytes += Group.OverlapBytes;
  Into.MaxCarryFrontier =
      std::max(Into.MaxCarryFrontier, Group.MaxCarryFrontier);
  Into.MaxAliveClasses =
      std::max(Into.MaxAliveClasses, Group.MaxAliveClasses);
  Into.IsoMatches += Group.IsoMatches;
  Into.CarryMatches += Group.CarryMatches;
}

} // namespace

void PlannedEngineSet::runInputParallel(std::string_view Input,
                                        MatchRecorder &Recorder,
                                        const InputParallelOptions &Options,
                                        InputParallelStats *Stats) const {
  // Every group splits the same input into the same chunks, so one pool
  // serves them all.
  const std::vector<uint64_t> Bounds = inputChunkBounds(Options, Input.size());
  const size_t NumChunks = Bounds.size() - 1;
  const std::unique_ptr<ThreadPool> Pool = makeInputPool(Options, NumChunks);
  for (const Group &G : Groups) {
    InputParallelStats GroupStats;
    std::visit(
        [&](const auto &E) {
          scanChunks(E, Input, Bounds, Recorder, Stats ? &GroupStats : nullptr,
                     Pool.get());
        },
        G);
    if (Stats)
      accumulateStats(*Stats, GroupStats);
  }
  if (Stats) {
    Stats->Threads =
        std::max(Stats->Threads, static_cast<unsigned>(NumChunks));
    Stats->Chunks += Groups.size() * NumChunks;
  }
}

void PlannedEngineSet::run(std::string_view Input,
                           MatchRecorder &Recorder) const {
  for (const Group &G : Groups)
    std::visit([&](const auto &E) { E.run(Input, Recorder); }, G);
}

} // namespace mfsa
