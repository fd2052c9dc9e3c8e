//===- PlannedEngine.cpp - uniform execution of a planned engine ----------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "engine/PlannedEngine.h"

#include "fsa/Determinize.h"
#include "support/ThreadPool.h"

#include <type_traits>
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
        Set.Groups.emplace_back(std::move(*D));
        continue;
      }
      Result<StridedDfa> S = makeStride2(*D);
      if (!S)
        return S.withContext("group " + std::to_string(G)).takeDiag();
      Set.Groups.emplace_back(std::move(*S));
    }
    return Set;
  case Engine::Prefilter:
    if (Patterns.empty())
      return Result<PlannedEngineSet>::error(
          "prefilter engine needs the source patterns");
    Set.Groups.emplace_back(PrefilterEngine::create(Mfsas, Patterns));
    return Set;
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
  Into.Threads = std::max(Into.Threads, Group.Threads);
  Into.Chunks += Group.Chunks;
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
  const std::unique_ptr<ThreadPool> Pool = makeInputPool(
      Options, inputChunkBounds(Options, Input.size()).size() - 1);
  for (const Group &G : Groups) {
    InputParallelStats GroupStats;
    InputParallelStats *S = Stats ? &GroupStats : nullptr;
    std::visit(
        [&](const auto &E) {
          if constexpr (std::is_same_v<std::decay_t<decltype(E)>,
                                       PrefilterEngine>)
            E.runInputParallel(Input, Recorder, Options, S, Pool.get());
          else
            InputParallelRun(E, Options).run(Input, Recorder, S, Pool.get());
        },
        G);
    if (Stats)
      accumulateStats(*Stats, GroupStats);
  }
}

void PlannedEngineSet::run(std::string_view Input,
                           MatchRecorder &Recorder) const {
  for (const Group &G : Groups)
    std::visit(
        [&](const auto &E) {
          using T = std::decay_t<decltype(E)>;
          if constexpr (std::is_same_v<T, Dfa>)
            DfaEngine(E).run(Input, Recorder);
          else if constexpr (std::is_same_v<T, StridedDfa>)
            StridedDfaEngine(E).run(Input, Recorder);
          else
            E.run(Input, Recorder);
        },
        G);
}

} // namespace mfsa
