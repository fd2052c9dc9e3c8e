//===- PlannedEngine.cpp - uniform execution of a planned engine ----------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "engine/PlannedEngine.h"

#include "fsa/Determinize.h"
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
    for (const Mfsa &Z : Mfsas)
      Set.Dense.emplace_back(Z);
    return Set;
  case Engine::ImfantSparse:
    for (const Mfsa &Z : Mfsas)
      Set.Sparse.emplace_back(Z);
    return Set;
  case Engine::Dfa:
  case Engine::StridedDfa:
    for (size_t G = 0; G < Mfsas.size(); ++G) {
      const Mfsa &Z = Mfsas[G];
      std::vector<Nfa> Fsas;
      std::vector<uint32_t> GlobalIds;
      for (RuleId R = 0; R < Z.numRules(); ++R) {
        Fsas.push_back(Z.extractRule(R));
        GlobalIds.push_back(Z.rule(R).GlobalId);
      }
      Result<Dfa> D = determinize(Fsas, GlobalIds);
      if (!D)
        return D.withContext("group " + std::to_string(G)).takeDiag();
      Set.Dfas.push_back(std::make_unique<Dfa>(std::move(*D)));
      if (Choice == Engine::StridedDfa) {
        Result<StridedDfa> S = makeStride2(*Set.Dfas.back());
        if (!S)
          return S.withContext("group " + std::to_string(G)).takeDiag();
        Set.Strided.push_back(std::make_unique<StridedDfa>(std::move(*S)));
      }
    }
    if (Choice == Engine::StridedDfa)
      for (const std::unique_ptr<StridedDfa> &S : Set.Strided)
        Set.StridedRunners.emplace_back(*S);
    else
      for (const std::unique_ptr<Dfa> &D : Set.Dfas)
        Set.DfaRunners.emplace_back(*D);
    return Set;
  case Engine::Prefilter: {
    if (Patterns.empty())
      return Result<PlannedEngineSet>::error(
          "prefilter engine needs the source patterns");
    Result<PrefilterEngine> P = PrefilterEngine::create(Patterns);
    if (!P)
      return P.takeDiag();
    Set.Pre.emplace(std::move(*P));
    return Set;
  }
  }
  return Result<PlannedEngineSet>::error("unknown engine choice");
}

Result<PlannedEngineSet> PlannedEngineSet::createFromRuleset(
    const EnginePlan &Plan, const std::vector<Nfa> &OptimizedFsas,
    const std::vector<uint32_t> &GlobalIds,
    const std::vector<std::string> &Patterns, const MergeOptions &Merge) {
  const uint32_t N = static_cast<uint32_t>(OptimizedFsas.size());
  const uint32_t GroupSize =
      Plan.MergingFactor == 0 ? std::max(N, 1u) : Plan.MergingFactor;
  std::vector<Mfsa> Groups;
  for (uint32_t Begin = 0; Begin < N; Begin += GroupSize) {
    const uint32_t End = std::min(N, Begin + GroupSize);
    std::vector<Nfa> Slice(OptimizedFsas.begin() + Begin,
                           OptimizedFsas.begin() + End);
    std::vector<uint32_t> Ids(GlobalIds.begin() + Begin,
                              GlobalIds.begin() + End);
    Groups.push_back(mergeFsas(Slice, Ids, Merge));
  }
  return create(Plan.Choice, Groups, Patterns);
}

namespace {

/// Accumulates one group's input-parallel stats into the caller's. Chunk i
/// of every group runs on (notional) thread i, so per-chunk seconds add
/// element-wise and modeledWallSeconds() stays the critical-path model for
/// the whole group-sequential scan.
void accumulateStats(InputParallelStats &Into,
                     const InputParallelStats &Group) {
  Into.Threads = std::max(Into.Threads, Group.Threads);
  Into.Chunks += Group.Chunks;
  Into.SpecDeadChunks += Group.SpecDeadChunks;
  Into.SpecTableChunks += Group.SpecTableChunks;
  Into.RescanFallbackChunks += Group.RescanFallbackChunks;
  Into.OverlapBytes += Group.OverlapBytes;
  Into.SpecStartRuns += Group.SpecStartRuns;
  Into.MaxSpecFrontier = std::max(Into.MaxSpecFrontier, Group.MaxSpecFrontier);
  Into.MaxAliveClasses =
      std::max(Into.MaxAliveClasses, Group.MaxAliveClasses);
  Into.IsoMatches += Group.IsoMatches;
  Into.CarryMatches += Group.CarryMatches;
  if (Into.ChunkPhase1Seconds.size() < Group.ChunkPhase1Seconds.size())
    Into.ChunkPhase1Seconds.resize(Group.ChunkPhase1Seconds.size(), 0.0);
  for (size_t I = 0; I < Group.ChunkPhase1Seconds.size(); ++I)
    Into.ChunkPhase1Seconds[I] += Group.ChunkPhase1Seconds[I];
  Into.JoinSeconds += Group.JoinSeconds;
}

} // namespace

void PlannedEngineSet::runInputParallel(std::string_view Input,
                                        MatchRecorder &Recorder,
                                        const InputParallelOptions &Options,
                                        InputParallelStats *Stats) const {
  // Every group splits the same input into the same chunks, so one pool
  // serves them all (sparse groups scan sequentially and need none).
  const std::unique_ptr<ThreadPool> Pool =
      Sparse.empty() ? makeInputPool(
                           Options,
                           inputChunkBounds(Options, Input.size()).size() - 1)
                     : nullptr;
  // Runs one executor, folding its stats into the caller's.
  auto RunOne = [&](auto &&Scan) {
    InputParallelStats Group;
    Scan(Stats ? &Group : nullptr);
    if (Stats)
      accumulateStats(*Stats, Group);
  };
  auto Chunked = [&](const InputParallelRun &Par) {
    RunOne([&](InputParallelStats *S) {
      Par.run(Input, Recorder, S, Pool.get());
    });
  };
  for (const ImfantEngine &E : Dense)
    Chunked(InputParallelRun(E, Options));
  for (const std::unique_ptr<Dfa> &D : Dfas)
    if (Choice == Engine::Dfa)
      Chunked(InputParallelRun(*D, Options));
  for (const std::unique_ptr<StridedDfa> &S : Strided)
    Chunked(InputParallelRun(*S, Options));
  // No input-parallel executor: sequential scan, same output.
  for (const SparseImfantEngine &E : Sparse)
    E.run(Input, Recorder);
  if (Pre)
    RunOne([&](InputParallelStats *S) {
      Pre->runInputParallel(Input, Recorder, Options, S, Pool.get());
    });
}

void PlannedEngineSet::run(std::string_view Input,
                           MatchRecorder &Recorder) const {
  for (const ImfantEngine &E : Dense)
    E.run(Input, Recorder);
  for (const SparseImfantEngine &E : Sparse)
    E.run(Input, Recorder);
  for (const DfaEngine &E : DfaRunners)
    E.run(Input, Recorder);
  for (const StridedDfaEngine &E : StridedRunners)
    E.run(Input, Recorder);
  if (Pre)
    Pre->run(Input, Recorder);
}

size_t PlannedEngineSet::numGroups() const {
  if (Pre)
    return 1;
  return Dense.size() + Sparse.size() + DfaRunners.size() +
         StridedRunners.size();
}

} // namespace mfsa
