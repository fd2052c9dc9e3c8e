//===- PlannedEngine.h - uniform execution of a planned engine --*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bridges the planner's decision (analysis/Planner.h) to execution, the
/// one path from a plan to a scan: PlannedEngineSet builds the groups an
/// EnginePlan chose — dense iMFAnt, DFA or stride-2 DFA engines, one per
/// merged group, or for the prefilter a dense residual group followed by
/// the literal gate — and scans them one after another with ImfantEngine's
/// (rule, end offset) match semantics, sequentially (run) or input-parallel
/// (runInputParallel). `imfant_run --engine auto`, the planner ablation
/// bench, the end-to-end benchmark and the differential harness all
/// execute plans through it.
///
/// Construction can fail the way the underlying builders fail (DFA blowup,
/// stride-2 table cap) or when the prefilter has no rule texts; callers get
/// the builder's diagnostic and typically fall back to the always-feasible
/// dense engine — the planner only proposes candidates its probes found
/// feasible, so a failure here means the probe budget and the real budget
/// disagreed.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_ENGINE_PLANNEDENGINE_H
#define MFSA_ENGINE_PLANNEDENGINE_H

#include "analysis/Planner.h"
#include "engine/DfaEngine.h"
#include "engine/Imfant.h"
#include "engine/InputParallel.h"
#include "engine/MultiStride.h"
#include "engine/Prefilter.h"
#include "support/Result.h"

#include <span>
#include <string_view>
#include <variant>
#include <vector>

namespace mfsa {

/// The engines realizing one plan over one merged ruleset.
class PlannedEngineSet {
public:
  /// Builds \p Choice over the merged \p Mfsas; every engine, the
  /// prefilter included, scans the rules these automata hold. \p Patterns
  /// (the original dataset ruleset indexed by GlobalIds) is required only by
  /// Engine::Prefilter, which reads each rule's mandatory literal from it:
  /// profileLiterals splits the rules, the ones it cannot gate merge into
  /// one dense group (M=all) placed before the gate, which holds the rest.
  /// Engine::Auto is not a buildable choice — resolve through the planner
  /// first.
  static Result<PlannedEngineSet>
  create(Engine Choice, const std::vector<Mfsa> &Mfsas,
         const std::vector<std::string> &Patterns = {});

  /// Convenience for plan consumers holding merge-ready per-rule FSAs:
  /// merges at the plan's factor (preserving \p GlobalIds) and builds the
  /// plan's engine.
  static Result<PlannedEngineSet>
  createFromRuleset(const EnginePlan &Plan,
                    const std::vector<Nfa> &OptimizedFsas,
                    const std::vector<uint32_t> &GlobalIds,
                    const std::vector<std::string> &Patterns = {},
                    const MergeOptions &Merge = {});

  /// Scans \p Input group-sequentially with ImfantEngine's match semantics.
  void run(std::string_view Input, MatchRecorder &Recorder) const;

  /// Input-parallel scan (engine/InputParallel.h), byte-identical to run()
  /// as a match set: every group's makeChunkScan() executor runs over the
  /// same chunks in one pool round (runChunkScans) when
  /// \p Options.UseThreadPool is set — all groups' chunk tasks share one
  /// queue and each group's join runs on the worker finishing its last
  /// chunk. \p Recorder gets the groups' matches in group order, each group
  /// as soon as it is done, from the calling thread only. \p Stats, when
  /// non-null, accumulates across groups: counters add up (Chunks is
  /// numGroups() times the chunk count) and peaks take the maximum.
  void runInputParallel(std::string_view Input, MatchRecorder &Recorder,
                        const InputParallelOptions &Options,
                        InputParallelStats *Stats = nullptr) const;

  /// One group's engine. Each has run(Input, Recorder) and a
  /// makeChunkScan() executor.
  using Group = std::variant<ImfantEngine, DfaEngine, StridedDfaEngine,
                             PrefilterEngine>;

  Engine engine() const { return Choice; }
  /// Groups scanned one after another: one per merged MFSA, or for the
  /// prefilter the residual (when any rule is not gated) and the gate.
  size_t numGroups() const { return Groups.size(); }
  /// The groups in scan order; mutable access is for attaching metrics.
  std::span<const Group> groups() const { return Groups; }
  std::span<Group> groups() { return Groups; }

private:
  PlannedEngineSet() = default;

  Engine Choice = Engine::ImfantDense;
  std::vector<Group> Groups;
};

} // namespace mfsa

#endif // MFSA_ENGINE_PLANNEDENGINE_H
