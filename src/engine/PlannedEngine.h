//===- PlannedEngine.h - uniform execution of a planned engine --*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bridges the planner's decision (analysis/Planner.h) to the four concrete
/// engines: PlannedEngineSet builds whichever engine an EnginePlan chose and
/// exposes one uniform run() with ImfantEngine's (rule, end offset) match
/// semantics, so `imfant_run --engine auto`, the planner ablation bench, and
/// the differential harness can execute any plan through a single driver.
///
/// Construction can fail the way the underlying builders fail (DFA blowup,
/// stride-2 table cap, malformed prefilter patterns); callers get the
/// builder's diagnostic and typically fall back to the always-feasible dense
/// engine — the planner only proposes candidates its probes found feasible,
/// so a failure here means the probe budget and the real budget disagreed.
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

#include <string_view>
#include <variant>
#include <vector>

namespace mfsa {

/// The engines realizing one plan over one merged ruleset.
class PlannedEngineSet {
public:
  /// Builds \p Choice over the merged \p Mfsas. \p Patterns (the original
  /// dataset ruleset indexed by GlobalIds) is required only by
  /// Engine::Prefilter; Engine::Auto is not a buildable choice — resolve
  /// through the planner first.
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
  /// as a match set. Each dense, DFA or stride-2 group runs through
  /// InputParallelRun, and the prefilter through
  /// PrefilterEngine::runInputParallel, all on one pool when
  /// \p Options.UseThreadPool is set. \p Stats, when non-null, accumulates
  /// across groups: counters add up (Chunks is numGroups() times the chunk
  /// count) and peaks take the maximum.
  void runInputParallel(std::string_view Input, MatchRecorder &Recorder,
                        const InputParallelOptions &Options,
                        InputParallelStats *Stats = nullptr) const;

  Engine engine() const { return Choice; }
  /// Merged groups scanned one after another; the prefilter covers the
  /// whole ruleset as one group.
  size_t numGroups() const { return Groups.size(); }

private:
  /// One group's engine. The DFA family stores its automaton: DfaEngine and
  /// StridedDfaEngine only borrow one, so they are built per scan.
  using Group = std::variant<ImfantEngine, Dfa, StridedDfa, PrefilterEngine>;

  PlannedEngineSet() = default;

  Engine Choice = Engine::ImfantDense;
  std::vector<Group> Groups;
};

} // namespace mfsa

#endif // MFSA_ENGINE_PLANNEDENGINE_H
