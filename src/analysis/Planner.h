//===- Planner.h - Engine::Auto selection planner ---------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declares the adaptive engine planner the ROADMAP's "Adaptive engine
/// planner" item asks for: convert the static facts of analysis/CostModel.h
/// plus cost constants (Planner.cpp) fitted to the committed
/// `bench/baselines/` numbers into an EnginePlan — which of the four
/// engines to run, at what merging factor K, and at what stride — with a
/// JSON explain trace of every candidate evaluated and why the winner won
/// (Hyperscan-style hybrid dispatch, grounded in our own baselines rather
/// than guesswork).
///
/// The planner is pure analysis: it never constructs an engine, so it lives
/// in the analysis layer and everything above (pipeline, CLIs, benches,
/// engine/PlannedEngine.h) can consume the plan.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_ANALYSIS_PLANNER_H
#define MFSA_ANALYSIS_PLANNER_H

#include "analysis/CostModel.h"
#include "fsa/Nfa.h"
#include "mfsa/Merge.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mfsa {

namespace obs {
class MetricsRegistry;
} // namespace obs

/// The engine-selection axis (PlannerOptions::Force): the four concrete
/// execution strategies the benches compare, plus Auto ("let the planner
/// decide"). The values are stable: the `analysis.cost.chosen_engine` gauge
/// exports them, and 2 stays unused since the sparse iMFAnt engine was
/// removed.
enum class Engine : uint8_t {
  Auto = 0,        ///< Resolve via the planner.
  ImfantDense = 1, ///< Active-state iMFAnt (engine/Imfant.h).
  Dfa = 3,         ///< Scanning subset-construction DFA (engine/DfaEngine.h).
  StridedDfa = 4,  ///< Stride-2 DFA (engine/MultiStride.h).
  Prefilter = 5,   ///< AC literal prefilter + confirm (engine/Prefilter.h).
};

/// Stable CLI/JSON name: auto, dense, dfa, stride2, prefilter.
const char *engineName(Engine E);

/// Parses an engineName() string. \returns false on an unknown name.
bool engineFromName(std::string_view Name, Engine &Out);

/// One engine's evaluated cost for a candidate configuration.
struct EngineCostEstimate {
  Engine E = Engine::ImfantDense;
  double NsPerByte = 0.0;
  bool Feasible = false;
  std::string Why; ///< Infeasibility reason or dominant cost driver.
};

/// One candidate merging factor's full evaluation.
struct CandidatePlan {
  uint32_t MergingFactor = 0; ///< The paper's M (0 = all rules, one MFSA).
  uint32_t NumGroups = 0;     ///< K = ⌈N/M⌉ MFSAs.
  /// Group reports the estimates aggregate over (group-sequential
  /// execution sums costs).
  std::vector<CostReport> Groups;
  std::vector<EngineCostEstimate> Engines;
  Engine Best = Engine::ImfantDense;
  double BestNsPerByte = 0.0;
};

/// The planner's decision plus its full trace.
struct EnginePlan {
  Engine Choice = Engine::ImfantDense;
  uint32_t MergingFactor = 0;
  uint32_t Stride = 1; ///< 2 iff Choice == StridedDfa.
  /// Input-parallel dimension (engine/InputParallel.h): the chunk count the
  /// caller asked to split each input into (PlannerOptions::InputThreads),
  /// and whether the planner recommends it for the chosen engine. Enabled
  /// for every engine with an input-parallel executor (dense iMFAnt, DFA,
  /// stride-2 DFA, prefilter) when more than one thread is requested: each
  /// executor's run-time guard (state-map class cap, the iMFAnt join's
  /// re-scan of the carry until it dies) bounds its worst case at about
  /// sequential cost. ParallelInputWhy records the reason either way.
  unsigned InputThreads = 1;
  bool ParallelInput = false;
  std::string ParallelInputWhy;
  std::vector<CandidatePlan> Candidates; ///< One per merging factor tried.
  double PlanWallMs = 0.0;
  /// Threads the planner's own analyses ran on: its pool's workers, or 1
  /// when they ran on the calling thread. Never above
  /// PlannerOptions::InputThreads nor the number of analysis tasks.
  unsigned PlanWorkers = 1;

  /// The winning candidate's evaluation (always present after planning).
  const CandidatePlan *chosen() const;

  /// The `--explain-plan` JSON document (docs/performance.md documents the
  /// schema): decision, per-candidate cost-model facts, per-engine
  /// estimates with feasibility reasons.
  std::string explainJson() const;

  /// Publishes `analysis.cost.*` metrics: the chosen candidate's report
  /// plus plans/chosen_engine/plan_wall_ms.
  void recordTo(obs::MetricsRegistry &Registry) const;
};

/// Planner knobs.
struct PlannerOptions {
  /// Planning must stay orders of magnitude cheaper than scanning, so the
  /// DFA probe budget defaults lower here than DfaProbeOptions' own: a
  /// probe needs few states to *prove* a blowup (completing under the
  /// smaller cap still implies the engine builder's far larger cap
  /// succeeds).
  DfaProbeOptions Probe{.MaxStates = 1u << 12};
  /// Merging factors to trial (0 = all). planMfsas ignores this — its K is
  /// fixed by the Mfsas it is given. A candidate of more than eight groups
  /// has an evenly spaced sample of eight analyzed, and its summed cost
  /// terms are scaled by the real group count (a K=300 candidate would
  /// otherwise pay 300 DFA probes per plan).
  std::vector<uint32_t> CandidateFactors = {1, 50, 0};
  /// Merge options for planRuleset's trial merges.
  MergeOptions Merge;
  /// Force a specific engine: the planner still evaluates every candidate
  /// (the explain trace shows what it would have picked) but the plan's
  /// Choice is pinned. Auto means "actually choose".
  Engine Force = Engine::Auto;
  /// Requested input-parallel chunk count (imfant_run --input-threads).
  /// 1 disables the dimension; above 1 the planner enables it whenever
  /// the chosen engine has an input-parallel executor (see
  /// EnginePlan::ParallelInput). It is the caller's thread grant, so it
  /// also sizes the planner's own pool: min(InputThreads, analysis tasks)
  /// workers, none at 1 (EnginePlan::PlanWorkers). The plan and its trace
  /// do not depend on it beyond the parallel_input decision.
  unsigned InputThreads = 1;
};

/// Plans engine + stride for an already-merged ruleset (fixed merging
/// factor \p MergingFactor, purely descriptive). \p Patterns is the
/// original dataset ruleset indexed by GlobalIds; may be empty (disables
/// the prefilter candidate). The sampled groups' analyses run on the
/// planner's pool (PlannerOptions::InputThreads); every one is probed.
EnginePlan planMfsas(const std::vector<Mfsa> &Mfsas,
                     const std::vector<std::string> &Patterns,
                     uint32_t MergingFactor,
                     const PlannerOptions &Options = {});

/// Full plan over merge-ready per-rule FSAs: trial-merges every candidate
/// factor and picks (engine, K, stride). \p GlobalIds parallels
/// \p OptimizedFsas (dataset rule ids, as in CompileArtifacts).
///
/// The trial merges and the sampled groups' analyses run on the planner's
/// pool (PlannerOptions::InputThreads). DFA probes run in descending
/// group count, one count at a time; a group that holds every GlobalId
/// of a blown group of a candidate with more groups is not probed, since a
/// rule set's scanning DFA is never smaller than a subset's: it gets the
/// probe's blowup verdict with DfaEstimate::Implied set. Skips are decided
/// only after those probes finished, so the plan and its trace equal a
/// single-threaded run's. No group is skipped when \p GlobalIds repeats an
/// id.
EnginePlan planRuleset(const std::vector<Nfa> &OptimizedFsas,
                       const std::vector<uint32_t> &GlobalIds,
                       const std::vector<std::string> &Patterns,
                       const PlannerOptions &Options = {});

} // namespace mfsa

#endif // MFSA_ANALYSIS_PLANNER_H
