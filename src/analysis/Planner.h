//===- Planner.h - Engine::Auto selection planner ---------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declares the adaptive engine planner the ROADMAP's "Adaptive engine
/// planner" item asks for: convert the static facts of analysis/CostModel.h
/// plus cost coefficients fitted to the committed `bench/baselines/`
/// numbers into an EnginePlan — which of the four engines to run, at what
/// merging factor K, and at what stride — with a JSON explain trace of
/// every candidate evaluated and why the winner won (Hyperscan-style
/// hybrid dispatch, grounded in our own baselines rather than guesswork).
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

/// The engine-selection axis (CompileOptions::Engine): the four concrete
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

/// Per-unit cost constants, in nanoseconds, fitted to the committed
/// bench/baselines/BENCH_*.json numbers (docs/performance.md shows the
/// derivation). They only need to get *ratios* right: the planner compares
/// candidate engines against each other, never against the wall clock.
struct CostCoefficients {
  /// Dense iMFAnt: per per-symbol table entry evaluated per input byte
  /// (BENCH_engine_throughput dense rows / avg table row).
  double DenseNsPerEntry = 1.2;
  /// Dense iMFAnt: per 64-bit belonging word combined per entry.
  double BitsetNsPerWord = 0.4;
  /// DFA: one table lookup + accept probe per byte.
  double DfaNsPerByte = 1.0;
  /// Stride-2 DFA: one lookup per byte *pair*.
  double Stride2NsPerStep = 1.3;
  /// AC prefilter: literal-scan cost per byte (root-skip fast path).
  double PrefilterNsPerByte = 0.6;
  /// Residual (non-prefilterable) rules scan every byte with a dense
  /// engine; this scales that engine's estimate by the residual fraction.
  /// Fitted at ~2×: the baselines show the prefilter's residual path
  /// costing about twice the tuned dense engine per residual rule share
  /// (abl_planner: prefilter/dense ≈ 2.0-3.3 × (1 - prefilterable
  /// fraction) across the Table I datasets), which flips literal-poor
  /// rulesets (DS9) back to dense while keeping literal-heavy ones
  /// (PEN/RG1/TCP) on the prefilter.
  double ResidualPenalty = 2.0;
  /// Confirm-window cost: a prefilter hit reruns an automaton over the
  /// window, and hit probability rises steeply as the mandatory literal
  /// shortens. This charges the prefilterable share of the dense cost
  /// inversely to the average literal length (abl_planner: PRO's 4.4-byte
  /// average literal makes its prefilter slower than plain dense, while
  /// BRO's 11-byte literals keep the confirm path cold).
  double ConfirmPenalty = 1.0;
  /// Tables larger than this spill the last-level working set; their
  /// estimate is multiplied by CacheSpillFactor (baselines show the dense
  /// engine degrading ~2-3× once the table leaves L2).
  double CacheBytes = 1.5e6;
  double CacheSpillFactor = 2.5;
};

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
  /// executor's run-time guard (death-probe window, state-map class cap,
  /// sequential re-scan fallback) bounds its worst case at about sequential
  /// cost. ParallelInputWhy records the reason either way.
  unsigned InputThreads = 1;
  bool ParallelInput = false;
  std::string ParallelInputWhy;
  std::vector<CandidatePlan> Candidates; ///< One per merging factor tried.
  double PlanWallMs = 0.0;

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
  /// DFA probe budget defaults lower here than CostOptions' own: a probe
  /// needs few states to *prove* a blowup (completing under the smaller cap
  /// still implies the engine builder's far larger cap succeeds).
  PlannerOptions() { Cost.Probe.MaxStates = 1u << 12; }

  CostCoefficients Coefficients;
  CostOptions Cost;
  /// Merging factors to trial (0 = all). planMfsas ignores this — its K is
  /// fixed by the Mfsas it is given.
  std::vector<uint32_t> CandidateFactors = {1, 50, 0};
  /// Cap on fully-analyzed groups per candidate: beyond it, an evenly
  /// spaced sample is analyzed and the summed cost terms are scaled by the
  /// real group count (a K=300 candidate would otherwise pay 300 DFA
  /// probes per plan).
  uint32_t MaxAnalyzedGroups = 8;
  /// Merge options for planRuleset's trial merges.
  MergeOptions Merge;
  /// Force a specific engine: the planner still evaluates every candidate
  /// (the explain trace shows what it would have picked) but the plan's
  /// Choice is pinned. Auto means "actually choose".
  Engine Force = Engine::Auto;
  /// Requested input-parallel chunk count (imfant_run --input-threads).
  /// 1 disables the dimension; above 1 the planner enables it whenever
  /// the chosen engine has an input-parallel executor (see
  /// EnginePlan::ParallelInput).
  unsigned InputThreads = 1;
};

/// Plans engine + stride for an already-merged ruleset (fixed merging
/// factor \p MergingFactor, purely descriptive). \p Patterns is the
/// original dataset ruleset indexed by GlobalIds; may be empty (disables
/// the prefilter candidate).
EnginePlan planMfsas(const std::vector<Mfsa> &Mfsas,
                     const std::vector<std::string> &Patterns,
                     uint32_t MergingFactor,
                     const PlannerOptions &Options = {});

/// Full plan over merge-ready per-rule FSAs: trial-merges every candidate
/// factor and picks (engine, K, stride). \p GlobalIds parallels
/// \p OptimizedFsas (dataset rule ids, as in CompileArtifacts).
EnginePlan planRuleset(const std::vector<Nfa> &OptimizedFsas,
                       const std::vector<uint32_t> &GlobalIds,
                       const std::vector<std::string> &Patterns,
                       const PlannerOptions &Options = {});

} // namespace mfsa

#endif // MFSA_ANALYSIS_PLANNER_H
