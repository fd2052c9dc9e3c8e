//===- CostModel.h - static cost & activation-width analyzer ----*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declares the static analyzer behind the `Engine::Auto` planner
/// (analysis/Planner.h): everything the engine-selection decision needs,
/// computed from a compiled Mfsa before a single input byte is scanned,
/// plus the activation-width bound the linter and the input-parallel
/// executor consume.
///
///  (a) A *sound upper bound* on the worst-case simultaneous active-state
///      width (the paper's Table II pressure), via antichain-pruned
///      reachability over the scanning macrostate system — the same
///      fixpoint style as the PR 5 inclusion prover (analysis/Inclusion.h),
///      here searching ⊆-maximal reachable frontiers instead of ⊆-minimal
///      counterexample candidates. Soundness argument: the successor map
///      S ↦ Inject(atom) ∪ post(S, atom) is monotone in S, so pruning any
///      discovered frontier that is ⊆ an already-kept one preserves, by
///      induction, the invariant that every truly reachable frontier is a
///      subset of some kept frontier; max |S| over kept frontiers therefore
///      bounds the engine's observed frontier, and the per-state
///      possible-rule union bounds |∪ J(q)| the same way. The differential
///      harness asserts exactly this against RunStats on every seeded case.
///      This search is its own entry point (boundActivationWidth); the
///      planner does not run it.
///
///  (b) DFA and stride-2 blowup estimates by *budgeted subset-construction
///      probing*: run the real scanning determinization (fsa/Determinize.h)
///      with a small state budget and record either the exact DFA size or
///      the proven fact that it exceeds the budget ("blowup before budget",
///      the Insomnia/Amnesia taxonomy's state-explosion symptom).
///
///  (c) Literal density / prefilterability scoring for the Aho-Corasick
///      path (fsa/LiteralAnalysis.h): how many rules carry a usable
///      mandatory literal, how long the literals are, and whether the
///      root-skip byte-set scan stays narrow.
///
/// Everything is pure analysis over `Mfsa` + (optionally) the source
/// patterns; no engine is constructed, so the analysis layer keeps its
/// core/fsa/regex-only dependency set.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_ANALYSIS_COSTMODEL_H
#define MFSA_ANALYSIS_COSTMODEL_H

#include "fsa/LiteralAnalysis.h"
#include "mfsa/Mfsa.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mfsa {

namespace obs {
class MetricsRegistry;
} // namespace obs

/// Resource knobs for the activation-width search.
struct WidthOptions {
  /// Cap on macrostates admitted to the antichain search. When the budget
  /// is exhausted the bound degrades to the trivial (still sound)
  /// all-states/all-rules bound and Exact flips off. 0 means unlimited.
  uint64_t MaxMacrostates = 1u << 12;
};

/// Sound upper bound on worst-case simultaneous activation width.
struct WidthBound {
  /// Max simultaneously active states any input can reach (bounds the
  /// engine's frontier, RunStats::MaxFrontier).
  uint32_t MaxActiveStates = 0;
  /// Max simultaneously active rules |∪ J(q)| (Table II's peak,
  /// RunStats::MaxActiveRules).
  uint32_t MaxActiveRules = 0;
  /// True when the fixpoint completed within MaxMacrostates: the bound is
  /// the exact maximum of the (over-approximating) macrostate system.
  /// False means the search was cut and the trivial bound was substituted.
  bool Exact = false;
  uint64_t MacrostatesExplored = 0;
  uint64_t AntichainPeak = 0;
  double WallMs = 0.0;
  /// Union of every reachable macrostate (numStates bits): a sound
  /// over-approximation of the states that can ever be active mid-stream.
  /// The input-parallel executor (engine/InputParallel.h), when handed the
  /// bound, seeds its speculative chunk frontiers from exactly this set.
  /// When the search was budgeted, every bit is set (trivially sound).
  DynamicBitset ReachableStates;
};

/// Computes a sound activation-width bound for \p Z (see file comment).
WidthBound boundActivationWidth(const Mfsa &Z, const WidthOptions &Options = {});

/// Resource knobs for the determinization probe.
struct DfaProbeOptions {
  /// Subset-construction state budget. Far below DeterminizeOptions'
  /// default — the probe wants a cheap verdict, not a usable DFA.
  uint32_t MaxStates = 1u << 14;
};

/// Outcome of the budgeted determinization probe.
struct DfaEstimate {
  /// True when subset construction finished: DfaStates/NumAtoms are exact.
  /// False is the proven blowup-before-budget fact; DfaStates then holds
  /// the budget floor (the real DFA has at least that many states).
  bool Completed = false;
  uint32_t DfaStates = 0;
  uint32_t NumAtoms = 0;
  /// Estimated stride-2 table entries (DfaStates × NumAtoms²; the real
  /// pair alphabet is never larger).
  uint64_t Stride2Entries = 0;
  /// Stride2Entries is within the stride-2 table ceiling,
  /// StrideOptions::MaxTableEntries' default.
  bool Stride2Feasible = false;
  /// True when the planner proved the blowup without probing: another
  /// group holding a subset of these rules already blew the same budget,
  /// and a rule set's scanning DFA is never smaller than a subset's. An
  /// implied verdict costs no probe (WallMs stays 0) and otherwise equals
  /// blowupEstimate(), the probe's own blowup verdict.
  bool Implied = false;
  double WallMs = 0.0;
};

/// Probes DFA blowup for \p Z by determinizing its extracted per-rule
/// automata under Options.MaxStates.
DfaEstimate probeDfaBlowup(const Mfsa &Z, const DfaProbeOptions &Options = {});

/// The estimate probeDfaBlowup returns when subset construction exceeds
/// Options.MaxStates (WallMs aside).
DfaEstimate blowupEstimate(const DfaProbeOptions &Options);

/// Aggregate literal/prefilterability profile of a ruleset.
struct LiteralProfile {
  uint32_t TotalRules = 0;
  uint32_t PrefilterableRules = 0;
  double PrefilterableFraction = 0.0; ///< PrefilterableRules / TotalRules.
  double AvgLiteralLength = 0.0;      ///< Over prefilterable rules only.
  /// Distinct first bytes over the mandatory literals: ≤ 8 keeps the AC
  /// scan on its root-skip fast path (AhoCorasick::kMaxRootNeedles).
  uint32_t DistinctFirstBytes = 0;
  bool RootSkipViable = false;
  /// Per-rule decisions indexed like Z's local rules (empty when no
  /// patterns were supplied). A rule whose GlobalId has no parseable
  /// pattern is not prefilterable. A prefilter plan (PlannedEngineSet)
  /// splits its rules by exactly these decisions.
  std::vector<PrefilterInfo> Rules;
};

/// Scores the AC-prefilter path for \p Z. \p Patterns is the original
/// dataset ruleset, indexed by the rules' GlobalIds; when empty (e.g. an
/// ANML-only load) the profile reports zero density and the planner
/// disables the prefilter candidate. Window bounds are measured on the
/// rules' automata extracted from \p Z.
LiteralProfile profileLiterals(const Mfsa &Z,
                               const std::vector<std::string> &Patterns);

/// profileLiterals over \p RuleFsas, Z.extractAllRules() computed by a
/// caller that needs the automata too.
LiteralProfile profileLiterals(const Mfsa &Z, const std::vector<Nfa> &RuleFsas,
                               const std::vector<std::string> &Patterns);

/// Structural size facts the cost formulas consume directly.
struct MfsaShape {
  uint32_t NumStates = 0;
  uint32_t NumRules = 0;
  uint64_t NumTransitions = 0;
  /// Expected per-symbol transition-table row length under a uniform byte
  /// prior: Σ_t |label(t)| / 256 — the dense engine's per-byte work.
  double AvgTableRow = 0.0;
  uint32_t BelWords = 0; ///< 64-bit words per rule bitset.
};

/// Computes the structural shape of \p Z.
MfsaShape computeShape(const Mfsa &Z);

/// The combined static-analysis report for one Mfsa: its computeShape,
/// probeDfaBlowup and profileLiterals results (the planner's inputs, which
/// it computes as separate tasks).
struct CostReport {
  MfsaShape Shape;
  DfaEstimate Dfa;
  LiteralProfile Literals;

  /// Publishes `analysis.cost.*` gauges/counters into \p Registry.
  void recordTo(obs::MetricsRegistry &Registry) const;
};

} // namespace mfsa

#endif // MFSA_ANALYSIS_COSTMODEL_H
