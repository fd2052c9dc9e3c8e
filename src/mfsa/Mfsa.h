//===- Mfsa.h - Multi-RE finite state automaton -----------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Defines Mfsa, the paper's central model (§III-B, Eq. 10):
///
///   z = (Q, Σ, Δ, I, F, J, R)
///
/// a single automaton recognizing and *distinguishing* the languages of a
/// set of merged FSAs. Each transition carries a belonging set `bel` (the
/// merged-rule identifiers it derives from, Fig. 2); the activation function
/// J is not stored — it is maintained at traversal time by the iMFAnt engine
/// according to rules (4)-(6), using the per-rule initial and final state
/// sets stored here.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_MFSA_MFSA_H
#define MFSA_MFSA_MFSA_H

#include "fsa/Nfa.h"
#include "support/DynamicBitset.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mfsa {

/// Index of a merged rule (the paper's FSA identifier j ∈ R), local to one
/// Mfsa: 0 .. numRules()-1.
using RuleId = uint32_t;

/// One MFSA transition: a labeled arc plus the set of merged rules it
/// belongs to.
struct MfsaTransition {
  StateId From = 0;
  StateId To = 0;
  SymbolSet Label;
  DynamicBitset Bel; ///< Width == Mfsa::numRules().
};

/// A Multi-RE FSA. Built by mergeFsas() (Algorithm 1) or the trivial
/// single-rule constructor; executed by the iMFAnt engine; serialized by the
/// ANML back-end.
class Mfsa {
public:
  /// Creates an empty MFSA prepared for \p NumRules merged rules.
  explicit Mfsa(uint32_t NumRules = 0) : Rules(NumRules) {}

  //===------------------------------------------------------------------===//
  // Structure
  //===------------------------------------------------------------------===//

  StateId addState() { return NumStatesValue++; }
  uint32_t numStates() const { return NumStatesValue; }

  void addTransition(StateId From, StateId To, const SymbolSet &Label,
                     DynamicBitset Bel);
  const std::vector<MfsaTransition> &transitions() const {
    return Transitions;
  }
  std::vector<MfsaTransition> &transitions() { return Transitions; }
  uint32_t numTransitions() const {
    return static_cast<uint32_t>(Transitions.size());
  }

  //===------------------------------------------------------------------===//
  // Per-rule metadata (I, F, anchors, provenance)
  //===------------------------------------------------------------------===//

  /// Per-rule bookkeeping: where the rule starts and accepts inside the
  /// merged graph, its anchor flags, and its identity in the source dataset.
  struct RuleInfo {
    StateId Initial = 0;
    std::vector<StateId> Finals;
    bool AnchoredStart = false;
    bool AnchoredEnd = false;
    uint32_t GlobalId = 0; ///< Rule index in the original dataset.
  };

  uint32_t numRules() const { return static_cast<uint32_t>(Rules.size()); }
  RuleInfo &rule(RuleId Id) { return Rules[Id]; }
  const RuleInfo &rule(RuleId Id) const { return Rules[Id]; }

  /// Makes a belonging set of the right width with \p Id set.
  DynamicBitset makeBel(RuleId Id) const {
    DynamicBitset B(numRules());
    B.set(Id);
    return B;
  }

  //===------------------------------------------------------------------===//
  // Queries
  //===------------------------------------------------------------------===//

  /// Extracts rule \p Id's own sub-automaton: the transitions whose `bel`
  /// contains Id, with the rule's anchors, renumbered compactly in
  /// first-touch order (the rule's initial state first, then, in transition
  /// order, each transition's target before its source; unreached finals
  /// are dropped). By construction (no transition
  /// is removed nor changed, §III-A) this is isomorphic to the merged input
  /// FSA — the property verifyAgainstInputs() checks, and translation
  /// validation (analysis/TranslationValidate.h) strengthens to a language
  /// equivalence proof against the pre-merge FSA (Eq. 10).
  Nfa extractRule(RuleId Id) const;

  /// extractRule(Id) for every rule, in rule order, from one pass over the
  /// transitions: it buckets them by their belonging bits, so the cost is
  /// the summed size of the results rather than numRules() scans of the
  /// MFSA.
  std::vector<Nfa> extractAllRules() const;

  /// Checks that every rule's extractRule() image has exactly the state and
  /// transition counts of the corresponding input FSA (\p Inputs parallel
  /// to rule ids) — the cheap witness of the merge-preserves-morphology
  /// invariant. \returns an empty string on success.
  std::string verifyAgainstInputs(const std::vector<Nfa> &Inputs) const;

  /// Validates internal invariants (index ranges, bel widths, non-empty
  /// labels, every rule owning a consistent sub-automaton). \returns an
  /// empty string on success, else a description of the violation.
  std::string verify() const;

  /// Renders the MFSA in Graphviz DOT with belonging annotations.
  std::string writeDot(const std::string &Name) const;

private:
  uint32_t NumStatesValue = 0;
  std::vector<MfsaTransition> Transitions;
  std::vector<RuleInfo> Rules;
};

/// Aggregate size counters for compression studies (Fig. 7).
struct MfsaSetStats {
  uint64_t TotalStates = 0;
  uint64_t TotalTransitions = 0;
};

/// Sums states and transitions over a set of MFSAs.
MfsaSetStats computeSetStats(const std::vector<Mfsa> &Set);

/// Percentage reduction of \p Merged relative to \p Baseline
/// (paper §VI-A: %comp = (base - merged) / base * 100).
double compressionPercent(uint64_t Baseline, uint64_t Merged);

} // namespace mfsa

#endif // MFSA_MFSA_MFSA_H
