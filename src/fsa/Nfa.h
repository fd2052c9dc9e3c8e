//===- Nfa.h - edge-labeled nondeterministic automaton ----------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Defines Nfa, the middle-end automaton model (paper §II): a tuple
/// (Q, Σ, δ, q0, F) with edge labels generalized to SymbolSets so a single
/// transition can carry a character class (Fig. 2's `idx` entries). During
/// Thompson construction transitions may carry the empty set, which encodes
/// an ε-arc; the ε-removal pass (§IV-C) guarantees executable automata have
/// non-empty labels only.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_FSA_NFA_H
#define MFSA_FSA_NFA_H

#include "support/SymbolSet.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mfsa {

/// Dense automaton state index.
using StateId = uint32_t;

/// One automaton transition From --Label--> To. An empty Label is an ε-arc
/// (only present between construction and ε-removal).
struct Transition {
  StateId From = 0;
  StateId To = 0;
  SymbolSet Label;

  bool isEpsilon() const { return Label.empty(); }

  friend bool operator==(const Transition &A, const Transition &B) {
    return A.From == B.From && A.To == B.To && A.Label == B.Label;
  }
  /// Deterministic (From, To, Label) order used to canonicalize automata.
  friend bool operator<(const Transition &A, const Transition &B) {
    if (A.From != B.From)
      return A.From < B.From;
    if (A.To != B.To)
      return A.To < B.To;
    return A.Label < B.Label;
  }
};

/// An edge-labeled NFA with one initial state and a final-state set, plus
/// the pattern-level anchor flags the engine honours at match time.
class Nfa {
public:
  /// Appends a fresh state and returns its id.
  StateId addState() { return NumStatesValue++; }

  void addTransition(StateId From, StateId To, const SymbolSet &Label);

  uint32_t numStates() const { return NumStatesValue; }
  uint32_t numTransitions() const {
    return static_cast<uint32_t>(Transitions.size());
  }

  StateId initial() const { return InitialState; }
  void setInitial(StateId S) { InitialState = S; }

  const std::vector<StateId> &finals() const { return FinalStates; }
  /// Mutable access, mirroring transitions(): passes (and the verifier's
  /// corrupted-corpus tests) edit final states in place; callers are
  /// responsible for re-establishing canonical form.
  std::vector<StateId> &finals() { return FinalStates; }
  void addFinal(StateId S);
  bool isFinal(StateId S) const;
  void clearFinals() { FinalStates.clear(); }

  const std::vector<Transition> &transitions() const { return Transitions; }
  std::vector<Transition> &transitions() { return Transitions; }

  bool anchoredStart() const { return AnchoredStart; }
  bool anchoredEnd() const { return AnchoredEnd; }
  void setAnchors(bool Start, bool End) {
    AnchoredStart = Start;
    AnchoredEnd = End;
  }

  /// \returns true if any transition is an ε-arc.
  bool hasEpsilons() const;

  /// Sorts transitions into canonical (From, To, Label) order and removes
  /// duplicates; final states are sorted and deduplicated too.
  void canonicalize();

  /// Builds a per-state index of outgoing-transition positions, valid until
  /// the transition vector is next mutated.
  std::vector<std::vector<uint32_t>> buildOutgoingIndex() const;

  /// Structural equality after canonicalization (same states, transitions,
  /// initial, finals, anchors). Used by round-trip tests.
  friend bool operator==(const Nfa &A, const Nfa &B);

private:
  uint32_t NumStatesValue = 0;
  std::vector<Transition> Transitions;
  StateId InitialState = 0;
  std::vector<StateId> FinalStates;
  bool AnchoredStart = false;
  bool AnchoredEnd = false;
};

bool operator==(const Nfa &A, const Nfa &B);

/// Summary counters for one automaton, feeding Table I.
struct NfaStats {
  uint32_t NumStates = 0;
  uint32_t NumTransitions = 0;
  uint32_t NumCcTransitions = 0; ///< Transitions labeled by a multi-symbol set.
  uint64_t TotalCcLength = 0;    ///< Sum of |label| over CC transitions.
};

/// Computes NfaStats over \p A.
NfaStats computeStats(const Nfa &A);

/// Renders \p A in Graphviz DOT format (debugging aid; labels use
/// SymbolSet::toString()).
std::string writeDot(const Nfa &A, const std::string &Name);

} // namespace mfsa

#endif // MFSA_FSA_NFA_H
