//===- Passes.h - single-FSA optimization passes ----------------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declares the per-FSA transformations the middle-end applies before
/// merging (paper §IV-C):
///
///   1. ε-arc removal — merging and ANML generation require non-empty
///      transitions only.
///   2. multiplicity folding — parallel single-character alternations between
///      the same state pair become one character-class transition, which
///      prevents incorrect merges (Fig. 5b).
///   3. bisimulation merging — equivalent alternation exits become one
///      state, which turns the branches into parallel (foldable) arcs.
///   4. compaction — drops unreachable and dead states and renumbers the
///      remainder deterministically.
///
/// Loop expansion, the third optimization of §IV-C, lives in the AST-to-FSA
/// builder (see Builder.h) because structural expansion happens naturally at
/// construction time.
///
/// Each pass is a pure function Nfa -> Nfa so tests can compose them freely;
/// optimizeForMerging() is the pipeline-standard composition. Every pass
/// returns a canonical automaton (Nfa::canonicalize() order) and accepts a
/// non-canonical one. The passes work on flat, index-based adjacency
/// (compressed sparse rows built by one counting sort) and emit their output
/// state by state in increasing id, so only each state's own arcs are
/// sorted. Each pass keeps its scratch buffers in thread-local storage and
/// reuses them, so once they have grown a call allocates only its output
/// automaton; the buffers stay as large as the largest automaton the
/// thread has optimized. N is the state count, M the transition count.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_FSA_PASSES_H
#define MFSA_FSA_PASSES_H

#include "fsa/Nfa.h"
#include "support/Result.h"

#include <functional>
#include <string>

namespace mfsa {

/// Removes every ε-arc: δ'(q, c) = ∪ { δ(r, c) : r ∈ ε-closure(q) }, and a
/// state becomes final if its closure intersects the final set. The language
/// is preserved; unreachable states are NOT dropped here (see
/// compactReachable). Each closure is one depth-first walk over the ε-rows
/// with a reused stack and a visited array stamped with the walk's source,
/// so no per-state clearing: O(Σ_q |closure(q)| + output arcs), with each
/// state's output arcs sorted on their own.
Nfa removeEpsilons(const Nfa &A);

/// Folds transitions with multiplicity > 1 (several arcs between one state
/// pair) into a single character-class arc (paper §IV-C (3), Fig. 5b).
/// Requires an ε-free automaton. One linear pass over the runs of equal
/// (From, To) in canonical order: O(M); a non-canonical input is sorted
/// once first.
Nfa foldMultiplicity(const Nfa &A);

/// Keeps only states both reachable from the initial state and co-reachable
/// to some final state, renumbering survivors in BFS discovery order (arcs
/// taken in transition order). An automaton with the empty language
/// collapses to a single initial state. Three breadth-first walks over
/// out/in rows with one vector FIFO: O(N + M) plus each surviving state's
/// arc sort.
Nfa compactReachable(const Nfa &A);

/// Merges bisimilar states (coarsest partition stable under the signature
/// (finality, {(label, class(target))})). Thompson construction gives every
/// alternation branch its own exit state, so the single-character
/// alternations of §IV-C (3) only become parallel arcs — and thus foldable
/// into one character class — after the equivalent exits are merged.
/// Requires an ε-free automaton; preserves the language (bisimilar states
/// have identical right languages). Output states are numbered by the first
/// occurrence of their class in state order.
///
/// Labels are interned to dense ids once, so a signature is a set of
/// (label id, block) integer pairs, grouped by hashing. Refinement starts
/// from {non-final, final} and keeps a worklist of blocks with touched
/// states: processing a block re-signs only its touched states plus one
/// untouched representative (untouched states still share the signature
/// they had when the block last settled), and moves every signature group
/// but one to a new block. Only predecessors of moved states can change
/// signature, so only they are touched. The result is the unique coarsest
/// stable partition, whatever the processing order. Cost: each processing
/// costs the out-degree of the states it signs; a state is re-signed once
/// per move of one of its successors, which is near-linear on rule
/// automata (an a{n} chain settles in O(n)).
Nfa mergeBisimilarStates(const Nfa &A);

/// The standard pre-merge pipeline: removeEpsilons, then alternating
/// foldMultiplicity / mergeBisimilarStates to a fixpoint (each enables the
/// other), then compactReachable.
///
/// Fold runs only when the automaton has parallel arcs: on a canonical
/// automaton without them it is the identity. The fixpoint stops after the
/// first merge that merges no state or leaves no parallel arcs. In the
/// first case the merge returned its input, which fold had already freed of
/// parallel arcs; in the second, fold is the identity and the quotient by
/// the coarsest bisimulation is bisimulation-minimal, so a further merge is
/// the identity too. Either way every later round would change nothing, so
/// the result equals that of iterating until the state and transition
/// counts stop moving, with one round fewer and no idle folds.
Nfa optimizeForMerging(const Nfa &A);

/// optimizeForMerging with resource budgets: ε-removal can grow the
/// transition set quadratically (every closure member's arcs are copied to
/// every predecessor), so the pass chain re-checks \p MaxStates and
/// \p MaxTransitions after each step and surfaces an overrun as a
/// diagnostic instead of unbounded growth. 0 means unlimited for either cap.
Result<Nfa> optimizeForMergingBudgeted(const Nfa &A, uint64_t MaxStates,
                                       uint64_t MaxTransitions);

/// Translation-validation hook for the budgeted pass chain: called after
/// each individual pass application (passes the chain skips are not
/// reported) with the pass name ("remove-epsilons",
/// "fold-multiplicity", "merge-bisimilar-states", "compact-reachable") and
/// the automaton before/after. A non-empty return string aborts the chain
/// with that message as the diagnostic. Declared here (not in analysis/) so
/// the fsa layer stays free of an analysis dependency — the pipeline binds
/// it to analysis/TranslationValidate.h.
using PassValidator =
    std::function<std::string(const char *PassName, const Nfa &Before,
                              const Nfa &After)>;

/// optimizeForMergingBudgeted with a per-pass validation hook; a null
/// \p Validate behaves exactly like the three-argument overload.
Result<Nfa> optimizeForMergingBudgeted(const Nfa &A, uint64_t MaxStates,
                                       uint64_t MaxTransitions,
                                       const PassValidator &Validate);

} // namespace mfsa

#endif // MFSA_FSA_PASSES_H
