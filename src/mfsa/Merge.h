//===- Merge.h - Algorithm 1: merging FSAs into an MFSA ---------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declares the merging-based optimization (paper §III-A, Algorithm 1). A
/// set of M optimized, ε-free FSAs is merged in a cascaded fashion into one
/// MFSA: the first automaton is copied as-is; each incoming FSA is compared
/// against the evolving MFSA, common sub-paths (transitions with identical
/// SymbolSet labels connected with the same morphology) are collected into
/// Merging Structures, the incoming FSA's states are relabeled onto the
/// MFSA's (shared states) or onto fresh ids (disjoint states), and its
/// transitions either coalesce with existing arcs — extending their
/// belonging set — or are appended.
///
/// Correctness invariant: relabeling is a partial *injective* map, and no
/// transition is removed or changed, so every rule's extractRule() image is
/// isomorphic to its input FSA; the activation function (engine-side) then
/// guarantees per-rule language preservation regardless of which sub-paths
/// were shared. The search is a greedy heuristic affecting only compression.
///
/// Cost: one merge keeps the MFSA's out-edge index, label index and
/// relabeling map for all of its rules. Each rule indexes only the states
/// and transitions the previous rule appended, so the search no longer
/// rescans the whole MFSA per rule. The result is the same as rebuilding
/// the indexes per rule. The MFSA only grows: coalescing edits a
/// transition's belonging set, never its endpoints or label. Appending new
/// transitions in index order keeps every index list ascending. So the
/// search meets the same candidates in the same seed order as a rebuild
/// would, and the relabeling map is empty at the start of every rule.
/// tests/golden/merge/ pins the merged MFSAs and MergeReport counters of
/// every Table I dataset.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_MFSA_MERGE_H
#define MFSA_MFSA_MERGE_H

#include "fsa/Nfa.h"
#include "mfsa/Mfsa.h"
#include "support/Result.h"

#include <cstdint>
#include <vector>

namespace mfsa {

/// Knobs for the merging search.
struct MergeOptions {
  /// Master switch for the common-sub-path search; when false every incoming
  /// FSA is copied disjointly (outcome (a) of §III-A for all inputs), which
  /// is the no-sharing baseline of the compression benches.
  bool EnableSubpathSearch = true;

  /// When false, only singleton labels may seed or extend merges, i.e.
  /// character-class transitions are never shared (set Y of §III-A is
  /// dropped). Exposed for the ablation benches.
  bool MergeCharClasses = true;

  /// Minimum number of label-identical consecutive transitions a
  /// singleton-label seed must match before its bindings commit. The paper
  /// merges *sub-paths* — with length-1 commits, single characters from a
  /// small alphabet stitch unrelated rules together and the MFSA collapses
  /// toward the alphabet-limited minimum, far beyond the paper's measured
  /// compression. Character-class seeds are exempt (an exact 256-bit label
  /// match is already highly selective, §III-A set Y), as are seeds adjacent
  /// to an already-merged region (they extend an existing sub-path). Set
  /// to 1 to allow single-character merges (ablation).
  uint32_t MinSubpathLength = 3;
};

/// Counters describing how much sharing one merge achieved.
struct MergeReport {
  uint64_t SeedsAccepted = 0;       ///< Seed transition pairs adopted.
  uint64_t StatesShared = 0;        ///< Incoming states relabeled onto MFSA states.
  uint64_t TransitionsShared = 0;   ///< Incoming arcs coalesced with MFSA arcs.
  uint64_t CandidatePairsTried = 0; ///< Label-equal transition pairs examined.

  MergeReport &operator+=(const MergeReport &O) {
    SeedsAccepted += O.SeedsAccepted;
    StatesShared += O.StatesShared;
    TransitionsShared += O.TransitionsShared;
    CandidatePairsTried += O.CandidatePairsTried;
    return *this;
  }
};

/// Resource budget for one merge. Merging never shrinks the MFSA — every
/// incoming FSA adds at most its own states and transitions — so overruns
/// are detected right after each automaton's incorporation and reported with
/// that automaton's index, letting callers quarantine the offender and retry
/// without it. 0 means unlimited for every field.
struct MergeBudget {
  uint64_t MaxStates = 0;      ///< Cap on the merged MFSA's state count.
  uint64_t MaxTransitions = 0; ///< Cap on the merged MFSA's transition count.
  double DeadlineMs = 0;       ///< Wall-clock cap for one mergeFsas call.
};

/// Merges \p Fsas (all ε-free) into a single MFSA. \p GlobalIds gives each
/// rule's index in the source dataset (used in match reporting); it must
/// have the same length as \p Fsas. \p Report, when non-null, accumulates
/// sharing counters.
Mfsa mergeFsas(const std::vector<Nfa> &Fsas,
               const std::vector<uint32_t> &GlobalIds,
               const MergeOptions &Options = {},
               MergeReport *Report = nullptr);

/// mergeFsas under a resource budget, over borrowed automata (the caller
/// keeps them alive for the call; nothing is copied). On a size overrun the
/// returned diagnostic's Offset carries the index (into \p Fsas) of the
/// automaton whose incorporation breached the cap, so fault-isolating
/// callers can drop exactly that rule and re-merge the rest. On a deadline
/// overrun Offset is the index of the first automaton left unmerged (no
/// single rule is at fault); callers typically abandon the tail
/// [Offset, end) instead.
Result<Mfsa> mergeFsasWithBudget(const std::vector<const Nfa *> &Fsas,
                                 const std::vector<uint32_t> &GlobalIds,
                                 const MergeOptions &Options,
                                 const MergeBudget &Budget,
                                 MergeReport *Report = nullptr);

/// The number of groups mergeInGroups makes from \p NumFsas automata at
/// \p MergingFactor: ⌈N/M⌉, one for M == 0 or M ≥ N, none when N == 0.
uint32_t numMergeGroups(uint32_t NumFsas, uint32_t MergingFactor);

/// Partitions \p Fsas into ⌈N/M⌉ sequential groups of size \p MergingFactor
/// (paper §VI: "sampling the input M REs sequentially from the dataset") and
/// merges each group. MergingFactor == 0 means "all" (one group). The rules'
/// global ids are their indices into \p Fsas.
std::vector<Mfsa> mergeInGroups(const std::vector<Nfa> &Fsas,
                                uint32_t MergingFactor,
                                const MergeOptions &Options = {},
                                MergeReport *Report = nullptr);

/// mergeInGroups with explicit global ids: \p GlobalIds parallels \p Fsas
/// (e.g. dataset rule ids surviving quarantine), and each group's rules keep
/// their ids.
std::vector<Mfsa> mergeInGroups(const std::vector<Nfa> &Fsas,
                                const std::vector<uint32_t> &GlobalIds,
                                uint32_t MergingFactor,
                                const MergeOptions &Options = {},
                                MergeReport *Report = nullptr);

/// Merges along an explicit grouping: Groups[k] lists the indices (into
/// \p Fsas, which double as the rules' global ids) merged into the k-th
/// MFSA. Every index must appear exactly once across groups; empty groups
/// are rejected. Pairs with clusterBySimilarity() (workload/Clustering.h)
/// to realize the paper's proposed similarity-clustered grouping (§VIII
/// future work).
std::vector<Mfsa>
mergeWithGrouping(const std::vector<Nfa> &Fsas,
                  const std::vector<std::vector<uint32_t>> &Groups,
                  const MergeOptions &Options = {},
                  MergeReport *Report = nullptr);

} // namespace mfsa

#endif // MFSA_MFSA_MERGE_H
