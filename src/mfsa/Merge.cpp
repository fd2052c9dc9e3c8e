//===- Merge.cpp - Algorithm 1: merging FSAs into an MFSA -------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
//
// Implementation notes.
//
// The paper's Algorithm 1 walks the COO representation of the evolving MFSA
// z and the incoming FSA a, collecting label-identical transition pairs into
// Merging Structures (MS) and extending each pair along subsequent
// transitions while the sub-paths stay identical; the MS entries then drive
// the relabeling of a's states onto z's.
//
// We implement the same search as a seeded graph matching: every
// label-identical transition pair (i ∈ z, j ∈ a) is a seed (the paper's
// lines 6-10); accepting a seed binds a's endpoints to z's endpoints in a
// partial injective relabeling map (the MS), and a BFS extends the binding
// along outgoing transitions whose labels match (the paper's lines 11-16
// path walk, generalized from linear COO chains to the full out-neighborhood
// so branching sub-paths are shared too). Bindings are never rolled back:
// any consistent injective binding is semantically safe (see Merge.h), so
// conflicts simply stop the extension, exactly like the algorithm's
// "stops at the first difference".
//
//===----------------------------------------------------------------------===//

#include "mfsa/Merge.h"

#include "support/Timer.h"

#include <cassert>
#include <numeric>
#include <queue>
#include <unordered_map>

using namespace mfsa;

namespace {

constexpr StateId Unmapped = UINT32_MAX;

/// The partial injective relabeling map between the incoming FSA `a` and the
/// evolving MFSA `z` — the algorithm's Merging Structures, folded into
/// bidirectional state-binding form.
struct RelabelMap {
  std::vector<StateId> AToZ; ///< a-state -> z-state or Unmapped.
  std::vector<StateId> ZToA; ///< z-state -> a-state or Unmapped.

  RelabelMap(uint32_t NumAStates, uint32_t NumZStates)
      : AToZ(NumAStates, Unmapped), ZToA(NumZStates, Unmapped) {}

  /// \returns true if binding As -> Zs is already present or insertable
  /// without breaking injectivity.
  bool compatible(StateId As, StateId Zs) const {
    if (AToZ[As] != Unmapped)
      return AToZ[As] == Zs;
    return ZToA[Zs] == Unmapped;
  }

  bool bound(StateId As) const { return AToZ[As] != Unmapped; }

  /// Binds As -> Zs; requires compatible(As, Zs). \returns true if the
  /// binding is new. New bindings are recorded on Trail for rollback.
  bool bind(StateId As, StateId Zs) {
    assert(compatible(As, Zs) && "inconsistent relabel binding");
    if (AToZ[As] == Zs)
      return false;
    AToZ[As] = Zs;
    ZToA[Zs] = As;
    Trail.emplace_back(As, Zs);
    return true;
  }

  size_t trailMark() const { return Trail.size(); }

  /// Undoes every binding made after \p Mark (tentative seed rejected).
  void rollbackTo(size_t Mark) {
    while (Trail.size() > Mark) {
      auto [As, Zs] = Trail.back();
      Trail.pop_back();
      AToZ[As] = Unmapped;
      ZToA[Zs] = Unmapped;
    }
  }

private:
  std::vector<std::pair<StateId, StateId>> Trail;
};

/// Searches common sub-paths between \p Z and \p A and accumulates the
/// relabeling bindings into \p Map (paper lines 5-19).
class SubpathSearch {
public:
  SubpathSearch(const Mfsa &Z, const Nfa &A, const MergeOptions &Options,
                RelabelMap &Map, MergeReport *Report)
      : Z(Z), A(A), Options(Options), Map(Map), Report(Report),
        ZOut(Z.numStates()), AOut(A.buildOutgoingIndex()) {
    for (uint32_t I = 0, E = Z.numTransitions(); I != E; ++I) {
      const MfsaTransition &T = Z.transitions()[I];
      ZOut[T.From].push_back(I);
      if (mergeableLabel(T.Label))
        ZByLabel[T.Label].push_back(I);
    }
  }

  void run() {
    // Paper lines 6-10: every label-identical (z, a) transition pair seeds a
    // merge attempt, in deterministic transition order.
    for (const Transition &TA : A.transitions()) {
      if (!mergeableLabel(TA.Label))
        continue;
      auto It = ZByLabel.find(TA.Label);
      if (It == ZByLabel.end())
        continue;
      for (uint32_t ZIdx : It->second) {
        // Once this incoming transition is fully relabeled there is nothing
        // further to gain from more seed candidates.
        if (Map.bound(TA.From) && Map.bound(TA.To))
          break;
        trySeed(Z.transitions()[ZIdx], TA);
      }
    }
  }

private:
  bool mergeableLabel(const SymbolSet &Label) const {
    return Options.MergeCharClasses || Label.isSingleton();
  }

  void trySeed(const MfsaTransition &TZ, const Transition &TA) {
    if (Report)
      ++Report->CandidatePairsTried;
    // Self-loop shape must agree, and both endpoint bindings must be
    // insertable together.
    if ((TA.From == TA.To) != (TZ.From == TZ.To))
      return;
    if (!Map.compatible(TA.From, TZ.From))
      return;
    if (TA.From != TA.To) {
      if (!Map.compatible(TA.To, TZ.To))
        return;
      // Binding two distinct a-states onto one z-state would collapse a's
      // morphology; reject (injectivity). TZ.From == TZ.To was already
      // excluded by the shape check, but From/To of z may still collide
      // with an existing binding, which compatible() covered above.
    }

    // Bind tentatively; singleton-label seeds must grow into a sub-path of
    // at least MinSubpathLength matched transitions or they roll back
    // (Merge.h rationale). A seed whose endpoint is already bound extends
    // an existing merged sub-path and is committed regardless of length.
    const bool AttachesToMergedRegion =
        Map.bound(TA.From) || Map.bound(TA.To);
    const size_t Mark = Map.trailMark();
    uint32_t MatchedTransitions = 1;

    std::queue<StateId> Frontier;
    if (Map.bind(TA.From, TZ.From))
      Frontier.push(TA.From);
    if (TA.From != TA.To && Map.bind(TA.To, TZ.To))
      Frontier.push(TA.To);

    // Paper lines 11-16: extend along subsequent transitions while the
    // sub-paths describe identical labels, stopping at the first difference.
    while (!Frontier.empty()) {
      StateId As = Frontier.front();
      Frontier.pop();
      StateId Zs = Map.AToZ[As];
      for (uint32_t AIdx : AOut[As]) {
        const Transition &Next = A.transitions()[AIdx];
        if (!mergeableLabel(Next.Label) || Map.bound(Next.To))
          continue;
        for (uint32_t ZIdx : ZOut[Zs]) {
          const MfsaTransition &Cand = Z.transitions()[ZIdx];
          if (Cand.Label != Next.Label)
            continue;
          // Keep loop shapes aligned: a self-loop may only bind to a
          // self-loop (Next.To == As requires Cand.To == Zs, and the
          // bound(Next.To) guard above already skipped that case).
          if (!Map.compatible(Next.To, Cand.To))
            continue;
          ++MatchedTransitions;
          if (Map.bind(Next.To, Cand.To))
            Frontier.push(Next.To);
          break;
        }
      }
    }

    const bool Selective = !TA.Label.isSingleton() || AttachesToMergedRegion;
    if (!Selective && MatchedTransitions < Options.MinSubpathLength) {
      Map.rollbackTo(Mark);
      return;
    }
    if (Report)
      ++Report->SeedsAccepted;
  }

  const Mfsa &Z;
  const Nfa &A;
  const MergeOptions &Options;
  RelabelMap &Map;
  MergeReport *Report;

  std::vector<std::vector<uint32_t>> ZOut;
  std::vector<std::vector<uint32_t>> AOut;
  std::unordered_map<SymbolSet, std::vector<uint32_t>, SymbolSetHash>
      ZByLabel;
};

/// Hashable key identifying an arc for coalescing.
struct ArcKey {
  StateId From;
  StateId To;
  SymbolSet Label;

  friend bool operator==(const ArcKey &A, const ArcKey &B) {
    return A.From == B.From && A.To == B.To && A.Label == B.Label;
  }
};

struct ArcKeyHash {
  size_t operator()(const ArcKey &K) const {
    uint64_t H = K.Label.hash();
    H ^= (static_cast<uint64_t>(K.From) << 32 | K.To) + 0x9e3779b97f4a7c15ULL +
         (H << 6) + (H >> 2);
    return static_cast<size_t>(H);
  }
};

} // namespace

Mfsa mfsa::mergeFsas(const std::vector<Nfa> &Fsas,
                     const std::vector<uint32_t> &GlobalIds,
                     const MergeOptions &Options, MergeReport *Report) {
  Result<Mfsa> Z = mergeFsasWithBudget(Fsas, GlobalIds, Options,
                                       MergeBudget(), Report);
  assert(Z.ok() && "unlimited budget cannot overrun");
  return Z.take();
}

Result<Mfsa> mfsa::mergeFsasWithBudget(const std::vector<Nfa> &Fsas,
                                       const std::vector<uint32_t> &GlobalIds,
                                       const MergeOptions &Options,
                                       const MergeBudget &Budget,
                                       MergeReport *Report) {
  assert(!Fsas.empty() && "mergeFsas requires at least one automaton");
  assert(Fsas.size() == GlobalIds.size() &&
         "one global id per merged automaton");

  Timer Wall;
  const uint32_t NumRules = static_cast<uint32_t>(Fsas.size());
  Mfsa Z(NumRules);

  // Arc index for belonging coalescing, kept in sync as Z grows.
  std::unordered_map<ArcKey, uint32_t, ArcKeyHash> ArcIndex;

  for (RuleId Rule = 0; Rule < NumRules; ++Rule) {
    const Nfa &A = Fsas[Rule];
    assert(!A.hasEpsilons() && "merge inputs must be ε-free (run "
                               "optimizeForMerging first)");

    // Paper line 3 (first automaton copied as-is) is the degenerate case of
    // the general step with an empty relabeling map.
    RelabelMap Map(A.numStates(), Z.numStates());
    if (Options.EnableSubpathSearch && Rule > 0) {
      SubpathSearch Search(Z, A, Options, Map, Report);
      Search.run();
    }

    // Relabel (paper line 20): bound states keep their MFSA label, the rest
    // get fresh non-overlapping labels.
    std::vector<StateId> NewId(A.numStates(), Unmapped);
    for (StateId S = 0; S < A.numStates(); ++S) {
      if (Map.AToZ[S] != Unmapped) {
        NewId[S] = Map.AToZ[S];
        if (Report && Rule > 0)
          ++Report->StatesShared;
      } else {
        NewId[S] = Z.addState();
      }
    }

    // Update the MFSA (paper line 21): coalesce arcs that already exist —
    // extending their belonging — and append the rest.
    for (const Transition &T : A.transitions()) {
      ArcKey Key{NewId[T.From], NewId[T.To], T.Label};
      auto It = ArcIndex.find(Key);
      if (It != ArcIndex.end()) {
        Z.transitions()[It->second].Bel.set(Rule);
        if (Report && Rule > 0)
          ++Report->TransitionsShared;
        continue;
      }
      Z.addTransition(Key.From, Key.To, Key.Label, Z.makeBel(Rule));
      ArcIndex.emplace(Key, Z.numTransitions() - 1);
    }

    Mfsa::RuleInfo &Info = Z.rule(Rule);
    Info.Initial = NewId[A.initial()];
    Info.Finals.reserve(A.finals().size());
    for (StateId F : A.finals())
      Info.Finals.push_back(NewId[F]);
    Info.AnchoredStart = A.anchoredStart();
    Info.AnchoredEnd = A.anchoredEnd();
    Info.GlobalId = GlobalIds[Rule];

    // Budget checkpoint (fault-isolation layer): merging only ever adds, so
    // the first rule whose incorporation pushes the MFSA over a cap is the
    // offender to report. The Offset is the rule's index within Fsas.
    if ((Budget.MaxStates != 0 && Z.numStates() > Budget.MaxStates) ||
        (Budget.MaxTransitions != 0 &&
         Z.numTransitions() > Budget.MaxTransitions))
      return Diag("merge budget exceeded (" + std::to_string(Z.numStates()) +
                      " states / " + std::to_string(Z.numTransitions()) +
                      " transitions, budget " +
                      std::to_string(Budget.MaxStates) + " / " +
                      std::to_string(Budget.MaxTransitions) + ")",
                  Rule);
    if (Budget.DeadlineMs > 0 && Rule + 1 < NumRules &&
        Wall.elapsedMs() > Budget.DeadlineMs)
      return Diag("merge deadline exceeded after " +
                      std::to_string(Rule + 1) + " of " +
                      std::to_string(NumRules) + " automata",
                  Rule + 1);
  }
  return Z;
}

std::vector<Mfsa>
mfsa::mergeWithGrouping(const std::vector<Nfa> &Fsas,
                        const std::vector<std::vector<uint32_t>> &Groups,
                        const MergeOptions &Options, MergeReport *Report) {
  // Validate the grouping is a partition of [0, N).
  std::vector<bool> Seen(Fsas.size(), false);
  size_t Covered = 0;
  for (const std::vector<uint32_t> &Group : Groups) {
    assert(!Group.empty() && "empty merge group");
    for (uint32_t Index : Group) {
      assert(Index < Fsas.size() && "group index out of range");
      assert(!Seen[Index] && "rule assigned to two groups");
      Seen[Index] = true;
      ++Covered;
    }
  }
  assert(Covered == Fsas.size() && "grouping does not cover every rule");
  (void)Covered;

  std::vector<Mfsa> Result;
  Result.reserve(Groups.size());
  for (const std::vector<uint32_t> &Group : Groups) {
    std::vector<Nfa> Members;
    Members.reserve(Group.size());
    for (uint32_t Index : Group)
      Members.push_back(Fsas[Index]);
    Result.push_back(mergeFsas(Members, Group, Options, Report));
  }
  return Result;
}

std::vector<Mfsa> mfsa::mergeInGroups(const std::vector<Nfa> &Fsas,
                                      uint32_t MergingFactor,
                                      const MergeOptions &Options,
                                      MergeReport *Report) {
  std::vector<uint32_t> Ids(Fsas.size());
  std::iota(Ids.begin(), Ids.end(), 0u);
  return mergeInGroups(Fsas, Ids, MergingFactor, Options, Report);
}

std::vector<Mfsa> mfsa::mergeInGroups(const std::vector<Nfa> &Fsas,
                                      const std::vector<uint32_t> &GlobalIds,
                                      uint32_t MergingFactor,
                                      const MergeOptions &Options,
                                      MergeReport *Report) {
  assert(GlobalIds.size() == Fsas.size() && "one global id per FSA");
  const uint32_t N = static_cast<uint32_t>(Fsas.size());
  if (MergingFactor == 0 || MergingFactor > N)
    MergingFactor = N;

  std::vector<Mfsa> Result;
  for (uint32_t Begin = 0; Begin < N; Begin += MergingFactor) {
    uint32_t End = std::min(Begin + MergingFactor, N);
    std::vector<Nfa> Group(Fsas.begin() + Begin, Fsas.begin() + End);
    std::vector<uint32_t> Ids(GlobalIds.begin() + Begin,
                              GlobalIds.begin() + End);
    Result.push_back(mergeFsas(Group, Ids, Options, Report));
  }
  return Result;
}
