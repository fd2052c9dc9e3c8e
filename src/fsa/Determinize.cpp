//===- Determinize.cpp - scanning subset construction --------------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "fsa/Determinize.h"

#include "fsa/AlphabetPartition.h"

#include <algorithm>
#include <cassert>

using namespace mfsa;

size_t Dfa::footprintBytes() const {
  size_t Bytes = Next.size() * 4 + AtomOfByte.size() + GlobalIds.size() * 4;
  for (const DynamicBitset &B : Accept)
    Bytes += B.words().size() * 8;
  for (const DynamicBitset &B : AcceptAtEnd)
    Bytes += B.words().size() * 8;
  return Bytes;
}

namespace {

/// The hash of a subset: the sum of its states' mixes. A sum needs no order,
/// so a target is hashed from its two parts without merging them.
uint64_t mixState(uint32_t S) {
  uint64_t H = (S + 1) * 0x9E3779B97F4A7C15ULL;
  H = (H ^ (H >> 30)) * 0xBF58476D1CE4E5B9ULL;
  return H ^ (H >> 31);
}

/// Subsets of union-NFA states (globally renumbered across the input
/// automata), interned in first-seen order. Each subset is a sorted state
/// list stored once, back to back in one pool; an open-addressing table over
/// the lists' hashes finds it again.
class SubsetTable {
public:
  uint32_t size() const { return static_cast<uint32_t>(Begin.size() - 1); }
  const uint32_t *begin(uint32_t Id) const { return Pool.data() + Begin[Id]; }
  const uint32_t *end(uint32_t Id) const {
    return Pool.data() + Begin[Id + 1];
  }

  /// \returns the id of the subset of \p Size states whose mixes sum to
  /// \p Hash and which \p Holds(State) accepts. When it is new, \p Fill
  /// appends its sorted states to the pool, and it takes the next free id.
  template <typename HoldsFn, typename FillFn>
  uint32_t intern(uint64_t Hash, size_t Size, HoldsFn Holds, FillFn Fill) {
    if (2 * (static_cast<size_t>(size()) + 1) > Slots.size())
      grow();
    const size_t Mask = Slots.size() - 1;
    for (size_t I = Hash & Mask;; I = (I + 1) & Mask) {
      if (Slots[I] == 0) {
        const uint32_t Id = size();
        Slots[I] = Id + 1;
        Hashes.push_back(Hash);
        Fill(Pool);
        Begin.push_back(Pool.size());
        return Id;
      }
      const uint32_t Id = Slots[I] - 1;
      if (Hashes[Id] == Hash && Begin[Id + 1] - Begin[Id] == Size &&
          std::all_of(begin(Id), end(Id), Holds))
        return Id;
    }
  }

private:
  void grow() {
    std::vector<uint32_t> Old(std::max<size_t>(64, Slots.size() * 2), 0);
    Old.swap(Slots);
    const size_t Mask = Slots.size() - 1;
    for (uint32_t Id = 0; Id < size(); ++Id) {
      size_t I = Hashes[Id] & Mask;
      while (Slots[I])
        I = (I + 1) & Mask;
      Slots[I] = Id + 1;
    }
  }

  std::vector<uint32_t> Pool;
  std::vector<size_t> Begin = {0};
  std::vector<uint64_t> Hashes; ///< Per id.
  std::vector<uint32_t> Slots;  ///< Id + 1, or 0 when empty.
};

} // namespace

Result<Dfa> mfsa::determinize(const std::vector<Nfa> &Fsas,
                              const std::vector<uint32_t> &GlobalIds,
                              const DeterminizeOptions &Options) {
  assert(Fsas.size() == GlobalIds.size() && "one global id per rule");
  const uint32_t NumRules = static_cast<uint32_t>(Fsas.size());

  // Clone each rule's initial state into a fresh non-final entry state.
  // Restart injection uses the clone, so a final initial state (an RE whose
  // language contains ε) never reports a zero-length match — matching the
  // engine/oracle semantics of fsa/Reference.h.
  std::vector<Nfa> Prepared;
  Prepared.reserve(NumRules);
  for (const Nfa &Original : Fsas) {
    for (const Transition &T : Original.transitions())
      if (T.isEpsilon())
        return Result<Dfa>::error("determinize requires ε-free automata");
    Nfa A = Original;
    StateId Entry = A.addState();
    StateId OldInitial = A.initial();
    for (uint32_t I = 0, E = A.numTransitions(); I != E; ++I) {
      const Transition T = A.transitions()[I];
      if (T.From == OldInitial)
        A.addTransition(Entry, T.To, T.Label);
    }
    A.setInitial(Entry);
    A.canonicalize();
    Prepared.push_back(std::move(A));
  }
  const std::vector<Nfa> &Rules = Prepared;

  // Globally renumber: rule R's state s becomes Offset[R] + s.
  std::vector<uint32_t> Offset(NumRules + 1, 0);
  for (uint32_t R = 0; R < NumRules; ++R)
    Offset[R + 1] = Offset[R] + Rules[R].numStates();
  const uint32_t TotalStates = Offset[NumRules];

  // Alphabet atoms over the whole union.
  std::vector<SymbolSet> Atoms = computeAlphabetAtoms(Rules);
  const uint32_t NumAtoms = static_cast<uint32_t>(Atoms.size());

  // Per-state metadata: rule, finality, anchored-end finality.
  std::vector<uint32_t> RuleOf(TotalStates);
  std::vector<bool> FinalFlag(TotalStates, false);
  for (uint32_t R = 0; R < NumRules; ++R) {
    for (uint32_t S = 0; S < Rules[R].numStates(); ++S)
      RuleOf[Offset[R] + S] = R;
    for (StateId F : Rules[R].finals())
      FinalFlag[Offset[R] + F] = true;
  }

  // Restart set R: unanchored rules' initial states, injected after every
  // consumed symbol. The start subset holds every initial state, so every
  // subset contains R; subsets are therefore interned by their part outside
  // R, which identifies them just as well.
  std::vector<uint32_t> Restart;
  std::vector<uint32_t> StartOutsideRestart;
  std::vector<bool> InRestart(TotalStates, false);
  for (uint32_t R = 0; R < NumRules; ++R) {
    uint32_t Initial = Offset[R] + Rules[R].initial();
    if (Rules[R].anchoredStart()) {
      StartOutsideRestart.push_back(Initial);
    } else {
      Restart.push_back(Initial);
      InRestart[Initial] = true;
    }
  }
  std::sort(StartOutsideRestart.begin(), StartOutsideRestart.end());

  // Calls Visit(From, Atom, To) for every union-NFA move that does not
  // enter R, from R's states or from the others. A label that intersects an
  // atom contains it.
  auto ForEachMove = [&](bool FromRestart, auto &&Visit) {
    for (uint32_t R = 0; R < NumRules; ++R)
      for (const Transition &T : Rules[R].transitions()) {
        const uint32_t From = Offset[R] + T.From;
        const uint32_t To = Offset[R] + T.To;
        if (InRestart[From] != FromRestart || InRestart[To])
          continue;
        for (uint32_t AtomIdx = 0; AtomIdx < NumAtoms; ++AtomIdx)
          if (T.Label.intersects(Atoms[AtomIdx]))
            Visit(From, AtomIdx, To);
      }
  };

  // R's own successors on each atom, shared by every subset, sorted.
  std::vector<std::vector<uint32_t>> RestartMoves(NumAtoms);
  ForEachMove(true, [&](uint32_t, uint32_t AtomIdx, uint32_t To) {
    RestartMoves[AtomIdx].push_back(To);
  });
  for (std::vector<uint32_t> &List : RestartMoves) {
    std::sort(List.begin(), List.end());
    List.erase(std::unique(List.begin(), List.end()), List.end());
  }

  // Per-state cell lists: each state's (atom, successor) moves, minus those
  // R makes on the same atom anyway. Canonical transitions are sorted by
  // source, so each state's moves are contiguous. Subsets never hold R's
  // states (no move enters R), so those get empty lists.
  struct Move {
    uint32_t Atom;
    uint32_t To;
  };
  std::vector<Move> StateMoves;
  std::vector<uint32_t> StateBegin(TotalStates + 1, 0);
  ForEachMove(false, [&](uint32_t From, uint32_t AtomIdx, uint32_t To) {
    const std::vector<uint32_t> &Shared = RestartMoves[AtomIdx];
    if (!std::binary_search(Shared.begin(), Shared.end(), To))
      StateMoves.push_back({AtomIdx, To});
    StateBegin[From + 1] = static_cast<uint32_t>(StateMoves.size());
  });
  for (uint32_t S = 0; S < TotalStates; ++S)
    StateBegin[S + 1] = std::max(StateBegin[S + 1], StateBegin[S]);

  // Subset construction. Ids are handed out in discovery order and
  // processed in id order, which is breadth-first order.
  Dfa Out;
  Out.NumAtoms = NumAtoms;
  Out.NumRules = NumRules;
  Out.GlobalIds = GlobalIds;
  Out.AtomOfByte.assign(256, 0);
  for (uint32_t AtomIdx = 0; AtomIdx < NumAtoms; ++AtomIdx)
    Atoms[AtomIdx].forEach(
        [&](unsigned char C) { Out.AtomOfByte[C] = static_cast<uint8_t>(AtomIdx); });

  const auto Explosion = [&] {
    return Result<Dfa>::error("DFA state explosion: more than " +
                              std::to_string(Options.MaxStates) + " subsets");
  };
  // Interns Shared ∪ [First, Last), where Shared is sorted and disjoint
  // from the bucket [First, Last): the union's states take the current
  // stamp, which drops the bucket's repeats and answers the table's
  // membership test.
  SubsetTable Subsets;
  std::vector<uint32_t> Stamp(TotalStates, 0);
  uint32_t Epoch = 0;
  auto InternUnion = [&](const std::vector<uint32_t> &Shared, uint32_t *First,
                         uint32_t *Last) {
    if (++Epoch == 0) {
      std::fill(Stamp.begin(), Stamp.end(), 0);
      Epoch = 1;
    }
    uint64_t Hash = 0;
    for (uint32_t S : Shared) {
      Stamp[S] = Epoch;
      Hash += mixState(S);
    }
    uint32_t *End = First;
    for (const uint32_t *S = First; S != Last; ++S)
      if (Stamp[*S] != Epoch) {
        Stamp[*S] = Epoch;
        Hash += mixState(*S);
        *End++ = *S;
      }
    return Subsets.intern(
        Hash, Shared.size() + (End - First),
        [&](uint32_t S) { return Stamp[S] == Epoch; },
        [&](std::vector<uint32_t> &Pool) {
          std::sort(First, End);
          const uint32_t *S = Shared.data(), *SEnd = S + Shared.size();
          for (const uint32_t *B = First; S != SEnd || B != End;)
            Pool.push_back(B == End || (S != SEnd && *S < *B) ? *S++ : *B++);
        });
  };
  std::vector<uint32_t> Bucket = StartOutsideRestart;
  uint32_t StartId =
      InternUnion({}, Bucket.data(), Bucket.data() + Bucket.size());
  (void)StartId;
  assert(StartId == 0 && "start subset must be state 0");
  if (Subsets.size() > Options.MaxStates)
    return Explosion();

  // Expanding a subset scatters its states' moves (as indices into
  // StateMoves) into one flat bucket per atom, a counting sort: AtomEnd[A]
  // ends atom A's bucket, which starts where atom A - 1's ends. A bucket of
  // at most one move always leads to the same target, R's successors on the
  // atom plus the move's: its id is interned on first use and then read
  // from RestartOnly (an empty bucket) or SingleMove (one move).
  constexpr uint32_t Unseen = ~0u;
  std::vector<uint32_t> RestartOnly(NumAtoms, Unseen);
  std::vector<uint32_t> SingleMove(StateMoves.size(), Unseen);
  std::vector<uint32_t> AtomEnd(NumAtoms + 1);
  for (uint32_t Id = 0; Id < Subsets.size(); ++Id) {
    std::fill(AtomEnd.begin(), AtomEnd.end(), 0);
    for (const uint32_t *S = Subsets.begin(Id); S != Subsets.end(Id); ++S)
      for (uint32_t M = StateBegin[*S]; M != StateBegin[*S + 1]; ++M)
        ++AtomEnd[StateMoves[M].Atom + 1];
    for (uint32_t AtomIdx = 0; AtomIdx < NumAtoms; ++AtomIdx)
      AtomEnd[AtomIdx + 1] += AtomEnd[AtomIdx];
    Bucket.resize(AtomEnd[NumAtoms]);
    for (const uint32_t *S = Subsets.begin(Id); S != Subsets.end(Id); ++S)
      for (uint32_t M = StateBegin[*S]; M != StateBegin[*S + 1]; ++M)
        Bucket[AtomEnd[StateMoves[M].Atom]++] = M;

    Out.Next.resize((static_cast<size_t>(Id) + 1) * NumAtoms, 0);
    uint32_t *Row = Out.Next.data() + static_cast<size_t>(Id) * NumAtoms;
    for (uint32_t AtomIdx = 0, First = 0; AtomIdx < NumAtoms;
         First = AtomEnd[AtomIdx++]) {
      uint32_t *BucketFirst = Bucket.data() + First;
      uint32_t *BucketLast = Bucket.data() + AtomEnd[AtomIdx];
      uint32_t *Cached = BucketLast - BucketFirst > 1 ? nullptr
                         : BucketFirst == BucketLast
                             ? &RestartOnly[AtomIdx]
                             : &SingleMove[*BucketFirst];
      if (Cached && *Cached != Unseen) {
        Row[AtomIdx] = *Cached;
        continue;
      }
      for (uint32_t *M = BucketFirst; M != BucketLast; ++M)
        *M = StateMoves[*M].To;
      Row[AtomIdx] =
          InternUnion(RestartMoves[AtomIdx], BucketFirst, BucketLast);
      if (Cached)
        *Cached = Row[AtomIdx];
      if (Subsets.size() > Options.MaxStates)
        return Explosion();
    }
  }

  Out.NumStates = Subsets.size();
  Out.Next.resize(static_cast<size_t>(Out.NumStates) * NumAtoms, 0);

  // Accept sets over each full subset: R plus its interned part.
  Out.Accept.assign(Out.NumStates, DynamicBitset(NumRules));
  Out.AcceptAtEnd.assign(Out.NumStates, DynamicBitset(NumRules));
  for (uint32_t Id = 0; Id < Out.NumStates; ++Id) {
    auto Mark = [&](uint32_t S) {
      if (!FinalFlag[S])
        return;
      uint32_t Rule = RuleOf[S];
      if (Rules[Rule].anchoredEnd())
        Out.AcceptAtEnd[Id].set(Rule);
      else
        Out.Accept[Id].set(Rule);
    };
    std::for_each(Restart.begin(), Restart.end(), Mark);
    std::for_each(Subsets.begin(Id), Subsets.end(Id), Mark);
  }
  return Out;
}
