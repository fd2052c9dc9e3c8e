//===- Passes.cpp - single-FSA optimization passes --------------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "fsa/Passes.h"

#include <algorithm>
#include <cassert>
#include <utility>

using namespace mfsa;

namespace {

/// Compressed sparse row adjacency: row Q holds Items[Begin[Q] ..
/// Begin[Q + 1]) in transition order.
template <typename T> struct Csr {
  std::vector<uint32_t> Begin;
  std::vector<T> Items;

  const T *rowBegin(uint32_t Q) const { return Items.data() + Begin[Q]; }
  const T *rowEnd(uint32_t Q) const { return Items.data() + Begin[Q + 1]; }
};

/// Fills \p C with a CSR over \p A's transitions by counting sort (stable,
/// so each row keeps transition order), reusing C's storage.
/// \p Edge(I, Row, Item) fills the row and item of transition I and
/// returns false to leave it out.
template <typename T, typename EdgeFn>
void buildCsr(const Nfa &A, Csr<T> &C, EdgeFn Edge) {
  // Row Q's count goes to Begin[Q + 2], so after the prefix sum
  // Begin[Q + 1] is where row Q starts; placing an item advances it to
  // where row Q ends, which is where row Q + 1 starts.
  C.Begin.assign(A.numStates() + 2, 0);
  uint32_t Row;
  T Item;
  for (uint32_t I = 0, E = A.numTransitions(); I != E; ++I)
    if (Edge(I, Row, Item))
      ++C.Begin[Row + 2];
  for (size_t Q = 2; Q < C.Begin.size(); ++Q)
    C.Begin[Q] += C.Begin[Q - 1];
  C.Items.resize(C.Begin.back());
  for (uint32_t I = 0, E = A.numTransitions(); I != E; ++I)
    if (Edge(I, Row, Item))
      C.Items[C.Begin[Row + 1]++] = Item;
  C.Begin.pop_back();
}

/// Puts the transitions appended since \p SegBegin, which all leave one
/// state, into canonical (To, Label) order without duplicates. Passes emit
/// their output state by state in increasing id, so sorting each state's
/// segment yields the canonical order of the whole vector.
void finishSegment(std::vector<Transition> &Ts, size_t SegBegin) {
  if (Ts.size() - SegBegin < 2)
    return;
  std::sort(Ts.begin() + SegBegin, Ts.end());
  Ts.erase(std::unique(Ts.begin() + SegBegin, Ts.end()), Ts.end());
}

/// Sorts and deduplicates a final-state list (a no-op sort when sorted).
void canonicalFinals(std::vector<StateId> &Finals) {
  if (!std::is_sorted(Finals.begin(), Finals.end()))
    std::sort(Finals.begin(), Finals.end());
  Finals.erase(std::unique(Finals.begin(), Finals.end()), Finals.end());
}

/// An automaton with \p NumStates states and \p A's anchors; the caller
/// fills in the initial state, finals and transitions.
Nfa emptyLike(const Nfa &A, uint32_t NumStates) {
  Nfa Out;
  for (uint32_t Q = 0; Q < NumStates; ++Q)
    Out.addState();
  Out.setAnchors(A.anchoredStart(), A.anchoredEnd());
  return Out;
}

bool sameEndpoints(const Transition &L, const Transition &R) {
  return L.From == R.From && L.To == R.To;
}

bool endpointsLess(const Transition &L, const Transition &R) {
  return L.From != R.From ? L.From < R.From : L.To < R.To;
}

/// \returns true if two arcs of canonical \p A share (From, To).
bool hasParallelArcs(const Nfa &A) {
  const std::vector<Transition> &Ts = A.transitions();
  return std::adjacent_find(Ts.begin(), Ts.end(), sameEndpoints) != Ts.end();
}

uint64_t mix(uint64_t H, uint64_t V) {
  H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  return H * 0xff51afd7ed558ccdULL;
}

/// Open-addressing set of integer sequences, numbered densely in insertion
/// order; reset() empties it in time proportional to the expected size.
class SequenceTable {
public:
  /// Prepares for at most \p MaxEntries insertions.
  void reset(size_t MaxEntries) {
    size_t Size = 16;
    while (Size < 2 * MaxEntries)
      Size *= 2;
    if (Slots.size() < Size)
      Slots.resize(Size);
    std::fill(Slots.begin(), Slots.begin() + Size, 0);
    Mask = Size - 1;
    Keys.clear();
    Offsets.assign(1, 0);
    Hashes.clear();
  }

  /// Scratch for the next key: append its elements, then call intern().
  std::vector<uint64_t> &pending() { return Keys; }

  /// Interns the elements appended since the last intern() and returns
  /// the key's dense id.
  uint32_t intern() {
    const size_t Begin = Offsets.back();
    const size_t Len = Keys.size() - Begin;
    uint64_t H = Len;
    for (size_t I = Begin; I < Keys.size(); ++I)
      H = mix(H, Keys[I]);
    for (size_t Slot = H & Mask;; Slot = (Slot + 1) & Mask) {
      if (Slots[Slot] == 0) {
        Slots[Slot] = static_cast<uint32_t>(Hashes.size()) + 1;
        Hashes.push_back(H);
        Offsets.push_back(Keys.size());
        return static_cast<uint32_t>(Hashes.size()) - 1;
      }
      const uint32_t Id = Slots[Slot] - 1;
      if (Hashes[Id] == H && Offsets[Id + 1] - Offsets[Id] == Len &&
          std::equal(Keys.begin() + Offsets[Id], Keys.begin() + Offsets[Id + 1],
                     Keys.begin() + Begin)) {
        Keys.resize(Begin);
        return Id;
      }
    }
  }

  uint32_t size() const { return static_cast<uint32_t>(Hashes.size()); }

private:
  std::vector<uint32_t> Slots; ///< Id + 1, or 0 for an empty slot.
  size_t Mask = 0;
  std::vector<uint64_t> Keys;    ///< Interned keys, back to back.
  std::vector<size_t> Offsets;   ///< Key I: Keys[Offsets[I], Offsets[I + 1]).
  std::vector<uint64_t> Hashes;
};

/// Refinable partition of the states 0..N-1: block B holds
/// Elems[First[B] .. Last[B]), with its Touched[B] touched states (those
/// whose signature may have changed) at the front.
struct Partition {
  std::vector<StateId> Elems;
  std::vector<uint32_t> Pos; ///< Position of each state in Elems.
  std::vector<uint32_t> BlockOf;
  std::vector<uint32_t> First, Last, Touched;
  std::vector<uint32_t> Work; ///< Blocks with touched states.

  /// Empties the partition for \p N states, keeping the storage.
  void reset(uint32_t N) {
    Elems.clear();
    Pos.resize(N);
    BlockOf.resize(N);
    First.clear();
    Last.clear();
    Touched.clear();
    Work.clear();
  }

  uint32_t addBlock(uint32_t Begin, uint32_t End) {
    First.push_back(Begin);
    Last.push_back(End);
    Touched.push_back(0);
    const uint32_t B = static_cast<uint32_t>(First.size()) - 1;
    for (uint32_t I = Begin; I < End; ++I)
      BlockOf[Elems[I]] = B;
    return B;
  }

  /// Marks \p Q for re-signing and queues its block.
  void touch(StateId Q) {
    const uint32_t B = BlockOf[Q];
    const uint32_t Slot = First[B] + Touched[B];
    if (Pos[Q] < Slot || Last[B] - First[B] < 2)
      return; // Already touched, or a singleton that cannot split.
    const StateId Other = Elems[Slot];
    Elems[Pos[Q]] = Other;
    Pos[Other] = Pos[Q];
    Elems[Slot] = Q;
    Pos[Q] = Slot;
    if (Touched[B]++ == 0)
      Work.push_back(B);
  }
};

struct Arc {
  uint32_t Label; ///< Dense label id.
  StateId To;
};

} // namespace

Nfa mfsa::removeEpsilons(const Nfa &A) {
  // Scratch reused by every call on this thread.
  static thread_local struct {
    Csr<StateId> EpsOut;
    Csr<uint32_t> SymbolicOut;
    std::vector<uint8_t> FinalFlag;
    std::vector<StateId> Stamp, Stack;
  } W;
  const std::vector<Transition> &Ts = A.transitions();
  const Csr<StateId> &EpsOut = W.EpsOut;
  buildCsr(A, W.EpsOut, [&](uint32_t I, uint32_t &Row, StateId &To) {
    Row = Ts[I].From;
    To = Ts[I].To;
    return Ts[I].isEpsilon();
  });
  const Csr<uint32_t> &SymbolicOut = W.SymbolicOut;
  buildCsr(A, W.SymbolicOut, [&](uint32_t I, uint32_t &Row, uint32_t &Idx) {
    Row = Ts[I].From;
    Idx = I;
    return !Ts[I].isEpsilon();
  });
  std::vector<uint8_t> &FinalFlag = W.FinalFlag;
  FinalFlag.assign(A.numStates(), 0);
  for (StateId F : A.finals())
    FinalFlag[F] = 1;

  Nfa Out = emptyLike(A, A.numStates());
  Out.setInitial(A.initial());
  std::vector<Transition> &OutTs = Out.transitions();
  OutTs.reserve(SymbolicOut.Items.size());
  // Closure of Q by DFS: Stamp[R] == Q marks R visited for this Q, so the
  // array is never cleared.
  std::vector<StateId> &Stamp = W.Stamp, &Stack = W.Stack;
  Stamp.assign(A.numStates(), UINT32_MAX);
  for (StateId Q = 0; Q < A.numStates(); ++Q) {
    const size_t SegBegin = OutTs.size();
    bool IsFinal = false;
    Stamp[Q] = Q;
    Stack.push_back(Q);
    while (!Stack.empty()) {
      const StateId R = Stack.back();
      Stack.pop_back();
      IsFinal = IsFinal || FinalFlag[R];
      for (const uint32_t *I = SymbolicOut.rowBegin(R),
                          *E = SymbolicOut.rowEnd(R);
           I != E; ++I)
        OutTs.push_back(Transition{Q, Ts[*I].To, Ts[*I].Label});
      for (const StateId *S = EpsOut.rowBegin(R), *E = EpsOut.rowEnd(R);
           S != E; ++S)
        if (Stamp[*S] != Q) {
          Stamp[*S] = Q;
          Stack.push_back(*S);
        }
    }
    finishSegment(OutTs, SegBegin);
    if (IsFinal)
      Out.finals().push_back(Q);
  }
  return Out;
}

Nfa mfsa::foldMultiplicity(const Nfa &A) {
  assert(!A.hasEpsilons() && "foldMultiplicity requires an ε-free automaton");
  // Arcs sharing (From, To) are adjacent in canonical order; sort a copy
  // only when the input is not canonical.
  const std::vector<Transition> *In = &A.transitions();
  std::vector<Transition> Sorted;
  if (!std::is_sorted(In->begin(), In->end(), endpointsLess)) {
    Sorted = *In;
    std::sort(Sorted.begin(), Sorted.end(), endpointsLess);
    In = &Sorted;
  }

  Nfa Out = emptyLike(A, A.numStates());
  Out.setInitial(A.initial());
  Out.finals() = A.finals();
  canonicalFinals(Out.finals());
  std::vector<Transition> &OutTs = Out.transitions();
  OutTs.reserve(In->size());
  for (const Transition &T : *In) {
    if (!OutTs.empty() && sameEndpoints(OutTs.back(), T))
      OutTs.back().Label |= T.Label;
    else
      OutTs.push_back(T);
  }
  return Out;
}

Nfa mfsa::compactReachable(const Nfa &A) {
  const uint32_t N = A.numStates();
  // Scratch reused by every call on this thread.
  static thread_local struct {
    Csr<uint32_t> OutIdx;
    Csr<StateId> InAdj;
    std::vector<StateId> Fifo, NewId;
    std::vector<uint8_t> Fwd, Bwd;
  } W;
  const std::vector<Transition> &Ts = A.transitions();
  const Csr<uint32_t> &OutIdx = W.OutIdx;
  buildCsr(A, W.OutIdx, [&](uint32_t I, uint32_t &Row, uint32_t &Idx) {
    Row = Ts[I].From;
    Idx = I;
    return true;
  });
  const Csr<StateId> &InAdj = W.InAdj;
  buildCsr(A, W.InAdj, [&](uint32_t I, uint32_t &Row, StateId &From) {
    Row = Ts[I].To;
    From = Ts[I].From;
    return true;
  });

  // One FIFO serves all three breadth-first walks: Fifo[Head..] is the
  // queue and Fifo[..Head] the visit order.
  std::vector<StateId> &Fifo = W.Fifo;
  Fifo.clear();

  // Forward reachability from the initial state.
  std::vector<uint8_t> &Fwd = W.Fwd;
  Fwd.assign(N, 0);
  Fwd[A.initial()] = 1;
  Fifo.push_back(A.initial());
  for (size_t Head = 0; Head < Fifo.size(); ++Head)
    for (const uint32_t *I = OutIdx.rowBegin(Fifo[Head]),
                        *E = OutIdx.rowEnd(Fifo[Head]);
         I != E; ++I)
      if (!Fwd[Ts[*I].To]) {
        Fwd[Ts[*I].To] = 1;
        Fifo.push_back(Ts[*I].To);
      }

  // Backward co-reachability from the finals.
  std::vector<uint8_t> &Bwd = W.Bwd;
  Bwd.assign(N, 0);
  Fifo.clear();
  for (StateId F : A.finals())
    if (!Bwd[F]) {
      Bwd[F] = 1;
      Fifo.push_back(F);
    }
  for (size_t Head = 0; Head < Fifo.size(); ++Head)
    for (const StateId *P = InAdj.rowBegin(Fifo[Head]),
                       *E = InAdj.rowEnd(Fifo[Head]);
         P != E; ++P)
      if (!Bwd[*P]) {
        Bwd[*P] = 1;
        Fifo.push_back(*P);
      }

  // Keep live states; the initial state always survives so that even an
  // empty-language automaton stays well-formed. Survivors are renumbered in
  // BFS discovery order from the initial state for a deterministic,
  // locality-friendly layout; Fifo ends up holding them in new-id order.
  constexpr StateId Unmapped = UINT32_MAX;
  std::vector<StateId> &NewId = W.NewId;
  NewId.assign(N, Unmapped);
  Fifo.clear();
  NewId[A.initial()] = 0;
  Fifo.push_back(A.initial());
  for (size_t Head = 0; Head < Fifo.size(); ++Head)
    for (const uint32_t *I = OutIdx.rowBegin(Fifo[Head]),
                        *E = OutIdx.rowEnd(Fifo[Head]);
         I != E; ++I) {
      const StateId To = Ts[*I].To;
      if (Fwd[To] && Bwd[To] && NewId[To] == Unmapped) {
        NewId[To] = static_cast<StateId>(Fifo.size());
        Fifo.push_back(To);
      }
    }

  Nfa Out = emptyLike(A, static_cast<uint32_t>(Fifo.size()));
  Out.setInitial(0);
  for (StateId F : A.finals())
    if (NewId[F] != Unmapped)
      Out.finals().push_back(NewId[F]);
  canonicalFinals(Out.finals());
  std::vector<Transition> &OutTs = Out.transitions();
  OutTs.reserve(Ts.size());
  for (StateId Q = 0; Q < Fifo.size(); ++Q) {
    const size_t SegBegin = OutTs.size();
    for (const uint32_t *I = OutIdx.rowBegin(Fifo[Q]),
                        *E = OutIdx.rowEnd(Fifo[Q]);
         I != E; ++I)
      if (NewId[Ts[*I].To] != Unmapped)
        OutTs.push_back(Transition{Q, NewId[Ts[*I].To], Ts[*I].Label});
    finishSegment(OutTs, SegBegin);
  }
  return Out;
}

Nfa mfsa::mergeBisimilarStates(const Nfa &A) {
  assert(!A.hasEpsilons() &&
         "mergeBisimilarStates requires an ε-free automaton");
  const uint32_t N = A.numStates();
  if (N == 0)
    return A;
  // Scratch reused by every call on this thread.
  static thread_local struct {
    std::vector<SymbolSet> Labels;
    std::vector<uint32_t> LabelOf, LabelSlots;
    Csr<Arc> Out;
    Csr<StateId> InAdj;
    Partition P;
    std::vector<uint8_t> FinalFlag;
    SequenceTable Sigs;
    std::vector<uint32_t> GroupOf, GroupAt, Scratch, NewId, Order;
  } W;
  const std::vector<Transition> &Ts = A.transitions();

  // Intern labels to dense ids so a signature is a set of integer pairs.
  std::vector<SymbolSet> &Labels = W.Labels;
  std::vector<uint32_t> &LabelOf = W.LabelOf;
  Labels.clear();
  LabelOf.resize(Ts.size());
  {
    size_t Size = 16;
    while (Size < 2 * Ts.size())
      Size *= 2;
    std::vector<uint32_t> &Slots = W.LabelSlots; // Label id + 1, 0 = empty.
    Slots.assign(Size, 0);
    for (size_t I = 0; I < Ts.size(); ++I) {
      size_t Slot = Ts[I].Label.hash() & (Size - 1);
      while (Slots[Slot] != 0 && !(Labels[Slots[Slot] - 1] == Ts[I].Label))
        Slot = (Slot + 1) & (Size - 1);
      if (Slots[Slot] == 0) {
        Labels.push_back(Ts[I].Label);
        Slots[Slot] = static_cast<uint32_t>(Labels.size());
      }
      LabelOf[I] = Slots[Slot] - 1;
    }
  }
  const Csr<Arc> &Out = W.Out;
  buildCsr(A, W.Out, [&](uint32_t I, uint32_t &Row, Arc &Item) {
    Row = Ts[I].From;
    Item = Arc{LabelOf[I], Ts[I].To};
    return true;
  });
  const Csr<StateId> &InAdj = W.InAdj;
  buildCsr(A, W.InAdj, [&](uint32_t I, uint32_t &Row, StateId &From) {
    Row = Ts[I].To;
    From = Ts[I].From;
    return true;
  });

  // Coarsest stable partition refining {non-final, final}. The signature
  // of Q is the set {(label, block(target))}; a block splits by signature,
  // and only the predecessors of states that moved to a new block can have
  // a changed signature, so only they are touched and re-signed. The
  // untouched states of a block share one signature (its states agreed
  // when it was last processed and none of their targets moved since), so
  // one of them represents the rest.
  Partition &P = W.P;
  P.reset(N);
  {
    std::vector<uint8_t> &FinalFlag = W.FinalFlag;
    FinalFlag.assign(N, 0);
    for (StateId F : A.finals())
      FinalFlag[F] = 1;
    for (uint8_t Want : {0, 1}) {
      const uint32_t Begin = static_cast<uint32_t>(P.Elems.size());
      for (StateId Q = 0; Q < N; ++Q)
        if (FinalFlag[Q] == Want) {
          P.Pos[Q] = static_cast<uint32_t>(P.Elems.size());
          P.Elems.push_back(Q);
        }
      const uint32_t End = static_cast<uint32_t>(P.Elems.size());
      if (End == Begin)
        continue;
      const uint32_t B = P.addBlock(Begin, End);
      if (End - Begin < 2)
        continue; // A singleton cannot split.
      P.Touched[B] = End - Begin;
      P.Work.push_back(B);
    }
  }

  SequenceTable &Sigs = W.Sigs;
  auto Sign = [&](StateId Q) {
    std::vector<uint64_t> &Key = Sigs.pending();
    const size_t Begin = Key.size();
    for (const Arc *R = Out.rowBegin(Q), *E = Out.rowEnd(Q); R != E; ++R)
      Key.push_back(uint64_t(R->Label) << 32 | P.BlockOf[R->To]);
    std::sort(Key.begin() + Begin, Key.end());
    Key.erase(std::unique(Key.begin() + Begin, Key.end()), Key.end());
    return Sigs.intern();
  };
  std::vector<uint32_t> &GroupOf = W.GroupOf, &GroupAt = W.GroupAt,
                        &Scratch = W.Scratch;
  GroupOf.resize(N);
  Scratch.resize(N);
  while (!P.Work.empty()) {
    const uint32_t B = P.Work.back();
    P.Work.pop_back();
    const uint32_t Begin = P.First[B], End = P.Last[B];
    const uint32_t Mid = Begin + P.Touched[B];
    P.Touched[B] = 0;

    // Group 0 is the untouched states' signature when there are any.
    Sigs.reset(Mid - Begin + 1);
    if (Mid < End)
      Sign(P.Elems[Mid]);
    for (uint32_t I = Begin; I < Mid; ++I)
      GroupOf[I - Begin] = Sign(P.Elems[I]);
    const uint32_t NumGroups = Sigs.size();
    if (NumGroups == 1)
      continue;

    // The untouched group keeps the block; with none, the largest group
    // does. The touched states are laid out by group with the staying
    // group last, next to the untouched states; every other group becomes
    // a new block.
    GroupAt.assign(NumGroups, 0);
    for (uint32_t I = Begin; I < Mid; ++I)
      ++GroupAt[GroupOf[I - Begin]];
    uint32_t Stay = 0;
    if (Mid == End)
      Stay = static_cast<uint32_t>(
          std::max_element(GroupAt.begin(), GroupAt.end()) - GroupAt.begin());
    uint32_t Moved = 0;
    for (uint32_t G = 0; G < NumGroups; ++G)
      if (G != Stay)
        Moved += std::exchange(GroupAt[G], Moved);
    GroupAt[Stay] = Moved;
    for (uint32_t I = Begin; I < Mid; ++I)
      Scratch[GroupAt[GroupOf[I - Begin]]++] = P.Elems[I];
    for (uint32_t I = Begin; I < Mid; ++I) {
      P.Elems[I] = Scratch[I - Begin];
      P.Pos[P.Elems[I]] = I;
    }
    // GroupAt[G] is now the end of group G, and group G starts where the
    // previous moved group ended.
    for (uint32_t G = 0, GroupStart = Begin; G < NumGroups; ++G)
      if (G != Stay) {
        P.addBlock(GroupStart, Begin + GroupAt[G]);
        GroupStart = Begin + GroupAt[G];
      }
    P.First[B] = Begin + Moved;
    // Walk the moved states in Scratch: touching reorders Elems.
    for (uint32_t I = 0; I < Moved; ++I)
      for (const StateId *Pred = InAdj.rowBegin(Scratch[I]),
                         *E = InAdj.rowEnd(Scratch[I]);
           Pred != E; ++Pred)
        P.touch(*Pred);
  }

  // Rebuild with one state per block, numbered by first occurrence for
  // determinism.
  constexpr uint32_t Unset = UINT32_MAX;
  std::vector<StateId> &NewId = W.NewId;
  std::vector<uint32_t> &Order = W.Order;
  NewId.assign(P.First.size(), Unset);
  Order.clear();
  for (StateId Q = 0; Q < N; ++Q)
    if (NewId[P.BlockOf[Q]] == Unset) {
      NewId[P.BlockOf[Q]] = static_cast<StateId>(Order.size());
      Order.push_back(P.BlockOf[Q]);
    }
  Nfa Quotient = emptyLike(A, static_cast<uint32_t>(Order.size()));
  Quotient.setInitial(NewId[P.BlockOf[A.initial()]]);
  for (StateId F : A.finals())
    Quotient.finals().push_back(NewId[P.BlockOf[F]]);
  canonicalFinals(Quotient.finals());
  std::vector<Transition> &OutTs = Quotient.transitions();
  OutTs.reserve(Ts.size());
  for (StateId K = 0; K < Order.size(); ++K) {
    const size_t SegBegin = OutTs.size();
    for (uint32_t I = P.First[Order[K]]; I < P.Last[Order[K]]; ++I)
      for (const Arc *R = Out.rowBegin(P.Elems[I]),
                     *E = Out.rowEnd(P.Elems[I]);
           R != E; ++R)
        OutTs.push_back(
            Transition{K, NewId[P.BlockOf[R->To]], Labels[R->Label]});
    finishSegment(OutTs, SegBegin);
  }
  return Quotient;
}

Nfa mfsa::optimizeForMerging(const Nfa &A) {
  Result<Nfa> Out = optimizeForMergingBudgeted(A, 0, 0);
  assert(Out.ok() && "unlimited budget cannot overrun");
  return Out.take();
}

Result<Nfa> mfsa::optimizeForMergingBudgeted(const Nfa &A, uint64_t MaxStates,
                                             uint64_t MaxTransitions) {
  return optimizeForMergingBudgeted(A, MaxStates, MaxTransitions,
                                    PassValidator());
}

Result<Nfa> mfsa::optimizeForMergingBudgeted(const Nfa &A, uint64_t MaxStates,
                                             uint64_t MaxTransitions,
                                             const PassValidator &Validate) {
  auto OverBudget = [&](const Nfa &Current) -> bool {
    return (MaxStates != 0 && Current.numStates() > MaxStates) ||
           (MaxTransitions != 0 && Current.numTransitions() > MaxTransitions);
  };
  auto BudgetError = [&](const Nfa &Current) {
    return Result<Nfa>::error(
        "optimization budget exceeded (" +
        std::to_string(Current.numStates()) + " states / " +
        std::to_string(Current.numTransitions()) + " transitions, budget " +
        std::to_string(MaxStates) + " / " + std::to_string(MaxTransitions) +
        ")");
  };
  // Runs one pass, handing the before/after pair to the validation hook.
  // The first hook failure wins; later passes still run (cheap, and the
  // chain's shape stays identical with and without validation).
  std::string ValidationError;
  auto Step = [&](Nfa (*Pass)(const Nfa &), const char *Name,
                  const Nfa &Input) -> Nfa {
    Nfa Output = Pass(Input);
    if (Validate && ValidationError.empty())
      ValidationError = Validate(Name, Input, Output);
    return Output;
  };

  Nfa Current = Step(removeEpsilons, "remove-epsilons", A);
  if (!ValidationError.empty())
    return Result<Nfa>::error(ValidationError);
  if (OverBudget(Current))
    return BudgetError(Current);
  // Folding and bisimulation merging enable each other: folding normalizes
  // parallel arcs into classes so more signatures coincide; merging aligns
  // targets so more arcs become parallel. Fold runs only where there is
  // something to fold (on a canonical automaton without parallel arcs it is
  // the identity). The loop stops once a merge leaves nothing to do: if it
  // merged no state, its input (folded, so free of parallel arcs) came back
  // unchanged; if it left no parallel arcs, fold is the identity and the
  // quotient by the coarsest bisimulation is already bisimulation-minimal.
  // Either way another fold/merge round would change nothing, and the loop
  // exits with no parallel arcs left.
  for (;;) {
    if (hasParallelArcs(Current))
      Current = Step(foldMultiplicity, "fold-multiplicity", Current);
    const uint32_t StatesBefore = Current.numStates();
    Current = Step(mergeBisimilarStates, "merge-bisimilar-states", Current);
    if (!ValidationError.empty())
      return Result<Nfa>::error(ValidationError);
    if (Current.numStates() == StatesBefore || !hasParallelArcs(Current))
      break;
  }
  Current = Step(compactReachable, "compact-reachable", Current);
  if (!ValidationError.empty())
    return Result<Nfa>::error(ValidationError);
  if (OverBudget(Current))
    return BudgetError(Current);
  return Current;
}
