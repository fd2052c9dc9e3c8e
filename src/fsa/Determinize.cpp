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

  /// \returns the id of the sorted, duplicate-free list \p S, adding it
  /// under the next free id when it is new.
  uint32_t intern(const std::vector<uint32_t> &S) {
    if (2 * (static_cast<size_t>(size()) + 1) > Slots.size())
      grow();
    const uint64_t Hash = hashOf(S.data(), S.size());
    const size_t Mask = Slots.size() - 1;
    for (size_t I = Hash & Mask;; I = (I + 1) & Mask) {
      if (Slots[I] == 0) {
        const uint32_t Id = size();
        Slots[I] = Id + 1;
        Hashes.push_back(Hash);
        Pool.insert(Pool.end(), S.begin(), S.end());
        Begin.push_back(Pool.size());
        return Id;
      }
      const uint32_t Id = Slots[I] - 1;
      if (Hashes[Id] == Hash &&
          std::equal(S.begin(), S.end(), begin(Id), end(Id)))
        return Id;
    }
  }

private:
  static uint64_t hashOf(const uint32_t *Data, size_t N) {
    uint64_t H = 0x9E3779B97F4A7C15ULL ^ N;
    for (size_t I = 0; I < N; ++I) {
      H = (H ^ Data[I]) * 0xBF58476D1CE4E5B9ULL;
      H ^= H >> 31;
    }
    return H;
  }

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

  // Union-NFA moves outside R, one flat CSR list per (state, atom) cell
  // State * NumAtoms + Atom. A label that intersects an atom contains it.
  std::vector<std::pair<size_t, uint32_t>> CellMoves;
  for (uint32_t R = 0; R < NumRules; ++R)
    for (const Transition &T : Rules[R].transitions()) {
      const uint32_t To = Offset[R] + T.To;
      if (InRestart[To])
        continue;
      const size_t Row = static_cast<size_t>(Offset[R] + T.From) * NumAtoms;
      for (uint32_t AtomIdx = 0; AtomIdx < NumAtoms; ++AtomIdx)
        if (T.Label.intersects(Atoms[AtomIdx]))
          CellMoves.emplace_back(Row + AtomIdx, To);
    }
  const size_t NumCells = static_cast<size_t>(TotalStates) * NumAtoms;
  std::vector<uint32_t> MoveBegin(NumCells + 1, 0);
  for (const auto &[Cell, To] : CellMoves)
    ++MoveBegin[Cell + 1];
  for (size_t Cell = 1; Cell < MoveBegin.size(); ++Cell)
    MoveBegin[Cell] += MoveBegin[Cell - 1];
  std::vector<uint32_t> MoveTo(CellMoves.size());
  {
    std::vector<uint32_t> Fill(MoveBegin.begin(), MoveBegin.end() - 1);
    for (const auto &[Cell, To] : CellMoves)
      MoveTo[Fill[Cell]++] = To;
  }
  CellMoves = {};

  // Appends to Target the moves of the states in [First, Last) on AtomIdx,
  // skipping the states Stamp already marks with the current Epoch.
  std::vector<uint32_t> Stamp(TotalStates, 0);
  uint32_t Epoch = 0;
  std::vector<uint32_t> Target;
  auto Gather = [&](const uint32_t *First, const uint32_t *Last,
                    uint32_t AtomIdx) {
    for (; First != Last; ++First) {
      const size_t Cell = static_cast<size_t>(*First) * NumAtoms + AtomIdx;
      for (uint32_t M = MoveBegin[Cell], E = MoveBegin[Cell + 1]; M != E;
           ++M) {
        const uint32_t To = MoveTo[M];
        if (Stamp[To] != Epoch) {
          Stamp[To] = Epoch;
          Target.push_back(To);
        }
      }
    }
  };
  auto NextEpoch = [&] {
    if (++Epoch == 0) {
      std::fill(Stamp.begin(), Stamp.end(), 0);
      Epoch = 1;
    }
  };

  // R's own successors, shared by every subset: once per atom.
  std::vector<std::vector<uint32_t>> RestartMoves(NumAtoms);
  for (uint32_t AtomIdx = 0; AtomIdx < NumAtoms; ++AtomIdx) {
    NextEpoch();
    Target.clear();
    Gather(Restart.data(), Restart.data() + Restart.size(), AtomIdx);
    RestartMoves[AtomIdx] = Target;
  }

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
  SubsetTable Subsets;
  uint32_t StartId = Subsets.intern(StartOutsideRestart);
  (void)StartId;
  assert(StartId == 0 && "start subset must be state 0");
  if (Subsets.size() > Options.MaxStates)
    return Explosion();

  for (uint32_t Id = 0; Id < Subsets.size(); ++Id) {
    Out.Next.resize((static_cast<size_t>(Id) + 1) * NumAtoms, 0);
    for (uint32_t AtomIdx = 0; AtomIdx < NumAtoms; ++AtomIdx) {
      NextEpoch();
      Target.clear();
      for (uint32_t To : RestartMoves[AtomIdx]) {
        Stamp[To] = Epoch;
        Target.push_back(To);
      }
      // Subsets.begin/end are re-read per atom: intern() may move the pool.
      Gather(Subsets.begin(Id), Subsets.end(Id), AtomIdx);
      std::sort(Target.begin(), Target.end());
      const uint32_t TargetId = Subsets.intern(Target);
      if (Subsets.size() > Options.MaxStates)
        return Explosion();
      Out.Next[static_cast<size_t>(Id) * NumAtoms + AtomIdx] = TargetId;
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
