//===- AlphabetPartition.cpp - symbol-equivalence atoms ------------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "fsa/AlphabetPartition.h"

#include <algorithm>
#include <array>
#include <cassert>

using namespace mfsa;

std::vector<SymbolSet>
mfsa::computeAlphabetAtoms(const std::vector<SymbolSet> &Labels) {
  // Two symbols are equivalent iff they appear in exactly the same labels.
  // Partition refinement: each label splits every class it cuts into its
  // in-label and out-of-label halves. Classes stay non-empty, so there are
  // never more than 256 of them and the ids stay dense.
  std::array<uint16_t, SymbolSet::NumSymbols> ClassOf{}, Size{}, Inside{},
      SplitTo, Touched;
  Size[0] = SymbolSet::NumSymbols;
  unsigned NumClasses = 1;
  for (const SymbolSet &Label : Labels) {
    unsigned NumTouched = 0;
    Label.forEach([&](unsigned char C) {
      if (Inside[ClassOf[C]]++ == 0)
        Touched[NumTouched++] = ClassOf[C];
    });
    for (unsigned I = 0; I < NumTouched; ++I) {
      const uint16_t K = Touched[I];
      SplitTo[K] = K;
      if (Inside[K] < Size[K]) {
        SplitTo[K] = static_cast<uint16_t>(NumClasses);
        Size[NumClasses++] = Inside[K];
        Size[K] -= Inside[K];
      }
      Inside[K] = 0;
    }
    Label.forEach([&](unsigned char C) { ClassOf[C] = SplitTo[ClassOf[C]]; });
  }

  // Number atoms by first appearance, which orders them by smallest symbol.
  std::array<int, SymbolSet::NumSymbols> AtomOfClass;
  AtomOfClass.fill(-1);
  std::vector<SymbolSet> Atoms;
  Atoms.reserve(NumClasses);
  for (unsigned C = 0; C < SymbolSet::NumSymbols; ++C) {
    int &Atom = AtomOfClass[ClassOf[C]];
    if (Atom < 0) {
      Atom = static_cast<int>(Atoms.size());
      Atoms.emplace_back();
    }
    Atoms[Atom].insert(static_cast<unsigned char>(C));
  }
  return Atoms;
}

std::vector<SymbolSet>
mfsa::computeAlphabetAtoms(const std::vector<Nfa> &Fsas) {
  // Refining by a label twice is a no-op; deduplicate first.
  std::vector<SymbolSet> Labels;
  for (const Nfa &A : Fsas)
    for (const Transition &T : A.transitions())
      Labels.push_back(T.Label);
  std::sort(Labels.begin(), Labels.end());
  Labels.erase(std::unique(Labels.begin(), Labels.end()), Labels.end());
  return computeAlphabetAtoms(Labels);
}

Nfa mfsa::splitByAtoms(const Nfa &A, const std::vector<SymbolSet> &Atoms) {
  Nfa Out;
  for (StateId Q = 0; Q < A.numStates(); ++Q)
    Out.addState();
  Out.setInitial(A.initial());
  Out.setAnchors(A.anchoredStart(), A.anchoredEnd());
  for (StateId F : A.finals())
    Out.addFinal(F);

  for (const Transition &T : A.transitions()) {
    assert(!T.Label.empty() && "splitByAtoms requires an ε-free automaton");
    SymbolSet Remaining = T.Label;
    for (const SymbolSet &Atom : Atoms) {
      if (!Remaining.intersects(Atom))
        continue;
      SymbolSet Piece = Remaining & Atom;
      assert(Piece == (T.Label & Atom) &&
             "atom partially consumed twice — atoms not disjoint?");
      Out.addTransition(T.From, T.To, Piece);
      Remaining &= Atom.complement();
      if (Remaining.empty())
        break;
    }
    assert(Remaining.empty() && "label not covered by the atom partition");
  }
  Out.canonicalize();
  return Out;
}

std::vector<Nfa> mfsa::splitAllByAtoms(const std::vector<Nfa> &Fsas) {
  std::vector<SymbolSet> Atoms = computeAlphabetAtoms(Fsas);
  std::vector<Nfa> Out;
  Out.reserve(Fsas.size());
  for (const Nfa &A : Fsas)
    Out.push_back(splitByAtoms(A, Atoms));
  return Out;
}
