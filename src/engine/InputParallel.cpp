//===- InputParallel.cpp - input-parallel single-stream scanning -------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "engine/InputParallel.h"

#include "obs/Metrics.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>
#include <numeric>

using namespace mfsa;

namespace {

using Match = std::pair<uint32_t, uint64_t>; ///< (global rule, end offset).

/// DFA state-map guard: a map still holding more than MapClassCap live
/// classes after MapGuardBytes is abandoned (the join re-scans the chunk);
/// collapse normally reaches one class within bytes.
constexpr uint32_t MapClassCap = 64;
constexpr size_t MapGuardBytes = 4096;

/// Sorts \p Matches into sequential emission order — nondecreasing end
/// offset, rule id within an offset — drops duplicate (rule, end) pairs
/// (the iso scan and the boundary carry can realize the same match), and
/// forwards the survivors.
void forwardSortedUnique(std::vector<Match> &Matches,
                         MatchRecorder &Recorder) {
  std::sort(Matches.begin(), Matches.end(),
            [](const Match &A, const Match &B) {
              return A.second != B.second ? A.second < B.second
                                          : A.first < B.first;
            });
  Matches.erase(std::unique(Matches.begin(), Matches.end()), Matches.end());
  for (const Match &M : Matches)
    Recorder.onMatch(M.first, M.second);
}

/// Pointwise union of two activation configurations (either may be empty).
ActivationSet unionActivations(const ActivationSet &A,
                               const ActivationSet &B) {
  if (A.empty())
    return B;
  if (B.empty())
    return A;
  assert(A.Words == B.Words);
  const uint32_t W = A.Words;
  std::map<StateId, std::vector<uint64_t>> Acc;
  auto Fold = [&](const ActivationSet &Src) {
    for (size_t I = 0; I < Src.size(); ++I) {
      std::vector<uint64_t> &Blk = Acc[Src.States[I]];
      if (Blk.empty())
        Blk.assign(W, 0);
      const uint64_t *From = Src.block(I);
      for (uint32_t Wd = 0; Wd < W; ++Wd)
        Blk[Wd] |= From[Wd];
    }
  };
  Fold(A);
  Fold(B);
  ActivationSet Out;
  Out.Words = W;
  for (const auto &[S, Blk] : Acc) {
    Out.States.push_back(S);
    Out.RuleBlocks.insert(Out.RuleBlocks.end(), Blk.begin(), Blk.end());
  }
  return Out;
}

} // namespace

void mfsa::recordInputParallelStats(const InputParallelStats &Stats,
                                    obs::MetricsRegistry &Registry) {
  Registry.counter("parallel.input.runs").add(1);
  Registry.counter("parallel.input.chunks").add(Stats.Chunks);
  Registry.counter("parallel.input.rescan_fallback_chunks")
      .add(Stats.RescanFallbackChunks);
  Registry.counter("parallel.input.overlap_bytes").add(Stats.OverlapBytes);
  Registry.counter("parallel.input.iso_matches").add(Stats.IsoMatches);
  Registry.counter("parallel.input.carry_matches").add(Stats.CarryMatches);
  Registry.gauge("parallel.input.threads")
      .set(static_cast<int64_t>(Stats.Threads));
  Registry.gauge("parallel.input.max_carry_frontier")
      .set(static_cast<int64_t>(Stats.MaxCarryFrontier));
  Registry.gauge("parallel.input.max_alive_classes")
      .set(static_cast<int64_t>(Stats.MaxAliveClasses));
}

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

InputParallelRun::InputParallelRun(const ImfantEngine &Engine,
                                   InputParallelOptions Options)
    : Kind(Backend::Imfant), Opts(std::move(Options)), Imfant(&Engine) {}

InputParallelRun::InputParallelRun(const Dfa &Automaton,
                                   InputParallelOptions Options)
    : Kind(Backend::Dfa), Opts(std::move(Options)), Automaton(&Automaton) {}

InputParallelRun::InputParallelRun(const StridedDfa &Automaton,
                                   InputParallelOptions Options)
    : Kind(Backend::Stride2), Opts(std::move(Options)), Strided(&Automaton) {}

std::vector<uint64_t> mfsa::inputChunkBounds(const InputParallelOptions &Opts,
                                             size_t Len) {
  std::vector<uint64_t> Bounds;
  if (!Opts.CutOverride.empty()) {
    Bounds.push_back(0);
    for (uint64_t Cut : Opts.CutOverride)
      Bounds.push_back(std::min<uint64_t>(Cut, Len));
    std::sort(Bounds.begin(), Bounds.end());
    Bounds.push_back(Len);
    return Bounds;
  }
  size_t Chunks = std::max<unsigned>(1, Opts.Threads);
  if (Opts.MinChunkBytes)
    Chunks = std::min<size_t>(
        Chunks, std::max<size_t>(1, Len / Opts.MinChunkBytes));
  Bounds.reserve(Chunks + 1);
  Bounds.push_back(0);
  for (size_t I = 1; I < Chunks; ++I)
    Bounds.push_back(Len * I / Chunks);
  Bounds.push_back(Len);
  return Bounds;
}

std::unique_ptr<ThreadPool>
mfsa::makeInputPool(const InputParallelOptions &Options, size_t Chunks) {
  if (!Options.UseThreadPool || Chunks < 2 || Options.Threads < 2)
    return nullptr;
  return std::make_unique<ThreadPool>(static_cast<unsigned>(
      std::min<size_t>(Options.Threads, Chunks)));
}

void mfsa::forEachChunk(ThreadPool *Pool, size_t N,
                        const std::function<void(size_t)> &Body) {
  if (!Pool || N < 2) {
    for (size_t I = 0; I < N; ++I)
      Body(I);
    return;
  }
  for (size_t I = 0; I < N; ++I)
    Pool->submit([I, &Body] { Body(I); });
  Pool->wait();
}

//===----------------------------------------------------------------------===//
// iMFAnt backend
//===----------------------------------------------------------------------===//

namespace {

/// What phase 1's iso scan leaves for the join: the chunk's own matches
/// (global ids, absolute offsets) and its exit activation.
struct IsoScan {
  std::vector<Match> Matches;
  ActivationSet Exit;
};

constexpr size_t UnlimitedCap = std::numeric_limits<size_t>::max();

} // namespace

void InputParallelRun::runImfant(std::string_view Input,
                                 const std::vector<uint64_t> &Bounds,
                                 MatchRecorder &Recorder,
                                 InputParallelStats *Stats,
                                 ThreadPool *Pool) const {
  const ImfantEngine &Engine = *Imfant;
  const size_t NumChunks = Bounds.size() - 1;
  const uint64_t StreamEnd = Input.size();
  // `$`-pending flush and AcceptAtEnd both belong to the chunk that
  // consumes the stream's final byte — NOT to a trailing empty chunk.
  auto FlushesEnd = [&](std::string_view Chunk, uint64_t Base) {
    return !Chunk.empty() && Base + Chunk.size() == StreamEnd;
  };

  // Phase 1 — per chunk, independent (parallel on a pool): the iso scan.
  // Injection on, empty start, absolute offsets: exact for every match
  // attempt that begins inside the chunk.
  std::vector<IsoScan> Iso(NumChunks);
  forEachChunk(Pool, NumChunks, [&](size_t I) {
    const uint64_t Base = Bounds[I];
    const std::string_view Chunk = Input.substr(Base, Bounds[I + 1] - Base);
    MatchRecorder Out(MatchRecorder::Mode::Collect);
    Out.Cap = UnlimitedCap;
    ImfantEngine::Scanner Scan(Engine);
    Scan.startAt(Base);
    Scan.feed(Chunk, Out);
    if (FlushesEnd(Chunk, Base))
      Scan.finish(Out);
    Iso[I].Exit = Scan.captureActivation();
    Iso[I].Matches = Out.matches();
  });

  // Phase 2 — sequential join: the attempts that began before chunk I are
  // the real boundary frontier, propagated with injection off. The scanner
  // stops where that frontier dies, normally within bytes of the cut, so
  // the join re-scans a whole chunk only while a carry stays alive across
  // it. The chunk's exit is then the union of both exits.
  ActivationSet Carry;
  for (size_t I = 0; I < NumChunks; ++I) {
    const uint64_t Base = Bounds[I];
    const std::string_view Chunk = Input.substr(Base, Bounds[I + 1] - Base);
    std::vector<Match> Joined = std::move(Iso[I].Matches);
    if (Stats)
      Stats->IsoMatches += Joined.size();
    ActivationSet CarryExit;
    if (!Carry.empty()) {
      ImfantEngine::Scanner Scan(Engine);
      Scan.startAt(Base);
      Scan.setInjection(false);
      Scan.seedActivation(Carry);
      MatchRecorder Out(MatchRecorder::Mode::Collect);
      Out.Cap = UnlimitedCap;
      RunStats CarryStats;
      Scan.feed(Chunk, Out, Stats ? &CarryStats : nullptr);
      const bool Alive = !Chunk.empty() && !Scan.frontierEmpty();
      if (FlushesEnd(Chunk, Base))
        Scan.finish(Out);
      CarryExit = Scan.captureActivation();
      if (Stats) {
        Stats->CarryMatches += Out.matches().size();
        Stats->OverlapBytes += Scan.offset() - Base;
        Stats->RescanFallbackChunks += Alive;
        Stats->MaxCarryFrontier =
            std::max(Stats->MaxCarryFrontier, CarryStats.MaxFrontier);
      }
      Joined.insert(Joined.end(), Out.matches().begin(), Out.matches().end());
    }
    // Per-chunk (rule, end) dedup across the iso scan and the carry — the
    // sequential engine's per-step dedup, reconstructed at the join.
    forwardSortedUnique(Joined, Recorder);
    Carry = unionActivations(Iso[I].Exit, CarryExit);
  }
}

//===----------------------------------------------------------------------===//
// DFA-family backend
//===----------------------------------------------------------------------===//

namespace {

/// Single-byte stepping over a scanning Dfa with DfaEngine's exact accept
/// semantics (Accept probed after every byte; AcceptAtEnd only after the
/// stream's final byte, via emitAtEnd).
struct DfaPolicy {
  const Dfa &D;

  uint32_t numStates() const { return D.NumStates; }
  size_t stepLen(uint64_t, size_t) const { return 1; }

  template <class EmitT>
  uint32_t step(uint32_t State, std::string_view Chunk, size_t Pos,
                uint64_t Base, EmitT &&Emit) const {
    const uint32_t Next =
        D.Next[static_cast<size_t>(State) * D.NumAtoms +
               D.AtomOfByte[static_cast<unsigned char>(Chunk[Pos])]];
    const DynamicBitset &Accept = D.Accept[Next];
    if (Accept.any())
      Accept.forEach([&](unsigned Rule) {
        Emit(D.GlobalIds[Rule], Base + Pos + 1);
      });
    return Next;
  }

  template <class EmitT>
  void emitAtEnd(uint32_t State, uint64_t EndOffset, EmitT &&Emit) const {
    const DynamicBitset &AtEnd = D.AcceptAtEnd[State];
    if (AtEnd.any())
      AtEnd.forEach(
          [&](unsigned Rule) { Emit(D.GlobalIds[Rule], EndOffset); });
  }
};

/// Stride-2 stepping aligned to ABSOLUTE pair parity: pairs start at even
/// stream offsets, so a chunk whose base (or tail) splits a pair takes
/// single Mid half-steps at the ragged edges — Mid is the stride-1 table,
/// so the output stays byte-identical to the sequential strided engine
/// under arbitrary adversarial cuts.
struct StridedPolicy {
  const StridedDfa &D;

  uint32_t numStates() const { return D.NumStates; }
  size_t stepLen(uint64_t AbsPos, size_t Remaining) const {
    return (AbsPos % 2 == 0 && Remaining >= 2) ? 2 : 1;
  }

  template <class EmitT>
  void probeAccept(uint32_t State, uint64_t EndOffset, EmitT &&Emit) const {
    const DynamicBitset &Accept = D.Accept[State];
    if (Accept.any())
      Accept.forEach(
          [&](unsigned Rule) { Emit(D.GlobalIds[Rule], EndOffset); });
  }

  template <class EmitT>
  uint32_t step(uint32_t State, std::string_view Chunk, size_t Pos,
                uint64_t Base, EmitT &&Emit) const {
    const uint32_t A = D.NumAtoms;
    const uint32_t A1 =
        D.AtomOfByte[static_cast<unsigned char>(Chunk[Pos])];
    const uint64_t Abs = Base + Pos;
    if (Abs % 2 == 0 && Pos + 1 < Chunk.size()) {
      // Full stride: mid-stride accept (odd offset) only when the flag
      // says the half-step state accepts at all.
      if (D.MidAcceptAny[static_cast<size_t>(State) * A + A1])
        probeAccept(D.Mid[static_cast<size_t>(State) * A + A1], Abs + 1,
                    Emit);
      const uint32_t A2 =
          D.AtomOfByte[static_cast<unsigned char>(Chunk[Pos + 1])];
      const uint32_t Next =
          D.Next2[(static_cast<size_t>(State) * A + A1) * A + A2];
      probeAccept(Next, Abs + 2, Emit);
      return Next;
    }
    const uint32_t Next = D.Mid[static_cast<size_t>(State) * A + A1];
    probeAccept(Next, Abs + 1, Emit);
    return Next;
  }

  template <class EmitT>
  void emitAtEnd(uint32_t State, uint64_t EndOffset, EmitT &&Emit) const {
    const DynamicBitset &AtEnd = D.AcceptAtEnd[State];
    if (AtEnd.any())
      AtEnd.forEach(
          [&](unsigned Rule) { Emit(D.GlobalIds[Rule], EndOffset); });
  }
};

/// Sequential scan of one chunk from a known state; AcceptAtEnd fires only
/// when the chunk consumes the stream's final byte.
template <class Policy, class EmitT>
uint32_t scanChunkFrom(const Policy &P, uint32_t State,
                       std::string_view Chunk, uint64_t Base,
                       uint64_t StreamEnd, EmitT &&Emit) {
  size_t Pos = 0;
  while (Pos < Chunk.size()) {
    const size_t Len = P.stepLen(Base + Pos, Chunk.size() - Pos);
    State = P.step(State, Chunk, Pos, Base, Emit);
    Pos += Len;
  }
  if (!Chunk.empty() && Base + Chunk.size() == StreamEnd)
    P.emitAtEnd(State, StreamEnd, Emit);
  return State;
}

constexpr uint32_t NoClass = std::numeric_limits<uint32_t>::max();

/// PaREM-style per-start outcome map for one chunk, with class collapse:
/// classes that land on the same DFA state merge, the dead class keeping a
/// pointer into its surviving parent's accept log so every start state's
/// full match sequence stays reconstructible in order.
struct ChunkStateMap {
  struct Cls {
    std::vector<Match> Log; ///< Time-ordered (global rule, end) accepts.
    uint32_t MergedInto = NoClass;
    size_t MergedAtParentSize = 0;
    uint32_t Exit = 0; ///< Valid for never-merged (terminal) classes.
  };
  bool Ok = false; ///< False: collapse stalled; join re-scans sequentially.
  std::vector<Cls> Classes; ///< Index == start state.
  uint32_t MaxAlive = 0;
};

template <class Policy>
void buildChunkStateMap(const Policy &P, std::string_view Chunk,
                        uint64_t Base, uint64_t StreamEnd, ChunkStateMap &M) {
  const uint32_t N = P.numStates();
  const size_t GuardBytes = std::min(Chunk.size(), MapGuardBytes);
  M.Classes.assign(N, {});
  std::vector<uint32_t> Cur(N), Alive(N), NewAlive;
  std::iota(Cur.begin(), Cur.end(), 0u);
  std::iota(Alive.begin(), Alive.end(), 0u);
  NewAlive.reserve(N);
  // Epoch-marked ownership: Owner[S] is the class that reached S this
  // step, valid only when OwnerEpoch[S] matches.
  std::vector<uint32_t> Owner(N, 0);
  std::vector<uint64_t> OwnerEpoch(N, 0);
  uint64_t Epoch = 0;

  size_t Pos = 0;
  while (Pos < Chunk.size()) {
    // Collapse-to-one fast path: a single surviving class is a known DFA
    // state, so the rest of the chunk is the ordinary sequential scan —
    // this is what makes the map's amortized cost approach the sequential
    // engine's and the speedup approach T (bench/fig_input_parallel).
    if (Alive.size() == 1) {
      const uint32_t C = Alive[0];
      Cur[C] = scanChunkFrom(P, Cur[C], Chunk.substr(Pos), Base + Pos,
                             StreamEnd, [&](uint32_t Rule, uint64_t End) {
                               M.Classes[C].Log.emplace_back(Rule, End);
                             });
      M.Classes[C].Exit = Cur[C];
      M.Ok = true;
      return;
    }
    const size_t Len = P.stepLen(Base + Pos, Chunk.size() - Pos);
    ++Epoch;
    for (uint32_t C : Alive)
      Cur[C] = P.step(Cur[C], Chunk, Pos, Base,
                      [&](uint32_t Rule, uint64_t End) {
                        M.Classes[C].Log.emplace_back(Rule, End);
                      });
    Pos += Len;

    // Collapse classes that converged. Both a dying class and its parent
    // logged this step's accepts before the merge, and the recorded parent
    // size already includes them — the chain walk emits each exactly once.
    NewAlive.clear();
    for (uint32_t C : Alive) {
      const uint32_t S = Cur[C];
      if (OwnerEpoch[S] != Epoch) {
        OwnerEpoch[S] = Epoch;
        Owner[S] = C;
        NewAlive.push_back(C);
      } else {
        const uint32_t Parent = Owner[S];
        M.Classes[C].MergedInto = Parent;
        M.Classes[C].MergedAtParentSize = M.Classes[Parent].Log.size();
      }
    }
    Alive.swap(NewAlive);
    M.MaxAlive = std::max(M.MaxAlive, static_cast<uint32_t>(Alive.size()));

    // Collapse guard: past the overlap window a still-wide map costs more
    // than the sequential re-scan it replaces. Alive only shrinks, so one
    // live comparison suffices.
    if (Pos >= GuardBytes && Alive.size() > MapClassCap) {
      M.Ok = false;
      return;
    }
  }

  if (!Chunk.empty() && Base + Chunk.size() == StreamEnd)
    for (uint32_t C : Alive)
      P.emitAtEnd(Cur[C], StreamEnd, [&](uint32_t Rule, uint64_t End) {
        M.Classes[C].Log.emplace_back(Rule, End);
      });
  for (uint32_t C : Alive)
    M.Classes[C].Exit = Cur[C];
  M.Ok = true;
}

} // namespace

void InputParallelRun::run(std::string_view Input, MatchRecorder &Recorder,
                           InputParallelStats *Stats, ThreadPool *Pool) const {
  const std::vector<uint64_t> Bounds = inputChunkBounds(Opts, Input.size());
  if (Stats) {
    Stats->Threads = static_cast<unsigned>(Bounds.size() - 1);
    Stats->Chunks = Bounds.size() - 1;
  }
  std::unique_ptr<ThreadPool> OwnPool;
  if (!Pool) {
    OwnPool = makeInputPool(Opts, Bounds.size() - 1);
    Pool = OwnPool.get();
  }
  switch (Kind) {
  case Backend::Imfant:
    runImfant(Input, Bounds, Recorder, Stats, Pool);
    break;
  case Backend::Dfa:
    runDfaFamily(DfaPolicy{*Automaton}, Input, Bounds, Recorder, Stats, Pool);
    break;
  case Backend::Stride2:
    runDfaFamily(StridedPolicy{*Strided}, Input, Bounds, Recorder, Stats, Pool);
    break;
  }
}

template <class Policy>
void InputParallelRun::runDfaFamily(const Policy &P, std::string_view Input,
                                    const std::vector<uint64_t> &Bounds,
                                    MatchRecorder &Recorder,
                                    InputParallelStats *Stats,
                                    ThreadPool *Pool) const {
  const size_t NumChunks = Bounds.size() - 1;
  const uint64_t StreamEnd = Input.size();

  // Phase 1: chunk 0 scans normally from the start state; chunks 1..T-1
  // build per-start state maps (all results buffered — the user recorder
  // is only touched by the sequential join).
  std::vector<Match> LeadMatches;
  uint32_t LeadExit = 0;
  std::vector<ChunkStateMap> Maps(NumChunks);
  forEachChunk(Pool, NumChunks, [&](size_t I) {
    const uint64_t Base = Bounds[I];
    const std::string_view Chunk = Input.substr(Base, Bounds[I + 1] - Base);
    if (I == 0) {
      LeadExit = scanChunkFrom(P, 0, Chunk, Base, StreamEnd,
                               [&](uint32_t Rule, uint64_t End) {
                                 LeadMatches.emplace_back(Rule, End);
                               });
    } else {
      buildChunkStateMap(P, Chunk, Base, StreamEnd, Maps[I]);
    }
  });

  // Phase 2: thread the single live DFA state through the maps, emitting
  // each chunk's log chain — exactly the sequential match sequence.
  for (const Match &M : LeadMatches)
    Recorder.onMatch(M.first, M.second);
  if (Stats)
    Stats->IsoMatches += LeadMatches.size();
  uint32_t State = LeadExit;
  for (size_t I = 1; I < NumChunks; ++I) {
    const ChunkStateMap &Map = Maps[I];
    const uint64_t Base = Bounds[I];
    const std::string_view Chunk = Input.substr(Base, Bounds[I + 1] - Base);
    if (Map.Ok) {
      uint32_t C = State;
      size_t From = 0;
      uint64_t Emitted = 0;
      while (true) {
        const ChunkStateMap::Cls &Cls = Map.Classes[C];
        for (size_t L = From; L < Cls.Log.size(); ++L)
          Recorder.onMatch(Cls.Log[L].first, Cls.Log[L].second);
        Emitted += Cls.Log.size() - From;
        if (Cls.MergedInto == NoClass) {
          State = Cls.Exit;
          break;
        }
        From = Cls.MergedAtParentSize;
        C = Cls.MergedInto;
      }
      if (Stats) {
        Stats->CarryMatches += Emitted;
        Stats->MaxAliveClasses =
            std::max(Stats->MaxAliveClasses, Map.MaxAlive);
      }
    } else {
      // Collapse stalled: correct-but-serial re-scan of this chunk.
      uint64_t Emitted = 0;
      State = scanChunkFrom(P, State, Chunk, Base, StreamEnd,
                            [&](uint32_t Rule, uint64_t End) {
                              ++Emitted;
                              Recorder.onMatch(Rule, End);
                            });
      if (Stats) {
        Stats->CarryMatches += Emitted;
        ++Stats->RescanFallbackChunks;
        Stats->OverlapBytes += Chunk.size();
        Stats->MaxAliveClasses =
            std::max(Stats->MaxAliveClasses, Map.MaxAlive);
      }
    }
  }
}
