//===- InputParallel.cpp - input-parallel single-stream scanning -------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "engine/InputParallel.h"

#include "obs/Metrics.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <functional>
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

/// Sequential emission order: nondecreasing end offset, rule id within an
/// offset.
bool emitsBefore(const Match &A, const Match &B) {
  return A.second != B.second ? A.second < B.second : A.first < B.first;
}

/// Adds one scan's stats into the caller's: counters add up, peaks take the
/// maximum.
void accumulateStats(InputParallelStats &Into, const InputParallelStats &Scan) {
  Into.RescanFallbackChunks += Scan.RescanFallbackChunks;
  Into.OverlapBytes += Scan.OverlapBytes;
  Into.MaxCarryFrontier =
      std::max(Into.MaxCarryFrontier, Scan.MaxCarryFrontier);
  Into.MaxAliveClasses = std::max(Into.MaxAliveClasses, Scan.MaxAliveClasses);
  Into.IsoMatches += Scan.IsoMatches;
  Into.CarryMatches += Scan.CarryMatches;
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

void mfsa::runChunkScans(std::vector<std::unique_ptr<ChunkScan>> Scans,
                         ThreadPool *Pool, MatchRecorder &Recorder,
                         InputParallelStats *Stats) {
  // Per scan: a countdown of its current phase's unfinished tasks, and a
  // done flag the calling thread waits on.
  std::vector<std::atomic<size_t>> Pending(Scans.size());
  std::vector<std::atomic<bool>> Done(Scans.size());
  // Queues (without a pool, runs) Tasks tasks of scan G's current phase;
  // the task that brings the countdown to zero runs the join as its
  // continuation.
  std::function<void(size_t, size_t)> Start = [&](size_t G, size_t Tasks) {
    ChunkScan *S = Scans[G].get();
    Pending[G] = Tasks;
    for (size_t I = 0; I < Tasks; ++I) {
      auto Task = [&, S, G, I] {
        S->runTask(I);
        if (--Pending[G] != 0)
          return;
        if (const size_t Next = S->join())
          return Start(G, Next);
        Done[G] = true;
        Done[G].notify_one();
      };
      if (Pool)
        Pool->submit(Task);
      else
        Task();
    }
  };
  auto Forward = [&](size_t G) {
    Done[G].wait(false);
    Scans[G]->forward(Recorder);
    if (Stats)
      accumulateStats(*Stats, Scans[G]->Stats);
    Scans[G].reset();
  };
  for (size_t G = 0; G < Scans.size(); ++G) {
    Start(G, Scans[G]->numChunks());
    if (!Pool)
      Forward(G);
  }
  for (size_t G = 0; Pool && G < Scans.size(); ++G)
    Forward(G);
  // A finishing task may still be returning from its notify.
  if (Pool)
    Pool->wait();
}

//===----------------------------------------------------------------------===//
// iMFAnt backend
//===----------------------------------------------------------------------===//

namespace {

constexpr size_t UnlimitedCap = std::numeric_limits<size_t>::max();

class ImfantChunkScan final : public ChunkScan {
public:
  ImfantChunkScan(const ImfantEngine &Engine, std::string_view Input,
                  const std::vector<uint64_t> &Bounds)
      : ChunkScan(Input, Bounds), Engine(Engine), Iso(numChunks()) {}

  /// The iso scan: injection on, empty start, absolute offsets — exact for
  /// every match attempt that begins inside the chunk — sorted into
  /// emission order.
  void runTask(size_t I) override {
    MatchRecorder Out(MatchRecorder::Mode::Collect);
    Out.Cap = UnlimitedCap;
    ImfantEngine::Scanner Scan(Engine);
    Scan.startAt(Bounds[I]);
    Scan.feed(chunk(I), Out);
    if (flushesEnd(I))
      Scan.finish(Out);
    Iso[I].Exit = Scan.captureActivation();
    Iso[I].Matches = Out.takeMatches();
    std::sort(Iso[I].Matches.begin(), Iso[I].Matches.end(), emitsBefore);
  }

  /// The attempts that began before chunk I are the real boundary
  /// frontier, propagated with injection off. The scanner stops where that
  /// frontier dies, normally within bytes of the cut, so the join re-scans
  /// a whole chunk only while a carry stays alive across it. The chunk's
  /// exit is then the union of both exits.
  size_t join() override {
    ActivationSet Carry;
    for (size_t I = 0; I < numChunks(); ++I) {
      const uint64_t Base = Bounds[I];
      const std::string_view Chunk = chunk(I);
      std::vector<Match> &Joined = Iso[I].Matches;
      Stats.IsoMatches += Joined.size();
      ActivationSet CarryExit;
      if (!Carry.empty()) {
        ImfantEngine::Scanner Scan(Engine);
        Scan.startAt(Base);
        Scan.setInjection(false);
        Scan.seedActivation(Carry);
        MatchRecorder Out(MatchRecorder::Mode::Collect);
        Out.Cap = UnlimitedCap;
        RunStats CarryStats;
        Scan.feed(Chunk, Out, &CarryStats);
        const bool Alive = !Chunk.empty() && !Scan.frontierEmpty();
        if (flushesEnd(I))
          Scan.finish(Out);
        CarryExit = Scan.captureActivation();
        Stats.CarryMatches += Out.matches().size();
        Stats.OverlapBytes += Scan.offset() - Base;
        Stats.RescanFallbackChunks += Alive;
        Stats.MaxCarryFrontier =
            std::max(Stats.MaxCarryFrontier, CarryStats.MaxFrontier);
        const size_t Mid = Joined.size();
        Joined.insert(Joined.end(), Out.matches().begin(), Out.matches().end());
        std::sort(Joined.begin() + Mid, Joined.end(), emitsBefore);
        std::inplace_merge(Joined.begin(), Joined.begin() + Mid, Joined.end(),
                           emitsBefore);
      }
      // Per-chunk (rule, end) dedup across the iso scan and the carry — the
      // sequential engine's per-step dedup, reconstructed at the join.
      Joined.erase(std::unique(Joined.begin(), Joined.end()), Joined.end());
      Carry = unionActivations(Iso[I].Exit, CarryExit);
      Iso[I].Exit = {};
    }
    return 0;
  }

  void forward(MatchRecorder &Recorder) override {
    for (const IsoScan &Chunk : Iso)
      for (const auto &[Rule, End] : Chunk.Matches)
        Recorder.onMatch(Rule, End);
  }

private:
  /// A chunk's iso matches (joined in place) and its iso exit activation.
  struct IsoScan {
    std::vector<Match> Matches;
    ActivationSet Exit;
  };

  const ImfantEngine &Engine;
  std::vector<IsoScan> Iso;
};

} // namespace

std::unique_ptr<ChunkScan>
mfsa::makeChunkScan(const ImfantEngine &Engine, std::string_view Input,
                    const std::vector<uint64_t> &Bounds) {
  return std::make_unique<ImfantChunkScan>(Engine, Input, Bounds);
}

//===----------------------------------------------------------------------===//
// DFA-family backend
//===----------------------------------------------------------------------===//

namespace {

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

template <class EngineT>
void buildChunkStateMap(const EngineT &E, std::string_view Chunk,
                        uint64_t Base, uint64_t StreamEnd, ChunkStateMap &M) {
  const uint32_t N = E.automaton().NumStates;
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
      Cur[C] = E.scan(Cur[C], Chunk.substr(Pos), Base + Pos, StreamEnd,
                      [&](uint32_t Rule, uint64_t End) {
                        M.Classes[C].Log.emplace_back(Rule, End);
                      });
      M.Classes[C].Exit = Cur[C];
      M.Ok = true;
      return;
    }
    // Every class sits at the same offset, so each step consumes the same
    // byte count (a stride-2 pair or half-step is chosen by offset alone).
    size_t Len = 0;
    ++Epoch;
    for (uint32_t C : Alive)
      Len = E.step(Cur[C], Chunk, Pos, Base, [&](uint32_t Rule, uint64_t End) {
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
      E.emitAtEnd(Cur[C], StreamEnd, [&](uint32_t Rule, uint64_t End) {
        M.Classes[C].Log.emplace_back(Rule, End);
      });
  for (uint32_t C : Alive)
    M.Classes[C].Exit = Cur[C];
  M.Ok = true;
}

/// Walks \p Map's merge chain from start state \p C, handing each class's
/// log tail to Segment(Log, From) in emission order. \returns the exit
/// state.
template <class SegmentT>
uint32_t walkChain(const ChunkStateMap &Map, uint32_t C, SegmentT &&Segment) {
  for (size_t From = 0;; C = Map.Classes[C].MergedInto) {
    const ChunkStateMap::Cls &Cls = Map.Classes[C];
    Segment(Cls.Log, From);
    if (Cls.MergedInto == NoClass)
      return Cls.Exit;
    From = Cls.MergedAtParentSize;
  }
}

/// The DFA-family executor over \p E's step()/scan().
template <class EngineT> class DfaChunkScan final : public ChunkScan {
public:
  DfaChunkScan(const EngineT &E, std::string_view Input,
               const std::vector<uint64_t> &Bounds)
      : ChunkScan(Input, Bounds), E(E), Maps(numChunks()),
        Entry(numChunks(), 0) {}

  /// Chunk 0 scans normally from the start state; chunks 1..T-1 build
  /// per-start state maps.
  void runTask(size_t I) override {
    if (I == 0)
      scanFrom(0, 0);
    else
      buildChunkStateMap(E, chunk(I), Bounds[I], Input.size(), Maps[I]);
  }

  /// Threads the single live DFA state through the maps: each chunk's entry
  /// state picks its class, whose log chain is exactly the sequential match
  /// sequence and whose exit enters the next chunk.
  size_t join() override {
    Stats.IsoMatches += Maps[0].Classes[0].Log.size();
    uint32_t State = Maps[0].Classes[0].Exit;
    for (size_t I = 1; I < numChunks(); ++I) {
      Stats.MaxAliveClasses = std::max(Stats.MaxAliveClasses, Maps[I].MaxAlive);
      if (Maps[I].Ok) {
        Entry[I] = State;
      } else {
        // Collapse stalled: correct-but-serial re-scan of this chunk.
        scanFrom(I, State);
        ++Stats.RescanFallbackChunks;
        Stats.OverlapBytes += chunk(I).size();
      }
      State = walkChain(Maps[I], Entry[I],
                        [&](const std::vector<Match> &Log, size_t From) {
                          Stats.CarryMatches += Log.size() - From;
                        });
    }
    return 0;
  }

  void forward(MatchRecorder &Recorder) override {
    for (size_t I = 0; I < numChunks(); ++I)
      walkChain(Maps[I], Entry[I],
                [&](const std::vector<Match> &Log, size_t From) {
                  for (size_t L = From; L < Log.size(); ++L)
                    Recorder.onMatch(Log[L].first, Log[L].second);
                });
  }

private:
  /// Replaces chunk \p I's map by one class: the sequential scan from
  /// \p State.
  void scanFrom(size_t I, uint32_t State) {
    ChunkStateMap &Map = Maps[I];
    Map.Classes.assign(1, {});
    std::vector<Match> &Log = Map.Classes[0].Log;
    Map.Classes[0].Exit = E.scan(
        State, chunk(I), Bounds[I], Input.size(),
        [&](uint32_t Rule, uint64_t End) { Log.emplace_back(Rule, End); });
    Map.Ok = true;
  }

  const EngineT &E;
  std::vector<ChunkStateMap> Maps;
  std::vector<uint32_t> Entry; ///< The class each chunk is entered in.
};

} // namespace

std::unique_ptr<ChunkScan>
mfsa::makeChunkScan(const DfaEngine &Engine, std::string_view Input,
                    const std::vector<uint64_t> &Bounds) {
  return std::make_unique<DfaChunkScan<DfaEngine>>(Engine, Input, Bounds);
}

std::unique_ptr<ChunkScan>
mfsa::makeChunkScan(const StridedDfaEngine &Engine, std::string_view Input,
                    const std::vector<uint64_t> &Bounds) {
  return std::make_unique<DfaChunkScan<StridedDfaEngine>>(Engine, Input,
                                                          Bounds);
}
