//===- Prefilter.cpp - literal-prefiltered ruleset matcher ---------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "engine/Prefilter.h"

#include "mfsa/Merge.h"
#include "obs/Metrics.h"

#include <algorithm>

using namespace mfsa;

PrefilterEngine::PrefilterEngine(std::vector<GatedRule> Rules) {
  std::vector<std::string> LiteralList;
  for (GatedRule &Rule : Rules) {
    PrefilteredRule Gated;
    Gated.MaxMatchLength = Rule.MaxMatchLength;
    Gated.Confirm = std::make_unique<ImfantEngine>(
        mergeFsas({std::move(Rule.Fsa)}, {Rule.GlobalId}));
    PrefilteredRules.push_back(std::move(Gated));
    LiteralList.push_back(std::move(Rule.Literal));
  }
  if (!LiteralList.empty())
    Literals = std::make_unique<AhoCorasick>(LiteralList);
}

void PrefilterEngine::setMetrics(obs::MetricsRegistry *Registry) {
  if (!Registry) {
    Metrics = ScanMetricHandles{};
    return;
  }
  Metrics.Bytes = &Registry->counter("prefilter.bytes_scanned");
  Metrics.LiteralHits = &Registry->counter("prefilter.literal_hits");
  Metrics.Windows = &Registry->counter("prefilter.windows");
  Metrics.WindowBytes = &Registry->counter("prefilter.window_bytes");
  Metrics.WindowsConfirmed = &Registry->counter("prefilter.windows_confirmed");
  Metrics.WindowsDropped = &Registry->counter("prefilter.windows_dropped");
  Metrics.Matches = &Registry->counter("prefilter.matches");
  Metrics.WindowLen =
      &Registry->histogram("prefilter.window_len", obs::pow2Buckets(20));
  Registry->gauge("prefilter.prefiltered_rules")
      .set(static_cast<int64_t>(PrefilteredRules.size()));
  // 1 when the literal stage's root-skip fast path is active (at most
  // AhoCorasick::kMaxRootNeedles distinct literal start bytes).
  Registry->gauge("prefilter.literal_root_skip")
      .set(Literals && Literals->rootSkipEnabled() ? 1 : 0);
}

std::vector<PrefilterEngine::ConfirmWindow> PrefilterEngine::coalesceWindows(
    const std::vector<std::vector<size_t>> &Hits, size_t InputSize) const {
  std::vector<ConfirmWindow> Windows;
  for (size_t RuleIdx = 0; RuleIdx < Hits.size(); ++RuleIdx) {
    const std::vector<size_t> &RuleHits = Hits[RuleIdx];
    const size_t Reach = PrefilteredRules[RuleIdx].MaxMatchLength;
    auto WindowBegin = [Reach](size_t Hit) {
      return Hit > Reach ? Hit - Reach : 0;
    };
    size_t Cursor = 0;
    while (Cursor < RuleHits.size()) {
      const size_t Begin = WindowBegin(RuleHits[Cursor]);
      size_t End = std::min(InputSize, RuleHits[Cursor] + Reach);
      ++Cursor;
      while (Cursor < RuleHits.size() && WindowBegin(RuleHits[Cursor]) <= End) {
        End = std::min(InputSize, RuleHits[Cursor] + Reach);
        ++Cursor;
      }
      Windows.push_back({static_cast<uint32_t>(RuleIdx), Begin, End});
    }
  }
  return Windows;
}

bool PrefilterEngine::confirm(const ConfirmWindow &W, std::string_view Input,
                              ConfirmScratch &Scratch,
                              std::vector<Match> &Out) const {
  if (Scratch.Scan && Scratch.RuleIdx == W.RuleIdx) {
    Scratch.Scan->reset();
  } else {
    Scratch.Scan.emplace(*PrefilteredRules[W.RuleIdx].Confirm);
    Scratch.RuleIdx = W.RuleIdx;
  }
  MatchRecorder &Window = Scratch.Window;
  Window.clearMatches();
  Scratch.Scan->feed(Input.substr(W.Begin, W.End - W.Begin), Window);
  Scratch.Scan->finish(Window);
  for (const auto &[GlobalId, Offset] : Window.matches())
    Out.emplace_back(GlobalId, W.Begin + Offset);
  return !Window.matches().empty();
}

void PrefilterEngine::recordScan(
    size_t Bytes, const std::vector<std::vector<size_t>> &Hits,
    const std::vector<ConfirmWindow> &Windows, uint64_t WindowsConfirmed,
    uint64_t Matches) const {
#if MFSA_METRICS_ENABLED
  if (!Metrics.Bytes)
    return;
  uint64_t LiteralHits = 0, WindowBytes = 0;
  for (const std::vector<size_t> &RuleHits : Hits)
    LiteralHits += RuleHits.size();
  for (const ConfirmWindow &W : Windows) {
    WindowBytes += W.End - W.Begin;
    Metrics.WindowLen->observe(W.End - W.Begin);
  }
  Metrics.Bytes->add(Bytes);
  Metrics.LiteralHits->add(LiteralHits);
  Metrics.Windows->add(Windows.size());
  Metrics.WindowBytes->add(WindowBytes);
  Metrics.WindowsConfirmed->add(WindowsConfirmed);
  Metrics.WindowsDropped->add(Windows.size() - WindowsConfirmed);
  Metrics.Matches->add(Matches);
#else
  (void)Bytes;
  (void)Hits;
  (void)Windows;
  (void)WindowsConfirmed;
  (void)Matches;
#endif
}

void PrefilterEngine::run(std::string_view Input,
                          MatchRecorder &Recorder) const {
  const uint64_t MatchesBefore = Recorder.total();

  // Literal scan, collecting hit end-offsets per prefiltered rule.
  std::vector<std::vector<size_t>> Hits(PrefilteredRules.size());
  if (Literals)
    Literals->scan(Input, [&](uint32_t RuleIdx, size_t EndOffset) {
      Hits[RuleIdx].push_back(EndOffset);
    });

  // Confirm every coalesced window with its rule's own automaton.
  const std::vector<ConfirmWindow> Windows =
      coalesceWindows(Hits, Input.size());
  uint64_t Confirmed = 0;
  ConfirmScratch Scratch;
  std::vector<Match> Found;
  for (const ConfirmWindow &W : Windows) {
    Found.clear();
    Confirmed += confirm(W, Input, Scratch, Found);
    for (const Match &M : Found)
      Recorder.onMatch(M.first, M.second);
  }
  recordScan(Input.size(), Hits, Windows, Confirmed,
             Recorder.total() - MatchesBefore);
}

/// The gate's ChunkScan: phase 0 is the literal scan, one slice per
/// chunk; its join coalesces the windows and opens phase 1, one confirm run
/// per chunk.
class PrefilterEngine::GateScan final : public ChunkScan {
public:
  GateScan(const PrefilterEngine &Gate, std::string_view Input,
           const std::vector<uint64_t> &Bounds)
      : ChunkScan(Input, Bounds), Gate(Gate), SliceHits(numChunks()),
        Runs(numChunks()) {}

  void runTask(size_t I) override {
    if (Confirming) {
      ConfirmScratch Scratch;
      for (size_t W = RunBegin[I]; W < RunBegin[I + 1]; ++W)
        Runs[I].Confirmed +=
            Gate.confirm(Windows[W], Input, Scratch, Runs[I].Matches);
      return;
    }
    // A slice starts Lmax - 1 bytes early so it sees every literal ending
    // inside its chunk, and keeps only those: an occurrence ending at a cut
    // belongs to the chunk on its left.
    const AhoCorasick *Literals = Gate.Literals.get();
    std::vector<std::vector<size_t>> &Hits = SliceHits[I];
    Hits.resize(Gate.PrefilteredRules.size());
    const size_t Lo = Bounds[I];
    const size_t Hi = Bounds[I + 1];
    if (!Literals || Lo == Hi)
      return;
    const size_t Lead = Literals->maxLiteralLength() - 1;
    const size_t From = Lo > Lead ? Lo - Lead : 0;
    Literals->scan(Input.substr(From, Hi - From),
                   [&](uint32_t RuleIdx, size_t EndOffset) {
                     if (From + EndOffset > Lo)
                       Hits[RuleIdx].push_back(From + EndOffset);
                   });
  }

  size_t join() override {
    if (Confirming)
      return 0;
    // Slices ascend and each keeps its hits sorted, so concatenating them
    // in slice order gives exactly the sequential per-rule hit lists.
    Hits.resize(Gate.PrefilteredRules.size());
    for (std::vector<std::vector<size_t>> &Slice : SliceHits)
      for (size_t RuleIdx = 0; RuleIdx < Slice.size(); ++RuleIdx)
        Hits[RuleIdx].insert(Hits[RuleIdx].end(), Slice[RuleIdx].begin(),
                             Slice[RuleIdx].end());
    SliceHits.clear();
    Windows = Gate.coalesceWindows(Hits, Input.size());

    // The windows are cut into one contiguous run per chunk, of about equal
    // cost (bytes plus a fixed per-window charge for resetting the scanner
    // and collecting its matches, measured at 35-65 ns against 10-20 ns
    // per byte on the Table I gates on x86-64); each run collects its
    // matches privately.
    constexpr uint64_t WindowSetupBytes = 4;
    auto Cost = [](const ConfirmWindow &W) {
      return W.End - W.Begin + WindowSetupBytes;
    };
    const size_t NumRuns = numChunks();
    uint64_t TotalCost = 0;
    for (const ConfirmWindow &W : Windows)
      TotalCost += Cost(W);
    RunBegin.assign(NumRuns + 1, Windows.size());
    RunBegin[0] = 0;
    uint64_t Acc = 0;
    for (size_t W = 0, Next = 1; W < Windows.size() && Next < NumRuns; ++W) {
      Acc += Cost(Windows[W]);
      while (Next < NumRuns && Acc * NumRuns >= TotalCost * Next)
        RunBegin[Next++] = W + 1;
    }
    Confirming = true;
    return NumRuns;
  }

  /// Replays the runs in order, which is run()'s rule and window order.
  void forward(MatchRecorder &Recorder) override {
    uint64_t Confirmed = 0, Matches = 0;
    for (const ConfirmRun &Run : Runs) {
      Confirmed += Run.Confirmed;
      Matches += Run.Matches.size();
      for (const Match &M : Run.Matches)
        Recorder.onMatch(M.first, M.second);
    }
    Gate.recordScan(Input.size(), Hits, Windows, Confirmed, Matches);
  }

private:
  struct ConfirmRun {
    std::vector<Match> Matches;
    uint64_t Confirmed = 0;
  };

  const PrefilterEngine &Gate;
  /// Phase 1 runs the confirm runs; set by phase 0's join.
  bool Confirming = false;
  std::vector<std::vector<std::vector<size_t>>> SliceHits;
  std::vector<std::vector<size_t>> Hits;
  std::vector<ConfirmWindow> Windows;
  std::vector<size_t> RunBegin;
  std::vector<ConfirmRun> Runs;
};

std::unique_ptr<ChunkScan>
mfsa::makeChunkScan(const PrefilterEngine &Gate, std::string_view Input,
                    const std::vector<uint64_t> &Bounds) {
  return std::make_unique<PrefilterEngine::GateScan>(Gate, Input, Bounds);
}
