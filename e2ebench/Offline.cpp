//===- Offline.cpp - offline_table1: rules text to matches ----------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's own evaluation over the six Table I datasets. Set-up, per
/// dataset: compileRuleset at M=1, planRuleset with nproc input threads,
/// mergeInGroups at the plan's M, writeArtifactFile then loadArtifact and
/// materializeAll, and PlannedEngineSet::create over the loaded MFSAs.
/// Scanning, per dataset: a seeded 1 MiB stream through run(), then through
/// runInputParallel on a pool of nproc threads when the plan accepts input
/// parallelism (otherwise run() is the T=nproc path too). Untraced runs set
/// up three times and scan for a third of --seconds after each set-up.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "artifact/Reader.h"
#include "artifact/Writer.h"
#include "compiler/Pipeline.h"
#include "engine/PlannedEngine.h"
#include "fsa/Reference.h"
#include "support/Timer.h"
#include "workload/Datasets.h"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <utility>

using namespace mfsa;

namespace e2e {
namespace {

constexpr size_t kStreamBytes = size_t(1) << 20;
/// simulateNfa steps every rule's ε-NFA on its own, far slower than the
/// engines; this prefix keeps the oracle check to seconds over the six
/// datasets while still covering tens of matches in each.
constexpr size_t kOraclePrefixBytes = size_t(2) << 10;
/// Dense work counts (transitions per byte) come from this stream prefix:
/// the prefilter plans run one MFSA per rule, and scanning the whole stream
/// through hundreds of dense engines would take longer than the workload.
constexpr size_t kWorkPrefixBytes = size_t(64) << 10;
/// Timed input-parallel scans per dataset in a traced run.
constexpr int kParallelReps = 3;
/// Untraced runs set up this many times and report the median.
constexpr int kSetupPasses = 3;

using MatchList = std::vector<std::pair<uint32_t, uint64_t>>;

MatchList sortedMatches(const MatchRecorder &Rec) {
  MatchList Matches = Rec.matches();
  std::sort(Matches.begin(), Matches.end());
  return Matches;
}

struct Dataset {
  const DatasetSpec *Spec = nullptr;
  std::vector<std::string> Rules;
  std::string Stream;
};

/// Set-up steps 1-5 for one dataset, with the wall time of each.
struct Prepared {
  CompileArtifacts Compiled;
  EnginePlan Plan;
  std::vector<Mfsa> Merged;
  std::optional<PlannedEngineSet> Engines; ///< Built from the loaded artifact.
  uint64_t ArtifactBytes = 0;
  double CompileMs = 0, PlanMs = 0, MergeMs = 0, WriteMs = 0, LoadMs = 0,
         BuildMs = 0;

  double setupMs() const {
    return CompileMs + PlanMs + MergeMs + WriteMs + LoadMs + BuildMs;
  }
};

/// Per dataset: merged states, merged transitions and artifact bytes, which
/// every set-up of one seed must reproduce exactly.
std::vector<uint64_t> setupCounts(const std::vector<Prepared> &All) {
  std::vector<uint64_t> Counts;
  for (const Prepared &P : All) {
    uint64_t States = 0, Transitions = 0;
    for (const Mfsa &Z : P.Merged) {
      States += Z.numStates();
      Transitions += Z.numTransitions();
    }
    Counts.insert(Counts.end(), {States, Transitions, P.ArtifactBytes});
  }
  return Counts;
}

InputParallelOptions parallelOptions(const RunConfig &Cfg) {
  InputParallelOptions Opts;
  Opts.Threads = Cfg.Nproc;
  Opts.UseThreadPool = true;
  return Opts;
}

/// Throughput of the fastest scan in \p Ns.
double mbPerSec(const std::vector<double> &Ns, size_t Bytes) {
  return double(Bytes) * 1e3 / fastest(Ns);
}

std::optional<Prepared> prepare(const Dataset &D, uint64_t Index,
                                const RunConfig &Cfg, TraceLog &Log,
                                Outcome &Out) {
  const std::string &Tag = D.Spec->Abbrev;
  Prepared P;
  {
    auto Tr = Log.span("compiler", "compileRuleset", Index);
    Timer T;
    CompileOptions Opts;
    Opts.MergingFactor = 1;
    Opts.EmitAnml = false;
    Result<CompileArtifacts> Compiled = compileRuleset(D.Rules, Opts);
    P.CompileMs = T.elapsedMs();
    if (!Compiled) {
      Out.check(false, Tag + ": compile: " + Compiled.diag().render());
      return std::nullopt;
    }
    P.Compiled = Compiled.take();
  }
  {
    auto Tr = Log.span("analysis", "planRuleset", Index);
    Timer T;
    PlannerOptions Opts;
    Opts.InputThreads = Cfg.Nproc;
    P.Plan = planRuleset(P.Compiled.OptimizedFsas,
                         P.Compiled.CompiledRuleIds, D.Rules, Opts);
    P.PlanMs = T.elapsedMs();
  }
  {
    auto Tr = Log.span("mfsa", "mergeInGroups", Index);
    Timer T;
    P.Merged = mergeInGroups(P.Compiled.OptimizedFsas, P.Plan.MergingFactor);
    P.MergeMs = T.elapsedMs();
  }
  const std::string Path = Cfg.WorkDir + "/" + Tag + ".mfsa";
  {
    auto Tr = Log.span("artifact", "writeArtifactFile", Index);
    Timer T;
    artifact::ArtifactWriteOptions Opts;
    Opts.MergingFactor = P.Plan.MergingFactor;
    Result<uint64_t> Bytes =
        artifact::writeArtifactFile(Path, P.Merged, D.Rules, Opts);
    P.WriteMs = T.elapsedMs();
    if (!Bytes) {
      Out.check(false, Tag + ": write artifact: " + Bytes.diag().render());
      return std::nullopt;
    }
    P.ArtifactBytes = *Bytes;
  }
  std::vector<Mfsa> Loaded;
  std::vector<std::string> Patterns;
  {
    auto Tr = Log.span("artifact", "loadArtifact", Index);
    Timer T;
    Result<artifact::LoadedArtifact> Image = artifact::loadArtifact(Path);
    if (!Image) {
      Out.check(false, Tag + ": load artifact: " + Image.diag().render());
      return std::nullopt;
    }
    Loaded = Image->materializeAll();
    Patterns = Image->patterns();
    P.LoadMs = T.elapsedMs();
  }
  {
    auto Tr = Log.span("engine", "PlannedEngineSet::create", Index);
    Timer T;
    Result<PlannedEngineSet> Engines =
        PlannedEngineSet::create(P.Plan.Choice, Loaded, Patterns);
    P.BuildMs = T.elapsedMs();
    if (!Engines) {
      Out.check(false, Tag + ": build engines: " + Engines.diag().render());
      return std::nullopt;
    }
    P.Engines.emplace(Engines.take());
  }
  Out.check(true, "");
  return P;
}

/// One set-up of every dataset; empty when a step failed (counted in Out).
std::vector<Prepared> setUp(const std::vector<Dataset> &Data,
                            const RunConfig &Cfg, TraceLog &Log,
                            Outcome &Out) {
  std::vector<Prepared> All;
  for (size_t I = 0; I < Data.size(); ++I) {
    std::optional<Prepared> P = prepare(Data[I], I, Cfg, Log, Out);
    if (!P)
      return {};
    All.push_back(std::move(*P));
  }
  return All;
}

/// The checks run before timing. On a stream prefix the planned engines must
/// match simulateNfa over the stage-2 ε-NFAs, which bypasses the optimizer,
/// merger, planner, artifact and engines. On the whole stream T=1, T=nproc
/// and engines built from the in-memory MFSAs must agree. \returns the
/// stream's match count, which every timed scan must reproduce.
uint64_t checkDataset(const Dataset &D, const Prepared &P,
                      const RunConfig &Cfg, Outcome &Out) {
  const std::string &Tag = D.Spec->Abbrev;
  const std::string_view Prefix(D.Stream.data(),
                                std::min(kOraclePrefixBytes, D.Stream.size()));
  MatchList Oracle;
  for (size_t I = 0; I < P.Compiled.RawFsas.size(); ++I)
    for (size_t End : simulateNfa(P.Compiled.RawFsas[I], Prefix))
      Oracle.emplace_back(P.Compiled.CompiledRuleIds[I], End);
  std::sort(Oracle.begin(), Oracle.end());
  MatchRecorder PrefixRec(MatchRecorder::Mode::Collect);
  P.Engines->run(Prefix, PrefixRec);
  Out.check(sortedMatches(PrefixRec) == Oracle,
            Tag + ": planned engines differ from the ε-NFA oracle on the "
                  "stream prefix");

  MatchRecorder Seq(MatchRecorder::Mode::Collect);
  MatchRecorder Par(MatchRecorder::Mode::Collect);
  MatchRecorder Mem(MatchRecorder::Mode::Collect);
  P.Engines->run(D.Stream, Seq);
  P.Engines->runInputParallel(D.Stream, Par, parallelOptions(Cfg));
  Result<PlannedEngineSet> InMemory =
      PlannedEngineSet::create(P.Plan.Choice, P.Merged, D.Rules);
  if (InMemory)
    InMemory->run(D.Stream, Mem);
  const MatchList Want = sortedMatches(Seq);
  Out.check(Want.size() == Seq.total(), Tag + ": match list truncated");
  Out.check(sortedMatches(Par) == Want,
            Tag + ": T=" + std::to_string(Cfg.Nproc) +
                " scan differs from T=1");
  Out.check(InMemory.ok() && sortedMatches(Mem) == Want,
            Tag + ": artifact-loaded engines differ from in-memory ones");
  return Seq.total();
}

/// Scan times per dataset, in ns.
struct ScanSamples {
  std::vector<std::vector<double>> Seq, Par;
};

/// Round-robin over the datasets, appending to \p S: a T=1 run(), then the
/// T=nproc scan when the plan accepts input parallelism. A declined plan's
/// T=nproc path is run() itself, so its T=1 time is its T=nproc sample too,
/// which doubles the samples a window holds. With \p Rounds 0 it runs until
/// \p Seconds have passed (at least one round), else exactly \p Rounds
/// rounds. \returns the rounds run.
int scan(const std::vector<Dataset> &Data, const std::vector<Prepared> &Prep,
         const std::vector<uint64_t> &Matches, const RunConfig &Cfg,
         double Seconds, int Rounds, TraceLog &Log, Outcome &Out,
         ScanSamples &S) {
  S.Seq.resize(Data.size());
  S.Par.resize(Data.size());
  const InputParallelOptions Opts = parallelOptions(Cfg);
  const uint64_t Start = nowNs();
  for (int Round = 0;; ++Round) {
    const bool Done =
        Rounds > 0 ? Round >= Rounds
                   : Round > 0 && double(nowNs() - Start) * 1e-9 >= Seconds;
    if (Done)
      return Round;
    for (size_t I = 0; I < Data.size(); ++I) {
      const Prepared &P = Prep[I];
      MatchRecorder SeqRec;
      const uint64_t T0 = nowNs();
      {
        auto Tr = Log.span("engine", "run", I);
        P.Engines->run(Data[I].Stream, SeqRec);
      }
      const double SeqNs = double(nowNs() - T0);
      S.Seq[I].push_back(SeqNs);
      uint64_t ParTotal = SeqRec.total();
      if (P.Plan.ParallelInput) {
        MatchRecorder ParRec;
        const uint64_t T1 = nowNs();
        {
          auto Tr = Log.span("input_parallel", "runInputParallel", I);
          P.Engines->runInputParallel(Data[I].Stream, ParRec, Opts);
        }
        S.Par[I].push_back(double(nowNs() - T1));
        ParTotal = ParRec.total();
      } else {
        S.Par[I].push_back(SeqNs);
      }
      Out.check(SeqRec.total() == Matches[I] && ParTotal == Matches[I],
                "a timed scan's match count differs from the checked one");
    }
  }
}

std::string describe(const Dataset &D, const Prepared &P,
                     const std::vector<double> &SeqNs,
                     const std::vector<double> &ParNs, uint64_t Matches) {
  const double Bytes = double(D.Stream.size());
  char Buf[448];
  std::snprintf(Buf, sizeof Buf,
                "%s: plan %s M=%u groups=%zu input-parallel %s; set-up %.0f ms "
                "(plan %.0f ms); T=1 fastest %.2f MB/s, median %.2f MB/s; T=n "
                "fastest %.2f MB/s, median %.2f MB/s; %zu scans each; %llu "
                "matches",
                D.Spec->Abbrev.c_str(), engineName(P.Plan.Choice),
                P.Plan.MergingFactor, P.Merged.size(),
                P.Plan.ParallelInput ? "accepted" : "declined", P.setupMs(),
                P.PlanMs, mbPerSec(SeqNs, D.Stream.size()),
                Bytes * 1e3 / median(SeqNs), mbPerSec(ParNs, D.Stream.size()),
                Bytes * 1e3 / median(ParNs), SeqNs.size(),
                static_cast<unsigned long long>(Matches));
  return Buf;
}

/// Per-layer metrics of a traced pass (README.md maps each one to the
/// end-to-end metric it should move).
void addLayers(const std::vector<Dataset> &Data,
               const std::vector<Prepared> &Prep, const ScanSamples &S,
               const std::vector<uint64_t> &Matches, Outcome &Out) {
  std::map<std::string, double> &L = Out.Layers;
  double WriteMs = 0, LoadMs = 0, Bytes = 0, Declined = 0;
  for (size_t I = 0; I < Data.size(); ++I) {
    const Prepared &P = Prep[I];
    const std::string &DS = Data[I].Spec->Abbrev;
    const double Size = double(Data[I].Stream.size());
    uint64_t States = 0, Transitions = 0;
    for (const Mfsa &Z : P.Merged) {
      States += Z.numStates();
      Transitions += Z.numTransitions();
    }
    const double SeqNs = fastest(S.Seq[I]) / Size;
    L["analysis." + DS + ".plan_ms"] = P.PlanMs;
    L["compiler." + DS + ".compile_ms"] = P.CompileMs;
    L["mfsa." + DS + ".merged_states"] = double(States);
    L["mfsa." + DS + ".merged_transitions"] = double(Transitions);
    L["engine." + DS + ".build_ms"] = P.BuildMs;
    L["engine." + DS + ".ns_per_byte"] = SeqNs;
    if (const CandidatePlan *Chosen = P.Plan.chosen())
      L["engine." + DS + ".plan_drift"] = Chosen->BestNsPerByte / SeqNs;
    L["engine." + DS + ".matches"] = double(Matches[I]);
    Declined += P.Plan.ParallelInput ? 0 : 1;
    WriteMs += P.WriteMs;
    LoadMs += P.LoadMs;
    Bytes += double(P.ArtifactBytes);
  }
  L["artifact.write_ms"] = WriteMs;
  L["artifact.load_ms"] = LoadMs;
  L["artifact.bytes"] = Bytes;
  L["input_parallel.planner_declined"] = Declined;
}

} // namespace

Outcome runOffline(const RunConfig &Cfg) {
  Outcome Out;
  std::vector<Dataset> Data;
  for (const DatasetSpec &Spec : standardDatasets()) {
    Dataset D;
    D.Spec = &Spec;
    D.Rules = generateRuleset(Spec);
    D.Stream = generateStream(Spec, D.Rules, kStreamBytes, Cfg.Seed);
    Data.push_back(std::move(D));
  }

  // The untraced pass: each set-up is followed by an equal share of the scan
  // window, so that the scans span the whole run and meet the host's fast
  // phases (Bench.h, fastest()). A traced run sets up once here, so that
  // this pass's wall time compares with the traced pass below.
  TraceLog Untraced(false, 0);
  const int Passes = Cfg.Trace ? 1 : kSetupPasses;
  std::vector<double> SetupMs;
  std::vector<Prepared> Prep;
  std::vector<uint64_t> Matches;
  ScanSamples Scans;
  int Rounds = 0;
  double UntracedWallMs = 0;
  for (int I = 0; I < Passes; ++I) {
    const uint64_t T0 = nowNs();
    std::vector<Prepared> Pass = setUp(Data, Cfg, Untraced, Out);
    const double SetupWallMs = double(nowNs() - T0) * 1e-6;
    if (Pass.empty())
      return Out;
    double Ms = 0;
    for (const Prepared &P : Pass)
      Ms += P.setupMs();
    SetupMs.push_back(Ms);
    if (!Prep.empty())
      Out.check(setupCounts(Pass) == setupCounts(Prep),
                "deterministic counts differ between set-ups of one seed");
    Prep = std::move(Pass);
    if (Matches.empty())
      for (size_t D = 0; D < Data.size(); ++D)
        Matches.push_back(checkDataset(Data[D], Prep[D], Cfg, Out));
    const uint64_t ScanStart = nowNs();
    Rounds += scan(Data, Prep, Matches, Cfg, Cfg.Seconds / Passes, 0,
                   Untraced, Out, Scans);
    UntracedWallMs = SetupWallMs + double(nowNs() - ScanStart) * 1e-6;
  }

  for (size_t I = 0; I < Data.size(); ++I)
    Out.Notes.push_back(describe(Data[I], Prep[I], Scans.Seq[I],
                                 Scans.Par[I], Matches[I]));

  if (!Cfg.Trace) {
    std::vector<double> Seq, Par;
    for (size_t I = 0; I < Data.size(); ++I) {
      Seq.push_back(mbPerSec(Scans.Seq[I], Data[I].Stream.size()));
      Par.push_back(mbPerSec(Scans.Par[I], Data[I].Stream.size()));
    }
    Out.EndToEnd["setup_s"] = median(SetupMs) / 1e3;
    Out.EndToEnd["scan_mb_s"] = geomean(Seq);
    Out.EndToEnd["scan_par_mb_s"] = geomean(Par);
    Out.EndToEnd["peak_rss_mb"] = peakRssMb();
    Out.Notes.push_back("set-ups " + std::to_string(SetupMs.size()) +
                        ", scan rounds " + std::to_string(Rounds) +
                        ", T=" + std::to_string(Cfg.Nproc));
    return Out;
  }

  // The traced pass: the same set-up and scan rounds, with spans.
  TraceLog Log(true, 0);
  std::vector<Prepared> Traced;
  ScanSamples TracedScans;
  const uint64_t TracedStart = nowNs();
  {
    auto Root = Log.span("bench", "offline_table1");
    Traced = setUp(Data, Cfg, Log, Out);
    if (!Traced.empty())
      scan(Data, Traced, Matches, Cfg, 0, Rounds, Log, Out, TracedScans);
  }
  const double TracedWallMs = double(nowNs() - TracedStart) * 1e-6;
  if (Traced.empty())
    return Out;
  Out.check(setupCounts(Traced) == setupCounts(Prep),
            "deterministic counts differ between two passes of one seed");
  addLayers(Data, Traced, TracedScans, Matches, Out);

  std::vector<const std::vector<std::string> *> Rulesets;
  for (const Dataset &D : Data)
    Rulesets.push_back(&D.Rules);
  addCompileSplit(Rulesets, 1, Out);

  uint64_t Chunks = 0, Fallbacks = 0, Overlap = 0;
  double ParallelMb = 0;
  for (size_t I = 0; I < Data.size(); ++I) {
    const std::string &DS = Data[I].Spec->Abbrev;
    const std::string_view Prefix(
        Data[I].Stream.data(), std::min(kWorkPrefixBytes, Data[I].Stream.size()));
    const DenseWork A = denseWork(Prep[I].Merged, Prefix);
    const DenseWork B = denseWork(Traced[I].Merged, Prefix);
    Out.check(A.Transitions == B.Transitions,
              DS + ": transitions differ between two passes of one seed");
    Out.Layers["engine." + DS + ".transitions_per_byte"] =
        double(A.Transitions) / double(Prefix.size());
    Out.Layers["engine." + DS + ".footprint_bytes"] = double(A.FootprintBytes);

    // The input-parallel layer on its own, whether or not the planner
    // accepted it for this dataset: wall clock at T=nproc against the traced
    // pass's T=1 median.
    std::vector<double> ParNs;
    for (int Rep = 0; Rep < kParallelReps; ++Rep) {
      MatchRecorder Rec;
      const uint64_t T0 = nowNs();
      Traced[I].Engines->runInputParallel(Data[I].Stream, Rec,
                                          parallelOptions(Cfg));
      ParNs.push_back(double(nowNs() - T0));
      Out.check(Rec.total() == Matches[I],
                DS + ": input-parallel match count differs");
    }
    const double Size = double(Data[I].Stream.size());
    Out.Layers["input_parallel." + DS + ".ns_per_byte"] = median(ParNs) / Size;
    Out.Layers["input_parallel." + DS + ".speedup"] =
        median(TracedScans.Seq[I]) / median(ParNs);
    InputParallelStats Stats;
    MatchRecorder Rec;
    Traced[I].Engines->runInputParallel(Data[I].Stream, Rec,
                                        parallelOptions(Cfg), &Stats);
    Chunks += Stats.Chunks;
    Fallbacks += Stats.RescanFallbackChunks;
    Overlap += Stats.OverlapBytes;
    ParallelMb += Size / 1e6;
  }
  Out.Layers["input_parallel.fallback_chunk_ratio"] =
      Chunks ? double(Fallbacks) / double(Chunks) : 0;
  Out.Layers["input_parallel.overlap_bytes_per_mb"] =
      ParallelMb > 0 ? double(Overlap) / ParallelMb : 0;

  addLayerBudget(Out, Cfg, {&Log}, TracedWallMs, UntracedWallMs);
  return Out;
}

} // namespace e2e
