//===- Service.cpp - service_steady and service_churn ---------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scan service in process, over a Unix-domain socket. service_steady:
/// the BRO ruleset at M=0, cached after one warm-up Hello, streamed by
/// closed-loop clients in fixed 1460-byte chunks (one TCP segment on a
/// 1500-byte MTU); the protocol allows one outstanding request per
/// connection, so each client waits for every reply. service_churn adds one
/// client that keeps announcing never-seen BRO variants: every such Hello is
/// a cache miss, so the reader thread compiles, the server writes an
/// artifact into its cache directory, and LRU eviction runs at capacity 8.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "artifact/Reader.h"
#include "artifact/Writer.h"
#include "compiler/Pipeline.h"
#include "engine/Imfant.h"
#include "obs/Metrics.h"
#include "service/Client.h"
#include "service/Server.h"
#include "support/Timer.h"
#include "workload/Datasets.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

using namespace mfsa;
using namespace mfsa::service;

namespace e2e {
namespace {

constexpr size_t kStreamBytes = size_t(1) << 20;
constexpr size_t kChunkBytes = 1460;
/// Steady clients; fewer when nproc is smaller, so that load-generator
/// threads never outnumber cores.
constexpr unsigned kMaxClients = 3;
/// Cold starts per untraced run; setup_s is their median.
constexpr int kSetupPasses = 5;
constexpr int kHelloHits = 5;
/// One-shot scans of each client's stream behind scan_mb_s, per side of the
/// client window.
constexpr int kOneShotRounds = 6;
constexpr size_t kCacheCapacity = 8;

using MatchList = std::vector<ClientMatch>;

/// What the clients share; read-only while they run.
struct Shared {
  const DatasetSpec *Spec = nullptr;
  std::vector<std::string> Rules;
  std::vector<ImfantEngine> Engines; ///< The server's compile, in process.
  std::vector<std::string> Streams;  ///< One per steady client.
  std::vector<MatchList> Oracle;     ///< One-shot scan of each stream.
  std::string Uds;
  unsigned Clients = 1;
  bool Churn = false;
  uint64_t ChurnSeed = 0; ///< DatasetSpec::Seed of the first variant.
};

/// A started server. Members are destroyed bottom-up: the connection
/// closes, then the server stops, then its registry goes.
struct RunningServer {
  std::unique_ptr<obs::MetricsRegistry> Registry;
  std::unique_ptr<ScanServer> Server;
  std::optional<ScanClient> Conn;
  std::string Uds;
};

/// One client thread's tallies.
struct ClientTally {
  Outcome Checks;
  std::vector<double> LatencyUs; ///< Per chunk round trip.
  std::vector<double> MissMs;    ///< Per churn Hello.
  std::vector<double> StreamMbS; ///< Per completed stream, open to close.
  uint64_t Bytes = 0;            ///< Bytes acknowledged.
  uint64_t Done = 0;             ///< Streams completed, or churn Hellos.
};

double sinceMs(uint64_t StartNs) { return double(nowNs() - StartNs) * 1e-6; }

/// One set-up: a server on an empty cache directory, a connection, and the
/// first Hello, which compiles. \returns start → HelloOk in ms (the cold
/// Hello alone in \p HelloMs), or a negative value on failure.
double startCold(const Shared &S, const RunConfig &Cfg, int Index,
                 TraceLog &Log, Outcome &Out, RunningServer &Srv,
                 double &HelloMs) {
  const std::string Dir = Cfg.WorkDir + "/cache" + std::to_string(Index);
  std::error_code Error;
  std::filesystem::remove_all(Dir, Error);
  std::filesystem::create_directories(Dir, Error);
  Out.check(!Error, "cannot create " + Dir);
  ServerOptions Opts;
  Opts.UdsPath = Cfg.WorkDir + "/srv" + std::to_string(Index) + ".sock";
  Opts.Workers = Cfg.Nproc;
  Opts.Cache.CacheDir = Dir;
  Opts.Cache.Capacity = kCacheCapacity;
  Opts.AllowShutdownFrame = false;
  Srv.Registry = std::make_unique<obs::MetricsRegistry>();
  Opts.Metrics = Srv.Registry.get();
  Srv.Uds = Opts.UdsPath;

  const uint64_t Start = nowNs();
  {
    auto Tr = Log.span("service", "ScanServer::start");
    Result<std::unique_ptr<ScanServer>> Started = ScanServer::start(Opts);
    if (!Started) {
      Out.check(false, "server start: " + Started.diag().render());
      return -1;
    }
    Srv.Server = Started.take();
  }
  {
    auto Tr = Log.span("service", "connect");
    Result<ScanClient> Conn = ScanClient::connectUds(Srv.Uds);
    if (!Conn) {
      Out.check(false, "connect: " + Conn.diag().render());
      return -1;
    }
    Srv.Conn.emplace(Conn.take());
  }
  const uint64_t HelloStart = nowNs();
  {
    auto Tr = Log.span("service", "hello");
    Result<HelloInfo> Hello = Srv.Conn->hello("tenant-0", S.Rules, 0);
    const bool Ok = Hello.ok() && Hello->Source == CacheSource::Compiled;
    Out.check(Ok, "the cold Hello did not compile the ruleset");
    if (!Ok)
      return -1;
  }
  HelloMs = sinceMs(HelloStart);
  return sinceMs(Start);
}

/// A steady client: Hello (a cache hit), then whole streams in kChunkBytes
/// chunks, one request outstanding, each stream checked against its one-shot
/// scan. Runs until \p DeadlineNs, or exactly \p Streams streams when
/// nonzero.
void steadyClient(const Shared &S, unsigned Id, uint64_t Streams,
                  uint64_t DeadlineNs, TraceLog &Log, ClientTally &T) {
  auto Root = Log.span("bench", "client", Id);
  std::optional<ScanClient> Conn;
  {
    auto Tr = Log.span("service", "connect", Id);
    Result<ScanClient> C = ScanClient::connectUds(S.Uds);
    if (!C) {
      T.Checks.check(false, "connect: " + C.diag().render());
      return;
    }
    Conn.emplace(C.take());
  }
  {
    auto Tr = Log.span("service", "hello", Id);
    Result<HelloInfo> Hello =
        Conn->hello("tenant-" + std::to_string(Id + 1), S.Rules, 0);
    T.Checks.check(Hello.ok(), "steady Hello failed");
    if (!Hello)
      return;
  }
  const std::string &Data = S.Streams[Id];
  for (uint64_t Stream = 1;; ++Stream) {
    if (Streams ? Stream > Streams : Stream > 1 && nowNs() >= DeadlineNs)
      break;
    const uint64_t Request = (uint64_t(Id) << 48) | (Stream << 24);
    const uint64_t StreamStart = nowNs();
    {
      auto Tr = Log.span("service", "openStream", Request);
      Result<StatusCode> Opened = Conn->openStream(Stream);
      const bool Ok = Opened.ok() && *Opened == StatusCode::Ok;
      T.Checks.check(Ok, "open stream refused");
      if (!Ok)
        return;
    }
    MatchList Got;
    uint64_t ChunkNo = 0;
    for (size_t Pos = 0; Pos < Data.size(); Pos += kChunkBytes, ++ChunkNo) {
      const std::string_view Chunk(Data.data() + Pos,
                                   std::min(kChunkBytes, Data.size() - Pos));
      for (;;) {
        const uint64_t T0 = nowNs();
        Result<ChunkOutcome> Reply = [&] {
          auto Tr = Log.span("service", "sendChunk", Request | ChunkNo);
          return Conn->sendChunk(Stream, Chunk);
        }();
        T.LatencyUs.push_back(double(nowNs() - T0) * 1e-3);
        if (!Reply) {
          T.Checks.check(false, "chunk: " + Reply.diag().render());
          return;
        }
        if (Reply->Status == StatusCode::Overloaded) {
          // Shed chunks are not consumed; the contract is to retry.
          T.Checks.check(false, "chunk shed (overloaded)");
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;
        }
        const bool Ok = Reply->Status == StatusCode::Ok && !Reply->Truncated;
        T.Checks.check(Ok, "chunk rejected or its matches truncated");
        if (!Ok)
          return;
        Got.insert(Got.end(), Reply->Matches.begin(), Reply->Matches.end());
        T.Bytes += Chunk.size();
        break;
      }
    }
    Result<StreamEnd> End = [&] {
      auto Tr = Log.span("service", "closeStream", Request);
      return Conn->closeStream(Stream);
    }();
    const bool Closed = End.ok() && End->Status == StatusCode::Ok;
    T.Checks.check(Closed, "close stream refused");
    if (!Closed)
      return;
    Got.insert(Got.end(), End->Matches.begin(), End->Matches.end());
    std::sort(Got.begin(), Got.end());
    T.Checks.check(Got == S.Oracle[Id] && End->TotalBytes == Data.size(),
                   "a stream differs from the one-shot offline scan");
    T.StreamMbS.push_back(double(Data.size()) * 1e3 /
                          double(nowNs() - StreamStart));
    ++T.Done;
  }
}

/// The churn client: Hellos with never-seen BRO variants back to back, each
/// a cache miss compiled by the server's reader thread. Runs until
/// \p DeadlineNs, or exactly \p Count Hellos when nonzero.
void churnClient(const Shared &S, unsigned Id, uint64_t Count,
                 uint64_t DeadlineNs, TraceLog &Log, ClientTally &T) {
  auto Root = Log.span("bench", "churn", Id);
  std::optional<ScanClient> Conn;
  {
    auto Tr = Log.span("service", "connect", Id);
    Result<ScanClient> C = ScanClient::connectUds(S.Uds);
    if (!C) {
      T.Checks.check(false, "connect: " + C.diag().render());
      return;
    }
    Conn.emplace(C.take());
  }
  for (uint64_t I = 0;; ++I) {
    if (Count ? I >= Count : I > 0 && nowNs() >= DeadlineNs)
      break;
    DatasetSpec Variant = *S.Spec;
    Variant.Seed = S.ChurnSeed + I;
    const std::vector<std::string> Rules = generateRuleset(Variant);
    const uint64_t T0 = nowNs();
    Result<HelloInfo> Hello = [&] {
      auto Tr = Log.span("service", "hello", (uint64_t(Id) << 48) | I);
      return Conn->hello("churn", Rules, 0);
    }();
    T.MissMs.push_back(sinceMs(T0));
    T.Checks.check(Hello.ok() && Hello->Source == CacheSource::Compiled,
                   "a never-seen ruleset was not compiled");
    if (!Hello)
      return;
    ++T.Done;
  }
}

/// The clients side by side; Counts (when given) fix each client's streams
/// or Hellos, otherwise they run for Cfg.Seconds. \p Logs receives one log
/// per client, weighted 1/clients.
std::vector<ClientTally>
runClients(const Shared &S, const RunConfig &Cfg,
           const std::vector<uint64_t> &Counts, bool Traced,
           std::vector<std::unique_ptr<TraceLog>> &Logs, double &WindowMs) {
  const unsigned N = S.Clients + (S.Churn ? 1 : 0);
  std::vector<ClientTally> Tallies(N);
  Logs.clear();
  for (unsigned I = 0; I < N; ++I)
    Logs.push_back(std::make_unique<TraceLog>(Traced, I + 1, 1.0 / N));
  const uint64_t Start = nowNs();
  const uint64_t Deadline = Start + static_cast<uint64_t>(Cfg.Seconds * 1e9);
  {
    std::vector<std::jthread> Threads;
    for (unsigned I = 0; I < N; ++I)
      Threads.emplace_back([&, I] {
        const uint64_t Count = Counts.empty() ? 0 : Counts[I];
        if (I < S.Clients)
          steadyClient(S, I, Count, Deadline, *Logs[I], Tallies[I]);
        else
          churnClient(S, I, Count, Deadline, *Logs[I], Tallies[I]);
      });
  }
  WindowMs = sinceMs(Start);
  return Tallies;
}

/// What one pass measured.
struct Pass {
  std::vector<double> OneShotNs, SetupMs, ColdHelloMs, HelloHitMs;
  std::vector<ClientTally> Tallies;
  double WindowMs = 0;
  double WallMs = 0; ///< First one-shot scan to the last one.
  std::map<std::string, double> ServerCounts;
};

/// \p Rounds one-shot scans of every client stream (scan_mb_s).
void oneShotScans(const Shared &S, int Rounds, TraceLog &Log, Outcome &Out,
                  Pass &P) {
  for (int Round = 0; Round < Rounds; ++Round)
    for (size_t I = 0; I < S.Streams.size(); ++I) {
      MatchRecorder Rec;
      const uint64_t T0 = nowNs();
      {
        auto Tr = Log.span("engine", "run", I);
        for (const ImfantEngine &E : S.Engines)
          E.run(S.Streams[I], Rec);
      }
      P.OneShotNs.push_back(double(nowNs() - T0));
      Out.check(Rec.total() == S.Oracle[I].size(),
                "a one-shot scan's match count changed");
    }
}

/// One pass: one-shot scans, \p SetupPasses cold starts keeping the last
/// server, warm Hellos, the client window, and one-shot scans again. The
/// one-shot scans sit on both sides of the window so that their median
/// spans the whole run, not one phase of the host.
Pass runPass(Shared &S, const RunConfig &Cfg, int SetupPasses, int FirstIndex,
             const std::vector<uint64_t> &Counts, TraceLog &Log,
             std::vector<std::unique_ptr<TraceLog>> &ClientLogs,
             Outcome &Out) {
  Pass P;
  std::optional<RunningServer> Srv;
  const uint64_t Start = nowNs();
  {
    auto Root = Log.span("bench", Cfg.Workload.c_str());
    oneShotScans(S, kOneShotRounds, Log, Out, P);
    for (int I = 0; I < SetupPasses; ++I) {
      Srv.emplace();
      double HelloMs = 0;
      const double Ms =
          startCold(S, Cfg, FirstIndex + I, Log, Out, *Srv, HelloMs);
      if (Ms < 0)
        return P;
      P.SetupMs.push_back(Ms);
      P.ColdHelloMs.push_back(HelloMs);
    }
    S.Uds = Srv->Uds;
    for (int I = 0; I < kHelloHits; ++I) {
      const uint64_t T0 = nowNs();
      Result<HelloInfo> Hello = [&] {
        auto Tr = Log.span("service", "hello");
        return Srv->Conn->hello("tenant-0", S.Rules, 0);
      }();
      P.HelloHitMs.push_back(sinceMs(T0));
      Out.check(Hello.ok() && Hello->Source == CacheSource::Memory,
                "a warm Hello missed the cache");
    }
    P.Tallies =
        runClients(S, Cfg, Counts, Log.enabled(), ClientLogs, P.WindowMs);
    for (const ClientTally &T : P.Tallies)
      Out.merge(T.Checks);
    oneShotScans(S, kOneShotRounds, Log, Out, P);
  }
  P.WallMs = sinceMs(Start);
  obs::MetricsRegistry &R = *Srv->Registry;
  P.ServerCounts = {
      {"service.cache_hits", double(R.counter("service.cache.hits").value())},
      {"service.cache_misses",
       double(R.counter("service.cache.misses").value())},
      {"service.cache_evictions",
       double(R.counter("service.cache.evictions").value())},
      {"service.cache_artifact_hits",
       double(R.counter("service.cache.artifact_hits").value())},
      {"service.shed_count", double(R.counter("service.shed.count").value())},
      {"service.queue_depth_max",
       double(R.histogram("service.queue.depth", obs::pow2Buckets(12)).max())},
  };
  return P;
}

} // namespace

Outcome runService(const RunConfig &Cfg, bool Churn) {
  Outcome Out;
  Shared S;
  S.Spec = findDataset("BRO");
  S.Rules = generateRuleset(*S.Spec);
  S.Churn = Churn;
  const unsigned Spare = Cfg.Nproc > (Churn ? 1u : 0u) ? Cfg.Nproc - Churn : 1;
  S.Clients = std::max(1u, std::min(kMaxClients, Spare));
  // Variants far from the standard seed, distinct per benchmark seed.
  S.ChurnSeed = S.Spec->Seed + 1 + Cfg.Seed * 1000003ull;

  // The compile the server performs, in process, for the one-shot oracle.
  CompileOptions Opts;
  Opts.MergingFactor = 0;
  Opts.EmitAnml = false;
  Timer CompileTimer;
  Result<CompileArtifacts> Compiled = compileRuleset(S.Rules, Opts);
  const double CompileMs = CompileTimer.elapsedMs();
  if (!Compiled) {
    Out.check(false, "compile: " + Compiled.diag().render());
    return Out;
  }
  Timer BuildTimer;
  for (const Mfsa &Z : Compiled->Mfsas)
    S.Engines.emplace_back(Z);
  const double BuildMs = BuildTimer.elapsedMs();
  for (unsigned I = 0; I < S.Clients; ++I) {
    S.Streams.push_back(
        generateStream(*S.Spec, S.Rules, kStreamBytes, Cfg.Seed * 16 + I));
    MatchRecorder Rec(MatchRecorder::Mode::Collect);
    for (const ImfantEngine &E : S.Engines)
      E.run(S.Streams.back(), Rec);
    MatchList Matches;
    for (const auto &[Rule, End] : Rec.matches())
      Matches.push_back({Rule, End});
    std::sort(Matches.begin(), Matches.end());
    Out.check(Matches.size() == Rec.total(), "one-shot match list truncated");
    S.Oracle.push_back(std::move(Matches));
  }

  TraceLog Untraced(false, 0);
  std::vector<std::unique_ptr<TraceLog>> UntracedClients;
  const Pass First = runPass(S, Cfg, Cfg.Trace ? 1 : kSetupPasses, 0, {},
                             Untraced, UntracedClients, Out);
  if (First.Tallies.empty())
    return Out;

  std::vector<double> Latency, Miss;
  uint64_t Bytes = 0, Streams = 0;
  for (unsigned I = 0; I < First.Tallies.size(); ++I) {
    const ClientTally &T = First.Tallies[I];
    Latency.insert(Latency.end(), T.LatencyUs.begin(), T.LatencyUs.end());
    Miss.insert(Miss.end(), T.MissMs.begin(), T.MissMs.end());
    Bytes += T.Bytes;
    if (I < S.Clients)
      Streams += T.Done;
  }
  // Each client's fastest stream rate, summed over the clients; the median
  // rates go to the note. The clients' fastest streams fall in the host's
  // fast phases, which every run has (Bench.h, fastest()).
  double ServiceMbS = 0, MedianServiceMbS = 0;
  for (unsigned I = 0; I < S.Clients; ++I) {
    const std::vector<double> &Rates = First.Tallies[I].StreamMbS;
    ServiceMbS += Rates.empty() ? 0 : *std::max_element(Rates.begin(),
                                                        Rates.end());
    MedianServiceMbS += median(Rates);
  }
  const double OneShotMbS =
      double(kStreamBytes) * 1e3 / fastest(First.OneShotNs);
  // chunk_p99_us is p99 once a run has 1000 chunks; the note adds the
  // highest percentile the sample count supports.
  const Tail P99 = tail(Latency, 99.0);
  const Tail ChunkTail = tail(Latency);
  char Buf[640];
  std::snprintf(
      Buf, sizeof Buf,
      "%u steady clients%s, %u server workers, %zu-byte chunks; %llu streams, "
      "%zu chunks in %.0f ms: service %.2f MB/s over fastest streams, %.2f "
      "MB/s over median streams, window average %.2f MB/s; one-shot scan "
      "median %.2f MB/s; chunk round trip p50 %.1f us, p%g %.1f us, p%g "
      "%.1f us over %zu chunks; warm Hello %.2f ms, cold Hello %.1f ms",
      S.Clients, Churn ? " + 1 churn client" : "", Cfg.Nproc, kChunkBytes,
      static_cast<unsigned long long>(Streams), Latency.size(),
      First.WindowMs, ServiceMbS, MedianServiceMbS,
      double(Bytes) / (First.WindowMs * 1e3),
      double(kStreamBytes) * 1e3 / median(First.OneShotNs),
      median(Latency), P99.Percentile, P99.Value,
      ChunkTail.Percentile, ChunkTail.Value, ChunkTail.Samples,
      median(First.HelloHitMs), median(First.ColdHelloMs));
  Out.Notes.push_back(Buf);
  if (Churn) {
    const Tail MissTail = tail(Miss);
    std::snprintf(Buf, sizeof Buf,
                  "churn: %zu never-seen Hellos, p50 %.1f ms, p%g %.1f ms",
                  Miss.size(), median(Miss), MissTail.Percentile,
                  MissTail.Value);
    Out.Notes.push_back(Buf);
  }

  if (!Cfg.Trace) {
    Out.EndToEnd["setup_s"] = median(First.SetupMs) / 1e3;
    Out.EndToEnd["scan_mb_s"] = OneShotMbS;
    Out.EndToEnd["scan_par_mb_s"] = ServiceMbS;
    Out.EndToEnd["peak_rss_mb"] = peakRssMb();
    return Out;
  }

  // The traced pass repeats the first pass's work exactly.
  std::vector<uint64_t> Counts;
  for (const ClientTally &T : First.Tallies)
    Counts.push_back(T.Done);
  TraceLog Log(true, 0);
  std::vector<std::unique_ptr<TraceLog>> ClientLogs;
  const Pass Traced = runPass(S, Cfg, 1, 100, Counts, Log, ClientLogs, Out);
  if (Traced.Tallies.empty())
    return Out;

  std::map<std::string, double> &L = Out.Layers;
  const std::string &DS = S.Spec->Abbrev;
  L["service.chunk_p50_us"] = median(Latency);
  L["service.chunk_p99_us"] = P99.Value;
  L["service.mb_s"] = ServiceMbS;
  L["service.hello_hit_ms"] = median(First.HelloHitMs);
  L["service.hello_miss_ms"] = Churn ? median(Miss) : median(First.ColdHelloMs);
  for (const auto &[Name, Value] : First.ServerCounts)
    L[Name] = Value;

  // The scanner each session runs, fed the same chunks without the service.
  std::vector<double> FeedUs;
  for (const std::string &Stream : S.Streams) {
    std::vector<ImfantEngine::Scanner> Scanners;
    for (const ImfantEngine &E : S.Engines)
      Scanners.emplace_back(E);
    MatchRecorder Rec;
    for (size_t Pos = 0; Pos < Stream.size(); Pos += kChunkBytes) {
      const std::string_view Chunk(Stream.data() + Pos,
                                   std::min(kChunkBytes, Stream.size() - Pos));
      const uint64_t T0 = nowNs();
      for (ImfantEngine::Scanner &Scan : Scanners)
        Scan.feed(Chunk, Rec);
      FeedUs.push_back(double(nowNs() - T0) * 1e-3);
    }
  }
  L["service.engine_feed_us"] = median(FeedUs);
  L["service.overhead_us"] = median(Latency) - median(FeedUs);

  uint64_t States = 0, Transitions = 0, Matches = 0;
  for (const Mfsa &Z : Compiled->Mfsas) {
    States += Z.numStates();
    Transitions += Z.numTransitions();
  }
  for (const MatchList &M : S.Oracle)
    Matches += M.size();
  L["compiler." + DS + ".compile_ms"] = CompileMs;
  L["engine." + DS + ".build_ms"] = BuildMs;
  L["engine." + DS + ".ns_per_byte"] = fastest(First.OneShotNs) / kStreamBytes;
  L["engine." + DS + ".matches"] = double(Matches);
  L["mfsa." + DS + ".merged_states"] = double(States);
  L["mfsa." + DS + ".merged_transitions"] = double(Transitions);
  const DenseWork A = denseWork(Compiled->Mfsas, S.Streams[0]);
  const DenseWork B = denseWork(Compiled->Mfsas, S.Streams[0]);
  Out.check(A.Transitions == B.Transitions,
            "transitions differ between two scans of one stream");
  L["engine." + DS + ".transitions_per_byte"] =
      double(A.Transitions) / double(S.Streams[0].size());
  L["engine." + DS + ".footprint_bytes"] = double(A.FootprintBytes);
  addCompileSplit({&S.Rules}, 0, Out);

  // What the cache does with this ruleset: write its image on a miss, map
  // and materialize it on a warm start.
  const std::string Path = Cfg.WorkDir + "/" + DS + ".mfsa";
  artifact::ArtifactWriteOptions WriteOpts;
  Timer WriteTimer;
  Result<uint64_t> Written =
      artifact::writeArtifactFile(Path, Compiled->Mfsas, S.Rules, WriteOpts);
  L["artifact.write_ms"] = WriteTimer.elapsedMs();
  Timer LoadTimer;
  Result<artifact::LoadedArtifact> Image = artifact::loadArtifact(Path);
  const size_t Loaded = Image ? Image->materializeAll().size() : 0;
  L["artifact.load_ms"] = LoadTimer.elapsedMs();
  Result<uint64_t> Again =
      artifact::writeArtifactFile(Path, Compiled->Mfsas, S.Rules, WriteOpts);
  Out.check(Written.ok() && Again.ok() && *Written == *Again &&
                Loaded == Compiled->Mfsas.size(),
            "the artifact round trip failed or changed size");
  if (Written)
    L["artifact.bytes"] = double(*Written);

  std::vector<const TraceLog *> Logs{&Log};
  for (const std::unique_ptr<TraceLog> &C : ClientLogs)
    Logs.push_back(C.get());
  addLayerBudget(Out, Cfg, Logs, Traced.WallMs, First.WallMs);
  return Out;
}

} // namespace e2e
