//===- RulesetCache.cpp - content-addressed compiled-ruleset cache --------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "service/RulesetCache.h"

#include "artifact/Reader.h"
#include "artifact/Writer.h"
#include "obs/Metrics.h"

#include <cstdio>
#include <sys/stat.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace mfsa::service {

namespace {

/// Two independent 64-bit FNV-1a lanes over the keyed content give a 128-bit
/// key. FNV is not collision-proof, so the cache additionally compares the
/// stored rule text on every hit and salts the key on mismatch (see
/// acquire()); the hash only has to make collisions rare, correctness never
/// rests on it.
struct Fnv2 {
  uint64_t A = 0xcbf29ce484222325ull;
  uint64_t B = 0x9dc5ad0c5ab1c9a5ull;

  void bytes(const void *Data, size_t N) {
    const auto *P = static_cast<const uint8_t *>(Data);
    for (size_t I = 0; I < N; ++I) {
      A = (A ^ P[I]) * 0x100000001b3ull;
      B = (B ^ P[I]) * 0x100000001b3ull;
      B ^= B >> 29;
    }
  }
  void u32(uint32_t V) { bytes(&V, sizeof(V)); }
};

std::string hex128(uint64_t A, uint64_t B) {
  char Buf[33];
  std::snprintf(Buf, sizeof(Buf), "%016llx%016llx",
                static_cast<unsigned long long>(A),
                static_cast<unsigned long long>(B));
  return Buf;
}

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 && S_ISREG(St.st_mode);
}

} // namespace

/// One cache line: the per-key mutex serializes the first build so
/// concurrent identical tenants collapse onto a single compile; Ready /
/// Error memoize the outcome either way.
struct RulesetCache::Slot {
  /// Rank 50 (see the Sync.h table): acquired after CacheMutex is released,
  /// deliberately held across a whole compile so a thundering herd of
  /// identical tenants collapses onto one build; the compile-telemetry
  /// recording gives it the SlotMutex -> RegistryMutex edge.
  sync::Mutex SlotMutex MFSA_LOCK_RANK(50);
  std::shared_ptr<const CompiledRuleset> Ready MFSA_GUARDED_BY(SlotMutex);
  bool Failed MFSA_GUARDED_BY(SlotMutex) = false;
  Diag Error MFSA_GUARDED_BY(SlotMutex);
  // The content the memoized failure belongs to: like the Ready path, a
  // negative hit must compare rule text so a hash-colliding different
  // ruleset salt-diverts instead of inheriting a foreign CompileFailed.
  std::vector<std::string> FailedRules MFSA_GUARDED_BY(SlotMutex);
  uint32_t FailedM MFSA_GUARDED_BY(SlotMutex) = 0;
};

std::string RulesetCache::contentKey(const std::vector<std::string> &Rules,
                                     uint32_t M) {
  Fnv2 H;
  H.u32(M);
  H.u32(static_cast<uint32_t>(Rules.size()));
  for (const std::string &R : Rules) {
    H.u32(static_cast<uint32_t>(R.size()));
    H.bytes(R.data(), R.size());
  }
  return hex128(H.A, H.B);
}

RulesetCache::RulesetCache(CacheOptions Opts, obs::MetricsRegistry *Registry)
    : Options(std::move(Opts)), Metrics(Registry) {
  if (Options.Capacity == 0)
    Options.Capacity = 1;
}

size_t RulesetCache::residentEntries() const {
  sync::MutexLock Lock(CacheMutex);
  return Slots.size();
}

void RulesetCache::touchLocked(const std::string &Key) {
  LruOrder.remove(Key);
  LruOrder.push_front(Key);
}

void RulesetCache::evictOverCapacityLocked() {
  while (Slots.size() > Options.Capacity && !LruOrder.empty()) {
    std::string Victim = LruOrder.back();
    LruOrder.pop_back();
    if (Slots.erase(Victim) && Metrics)
      Metrics->counter("service.cache.evictions").add();
  }
  if (Metrics)
    Metrics->gauge("service.cache.entries")
        .set(static_cast<int64_t>(Slots.size()));
}

std::shared_ptr<const CompiledRuleset>
RulesetCache::buildOrLoad(const std::string &Key,
                          const std::vector<std::string> &Rules, uint32_t M,
                          CacheSource *Source, Diag &Error) {
  auto Entry = std::make_shared<CompiledRuleset>();
  Entry->Key = Key;
  Entry->MergingFactor = M;
  Entry->Rules = Rules;
  if (!Options.CacheDir.empty())
    Entry->ArtifactPath = Options.CacheDir + "/" + Key + ".mfsa";

  // Disk first: a prior process (or this one, pre-eviction) may have left a
  // validated artifact image. Provenance must match exactly — embedded
  // patterns equal to the requested rules and the same merging factor — or
  // the image is treated as foreign and recompiled over.
  if (!Entry->ArtifactPath.empty() && fileExists(Entry->ArtifactPath)) {
    Result<artifact::LoadedArtifact> Loaded =
        artifact::loadArtifact(Entry->ArtifactPath, {}, Metrics);
    if (Loaded.ok() && Loaded->patterns() == Rules &&
        Loaded->header().MergingFactor == M) {
      std::vector<Mfsa> Mfsas = Loaded->materializeAll();
      Entry->NumRules = static_cast<uint32_t>(Loaded->patterns().size());
      Entry->Engines.reserve(Mfsas.size());
      for (const Mfsa &Z : Mfsas)
        Entry->Engines.emplace_back(Z);
      if (Metrics)
        Metrics->counter("service.cache.artifact_hits").add();
      if (Source)
        *Source = CacheSource::Artifact;
      return Entry;
    }
    if (Metrics)
      Metrics->counter("service.cache.artifact_rejected").add();
  }

  CompileOptions Opts = Options.Compile;
  Opts.MergingFactor = M;
  Opts.EmitAnml = false;
  Result<CompileArtifacts> Artifacts = compileRuleset(Rules, Opts);
  if (!Artifacts.ok()) {
    if (Metrics)
      Metrics->counter("service.cache.compile_failures").add();
    Error = Artifacts.takeDiag();
    return nullptr;
  }
  if (Metrics)
    Artifacts->Telemetry.recordTo(*Metrics);
  Entry->NumRules = static_cast<uint32_t>(Artifacts->CompiledRuleIds.size());
  Entry->Engines.reserve(Artifacts->Mfsas.size());
  for (const Mfsa &Z : Artifacts->Mfsas)
    Entry->Engines.emplace_back(Z);

  // Persist for the next process; best-effort — a read-only cache directory
  // degrades to memory-only caching, it never fails the request.
  if (!Entry->ArtifactPath.empty()) {
    artifact::ArtifactWriteOptions WriteOpts;
    WriteOpts.MergingFactor = M;
    Result<uint64_t> Wrote = artifact::writeArtifactFile(
        Entry->ArtifactPath, Artifacts->Mfsas, Rules, WriteOpts);
    if (!Wrote.ok()) {
      if (Metrics)
        Metrics->counter("service.cache.artifact_write_failures").add();
      Entry->ArtifactPath.clear();
    }
  }
  if (Metrics)
    Metrics->counter("service.cache.misses").add();
  if (Source)
    *Source = CacheSource::Compiled;
  return Entry;
}

Result<std::shared_ptr<const CompiledRuleset>>
RulesetCache::acquire(const std::vector<std::string> &Rules, uint32_t M,
                      CacheSource *Source) {
  // Salted-key loop: almost always exits on the first iteration; a true
  // 128-bit collision diverts to "<key>-1", "<key>-2", ...
  std::string Key = contentKey(Rules, M);
  for (uint32_t Salt = 0;; ++Salt) {
    std::string SaltedKey =
        Salt == 0 ? Key : Key + "-" + std::to_string(Salt);
    std::shared_ptr<Slot> Line;
    {
      sync::MutexLock Lock(CacheMutex);
      auto It = Slots.find(SaltedKey);
      if (It == Slots.end())
        It = Slots.emplace(SaltedKey, std::make_shared<Slot>()).first;
      Line = It->second;
      touchLocked(SaltedKey);
      evictOverCapacityLocked();
    }

    // CacheMutex (40) released before SlotMutex (50): the map stays
    // available to other keys while this key compiles under its slot lock.
    sync::MutexLock SlotLock(Line->SlotMutex);
    if (Line->Ready) {
      if (Line->Ready->Rules != Rules || Line->Ready->MergingFactor != M)
        continue; // Hash collision; try the next salted key.
      if (Metrics)
        Metrics->counter("service.cache.hits").add();
      if (Source)
        *Source = CacheSource::Memory;
      return Line->Ready;
    }
    if (Line->Failed) {
      if (Line->FailedRules != Rules || Line->FailedM != M)
        continue; // Hash collision; try the next salted key.
      return Diag(Line->Error);
    }

    Diag Error;
    std::shared_ptr<const CompiledRuleset> Built =
        buildOrLoad(SaltedKey, Rules, M, Source, Error);
#ifdef __GLIBC__
    // A compile or load frees megabytes of transient heap (per-rule NFAs,
    // merge indexes, materialized MFSAs) that glibc would otherwise keep
    // cached in the building thread's arena for the life of the process.
    // Hand it back to the OS here, on the miss path only: hits never pay
    // for the arena walk.
    malloc_trim(0);
#endif
    if (!Built) {
      Line->Failed = true;
      Line->Error = Error;
      Line->FailedRules = Rules;
      Line->FailedM = M;
      return Error;
    }
    Line->Ready = Built;
    return Built;
  }
}

} // namespace mfsa::service
