//===- Metrics.cpp - counters, gauges, and histograms --------------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

using namespace mfsa;
using namespace mfsa::obs;

//===----------------------------------------------------------------------===//
// Histogram
//===----------------------------------------------------------------------===//

Histogram::Histogram(std::vector<uint64_t> UpperBounds)
    : Bounds(std::move(UpperBounds)), Counts(Bounds.size() + 1) {
  assert(std::is_sorted(Bounds.begin(), Bounds.end()) &&
         std::adjacent_find(Bounds.begin(), Bounds.end()) == Bounds.end() &&
         "histogram bounds must be strictly increasing");
}

void Histogram::observe(uint64_t V) {
  size_t Slot = std::lower_bound(Bounds.begin(), Bounds.end(), V) -
                Bounds.begin();
  Counts[Slot].fetch_add(1, std::memory_order_relaxed);
  Total.fetch_add(1, std::memory_order_relaxed);
  Sum.fetch_add(V, std::memory_order_relaxed);
  // Relaxed CAS max: Max only ever grows, and no data is published through
  // it; on CAS failure Prev is refreshed, so the loop terminates as soon as
  // Max >= V regardless of contention.
  uint64_t Prev = Max.load(std::memory_order_relaxed);
  while (V > Prev &&
         !Max.compare_exchange_weak(Prev, V, std::memory_order_relaxed))
    ;
}

void Histogram::reset() {
  for (auto &C : Counts)
    C.store(0, std::memory_order_relaxed);
  Total.store(0, std::memory_order_relaxed);
  Sum.store(0, std::memory_order_relaxed);
  Max.store(0, std::memory_order_relaxed);
}

std::vector<uint64_t> mfsa::obs::pow2Buckets(unsigned MaxExp) {
  std::vector<uint64_t> Bounds;
  Bounds.reserve(MaxExp + 1);
  for (unsigned E = 0; E <= MaxExp; ++E)
    Bounds.push_back(uint64_t(1) << E);
  return Bounds;
}

//===----------------------------------------------------------------------===//
// MetricsRegistry
//===----------------------------------------------------------------------===//

Counter &MetricsRegistry::counter(std::string_view Name) {
  sync::MutexLock Lock(RegistryMutex);
  auto It = Counters.find(Name);
  if (It == Counters.end())
    It = Counters.emplace(std::string(Name), std::make_unique<Counter>())
             .first;
  return *It->second;
}

Gauge &MetricsRegistry::gauge(std::string_view Name) {
  sync::MutexLock Lock(RegistryMutex);
  auto It = Gauges.find(Name);
  if (It == Gauges.end())
    It = Gauges.emplace(std::string(Name), std::make_unique<Gauge>()).first;
  return *It->second;
}

Histogram &MetricsRegistry::histogram(std::string_view Name,
                                      std::vector<uint64_t> UpperBounds) {
  sync::MutexLock Lock(RegistryMutex);
  auto It = Histograms.find(Name);
  if (It == Histograms.end())
    It = Histograms
             .emplace(std::string(Name),
                      std::make_unique<Histogram>(std::move(UpperBounds)))
             .first;
  return *It->second;
}

void MetricsRegistry::reset() {
  sync::MutexLock Lock(RegistryMutex);
  for (auto &[Name, C] : Counters)
    C->reset();
  for (auto &[Name, G] : Gauges)
    G->reset();
  for (auto &[Name, H] : Histograms)
    H->reset();
}

namespace {

void appendJsonNumber(std::string &Out, double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.6g", V);
  Out += Buf;
}

} // namespace

std::string MetricsRegistry::toJson() const {
  sync::MutexLock Lock(RegistryMutex);
  std::string Out = "{\n  \"counters\": {";
  bool First = true;
  for (const auto &[Name, C] : Counters) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    \"" + Name + "\": " + std::to_string(C->value());
  }
  Out += First ? "},\n" : "\n  },\n";
  Out += "  \"gauges\": {";
  First = true;
  for (const auto &[Name, G] : Gauges) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    \"" + Name + "\": " + std::to_string(G->value());
  }
  Out += First ? "},\n" : "\n  },\n";
  Out += "  \"histograms\": {";
  First = true;
  for (const auto &[Name, H] : Histograms) {
    Out += First ? "\n" : ",\n";
    First = false;
    Out += "    \"" + Name + "\": {\"bounds\": [";
    for (size_t I = 0; I < H->bounds().size(); ++I) {
      if (I)
        Out += ",";
      Out += std::to_string(H->bounds()[I]);
    }
    Out += "], \"counts\": [";
    for (size_t I = 0; I < H->numBuckets(); ++I) {
      if (I)
        Out += ",";
      Out += std::to_string(H->bucketCount(I));
    }
    Out += "], \"count\": " + std::to_string(H->count()) +
           ", \"sum\": " + std::to_string(H->sum()) +
           ", \"max\": " + std::to_string(H->max()) + ", \"mean\": ";
    appendJsonNumber(Out, H->mean());
    Out += "}";
  }
  Out += First ? "}\n" : "\n  }\n";
  Out += "}\n";
  return Out;
}

std::string MetricsRegistry::toText() const {
  sync::MutexLock Lock(RegistryMutex);
  std::string Out;
  char Buf[160];
  for (const auto &[Name, C] : Counters) {
    std::snprintf(Buf, sizeof(Buf), "%-40s %20llu\n", Name.c_str(),
                  static_cast<unsigned long long>(C->value()));
    Out += Buf;
  }
  for (const auto &[Name, G] : Gauges) {
    std::snprintf(Buf, sizeof(Buf), "%-40s %20lld\n", Name.c_str(),
                  static_cast<long long>(G->value()));
    Out += Buf;
  }
  for (const auto &[Name, H] : Histograms) {
    std::snprintf(Buf, sizeof(Buf),
                  "%-40s count=%llu mean=%.2f max=%llu\n", Name.c_str(),
                  static_cast<unsigned long long>(H->count()), H->mean(),
                  static_cast<unsigned long long>(H->max()));
    Out += Buf;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Process-wide plumbing
//===----------------------------------------------------------------------===//

namespace {

// Relaxed: the override is a standalone test knob read at scan-loop entry;
// a sampler observing the old period for one extra scan is harmless.
std::atomic<uint32_t> SampleEveryOverride{0};

uint32_t sampleEveryFromEnv() {
  const char *Env = std::getenv("MFSA_METRICS_SAMPLE");
  if (!Env || !*Env)
    return 64;
  unsigned long V = std::strtoul(Env, nullptr, 10);
  return V < 1 ? 1 : static_cast<uint32_t>(V);
}

} // namespace

uint32_t mfsa::obs::scanSampleEvery() {
  uint32_t Override = SampleEveryOverride.load(std::memory_order_relaxed);
  if (Override != 0)
    return Override;
  static const uint32_t FromEnv = sampleEveryFromEnv();
  return FromEnv;
}

void mfsa::obs::setScanSampleEvery(uint32_t N) {
  SampleEveryOverride.store(N < 1 ? 1 : N, std::memory_order_relaxed);
}
