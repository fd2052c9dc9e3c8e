//===- Trace.cpp - in-memory spans for the layer budget -------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

namespace e2e {

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

TraceLog::Scope TraceLog::span(const char *Layer, const char *Name,
                               uint64_t Request) {
  if (!Enabled)
    return Scope(nullptr, -1);
  Span S;
  S.Layer = Layer;
  S.Name = Name;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Request = Request;
  Spans.push_back(S);
  const auto Index = static_cast<int32_t>(Spans.size() - 1);
  Open.push_back(Index);
  Spans.back().StartNs = nowNs();
  return Scope(this, Index);
}

TraceLog::Scope::~Scope() {
  if (!Log)
    return;
  Log->Spans[static_cast<size_t>(Index)].EndNs = nowNs();
  Log->Open.pop_back();
}

std::map<std::string, double>
layerSelfMs(const std::vector<const TraceLog *> &Logs) {
  std::map<std::string, double> Self;
  for (const TraceLog *Log : Logs) {
    const std::vector<Span> &Spans = Log->spans();
    std::vector<uint64_t> Covered(Spans.size(), 0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Covered[static_cast<size_t>(S.Parent)] += S.EndNs - S.StartNs;
    for (size_t I = 0; I < Spans.size(); ++I) {
      const uint64_t Own = Spans[I].EndNs - Spans[I].StartNs - Covered[I];
      Self[Spans[I].Layer] += static_cast<double>(Own) * 1e-6 * Log->weight();
    }
  }
  return Self;
}

bool writeTrace(const std::string &Path, const std::string &RunJson,
                const std::vector<const TraceLog *> &Logs) {
  uint64_t Origin = std::numeric_limits<uint64_t>::max();
  for (const TraceLog *Log : Logs)
    for (const Span &S : Log->spans())
      Origin = std::min(Origin, S.StartNs);
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"run\": %s,\n\"spans\": [", RunJson.c_str());
  const char *Sep = "";
  for (const TraceLog *Log : Logs)
    for (const Span &S : Log->spans()) {
      std::fprintf(F,
                   "%s\n{\"thread\": %u, \"layer\": \"%s\", \"name\": \"%s\", "
                   "\"start_ns\": %llu, \"end_ns\": %llu, \"parent\": %d, "
                   "\"request\": %llu}",
                   Sep, Log->thread(), S.Layer, S.Name,
                   static_cast<unsigned long long>(S.StartNs - Origin),
                   static_cast<unsigned long long>(S.EndNs - Origin), S.Parent,
                   static_cast<unsigned long long>(S.Request));
      Sep = ",";
    }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

} // namespace e2e
