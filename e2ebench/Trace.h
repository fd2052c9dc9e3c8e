//===- Trace.h - in-memory spans for the layer budget -----------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans the benchmark records around each public library call it makes.
/// Every thread owns one TraceLog, so recording takes no lock; logs are read
/// only after their threads have joined. A disabled log records nothing:
/// the untraced runs that produce the end-to-end numbers pay one branch per
/// call.
///
//===----------------------------------------------------------------------===//

#ifndef E2EBENCH_TRACE_H
#define E2EBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/// Monotonic clock reading in nanoseconds (steady_clock).
uint64_t nowNs();

/// One recorded call. Layer names a library module (compiler, analysis,
/// mfsa, artifact, engine, input_parallel, service) or "bench" for the
/// benchmark's own structure, whose self time lands in the residual.
struct Span {
  const char *Layer = "";
  const char *Name = "";
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int32_t Parent = -1;  ///< Enclosing span in the same log; -1 for a root.
  uint64_t Request = 0; ///< Dataset index offline; client/stream/chunk online.
};

/// The spans of one thread.
class TraceLog {
public:
  /// \p Weight scales this log's self times in the layer budget: 1 for the
  /// main thread, 1/K for each of K client threads running side by side, so
  /// that together they account for the wall time they overlap.
  TraceLog(bool Enabled, uint32_t Thread, double Weight = 1.0)
      : Enabled(Enabled), Thread(Thread), Weight(Weight) {}

  /// Closes its span on destruction.
  class Scope {
  public:
    Scope(TraceLog *Log, int32_t Index) : Log(Log), Index(Index) {}
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    TraceLog *Log;
    int32_t Index;
  };

  /// Opens a span nested in the innermost open one.
  [[nodiscard]] Scope span(const char *Layer, const char *Name,
                           uint64_t Request = 0);

  bool enabled() const { return Enabled; }
  uint32_t thread() const { return Thread; }
  double weight() const { return Weight; }
  const std::vector<Span> &spans() const { return Spans; }

private:
  bool Enabled;
  uint32_t Thread;
  double Weight;
  std::vector<Span> Spans;
  std::vector<int32_t> Open; ///< Indices of the spans not yet closed.
};

/// Self time per layer in milliseconds: each span's duration minus the part
/// its children cover, times its log's weight, summed by layer.
std::map<std::string, double>
layerSelfMs(const std::vector<const TraceLog *> &Logs);

/// Writes {"run": RunJson, "spans": [...]} to \p Path, span times relative
/// to the earliest start. \returns false when the file cannot be written.
bool writeTrace(const std::string &Path, const std::string &RunJson,
                const std::vector<const TraceLog *> &Logs);

} // namespace e2e

#endif // E2EBENCH_TRACE_H
