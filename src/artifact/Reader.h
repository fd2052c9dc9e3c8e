//===- Reader.h - corruption-hardened MFSA artifact loading -----*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Loads a compiled-MFSA artifact (Format.h) with one read-only mmap and
/// treats every byte of it as untrusted input. The validation ladder:
///
///   1. File sanity: exists, regular, non-empty, mappable.
///   2. Header: magic, endianness tag, schema version, reserved bytes,
///      header checksum, declared size == mapped size.
///   3. Whole-file checksum — any bit flip anywhere is caught here or in 2.
///   4. Section table: known kinds, aligned in-bounds non-overlapping
///      extents, per-kind record-size consistency, per-section checksums.
///   5. Structure: per-MFSA cross-checks against the meta records, then
///      every state/label/bel/final index bounds-validated before use —
///      nothing is dereferenced on trust.
///   6. Semantics: each materialized MFSA passes the structural Verifier
///      (analysis/Verifier.h); opt-in, a translation-validation spot check
///      (analysis/TranslationValidate.h) proves sampled rules' extracted
///      languages equal a fresh compile of the embedded patterns.
///
/// Every failure is a positioned one-line diagnostic, never a crash, and
/// loadArtifactOrRecompile() turns it into a diagnosed fallback: recompile
/// from source rules, count it in `artifact.fallback.*`, keep serving.
/// MFSA_FAULT_STAGE="load:0" injects a load failure for testing.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_ARTIFACT_READER_H
#define MFSA_ARTIFACT_READER_H

#include "artifact/Format.h"
#include "compiler/Pipeline.h"
#include "mfsa/Mfsa.h"
#include "support/Result.h"
#include "support/SymbolSet.h"

#include <cstdint>
#include <string>
#include <vector>

namespace mfsa::obs {
class MetricsRegistry;
} // namespace mfsa::obs

namespace mfsa::artifact {

/// RAII read-only mmap of a whole file. Movable, non-copyable; unmaps on
/// destruction. The mapping address is stable across moves, so views into
/// it survive ownership transfers.
class MappedFile {
public:
  /// Maps \p Path read-only. Distinct diagnostics for missing, non-regular,
  /// empty, and unmappable files.
  static Result<MappedFile> map(const std::string &Path);

  MappedFile() = default;
  MappedFile(MappedFile &&Other) noexcept;
  MappedFile &operator=(MappedFile &&Other) noexcept;
  MappedFile(const MappedFile &) = delete;
  MappedFile &operator=(const MappedFile &) = delete;
  ~MappedFile();

  const uint8_t *data() const { return Data; }
  size_t size() const { return Bytes; }

private:
  const uint8_t *Data = nullptr;
  size_t Bytes = 0;
};

/// Zero-copy view of one MFSA inside the mapped image: raw byte pointers
/// plus little-endian decoding accessors. Valid only while the owning
/// LoadedArtifact (and its mapping) is alive. All accessor indices are
/// caller-trusted *after* load-time validation bounded them.
struct MfsaView {
  MfsaMetaRecord Meta;
  const uint8_t *Transitions = nullptr;
  const uint8_t *Labels = nullptr;
  const uint8_t *Bels = nullptr;
  const uint8_t *Rules = nullptr;
  const uint8_t *Finals = nullptr;

  TransitionRecord transition(uint64_t I) const;
  SymbolSet label(uint32_t I) const;
  /// Word \p W of belonging set \p I.
  uint64_t belWord(uint32_t I, uint32_t W) const;
  RuleRecord rule(uint32_t I) const;
  uint32_t finalAt(uint64_t I) const;

  /// Copies the view into the library's Mfsa model (the form the engines'
  /// constructors preprocess). The bounds were validated at load time.
  Mfsa materialize() const;
};

/// Loader knobs.
struct LoadOptions {
  /// Opt-in translation-validation spot check: recompile up to
  /// SpotCheckMaxRules embedded patterns and prove each extracted rule
  /// language equals the fresh compile (Eq. 10 confidence on top of the
  /// structural checks). Requires embedded patterns; skipped silently when
  /// the artifact carries none.
  bool SpotCheckValidate = false;
  uint32_t SpotCheckMaxRules = 8;

  /// Resource ceilings on declared sizes, enforced before any allocation
  /// sized by untrusted counts (0 = unlimited). Defaults comfortably above
  /// every Table I dataset.
  uint64_t MaxStates = 1ull << 26;
  uint64_t MaxTransitions = 1ull << 27;
};

/// A successfully loaded artifact: the mapping, validated per-MFSA views,
/// and decoded global metadata.
class LoadedArtifact {
public:
  uint32_t numMfsas() const { return static_cast<uint32_t>(Views.size()); }
  const MfsaView &view(uint32_t I) const { return Views[I]; }

  /// Materializes every MFSA for engine construction.
  std::vector<Mfsa> materializeAll() const;

  /// Embedded source patterns (empty when the artifact carries none).
  const std::vector<std::string> &patterns() const { return Patterns; }

  const ArtifactHeader &header() const { return Header; }

private:
  friend Result<LoadedArtifact> loadArtifact(const std::string &,
                                             const LoadOptions &,
                                             obs::MetricsRegistry *);
  MappedFile File;
  ArtifactHeader Header;
  std::vector<MfsaView> Views;
  std::vector<std::string> Patterns;
};

/// Maps and fully validates the artifact at \p Path (see file comment for
/// the ladder). On success records `artifact.load.duration_ms`,
/// `artifact.load.bytes`, and `artifact.load.count` into \p Metrics (when
/// non-null); on failure records `artifact.load.failures` and returns the
/// diagnostic.
Result<LoadedArtifact> loadArtifact(const std::string &Path,
                                    const LoadOptions &Options = {},
                                    obs::MetricsRegistry *Metrics = nullptr);

/// What loadArtifactOrRecompile produced.
struct RecoveredRuleset {
  std::vector<Mfsa> Mfsas;
  /// True when the artifact loaded; false when the fallback recompiled.
  bool FromArtifact = false;
  /// The load diagnostic that triggered the fallback (empty on artifact
  /// success).
  std::string FallbackReason;
  /// Embedded patterns when loaded from the artifact (empty otherwise).
  std::vector<std::string> Patterns;
};

/// The graceful-degradation entry point: try the artifact; on *any*
/// validation failure fall back to compiling \p FallbackPatterns with
/// \p Compile, bumping `artifact.fallback.count`. Fails only when the
/// artifact is rejected and no (or unbuildable) fallback rules are given —
/// a diagnosed error either way, never a crash or a silently wrong table.
Result<RecoveredRuleset>
loadArtifactOrRecompile(const std::string &Path,
                        const std::vector<std::string> &FallbackPatterns,
                        const CompileOptions &Compile = {},
                        const LoadOptions &Options = {},
                        obs::MetricsRegistry *Metrics = nullptr);

} // namespace mfsa::artifact

#endif // MFSA_ARTIFACT_READER_H
