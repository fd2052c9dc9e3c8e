//===- Format.h - compiled-MFSA artifact binary layout ----------*- C++ -*-===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk layout of the compiled-MFSA artifact: one flat, versioned,
/// checksummed, page-aligned image holding every table the engines need, so
/// a compiled ruleset loads with a single mmap and zero pointer fixups (all
/// references are indices and file offsets; nothing in the image is a
/// memory address). docs/artifact-format.md is the normative spec; this
/// header is its executable form.
///
/// Image shape (every multi-byte field little-endian, support/Endian.h):
///
///   [0, 128)            ArtifactHeader
///   [128, 128 + 40*S)   section table, S = ArtifactHeader::NumSections
///   ...                 section payloads, each 64-byte aligned
///   [..., FileBytes)    zero padding to a kPageBytes multiple
///
/// Integrity is layered so corruption is caught in a cheap pass before any
/// payload is interpreted:
///
///   - HeaderChecksum: CRC32C of the header with the field itself zeroed.
///   - FileChecksum: CRC32C of [HeaderBytes, FileBytes) — section table,
///     payloads, and padding. Any bit flip anywhere in the image fails one
///     of these two.
///   - SectionEntry::Checksum: per-payload CRC32C, so a diagnostic can name
///     the damaged section.
///
/// Checksums prove the bytes are the ones written; they do not prove the
/// writer was sane. The loader therefore re-validates structure — every
/// offset, length, count, and state/label/bel index is bounds-checked
/// before use, and the materialized MFSA passes the PR 2 structural
/// verifier — before any engine sees the data.
///
/// Versioning policy: SchemaVersion is bumped on any layout change; loaders
/// reject images whose version they do not implement (no silent best-effort
/// parsing of future images). Adding a new section *kind* is also a version
/// bump: unknown kinds are rejected, because "ignore what you don't know"
/// and "reject what might matter" cannot be distinguished after the fact.
///
//===----------------------------------------------------------------------===//

#ifndef MFSA_ARTIFACT_FORMAT_H
#define MFSA_ARTIFACT_FORMAT_H

#include <cstddef>
#include <cstdint>

namespace mfsa::artifact {

/// First eight bytes of every artifact: "MFSART1\0".
inline constexpr uint8_t kMagic[8] = {'M', 'F', 'S', 'A', 'R', 'T', '1', 0};

/// Current schema version. History: 1 = initial layout.
inline constexpr uint32_t kSchemaVersion = 1;

/// Value of ArtifactHeader::EndianTag as written. A loader reading it
/// byte-swapped would see 0x04030201 and reject the image.
inline constexpr uint32_t kEndianTag = 0x01020304;

/// Serialized header size; section table starts here.
inline constexpr uint32_t kHeaderBytes = 128;

/// Serialized SectionEntry size.
inline constexpr uint32_t kSectionEntryBytes = 40;

/// Section payload alignment (cache-line) inside the image.
inline constexpr uint32_t kSectionAlign = 64;

/// The image is padded to a multiple of this (classic 4 KiB page), so
/// read-only mappings share cleanly across processes.
inline constexpr uint32_t kPageBytes = 4096;

/// MfsaIndex value marking a section as ruleset-global.
inline constexpr uint32_t kGlobalSection = 0xFFFFFFFFu;

/// RulesetFlags bits (compile provenance the loader needs to recompile or
/// spot-check against the embedded patterns).
inline constexpr uint32_t kFlagCaseInsensitive = 1u << 0;
inline constexpr uint32_t kFlagSplitCcByAtoms = 1u << 1;
inline constexpr uint32_t kKnownRulesetFlags =
    kFlagCaseInsensitive | kFlagSplitCcByAtoms;

/// Section kinds. Per-MFSA kinds appear exactly once per MFSA index;
/// global kinds at most once per image.
enum class SectionKind : uint32_t {
  MfsaMeta = 1,       ///< Global: MfsaMetaRecord[NumMfsas].
  Transitions = 2,    ///< Per MFSA: TransitionRecord[NumTransitions].
  LabelPool = 3,      ///< Per MFSA: uint64[4] per unique SymbolSet label.
  BelPool = 4,        ///< Per MFSA: uint64[BelWords] per unique belonging set.
  Rules = 5,          ///< Per MFSA: RuleRecord[NumRules].
  Finals = 6,         ///< Per MFSA: uint32 state ids, all rules concatenated.
  PatternOffsets = 7, ///< Global: uint64[NumPatterns + 1] into PatternBlob.
  PatternBlob = 8,    ///< Global: concatenated UTF-8 rule text.
};

/// Human-readable section-kind name for diagnostics ("transitions", ...).
inline const char *sectionKindName(uint32_t Kind) {
  switch (static_cast<SectionKind>(Kind)) {
  case SectionKind::MfsaMeta:
    return "mfsa-meta";
  case SectionKind::Transitions:
    return "transitions";
  case SectionKind::LabelPool:
    return "label-pool";
  case SectionKind::BelPool:
    return "bel-pool";
  case SectionKind::Rules:
    return "rules";
  case SectionKind::Finals:
    return "finals";
  case SectionKind::PatternOffsets:
    return "pattern-offsets";
  case SectionKind::PatternBlob:
    return "pattern-blob";
  }
  return "unknown";
}

/// Decoded artifact header. In-memory mirror of the 128 serialized bytes;
/// field offsets in the image are fixed by the writer/reader, not by this
/// struct's ABI.
struct ArtifactHeader {
  uint32_t SchemaVersion = kSchemaVersion;
  uint32_t SimdLevel = 0; ///< CRC32C body at write time (provenance only).
  uint64_t FileBytes = 0; ///< Total image size, padding included.
  uint32_t NumMfsas = 0;
  uint32_t NumSections = 0;
  uint64_t SectionTableOffset = kHeaderBytes;
  uint32_t RulesetFlags = 0;   ///< kFlag* bits.
  uint32_t MergingFactor = 0;  ///< The compile's M (0 = all).
  uint32_t FileChecksum = 0;   ///< CRC32C of [kHeaderBytes, FileBytes).
  uint32_t HeaderChecksum = 0; ///< CRC32C of header bytes, field zeroed.
};

/// Decoded section-table entry.
struct SectionEntry {
  uint32_t Kind = 0;
  uint32_t MfsaIndex = kGlobalSection;
  uint64_t Offset = 0; ///< From file start; kSectionAlign-aligned.
  uint64_t Bytes = 0;  ///< Payload length (excludes inter-section padding).
  uint64_t Count = 0;  ///< Element count (record sections) or byte count (blobs).
  uint32_t Checksum = 0; ///< CRC32C of the payload.
};

/// Per-MFSA summary record (SectionKind::MfsaMeta payload element,
/// 32 bytes). The counts duplicate the per-MFSA sections' Count fields on
/// purpose: redundancy the loader cross-checks.
struct MfsaMetaRecord {
  uint32_t NumStates = 0;
  uint32_t NumRules = 0;
  uint32_t NumTransitions = 0;
  uint32_t BelWords = 0; ///< == ceil(NumRules / 64).
  uint32_t NumLabels = 0;
  uint32_t NumBels = 0;
  uint32_t NumFinals = 0; ///< Total final-state entries over all rules.
  uint32_t Reserved = 0;
};
inline constexpr uint32_t kMfsaMetaRecordBytes = 32;

/// One MFSA transition (SectionKind::Transitions payload element,
/// 16 bytes): endpoints plus indices into the label and belonging pools.
struct TransitionRecord {
  uint32_t From = 0;
  uint32_t To = 0;
  uint32_t LabelIdx = 0;
  uint32_t BelIdx = 0;
};
inline constexpr uint32_t kTransitionRecordBytes = 16;

/// One rule's metadata (SectionKind::Rules payload element, 24 bytes).
struct RuleRecord {
  uint32_t Initial = 0;
  uint32_t GlobalId = 0; ///< Rule index in the original dataset.
  uint32_t Flags = 0;    ///< Bit 0 anchored start, bit 1 anchored end.
  uint32_t FinalsBegin = 0; ///< Into the MFSA's Finals section.
  uint32_t FinalsCount = 0;
  uint32_t Reserved = 0;
};
inline constexpr uint32_t kRuleRecordBytes = 24;
inline constexpr uint32_t kRuleFlagAnchoredStart = 1u << 0;
inline constexpr uint32_t kRuleFlagAnchoredEnd = 1u << 1;
inline constexpr uint32_t kKnownRuleFlags =
    kRuleFlagAnchoredStart | kRuleFlagAnchoredEnd;

/// Bytes per SectionKind::LabelPool element (one 256-bit SymbolSet).
inline constexpr uint32_t kLabelRecordBytes = 32;

/// Rounds \p N up to a multiple of \p Align (a power of two).
inline uint64_t alignUp(uint64_t N, uint64_t Align) {
  return (N + Align - 1) & ~(Align - 1);
}

} // namespace mfsa::artifact

#endif // MFSA_ARTIFACT_FORMAT_H
