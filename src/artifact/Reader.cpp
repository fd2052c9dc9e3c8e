//===- Reader.cpp - corruption-hardened MFSA artifact loading ----------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
//
// Defensive-loading discipline: the image is mapped read-only and every
// decode below first proves its extent lies inside the mapping (and inside
// its section) before touching a byte, using overflow-safe comparisons of
// the form `A <= Size && B <= Size - A` — never `A + B <= Size`. Indices
// read from the image (state ids, label/bel/final indices, counts) are
// treated as hostile until bounds-checked against the cross-validated meta
// records. Only after the whole ladder passes does any engine-visible
// structure get built.
//
//===----------------------------------------------------------------------===//

#include "artifact/Reader.h"

#include "analysis/TranslationValidate.h"
#include "analysis/Verifier.h"
#include "fsa/Builder.h"
#include "fsa/Passes.h"
#include "obs/Metrics.h"
#include "regex/Parser.h"
#include "support/Checksum.h"
#include "support/Endian.h"
#include "support/FaultInject.h"
#include "support/StringUtil.h"
#include "support/Timer.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <map>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace mfsa;
using namespace mfsa::artifact;

//===----------------------------------------------------------------------===//
// MappedFile
//===----------------------------------------------------------------------===//

Result<MappedFile> MappedFile::map(const std::string &Path) {
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0)
    return Result<MappedFile>::error("cannot open " + Path + ": " +
                                     errnoString(errno));
  struct stat St;
  if (::fstat(Fd, &St) != 0) {
    const std::string E = errnoString(errno);
    ::close(Fd);
    return Result<MappedFile>::error("cannot stat " + Path + ": " + E);
  }
  if (!S_ISREG(St.st_mode)) {
    ::close(Fd);
    return Result<MappedFile>::error(Path + " is not a regular file");
  }
  if (St.st_size == 0) {
    ::close(Fd);
    return Result<MappedFile>::error(Path + " is empty");
  }
  void *Mem = ::mmap(nullptr, static_cast<size_t>(St.st_size), PROT_READ,
                     MAP_PRIVATE, Fd, 0);
  ::close(Fd);
  if (Mem == MAP_FAILED)
    return Result<MappedFile>::error("cannot mmap " + Path + ": " +
                                     errnoString(errno));
  MappedFile File;
  File.Data = static_cast<const uint8_t *>(Mem);
  File.Bytes = static_cast<size_t>(St.st_size);
  return File;
}

MappedFile::MappedFile(MappedFile &&Other) noexcept
    : Data(Other.Data), Bytes(Other.Bytes) {
  Other.Data = nullptr;
  Other.Bytes = 0;
}

MappedFile &MappedFile::operator=(MappedFile &&Other) noexcept {
  if (this != &Other) {
    if (Data)
      ::munmap(const_cast<uint8_t *>(Data), Bytes);
    Data = Other.Data;
    Bytes = Other.Bytes;
    Other.Data = nullptr;
    Other.Bytes = 0;
  }
  return *this;
}

MappedFile::~MappedFile() {
  if (Data)
    ::munmap(const_cast<uint8_t *>(Data), Bytes);
}

//===----------------------------------------------------------------------===//
// MfsaView
//===----------------------------------------------------------------------===//

TransitionRecord MfsaView::transition(uint64_t I) const {
  const uint8_t *P = Transitions + I * kTransitionRecordBytes;
  return {loadLE32(P), loadLE32(P + 4), loadLE32(P + 8), loadLE32(P + 12)};
}

SymbolSet MfsaView::label(uint32_t I) const {
  const uint8_t *P = Labels + uint64_t(I) * kLabelRecordBytes;
  std::array<uint64_t, SymbolSet::NumWords> W;
  for (unsigned J = 0; J < SymbolSet::NumWords; ++J)
    W[J] = loadLE64(P + 8 * J);
  return SymbolSet::fromWords(W);
}

uint64_t MfsaView::belWord(uint32_t I, uint32_t W) const {
  return loadLE64(Bels + (uint64_t(I) * Meta.BelWords + W) * 8);
}

RuleRecord MfsaView::rule(uint32_t I) const {
  const uint8_t *P = Rules + uint64_t(I) * kRuleRecordBytes;
  return {loadLE32(P),      loadLE32(P + 4),  loadLE32(P + 8),
          loadLE32(P + 12), loadLE32(P + 16), loadLE32(P + 20)};
}

uint32_t MfsaView::finalAt(uint64_t I) const {
  return loadLE32(Finals + I * 4);
}

Mfsa MfsaView::materialize() const {
  Mfsa Z(Meta.NumRules);
  for (uint32_t S = 0; S < Meta.NumStates; ++S)
    Z.addState();
  for (uint64_t I = 0; I < Meta.NumTransitions; ++I) {
    const TransitionRecord T = transition(I);
    DynamicBitset Bel(Meta.NumRules);
    for (uint32_t W = 0; W < Meta.BelWords; ++W)
      Bel.words()[W] = belWord(T.BelIdx, W);
    Z.addTransition(T.From, T.To, label(T.LabelIdx), std::move(Bel));
  }
  for (uint32_t R = 0; R < Meta.NumRules; ++R) {
    const RuleRecord RR = rule(R);
    Mfsa::RuleInfo &Info = Z.rule(R);
    Info.Initial = RR.Initial;
    Info.GlobalId = RR.GlobalId;
    Info.AnchoredStart = (RR.Flags & kRuleFlagAnchoredStart) != 0;
    Info.AnchoredEnd = (RR.Flags & kRuleFlagAnchoredEnd) != 0;
    Info.Finals.reserve(RR.FinalsCount);
    for (uint32_t K = 0; K < RR.FinalsCount; ++K)
      Info.Finals.push_back(finalAt(uint64_t(RR.FinalsBegin) + K));
  }
  return Z;
}

std::vector<Mfsa> LoadedArtifact::materializeAll() const {
  std::vector<Mfsa> Out;
  Out.reserve(Views.size());
  for (const MfsaView &V : Views)
    Out.push_back(V.materialize());
  return Out;
}

//===----------------------------------------------------------------------===//
// Validation ladder
//===----------------------------------------------------------------------===//

namespace {

/// Per-kind fixed record size in bytes; 0 marks byte-granular blobs.
uint32_t recordBytes(SectionKind Kind) {
  switch (Kind) {
  case SectionKind::MfsaMeta:
    return kMfsaMetaRecordBytes;
  case SectionKind::Transitions:
    return kTransitionRecordBytes;
  case SectionKind::LabelPool:
    return kLabelRecordBytes;
  case SectionKind::BelPool:
    return 0; // Record size is BelWords * 8, checked per MFSA.
  case SectionKind::Rules:
    return kRuleRecordBytes;
  case SectionKind::Finals:
    return 4;
  case SectionKind::PatternOffsets:
    return 8;
  case SectionKind::PatternBlob:
    return 0; // Count is the byte count.
  }
  return 0;
}

bool isGlobalKind(SectionKind Kind) {
  return Kind == SectionKind::MfsaMeta ||
         Kind == SectionKind::PatternOffsets ||
         Kind == SectionKind::PatternBlob;
}

/// Validates the whole image and fills \p Header, \p Views, \p Patterns.
/// \p Path only labels diagnostics. Returns the first violation found;
/// checks are ordered cheap-to-expensive so truncation and bit flips are
/// rejected before any structural work.
Result<bool> validateImage(const std::string &Path, const uint8_t *D,
                           size_t Size, const LoadOptions &Options,
                           ArtifactHeader &Header,
                           std::vector<MfsaView> &Views,
                           std::vector<std::string> &Patterns) {
  auto Err = [&](const std::string &Msg,
                 size_t Offset = static_cast<size_t>(-1)) {
    return Result<bool>(Diag("artifact " + Path + ": " + Msg, Offset));
  };

  // -- Header ------------------------------------------------------------
  if (Size < kHeaderBytes)
    return Err("truncated: " + std::to_string(Size) +
               " bytes, header needs " + std::to_string(kHeaderBytes));
  if (std::memcmp(D, kMagic, sizeof(kMagic)) != 0)
    return Err("bad magic (not an MFSA artifact)", 0);
  Header.SchemaVersion = loadLE32(D + 8);
  const uint32_t Endian = loadLE32(D + 12);
  if (Endian != kEndianTag)
    return Err("endianness tag mismatch (image written on an incompatible "
               "host)",
               12);
  if (Header.SchemaVersion != kSchemaVersion)
    return Err("unsupported schema version " +
                   std::to_string(Header.SchemaVersion) +
                   " (this loader implements version " +
                   std::to_string(kSchemaVersion) + ")",
               8);
  if (loadLE32(D + 16) != kHeaderBytes)
    return Err("header size field corrupt", 16);
  Header.SimdLevel = loadLE32(D + 20);
  Header.FileBytes = loadLE64(D + 24);
  Header.NumMfsas = loadLE32(D + 32);
  Header.NumSections = loadLE32(D + 36);
  Header.SectionTableOffset = loadLE64(D + 40);
  Header.RulesetFlags = loadLE32(D + 48);
  Header.MergingFactor = loadLE32(D + 52);
  Header.FileChecksum = loadLE32(D + 56);
  Header.HeaderChecksum = loadLE32(D + 60);

  {
    uint8_t Copy[kHeaderBytes];
    std::memcpy(Copy, D, kHeaderBytes);
    storeLE32(Copy + 60, 0);
    if (crc32c(Copy, kHeaderBytes) != Header.HeaderChecksum)
      return Err("header checksum mismatch", 60);
  }
  for (size_t I = 64; I < kHeaderBytes; ++I)
    if (D[I] != 0)
      return Err("reserved header bytes not zero", I);
  if (Header.FileBytes != Size)
    return Err("size mismatch: header declares " +
                   std::to_string(Header.FileBytes) + " bytes, file has " +
                   std::to_string(Size),
               24);
  if (Header.SectionTableOffset != kHeaderBytes)
    return Err("section table offset corrupt", 40);
  if (Header.RulesetFlags & ~kKnownRulesetFlags)
    return Err("unknown ruleset flags", 48);
  if (crc32c(D + kHeaderBytes, Size - kHeaderBytes) != Header.FileChecksum)
    return Err("file checksum mismatch (image corrupted)", 56);

  // -- Section table -----------------------------------------------------
  if (Header.NumSections == 0)
    return Err("no sections", 36);
  if (Header.NumSections > 65536 || Header.NumMfsas > 65535)
    return Err("implausible section/MFSA count", 32);
  const uint64_t TableEnd =
      kHeaderBytes + uint64_t(Header.NumSections) * kSectionEntryBytes;
  if (TableEnd > Size)
    return Err("section table exceeds file", 36);

  std::vector<SectionEntry> Secs(Header.NumSections);
  for (uint32_t I = 0; I < Header.NumSections; ++I) {
    const uint8_t *E = D + kHeaderBytes + uint64_t(I) * kSectionEntryBytes;
    const size_t At = static_cast<size_t>(E - D);
    SectionEntry &S = Secs[I];
    S.Kind = loadLE32(E + 0);
    S.MfsaIndex = loadLE32(E + 4);
    S.Offset = loadLE64(E + 8);
    S.Bytes = loadLE64(E + 16);
    S.Count = loadLE64(E + 24);
    S.Checksum = loadLE32(E + 32);
    const SectionKind Kind = static_cast<SectionKind>(S.Kind);
    if (S.Kind < 1 || S.Kind > 8)
      return Err("unknown section kind " + std::to_string(S.Kind), At);
    if (loadLE32(E + 36) != 0)
      return Err("section entry reserved field not zero", At + 36);
    if (S.Offset % kSectionAlign != 0)
      return Err(std::string(sectionKindName(S.Kind)) +
                     " section misaligned",
                 At + 8);
    if (S.Offset < TableEnd || S.Offset > Size || S.Bytes > Size - S.Offset)
      return Err(std::string(sectionKindName(S.Kind)) +
                     " section extent outside file",
                 At + 8);
    const uint32_t Rec = recordBytes(Kind);
    if (Rec != 0) {
      if (S.Count > S.Bytes / Rec || S.Bytes != S.Count * Rec)
        return Err(std::string(sectionKindName(S.Kind)) +
                       " section size/count mismatch",
                   At + 16);
    } else if (Kind == SectionKind::PatternBlob) {
      if (S.Bytes != S.Count)
        return Err("pattern-blob size/count mismatch", At + 16);
    } else if (S.Bytes % 8 != 0) { // BelPool: word-granular at minimum.
      return Err("bel-pool section not word-aligned", At + 16);
    }
    if (isGlobalKind(Kind)) {
      if (S.MfsaIndex != kGlobalSection)
        return Err(std::string(sectionKindName(S.Kind)) +
                       " section must be global",
                   At + 4);
    } else if (S.MfsaIndex >= Header.NumMfsas) {
      return Err(std::string(sectionKindName(S.Kind)) +
                     " section references MFSA " +
                     std::to_string(S.MfsaIndex) + " of " +
                     std::to_string(Header.NumMfsas),
                 At + 4);
    }
    if (crc32c(D + S.Offset, S.Bytes) != S.Checksum)
      return Err(std::string(sectionKindName(S.Kind)) +
                     " section checksum mismatch",
                 static_cast<size_t>(S.Offset));
  }

  // No overlapping extents (zero-length sections may coincide).
  {
    std::vector<const SectionEntry *> ByOffset;
    ByOffset.reserve(Secs.size());
    for (const SectionEntry &S : Secs)
      ByOffset.push_back(&S);
    std::sort(ByOffset.begin(), ByOffset.end(),
              [](const SectionEntry *A, const SectionEntry *B) {
                return A->Offset < B->Offset;
              });
    for (size_t I = 1; I < ByOffset.size(); ++I)
      if (ByOffset[I - 1]->Offset + ByOffset[I - 1]->Bytes >
          ByOffset[I]->Offset)
        return Err("overlapping sections",
                   static_cast<size_t>(ByOffset[I]->Offset));
  }

  // Index sections by (kind, mfsa); duplicates are structural corruption.
  std::map<std::pair<uint32_t, uint32_t>, const SectionEntry *> Slot;
  for (const SectionEntry &S : Secs)
    if (!Slot.emplace(std::make_pair(S.Kind, S.MfsaIndex), &S).second)
      return Err("duplicate " + std::string(sectionKindName(S.Kind)) +
                 " section");
  auto Find = [&](SectionKind Kind, uint32_t Mfsa) -> const SectionEntry * {
    auto It = Slot.find({static_cast<uint32_t>(Kind), Mfsa});
    return It == Slot.end() ? nullptr : It->second;
  };

  const SectionEntry *MetaSec =
      Find(SectionKind::MfsaMeta, kGlobalSection);
  if (!MetaSec)
    return Err("missing mfsa-meta section");
  if (MetaSec->Count != Header.NumMfsas)
    return Err("mfsa-meta count disagrees with header",
               static_cast<size_t>(MetaSec->Offset));

  // -- Embedded patterns -------------------------------------------------
  const SectionEntry *PatOff =
      Find(SectionKind::PatternOffsets, kGlobalSection);
  const SectionEntry *PatBlob =
      Find(SectionKind::PatternBlob, kGlobalSection);
  if ((PatOff == nullptr) != (PatBlob == nullptr))
    return Err("pattern sections must appear together");
  if (PatOff) {
    if (PatOff->Count < 1)
      return Err("pattern-offsets section empty",
                 static_cast<size_t>(PatOff->Offset));
    const uint64_t NumPatterns = PatOff->Count - 1;
    uint64_t Prev = loadLE64(D + PatOff->Offset);
    if (Prev != 0)
      return Err("pattern offsets must start at zero",
                 static_cast<size_t>(PatOff->Offset));
    Patterns.reserve(NumPatterns);
    for (uint64_t P = 1; P <= NumPatterns; ++P) {
      const uint64_t Next = loadLE64(D + PatOff->Offset + P * 8);
      if (Next < Prev || Next > PatBlob->Bytes)
        return Err("pattern offsets not monotonic or out of range",
                   static_cast<size_t>(PatOff->Offset + P * 8));
      Patterns.emplace_back(
          reinterpret_cast<const char *>(D + PatBlob->Offset + Prev),
          static_cast<size_t>(Next - Prev));
      Prev = Next;
    }
    if (Prev != PatBlob->Bytes)
      return Err("pattern blob has trailing bytes no offset covers",
                 static_cast<size_t>(PatBlob->Offset));
  }

  // -- Per-MFSA structure ------------------------------------------------
  Views.reserve(Header.NumMfsas);
  for (uint32_t M = 0; M < Header.NumMfsas; ++M) {
    auto MErr = [&](const std::string &Msg, size_t Offset =
                                                static_cast<size_t>(-1)) {
      return Err("MFSA " + std::to_string(M) + ": " + Msg, Offset);
    };
    MfsaView V;
    const uint8_t *MetaP = D + MetaSec->Offset + uint64_t(M) * kMfsaMetaRecordBytes;
    V.Meta.NumStates = loadLE32(MetaP + 0);
    V.Meta.NumRules = loadLE32(MetaP + 4);
    V.Meta.NumTransitions = loadLE32(MetaP + 8);
    V.Meta.BelWords = loadLE32(MetaP + 12);
    V.Meta.NumLabels = loadLE32(MetaP + 16);
    V.Meta.NumBels = loadLE32(MetaP + 20);
    V.Meta.NumFinals = loadLE32(MetaP + 24);
    if (loadLE32(MetaP + 28) != 0)
      return MErr("meta record reserved field not zero");
    if (V.Meta.BelWords != (uint64_t(V.Meta.NumRules) + 63) / 64)
      return MErr("belonging-set width disagrees with rule count");
    if (Options.MaxStates && V.Meta.NumStates > Options.MaxStates)
      return MErr("declares " + std::to_string(V.Meta.NumStates) +
                  " states, over the load ceiling");
    if (Options.MaxTransitions &&
        V.Meta.NumTransitions > Options.MaxTransitions)
      return MErr("declares " + std::to_string(V.Meta.NumTransitions) +
                  " transitions, over the load ceiling");
    if (V.Meta.NumStates == 0 &&
        (V.Meta.NumRules != 0 || V.Meta.NumTransitions != 0))
      return MErr("has rules or transitions but no states");
    if (V.Meta.NumRules == 0 &&
        (V.Meta.NumTransitions != 0 || V.Meta.NumBels != 0))
      return MErr("has transitions but no rules to own them");

    const SectionEntry *Tr = Find(SectionKind::Transitions, M);
    const SectionEntry *La = Find(SectionKind::LabelPool, M);
    const SectionEntry *Be = Find(SectionKind::BelPool, M);
    const SectionEntry *Ru = Find(SectionKind::Rules, M);
    const SectionEntry *Fi = Find(SectionKind::Finals, M);
    if (!Tr || !La || !Be || !Ru || !Fi)
      return MErr("missing per-MFSA section");
    if (Tr->Count != V.Meta.NumTransitions)
      return MErr("transition count disagrees with meta",
                  static_cast<size_t>(Tr->Offset));
    if (La->Count != V.Meta.NumLabels)
      return MErr("label count disagrees with meta",
                  static_cast<size_t>(La->Offset));
    if (Be->Count != V.Meta.NumBels ||
        Be->Bytes != uint64_t(V.Meta.NumBels) * V.Meta.BelWords * 8)
      return MErr("belonging pool size disagrees with meta",
                  static_cast<size_t>(Be->Offset));
    if (Ru->Count != V.Meta.NumRules)
      return MErr("rule count disagrees with meta",
                  static_cast<size_t>(Ru->Offset));
    if (Fi->Count != V.Meta.NumFinals)
      return MErr("finals count disagrees with meta",
                  static_cast<size_t>(Fi->Offset));

    V.Transitions = D + Tr->Offset;
    V.Labels = D + La->Offset;
    V.Bels = D + Be->Offset;
    V.Rules = D + Ru->Offset;
    V.Finals = D + Fi->Offset;

    // Element-level bounds: every index an engine would ever follow.
    for (uint32_t L = 0; L < V.Meta.NumLabels; ++L)
      if (V.label(L).empty())
        return MErr("label " + std::to_string(L) + " is empty (ε is not "
                    "serializable)",
                    static_cast<size_t>(La->Offset));
    const uint32_t TailBits = V.Meta.NumRules % 64;
    for (uint32_t B = 0; B < V.Meta.NumBels; ++B) {
      uint64_t Any = 0;
      for (uint32_t W = 0; W < V.Meta.BelWords; ++W)
        Any |= V.belWord(B, W);
      if (Any == 0)
        return MErr("belonging set " + std::to_string(B) + " is empty",
                    static_cast<size_t>(Be->Offset));
      if (TailBits != 0 &&
          (V.belWord(B, V.Meta.BelWords - 1) & (~0ULL << TailBits)) != 0)
        return MErr("belonging set " + std::to_string(B) +
                        " references rules past the rule count",
                    static_cast<size_t>(Be->Offset));
    }
    for (uint64_t T = 0; T < V.Meta.NumTransitions; ++T) {
      const TransitionRecord R = V.transition(T);
      if (R.From >= V.Meta.NumStates || R.To >= V.Meta.NumStates)
        return MErr("transition " + std::to_string(T) +
                        " endpoint out of range",
                    static_cast<size_t>(Tr->Offset));
      if (R.LabelIdx >= V.Meta.NumLabels)
        return MErr("transition " + std::to_string(T) +
                        " label index out of range",
                    static_cast<size_t>(Tr->Offset));
      if (R.BelIdx >= V.Meta.NumBels)
        return MErr("transition " + std::to_string(T) +
                        " belonging index out of range",
                    static_cast<size_t>(Tr->Offset));
    }
    for (uint32_t R = 0; R < V.Meta.NumRules; ++R) {
      const RuleRecord RR = V.rule(R);
      if (RR.Initial >= V.Meta.NumStates)
        return MErr("rule " + std::to_string(R) +
                        " initial state out of range",
                    static_cast<size_t>(Ru->Offset));
      if (RR.Flags & ~kKnownRuleFlags)
        return MErr("rule " + std::to_string(R) + " has unknown flags",
                    static_cast<size_t>(Ru->Offset));
      if (RR.Reserved != 0)
        return MErr("rule " + std::to_string(R) +
                        " reserved field not zero",
                    static_cast<size_t>(Ru->Offset));
      if (RR.FinalsBegin > V.Meta.NumFinals ||
          RR.FinalsCount > V.Meta.NumFinals - RR.FinalsBegin)
        return MErr("rule " + std::to_string(R) +
                        " finals range out of bounds",
                    static_cast<size_t>(Ru->Offset));
      if (PatOff && RR.GlobalId >= Patterns.size())
        return MErr("rule " + std::to_string(R) +
                        " global id past the embedded ruleset",
                    static_cast<size_t>(Ru->Offset));
    }
    for (uint64_t F = 0; F < V.Meta.NumFinals; ++F)
      if (V.finalAt(F) >= V.Meta.NumStates)
        return MErr("final state entry " + std::to_string(F) +
                        " out of range",
                    static_cast<size_t>(Fi->Offset));

    // Semantic pass: the PR 2 verifier on the materialized automaton
    // (per-rule connectivity, duplicate-arc coalescing, id consistency).
    const std::string E = verifyMfsaError(V.materialize());
    if (!E.empty())
      return MErr("failed structural verification: " + E);
    Views.push_back(V);
  }
  return true;
}

/// Opt-in Eq. 10 spot check: prove sampled extracted rule languages equal a
/// fresh compile of the embedded patterns.
Result<bool> spotCheck(const std::string &Path, const LoadedArtifact &Art,
                       const LoadOptions &Options, uint32_t RulesetFlags) {
  if (Art.patterns().empty())
    return true; // Nothing to check against; structural checks stand alone.
  ParseOptions Parse;
  Parse.CaseInsensitive = (RulesetFlags & kFlagCaseInsensitive) != 0;
  uint32_t Budget = Options.SpotCheckMaxRules;
  for (uint32_t M = 0; M < Art.numMfsas() && Budget > 0; ++M) {
    const Mfsa Z = Art.view(M).materialize();
    for (RuleId R = 0; R < Z.numRules() && Budget > 0; ++R, --Budget) {
      const uint32_t Gid = Z.rule(R).GlobalId;
      const std::string &Pattern = Art.patterns()[Gid];
      Result<Regex> Re = parseRegex(Pattern, Parse);
      if (!Re.ok())
        return Result<bool>::error(
            "artifact " + Path + ": embedded pattern " +
            std::to_string(Gid) + " no longer parses: " +
            Re.diag().Message);
      Result<Nfa> Built = buildNfa(*Re);
      if (!Built.ok())
        return Result<bool>::error("artifact " + Path +
                                   ": embedded pattern " +
                                   std::to_string(Gid) + " no longer "
                                   "compiles: " + Built.diag().Message);
      const Nfa Expected = optimizeForMerging(*Built);
      const std::string Refuted = validatePassEquivalenceError(
          Expected, Z.extractRule(R), "artifact.load.spot-check", {});
      if (!Refuted.empty())
        return Result<bool>::error(
            "artifact " + Path + ": spot check refuted rule " +
            std::to_string(Gid) + ": " + Refuted);
    }
  }
  return true;
}

} // namespace

Result<LoadedArtifact>
mfsa::artifact::loadArtifact(const std::string &Path,
                             const LoadOptions &Options,
                             obs::MetricsRegistry *Metrics) {
  Timer Clock;
  auto Fail = [&](Diag D) {
    if (Metrics)
      Metrics->counter("artifact.load.failures").add(1);
    return Result<LoadedArtifact>(std::move(D));
  };

  if (readFaultSpec().at(FaultPoint::Load, 0)) {
    Diag D = injectedFault();
    D.Message += " while loading " + Path;
    return Fail(std::move(D));
  }

  Result<MappedFile> File = MappedFile::map(Path);
  if (!File.ok())
    return Fail(File.takeDiag());

  LoadedArtifact Out;
  Out.File = File.take();
  Result<bool> Valid =
      validateImage(Path, Out.File.data(), Out.File.size(), Options,
                    Out.Header, Out.Views, Out.Patterns);
  if (!Valid.ok())
    return Fail(Valid.takeDiag());

  if (Options.SpotCheckValidate) {
    Result<bool> Checked =
        spotCheck(Path, Out, Options, Out.Header.RulesetFlags);
    if (!Checked.ok())
      return Fail(Checked.takeDiag());
  }

  if (Metrics) {
    Metrics->gauge("artifact.load.duration_ms")
        .set(static_cast<int64_t>(Clock.elapsedMs()));
    Metrics->gauge("artifact.load.bytes")
        .set(static_cast<int64_t>(Out.File.size()));
    Metrics->counter("artifact.load.count").add(1);
  }
  return Out;
}

Result<RecoveredRuleset> mfsa::artifact::loadArtifactOrRecompile(
    const std::string &Path, const std::vector<std::string> &FallbackPatterns,
    const CompileOptions &Compile, const LoadOptions &Options,
    obs::MetricsRegistry *Metrics) {
  Result<LoadedArtifact> Loaded = loadArtifact(Path, Options, Metrics);
  if (Loaded.ok()) {
    RecoveredRuleset Out;
    Out.Mfsas = Loaded->materializeAll();
    Out.FromArtifact = true;
    Out.Patterns = Loaded->patterns();
    return Out;
  }

  if (Metrics)
    Metrics->counter("artifact.fallback.count").add(1);
  const std::string Reason = Loaded.diag().render();
  if (FallbackPatterns.empty())
    return Result<RecoveredRuleset>::error(
        Reason + " (and no fallback ruleset was provided)");

  Result<CompileArtifacts> Recompiled =
      compileRuleset(FallbackPatterns, Compile);
  if (!Recompiled.ok())
    return Result<RecoveredRuleset>(
        Recompiled.withContext("fallback recompile after: " + Reason)
            .takeDiag());
  RecoveredRuleset Out;
  Out.Mfsas = std::move(Recompiled->Mfsas);
  Out.FromArtifact = false;
  Out.FallbackReason = Reason;
  Out.Patterns = FallbackPatterns;
  return Out;
}
