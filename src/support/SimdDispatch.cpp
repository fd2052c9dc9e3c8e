//===- SimdDispatch.cpp - runtime SIMD level selection -------------------------===//
//
// Part of the mfsa project. MIT License.
//
//===----------------------------------------------------------------------===//
//
// The scalar kernels plus the level-resolution state machine. The scalar
// table is the semantics contract: every vector table must return the same
// index and the same checksum on every input (tests/SimdTest.cpp enforces
// this on randomized lengths and needle sets, and on every CRC length up to
// 1 KiB at each alignment).
//
//===----------------------------------------------------------------------===//

#include "support/SimdDispatch.h"

#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace mfsa;
using namespace mfsa::simd;

//===----------------------------------------------------------------------===//
// Scalar reference kernels
//===----------------------------------------------------------------------===//

namespace {

size_t scalarFindByteInSet(const uint8_t *Data, size_t Len,
                           const uint8_t *Needles, uint32_t NumNeedles,
                           const uint64_t Bitmap[4]) {
  (void)Needles;
  (void)NumNeedles;
  for (size_t I = 0; I < Len; ++I)
    if (Bitmap[Data[I] >> 6] >> (Data[I] & 63) & 1)
      return I;
  return Len;
}

/// 256-entry lookup table for the reflected CRC32C polynomial, built once on
/// first use (cheap, deterministic, no static-init ordering hazards).
const std::array<uint32_t, 256> &crcTable() {
  static const std::array<uint32_t, 256> Table = [] {
    std::array<uint32_t, 256> T{};
    constexpr uint32_t Poly = 0x82F63B78u; // CRC32C, reflected.
    for (uint32_t I = 0; I < 256; ++I) {
      uint32_t Crc = I;
      for (int Bit = 0; Bit < 8; ++Bit)
        Crc = (Crc >> 1) ^ ((Crc & 1) ? Poly : 0);
      T[I] = Crc;
    }
    return T;
  }();
  return Table;
}

uint32_t scalarCrc32c(const uint8_t *Data, size_t Len, uint32_t Seed) {
  const std::array<uint32_t, 256> &Table = crcTable();
  uint32_t Crc = ~Seed;
  for (size_t I = 0; I < Len; ++I)
    Crc = (Crc >> 8) ^ Table[(Crc ^ Data[I]) & 0xFF];
  return ~Crc;
}

constexpr KernelTable ScalarTable = {"scalar", scalarFindByteInSet,
                                     scalarCrc32c};

} // namespace

const KernelTable &mfsa::simd::scalarKernels() { return ScalarTable; }

// When a vector translation unit is excluded from the build (non-x86
// target, compiler without the flag, or -DMFSA_SIMD capped the build), the
// getter resolves to this null stub instead; MFSA_HAVE_*_KERNELS is defined
// on the mfsa_support target exactly when the TU is compiled.
#ifndef MFSA_HAVE_SSE42_KERNELS
const KernelTable *mfsa::simd::sse42Kernels() { return nullptr; }
#endif
#ifndef MFSA_HAVE_AVX2_KERNELS
const KernelTable *mfsa::simd::avx2Kernels() { return nullptr; }
#endif

//===----------------------------------------------------------------------===//
// Level resolution
//===----------------------------------------------------------------------===//

namespace {

bool cpuSupports(Level L) {
#if defined(__x86_64__) || defined(__i386__)
  switch (L) {
  case Level::Scalar:
    return true;
  case Level::Sse42:
    return __builtin_cpu_supports("sse4.2") && __builtin_cpu_supports("popcnt");
  case Level::Avx2:
    return __builtin_cpu_supports("avx2");
  }
  return false;
#else
  return L == Level::Scalar;
#endif
}

const KernelTable *compiledTable(Level L) {
  switch (L) {
  case Level::Scalar:
    return &ScalarTable;
  case Level::Sse42:
    return sse42Kernels();
  case Level::Avx2:
    return avx2Kernels();
  }
  return nullptr;
}

// Publication pair. activate() stores the level byte first (relaxed), then
// the table pointer with release; readers acquire-load the table, so any
// reader that sees the new table also sees the matching level byte — the
// byte alone never needs its own ordering. Concurrent first-time activation
// is a benign race: both writers publish the identical (level, table) pair.
std::atomic<const KernelTable *> ActiveTable{nullptr};
std::atomic<uint8_t> ActiveLevelByte{0};

/// Resolves MFSA_SIMD (or auto) to an available level, clamping downward
/// with a one-shot warning when the request cannot be honored.
Level resolveFromEnv() {
  Level Best = bestLevel();
  const char *Env = std::getenv("MFSA_SIMD");
  if (!Env || !*Env || std::strcmp(Env, "auto") == 0)
    return Best;

  Level Requested;
  if (!parseLevel(Env, Requested)) {
    std::fprintf(stderr,
                 "mfsa: MFSA_SIMD=%s is not auto/avx2/sse42/scalar; "
                 "using %s\n",
                 Env, levelName(Best));
    return Best;
  }
  if (levelAvailable(Requested))
    return Requested;
  // Clamp to the best available level at or below the request.
  Level Clamped = Level::Scalar;
  for (Level L : availableLevels())
    if (static_cast<uint8_t>(L) <= static_cast<uint8_t>(Requested))
      Clamped = L;
  std::fprintf(stderr,
               "mfsa: MFSA_SIMD=%s not available in this build/CPU; "
               "using %s\n",
               Env, levelName(Clamped));
  return Clamped;
}

void activate(Level L) {
  ActiveLevelByte.store(static_cast<uint8_t>(L), std::memory_order_relaxed);
  ActiveTable.store(compiledTable(L), std::memory_order_release);
}

const KernelTable &resolveOnce() {
  // Benign race: concurrent first calls resolve to the same table.
  activate(resolveFromEnv());
  return *ActiveTable.load(std::memory_order_acquire);
}

} // namespace

const char *mfsa::simd::levelName(Level L) {
  switch (L) {
  case Level::Scalar:
    return "scalar";
  case Level::Sse42:
    return "sse42";
  case Level::Avx2:
    return "avx2";
  }
  return "unknown";
}

bool mfsa::simd::parseLevel(const char *Text, Level &Out) {
  if (std::strcmp(Text, "scalar") == 0)
    Out = Level::Scalar;
  else if (std::strcmp(Text, "sse42") == 0)
    Out = Level::Sse42;
  else if (std::strcmp(Text, "avx2") == 0)
    Out = Level::Avx2;
  else
    return false;
  return true;
}

bool mfsa::simd::levelAvailable(Level L) {
  return compiledTable(L) != nullptr && cpuSupports(L);
}

std::vector<Level> mfsa::simd::availableLevels() {
  std::vector<Level> Levels;
  for (Level L : {Level::Scalar, Level::Sse42, Level::Avx2})
    if (levelAvailable(L))
      Levels.push_back(L);
  return Levels;
}

Level mfsa::simd::bestLevel() {
  Level Best = Level::Scalar;
  for (Level L : availableLevels())
    Best = L;
  return Best;
}

Level mfsa::simd::activeLevel() {
  if (!ActiveTable.load(std::memory_order_acquire))
    resolveOnce();
  return static_cast<Level>(ActiveLevelByte.load(std::memory_order_relaxed));
}

const KernelTable &mfsa::simd::ops() {
  const KernelTable *T = ActiveTable.load(std::memory_order_acquire);
  if (T)
    return *T;
  return resolveOnce();
}

bool mfsa::simd::setLevel(Level L) {
  if (!levelAvailable(L))
    return false;
  activate(L);
  return true;
}

void mfsa::simd::resetToEnv() { activate(resolveFromEnv()); }
