#include "src/fslib/types.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace linefs::fslib {

namespace {

// Software CRC32C (Castagnoli, reflected 0x82F63B78), slicing-by-8: eight
// derived tables let the loop fold 8 bytes per iteration instead of 1.
// Produces bit-identical values to the classic byte-at-a-time form.
struct Crc32cTable {
  uint32_t entries[8][256];
  Crc32cTable() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int j = 0; j < 8; ++j) {
        crc = (crc >> 1) ^ ((crc & 1) ? 0x82F63B78u : 0);
      }
      entries[0][i] = crc;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = entries[0][i];
      for (int t = 1; t < 8; ++t) {
        crc = (crc >> 8) ^ entries[0][crc & 0xFF];
        entries[t][i] = crc;
      }
    }
  }
};

const Crc32cTable& Table() {
  static Crc32cTable table;
  return table;
}

}  // namespace

uint32_t Crc32cSlicing8(const void* data, size_t len, uint32_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  const Crc32cTable& table = Table();
  while (len >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = table.entries[7][lo & 0xFF] ^ table.entries[6][(lo >> 8) & 0xFF] ^
          table.entries[5][(lo >> 16) & 0xFF] ^ table.entries[4][lo >> 24] ^
          table.entries[3][hi & 0xFF] ^ table.entries[2][(hi >> 8) & 0xFF] ^
          table.entries[1][(hi >> 16) & 0xFF] ^ table.entries[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  for (size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ table.entries[0][(crc ^ p[i]) & 0xFF];
  }
  return ~crc;
}

#if defined(__x86_64__)

namespace {

// The crc32 instruction has a latency of three cycles but a throughput of
// one per cycle, so one serial chain uses a third of it. The hardware kernel
// runs three chains over adjacent blocks and merges them: CRC is linear over
// GF(2), so the register after A||B is the register after A advanced over
// |B| zero bytes, XOR the register of B alone from zero. Advancing over a
// fixed number of zero bytes is a 32x32 bit matrix, applied here a byte of
// the register at a time through four 256-entry tables (the method of Mark
// Adler's crc32c.c). The matrices are exact, so the result is bit-identical
// to the serial chain.
constexpr size_t kLongBlock = 8192;
constexpr size_t kShortBlock = 256;

// Product of a GF(2) matrix (32 columns) and a 32-bit vector.
uint32_t Gf2Times(const uint32_t* mat, uint32_t vec) {
  uint32_t sum = 0;
  for (; vec != 0; vec >>= 1, ++mat) {
    if ((vec & 1) != 0) {
      sum ^= *mat;
    }
  }
  return sum;
}

void Gf2Square(uint32_t* square, const uint32_t* mat) {
  for (int n = 0; n < 32; ++n) {
    square[n] = Gf2Times(mat, mat[n]);
  }
}

// Tables that advance a CRC register over `len` zero bytes (a power of two).
struct Crc32cShift {
  uint32_t entries[4][256];
  explicit Crc32cShift(size_t len) {
    // The operator for one zero bit, then squared: 2 bits, 4 bits, 1 byte,
    // 2 bytes, ... until it covers `len` bytes.
    uint32_t op[32];
    uint32_t tmp[32];
    op[0] = 0x82F63B78u;
    for (int n = 1; n < 32; ++n) {
      op[n] = 1u << (n - 1);
    }
    for (size_t bits = 1; bits < len * 8; bits *= 2) {
      Gf2Square(tmp, op);
      std::memcpy(op, tmp, sizeof(op));
    }
    for (uint32_t n = 0; n < 256; ++n) {
      for (int b = 0; b < 4; ++b) {
        entries[b][n] = Gf2Times(op, n << (8 * b));
      }
    }
  }
  uint32_t Apply(uint32_t crc) const {
    return entries[0][crc & 0xFF] ^ entries[1][(crc >> 8) & 0xFF] ^
           entries[2][(crc >> 16) & 0xFF] ^ entries[3][crc >> 24];
  }
};

__attribute__((target("sse4.2"))) uint64_t Crc32cWord(uint64_t crc, const uint8_t* p) {
  uint64_t word;
  std::memcpy(&word, p, 8);
  return _mm_crc32_u64(crc, word);
}

// Runs three streams over the next 3 * `block` bytes at `*p` while they
// last, merging each round into `crc`.
__attribute__((target("sse4.2"))) uint64_t Crc32cThreeStreams(uint64_t crc, const uint8_t** p,
                                                             size_t* len, size_t block,
                                                             const Crc32cShift& shift) {
  while (*len >= 3 * block) {
    const uint8_t* next = *p;
    const uint8_t* end = next + block;
    uint64_t crc1 = 0;
    uint64_t crc2 = 0;
    for (; next < end; next += 8) {
      crc = Crc32cWord(crc, next);
      crc1 = Crc32cWord(crc1, next + block);
      crc2 = Crc32cWord(crc2, next + 2 * block);
    }
    crc = shift.Apply(static_cast<uint32_t>(crc)) ^ crc1;
    crc = shift.Apply(static_cast<uint32_t>(crc)) ^ crc2;
    *p += 3 * block;
    *len -= 3 * block;
  }
  return crc;
}

}  // namespace

// Compiled for SSE4.2 by the attributes alone; callers check
// Crc32cHasHardware() first.
__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(const void* data, size_t len,
                                                          uint32_t seed) {
  static const Crc32cShift long_shift(kLongBlock);
  static const Crc32cShift short_shift(kShortBlock);
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t crc = ~seed;
  crc = Crc32cThreeStreams(crc, &p, &len, kLongBlock, long_shift);
  crc = Crc32cThreeStreams(crc, &p, &len, kShortBlock, short_shift);
  for (; len >= 8; p += 8, len -= 8) {
    crc = Crc32cWord(crc, p);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (size_t i = 0; i < len; ++i) {
    crc32 = _mm_crc32_u8(crc32, p[i]);
  }
  return ~crc32;
}

bool Crc32cHasHardware() { return __builtin_cpu_supports("sse4.2"); }

#else

uint32_t Crc32cHardware(const void* data, size_t len, uint32_t seed) {
  return Crc32cSlicing8(data, len, seed);
}

bool Crc32cHasHardware() { return false; }

#endif

uint32_t Crc32c(const void* data, size_t len, uint32_t seed) {
  static const bool hardware = Crc32cHasHardware();
  return hardware ? Crc32cHardware(data, len, seed) : Crc32cSlicing8(data, len, seed);
}

}  // namespace linefs::fslib
