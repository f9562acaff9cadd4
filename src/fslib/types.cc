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

// The SSE4.2 crc32 instruction computes CRC32C, 8 bytes per instruction.
// Compiled for SSE4.2 by this function's attribute alone; callers check
// Crc32cHasHardware() first.
__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(const void* data, size_t len,
                                                          uint32_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint64_t crc = ~seed;
  while (len >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    crc = _mm_crc32_u64(crc, word);
    p += 8;
    len -= 8;
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
