// Common file-system types and constants shared by LibFS, NICFS, and the
// baseline DFS implementations.

#ifndef SRC_FSLIB_TYPES_H_
#define SRC_FSLIB_TYPES_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/sim/result.h"

namespace linefs::fslib {

using InodeNum = uint64_t;

inline constexpr InodeNum kInvalidInode = 0;
inline constexpr InodeNum kRootInode = 1;

inline constexpr uint64_t kBlockSize = 4096;
inline constexpr uint64_t kBlockShift = 12;

// Pipeline chunk: the unit of fetching/validation/publication/replication.
inline constexpr uint64_t kDefaultChunkSize = 4ULL << 20;  // 4 MB (§3.1).

enum class FileType : uint16_t {
  kNone = 0,
  kRegular = 1,
  kDirectory = 2,
};

// Simplified POSIX permission bits (owner rwx only; the permission-check
// *path* matters for the experiments, not the full mode space).
inline constexpr uint16_t kPermRead = 0x4;
inline constexpr uint16_t kPermWrite = 0x2;
inline constexpr uint16_t kPermAll = 0x7;

// Open flags.
inline constexpr uint32_t kOpenRead = 1u << 0;
inline constexpr uint32_t kOpenWrite = 1u << 1;
inline constexpr uint32_t kOpenCreate = 1u << 2;
inline constexpr uint32_t kOpenTrunc = 1u << 3;
inline constexpr uint32_t kOpenAppend = 1u << 4;

struct FileAttr {
  InodeNum inum = kInvalidInode;
  FileType type = FileType::kNone;
  uint16_t mode = kPermAll;
  uint64_t size = 0;
  uint64_t nlink = 0;
};

// An immutable slice of a byte buffer that its slices share: copying one
// copies a reference, not the bytes. A log range fetched once into NIC
// memory travels this way to validation, publication and every replica, and
// the parsed entries' payloads are slices of it. The buffer lives as long as
// its last slice.
class SharedBytes {
 public:
  using value_type = uint8_t;
  using iterator = const uint8_t*;
  using const_iterator = const uint8_t*;

  SharedBytes() = default;
  // Takes the vector's bytes without copying them.
  explicit SharedBytes(std::vector<uint8_t> bytes);
  // A buffer of n bytes that fill(uint8_t* bytes) writes once; it is not
  // zero-filled first.
  template <typename Fn>
  static SharedBytes Filled(uint64_t n, Fn fill) {
    if (n == 0) {
      return SharedBytes();
    }
    std::shared_ptr<uint8_t[]> buffer = Allocate(n);
    fill(buffer.get());
    SharedBytes bytes;
    bytes.data_ = buffer.get();
    bytes.size_ = n;
    bytes.owner_ = std::move(buffer);
    return bytes;
  }

  const uint8_t* data() const { return data_; }
  uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const uint8_t* begin() const { return data_; }
  const uint8_t* end() const { return data_ + size_; }
  uint8_t operator[](uint64_t i) const { return data_[i]; }
  operator std::span<const uint8_t>() const { return {data_, size_}; }

  // Bytes [offset, offset + n) of this slice, sharing its buffer.
  SharedBytes Slice(uint64_t offset, uint64_t n) const;

  friend bool operator==(const SharedBytes& a, std::span<const uint8_t> b);
  friend bool operator==(const SharedBytes& a, const SharedBytes& b) {
    return a == std::span<const uint8_t>(b);
  }

 private:
  // An uninitialised buffer of n > 0 bytes. Large ones (log-range images)
  // reuse a recently freed buffer of about the same size when there is one.
  static std::shared_ptr<uint8_t[]> Allocate(uint64_t n);

  std::shared_ptr<const void> owner_;
  const uint8_t* data_ = nullptr;
  uint64_t size_ = 0;
};

inline uint64_t BlocksFor(uint64_t bytes) { return (bytes + kBlockSize - 1) >> kBlockShift; }

// CRC32C (Castagnoli polynomial) used for log entry integrity: the CPU's
// crc32 instruction where it has SSE4.2, else the table path.
uint32_t Crc32c(const void* data, size_t len, uint32_t seed = 0);

// The two paths behind Crc32c, for tests that compare them. Crc32cHardware
// may only be called when Crc32cHasHardware() is true.
uint32_t Crc32cSlicing8(const void* data, size_t len, uint32_t seed);
uint32_t Crc32cHardware(const void* data, size_t len, uint32_t seed);
bool Crc32cHasHardware();

}  // namespace linefs::fslib

#endif  // SRC_FSLIB_TYPES_H_
