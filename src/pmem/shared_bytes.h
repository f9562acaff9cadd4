// Immutable, reference-counted byte buffers.
//
// A SharedBytes is a slice of a buffer that its slices share: copying one
// copies a reference, not the bytes. A log range fetched once into NIC memory
// travels this way to validation, publication and every replica, the parsed
// entries' payloads are slices of it, and the PM pages that hold the same
// bytes borrow it (pmem::Region). The buffer lives as long as its last slice
// or borrowing page, and nothing writes to it after it is filled.

#ifndef SRC_PMEM_SHARED_BYTES_H_
#define SRC_PMEM_SHARED_BYTES_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace linefs::pmem {

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
    uint8_t* buffer = nullptr;
    SharedBytes bytes = Allocate(n, &buffer);
    fill(buffer);
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
  // The whole buffer this slice lies in: every byte it was filled with.
  SharedBytes Buffer() const;

  // The buffer's first byte: the same for every slice of one buffer.
  const void* buffer_id() const { return owner_.get(); }
  // Host bytes the buffer keeps alive, whatever this slice's size: its
  // allocation, which may be larger than Buffer().
  uint64_t buffer_bytes() const { return buffer_bytes_; }
  // Slices and borrowing Regions that hold the buffer.
  long use_count() const { return owner_.use_count(); }

  friend bool operator==(const SharedBytes& a, std::span<const uint8_t> b);
  friend bool operator==(const SharedBytes& a, const SharedBytes& b) {
    return a == std::span<const uint8_t>(b);
  }

 private:
  // A slice of n > 0 bytes at the start of a new, uninitialised buffer,
  // which `bytes` points at for filling. Large ones (log-range images) reuse
  // a recently freed buffer of about the same size when there is one.
  static SharedBytes Allocate(uint64_t n, uint8_t** bytes);

  // Points at the buffer's first byte, whatever owns it.
  std::shared_ptr<const uint8_t> owner_;
  const uint8_t* data_ = nullptr;
  uint64_t size_ = 0;
  uint64_t buffer_size_ = 0;
  uint64_t buffer_bytes_ = 0;
};

}  // namespace linefs::pmem

#endif  // SRC_PMEM_SHARED_BYTES_H_
