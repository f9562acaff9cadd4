#include "src/pmem/shared_bytes.h"

#include <cstring>

#include "src/sim/check.h"

namespace linefs::pmem {

SharedBytes::SharedBytes(std::vector<uint8_t> bytes) : size_(bytes.size()) {
  auto owned = std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
  data_ = owned->data();
  buffer_size_ = size_;
  buffer_bytes_ = owned->capacity();
  owner_ = std::shared_ptr<const uint8_t>(std::move(owned), data_);
}

namespace {

// Freed log-range images, kept for the next image of about the same size.
// An image runs to a chunk (megabytes). It lives while its range travels
// and while any PM page borrows it, so a run allocates and frees thousands,
// most of them soon after they were filled. Handed back to malloc, each is
// unmapped (above the mmap threshold) or trimmed from the top of the heap,
// and the next one is faulted in afresh page by page. The simulator is
// single-threaded, so the pool takes no lock.
class ImagePool {
 public:
  // Smaller buffers stay in malloc's bins: glibc's default mmap threshold.
  static constexpr uint64_t kMinBytes = 128 << 10;
  // The images in flight at once: fetched, in transfer and being published,
  // on each pipeline.
  static constexpr size_t kMaxKept = 8;

  // A buffer of at least n bytes, and its capacity.
  std::shared_ptr<uint8_t> Take(uint64_t n, uint64_t* capacity) {
    // The smallest kept buffer that fits and wastes at most an eighth.
    auto best = kept_.end();
    for (auto it = kept_.begin(); it != kept_.end(); ++it) {
      if (it->capacity >= n && it->capacity - n <= n / 8 &&
          (best == kept_.end() || it->capacity < best->capacity)) {
        best = it;
      }
    }
    Buffer buffer;
    if (best != kept_.end()) {
      buffer = std::move(*best);
      kept_.erase(best);
    } else {
      buffer = Buffer{std::make_unique_for_overwrite<uint8_t[]>(n), n};
    }
    *capacity = buffer.capacity;
    return std::shared_ptr<uint8_t>(buffer.bytes.release(), Release{this, buffer.capacity});
  }

 private:
  struct Buffer {
    std::unique_ptr<uint8_t[]> bytes;
    uint64_t capacity = 0;
  };
  // The deleter of a buffer handed out: the last owner gives it back.
  struct Release {
    ImagePool* pool;
    uint64_t capacity;
    void operator()(uint8_t* bytes) const {
      pool->Put(Buffer{std::unique_ptr<uint8_t[]>(bytes), capacity});
    }
  };

  void Put(Buffer buffer) {
    if (kept_.size() == kMaxKept) {
      kept_.erase(kept_.begin());
    }
    kept_.push_back(std::move(buffer));
  }

  std::vector<Buffer> kept_;  // Oldest first.
};

}  // namespace

SharedBytes SharedBytes::Allocate(uint64_t n, uint8_t** bytes) {
  std::shared_ptr<uint8_t> buffer;
  uint64_t capacity = n;
  if (n < ImagePool::kMinBytes) {
    std::shared_ptr<uint8_t[]> small = std::make_shared_for_overwrite<uint8_t[]>(n);
    buffer = std::shared_ptr<uint8_t>(small, small.get());
  } else {
    // Never destroyed: an image may be released during static destruction.
    // Its kept buffers stay reachable until the process exits.
    static ImagePool* pool = new ImagePool;
    buffer = pool->Take(n, &capacity);
  }
  *bytes = buffer.get();
  SharedBytes slice;
  slice.data_ = buffer.get();
  slice.size_ = n;
  slice.buffer_size_ = n;
  slice.buffer_bytes_ = capacity;
  slice.owner_ = std::move(buffer);
  return slice;
}

SharedBytes SharedBytes::Slice(uint64_t offset, uint64_t n) const {
  LINEFS_CHECK(offset <= size_ && n <= size_ - offset);
  SharedBytes slice = *this;
  slice.data_ = data_ + offset;
  slice.size_ = n;
  return slice;
}

SharedBytes SharedBytes::Buffer() const {
  SharedBytes whole = *this;
  whole.data_ = owner_.get();
  whole.size_ = buffer_size_;
  return whole;
}

bool operator==(const SharedBytes& a, std::span<const uint8_t> b) {
  return a.size() == b.size() && (a.empty() || std::memcmp(a.data(), b.data(), a.size()) == 0);
}

}  // namespace linefs::pmem
