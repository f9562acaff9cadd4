// LibFS's in-DRAM index over its un-published private log (§4 "Fast read").
//
// Reads are two-step in LineFS: first the client-private log (via this hash
// index), then the public area. The index tracks, per inode and per 4KB
// block, which pending log entries overlay that block (applied oldest->newest
// on read), plus pending namespace state (created/deleted names) and pending
// attributes (sizes) — everything a read needs before publication catches up.
// It is volatile by design: after a crash it is rebuilt from the log.

#ifndef SRC_FSLIB_INDEX_H_
#define SRC_FSLIB_INDEX_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/fslib/oplog.h"
#include "src/fslib/types.h"

namespace linefs::fslib {

class PrivateIndex {
 public:
  struct Overlay {
    uint64_t seq = 0;
    uint64_t logical_pos = 0;   // Log position of the entry header.
    uint64_t file_offset = 0;   // Where the entry's payload lands in the file.
    uint32_t len = 0;
  };

  enum class NameState {
    kUnknown,  // Index has no pending opinion; consult the public area.
    kExists,   // Pending create (value = inum).
    kDeleted,  // Pending unlink.
  };

  // --- Updates (mirroring every appended log entry) -------------------------

  void OnData(InodeNum inum, uint64_t file_offset, uint32_t len, uint64_t seq,
              uint64_t logical_pos);
  void OnCreate(InodeNum parent, const std::string& name, InodeNum inum, FileType type,
                uint64_t logical_pos);
  void OnUnlink(InodeNum parent, const std::string& name, InodeNum inum, uint64_t logical_pos);
  void OnRename(InodeNum src_parent, const std::string& old_name, InodeNum dst_parent,
                const std::string& new_name, InodeNum inum, uint64_t logical_pos);
  void OnTruncate(InodeNum inum, uint64_t new_size, uint64_t logical_pos);

  // --- Lookups ---------------------------------------------------------------

  // Pending overlays intersecting [offset, offset+len), oldest first.
  std::vector<Overlay> LookupRange(InodeNum inum, uint64_t offset, uint64_t len) const;

  std::pair<NameState, InodeNum> LookupName(InodeNum parent, const std::string& name) const;

  // Pending size, if any entry changed it (running max across writes, reset
  // by truncate).
  std::optional<uint64_t> PendingSize(InodeNum inum) const;
  // (pending size, exact?) — exact means a create/truncate fixed the size, so
  // it overrides (rather than maxes with) the published size.
  std::pair<std::optional<uint64_t>, bool> PendingSizeInfo(InodeNum inum) const;
  // Pending dirents of `dir`: (name, exists?) pairs.
  std::vector<std::pair<std::string, bool>> PendingNames(InodeNum dir) const;
  std::optional<FileType> PendingType(InodeNum inum) const;
  bool PendingDeleted(InodeNum inum) const;

  // --- Reclaim ----------------------------------------------------------------

  // Forgets state derived from log entries below `published_upto` (those are
  // now served by the public area).
  void DropPublished(uint64_t published_upto);

 private:
  // The overlays touching one block, in insertion (== seq == log) order. Most
  // blocks only ever hold one, so the oldest is kept inline.
  struct BlockOverlays {
    Overlay oldest;
    std::vector<Overlay> newer;

    size_t size() const { return 1 + newer.size(); }
    const Overlay& operator[](size_t i) const { return i == 0 ? oldest : newer[i - 1]; }
  };
  struct InodeState {
    std::unordered_map<uint64_t, BlockOverlays> blocks;  // block# -> overlays
    std::optional<uint64_t> pending_size;
    bool size_exact = false;  // Set by create/truncate: overrides public size.
    std::optional<FileType> pending_type;
    bool deleted = false;
    uint64_t last_pos = 0;  // Newest log entry position for this inode.
  };
  struct NameEntry {
    NameState state = NameState::kUnknown;
    InodeNum inum = kInvalidInode;
    uint64_t logical_pos = 0;
  };
  struct NameKey {
    InodeNum parent;
    std::string name;
    bool operator==(const NameKey&) const = default;
  };
  struct NameKeyHash {
    size_t operator()(const NameKey& k) const {
      return std::hash<InodeNum>()(k.parent) * 1000003 ^ std::hash<std::string>()(k.name);
    }
  };

  // Append-ordered logs of every update, so DropPublished reclaims by popping
  // the published prefix instead of scanning the whole index. An inode ref
  // covers the blocks [first_block, first_block + nblocks) its entry overlaid
  // (none for metadata entries). Refs can go stale (a later entry touched the
  // same state, or unlink/truncate cleared a block); they are skipped.
  struct InodeRef {
    uint64_t logical_pos;
    InodeNum inum;
    uint64_t first_block = 0;
    uint64_t nblocks = 0;
  };
  struct NameRef {
    uint64_t logical_pos;
    NameKey key;
  };

  // The state of `inum`, marked as last changed by the entry at logical_pos;
  // logs a ref to the entry and the blocks it overlays.
  InodeState& Touch(InodeNum inum, uint64_t logical_pos, uint64_t first_block = 0,
                    uint64_t nblocks = 0);
  // Sets the pending state of a name and logs a ref to it.
  void SetName(const NameKey& key, NameEntry entry);

  std::unordered_map<InodeNum, InodeState> inodes_;
  std::unordered_map<NameKey, NameEntry, NameKeyHash> names_;
  std::deque<InodeRef> inode_log_;
  std::deque<NameRef> name_log_;
};

}  // namespace linefs::fslib

#endif  // SRC_FSLIB_INDEX_H_
