// Name tables: every enumerator of ErrorCode, DfsMode and PublishMethod maps
// to its own name, never the fallback for an out-of-range value.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/config.h"
#include "src/sim/result.h"

namespace linefs {
namespace {

// Checks that `name` maps each enumerator in `table` to its expected name and
// that no two enumerators share one.
template <typename Enum, typename NameFn>
void ExpectNames(NameFn name, const std::vector<std::pair<Enum, std::string>>& table) {
  std::set<std::string> seen;
  for (const auto& [value, expected] : table) {
    std::string got = name(value);
    EXPECT_EQ(got, expected) << "enumerator " << static_cast<int>(value);
    EXPECT_TRUE(seen.insert(got).second) << "duplicate name " << got;
  }
}

TEST(NameTables, ErrorCodeName) {
  ExpectNames<ErrorCode>(ErrorCodeName, {
      {ErrorCode::kOk, "OK"},
      {ErrorCode::kNotFound, "NOT_FOUND"},
      {ErrorCode::kExists, "EXISTS"},
      {ErrorCode::kPermission, "PERMISSION"},
      {ErrorCode::kInvalid, "INVALID"},
      {ErrorCode::kNoSpace, "NO_SPACE"},
      {ErrorCode::kIo, "IO"},
      {ErrorCode::kNotDir, "NOT_DIR"},
      {ErrorCode::kIsDir, "IS_DIR"},
      {ErrorCode::kNotEmpty, "NOT_EMPTY"},
      {ErrorCode::kBadFd, "BAD_FD"},
      {ErrorCode::kStale, "STALE"},
      {ErrorCode::kUnavailable, "UNAVAILABLE"},
      {ErrorCode::kTimeout, "TIMEOUT"},
      {ErrorCode::kCorrupt, "CORRUPT"},
      {ErrorCode::kBusy, "BUSY"},
  });
  // The table above is complete: kBusy is the last enumerator.
  EXPECT_STREQ(ErrorCodeName(static_cast<ErrorCode>(static_cast<int>(ErrorCode::kBusy) + 1)),
               "UNKNOWN");
}

TEST(NameTables, DfsModeName) {
  ExpectNames<core::DfsMode>(core::DfsModeName, {
      {core::DfsMode::kLineFS, "LineFS"},
      {core::DfsMode::kLineFSNotParallel, "LineFS-NotParallel"},
      {core::DfsMode::kAssise, "Assise"},
      {core::DfsMode::kAssiseBgRepl, "Assise-BgRepl"},
      {core::DfsMode::kAssiseHyperloop, "Assise+Hyperloop"},
  });
  EXPECT_STREQ(core::DfsModeName(static_cast<core::DfsMode>(
                   static_cast<int>(core::DfsMode::kAssiseHyperloop) + 1)),
               "unknown");
}

TEST(NameTables, PublishMethodName) {
  ExpectNames<core::PublishMethod>(core::PublishMethodName, {
      {core::PublishMethod::kCpuMemcpy, "CPU memcpy"},
      {core::PublishMethod::kDmaPolling, "DMA polling"},
      {core::PublishMethod::kDmaPollingBatch, "DMA polling + batch"},
      {core::PublishMethod::kDmaInterruptBatch, "DMA interrupt + batch"},
      {core::PublishMethod::kNoCopy, "No copy"},
  });
  EXPECT_STREQ(core::PublishMethodName(static_cast<core::PublishMethod>(
                   static_cast<int>(core::PublishMethod::kNoCopy) + 1)),
               "unknown");
}

}  // namespace
}  // namespace linefs
