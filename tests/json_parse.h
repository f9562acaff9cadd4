// Strict JSON parser for tests that check what the observability exporters
// (src/obs/json.h) write: BENCH_*.json reports and Chrome trace files.

#ifndef TESTS_JSON_PARSE_H_
#define TESTS_JSON_PARSE_H_

#include <optional>
#include <string_view>

#include "src/obs/json.h"

namespace linefs::obs {

// nullopt on any syntax error or trailing garbage.
std::optional<JsonValue> ParseJson(std::string_view text);

}  // namespace linefs::obs

#endif  // TESTS_JSON_PARSE_H_
