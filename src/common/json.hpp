// Minimal JSON utilities shared by the timeline, the metrics registry, and
// the tests: string escaping for emitters and a strict validator so tests
// (and the CI schema checker) can assert that generated documents parse.
// Deliberately tiny — no DOM, no allocation-heavy parse tree.
#pragma once

#include <string>
#include <string_view>

namespace pm2 {

/// Escape `s` for inclusion inside a double-quoted JSON string: quotes,
/// backslashes, and all control characters below 0x20.
[[nodiscard]] std::string json_escape(std::string_view s);

/// True if `doc` is one complete, syntactically valid JSON value (object,
/// array, string, number, true/false/null) with nothing but whitespace
/// after it.  Strict: rejects trailing commas, bare NaN, unescaped control
/// characters in strings.
[[nodiscard]] bool json_valid(std::string_view doc);

}  // namespace pm2
