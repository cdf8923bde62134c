#ifndef VDB_CORE_JSON_H_
#define VDB_CORE_JSON_H_

#include <string>
#include <string_view>
#include <vector>

/// The one owner of the JSON format (DESIGN.md §7.1): every JSON producer
/// spells strings and numbers with the two writer functions, and callers
/// concatenate the document themselves. The reader is the writer's
/// inverse: a string-aware scanner for JSON this code emits, not a
/// validating parser. Keys match as whole quoted keys at any depth,
/// outside string values.
namespace vdb::json {

/// `s` as a JSON string literal, quotes included: `"`, `\`, `\n`, `\r`
/// and `\t` get short escapes, every other byte below 0x20 is `\u00XX`,
/// and bytes from 0x20 up (UTF-8 included) pass through.
std::string Quote(std::string_view s);

/// `%.9g` for finite values; `null` for NaN and ±inf.
std::string Number(double v);

/// The balanced `{...}` or `[...]` value of the first `"key":`, or "".
std::string FindObject(std::string_view json, std::string_view key);

/// The number after the first `"key":`; `fallback` when the key is absent
/// or its value is not a number (e.g. `null`).
double FindNumber(std::string_view json, std::string_view key,
                  double fallback = 0.0);

/// The string after the first `"key":`, every escape (`\uXXXX` and
/// surrogate pairs included) decoded to UTF-8; "" when absent.
std::string FindString(std::string_view json, std::string_view key);

/// The top-level `{...}` elements of a JSON array.
std::vector<std::string> ArrayItems(std::string_view array);

}  // namespace vdb::json

#endif  // VDB_CORE_JSON_H_
