#include "core/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>

namespace vdb::json {

namespace {

constexpr std::size_t npos = std::string_view::npos;

/// Index of the quote closing the string opened at `open`; json.size()
/// when unterminated.
std::size_t StringEnd(std::string_view json, std::size_t open) {
  std::size_t i = open + 1;
  for (; i < json.size() && json[i] != '"'; ++i) {
    if (json[i] == '\\') ++i;
  }
  return std::min(i, json.size());
}

/// Index of the bracket closing the `{` or `[` at `open`, or npos.
std::size_t ValueEnd(std::string_view json, std::size_t open) {
  int depth = 0;
  for (std::size_t i = open; i < json.size(); ++i) {
    char c = json[i];
    if (c == '"') {
      i = StringEnd(json, i);
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if ((c == '}' || c == ']') && --depth == 0) {
      return i;
    }
  }
  return npos;
}

/// Position just past the first `"key":` outside string values, or npos.
std::size_t KeyPos(std::string_view json, std::string_view key) {
  const std::string pattern = Quote(key) + ":";
  for (std::size_t i = 0; i < json.size(); ++i) {
    if (json[i] != '"') continue;
    if (json.compare(i, pattern.size(), pattern) == 0) {
      return i + pattern.size();
    }
    i = StringEnd(json, i);
  }
  return npos;
}

/// The UTF-16 code unit spelled by the four hex digits at `at`, or -1.
long Hex4(std::string_view json, std::size_t at) {
  if (at + 4 > json.size()) return -1;
  unsigned v = 0;
  const char* end = json.data() + at + 4;
  auto [p, ec] = std::from_chars(json.data() + at, end, v, 16);
  return ec == std::errc() && p == end ? static_cast<long>(v) : -1;
}

void AppendUtf8(std::uint32_t cp, std::string* out) {
  static constexpr unsigned char kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
  const int extra = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
  out->push_back(static_cast<char>(kLead[extra] | (cp >> (6 * extra))));
  for (int s = extra - 1; s >= 0; --s) {
    out->push_back(static_cast<char>(0x80 | ((cp >> (6 * s)) & 0x3F)));
  }
}

}  // namespace

std::string Quote(std::string_view s) {
  std::string out = "\"";
  out.reserve(s.size() + 2);
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string FindObject(std::string_view json, std::string_view key) {
  std::size_t at = KeyPos(json, key);
  if (at >= json.size() || (json[at] != '{' && json[at] != '[')) return "";
  std::size_t end = ValueEnd(json, at);
  return end == npos ? "" : std::string(json.substr(at, end - at + 1));
}

double FindNumber(std::string_view json, std::string_view key,
                  double fallback) {
  std::size_t at = KeyPos(json, key);
  if (at == npos) return fallback;
  double v = 0.0;
  auto [p, ec] = std::from_chars(json.data() + at, json.data() + json.size(), v);
  return ec == std::errc() ? v : fallback;
}

std::string FindString(std::string_view json, std::string_view key) {
  std::size_t at = KeyPos(json, key);
  if (at >= json.size() || json[at] != '"') return "";
  std::string out;
  for (std::size_t i = at + 1; i < json.size() && json[i] != '"'; ++i) {
    if (json[i] != '\\' || i + 1 == json.size()) {
      out += json[i];
      continue;
    }
    switch (char e = json[++i]) {
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      case 't': out += '\t'; break;
      case 'u': {
        long cp = Hex4(json, i + 1);
        if (cp < 0) {
          out += e;  // malformed: keep the letter, as for any unknown escape
          break;
        }
        i += 4;
        long low = json.compare(i + 1, 2, "\\u") == 0 ? Hex4(json, i + 3) : -1;
        if (cp >= 0xD800 && cp < 0xDC00 && low >= 0xDC00 && low < 0xE000) {
          cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          i += 6;
        }
        AppendUtf8(static_cast<std::uint32_t>(cp), &out);
        break;
      }
      default: out += e;  // \" \\ \/
    }
  }
  return out;
}

std::vector<std::string> ArrayItems(std::string_view array) {
  std::vector<std::string> items;
  const std::size_t end = ValueEnd(array, 0);
  if (end == npos || array[0] != '[') return items;
  for (std::size_t i = 1; i < end; ++i) {
    if (array[i] == '"') {
      i = StringEnd(array, i);
    } else if (array[i] == '{' || array[i] == '[') {
      std::size_t close = ValueEnd(array, i);
      if (array[i] == '{') items.emplace_back(array.substr(i, close - i + 1));
      i = close;
    }
  }
  return items;
}

}  // namespace vdb::json
