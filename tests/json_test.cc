// Tests for core/json: the reader is the writer's inverse, the writer
// spells only valid JSON (no raw control bytes, no nan/inf), and the
// renders built on it — registry, windowed registry, flight recorder —
// parse as strict JSON for hostile names and non-finite values.

#include "core/json.h"

#include <cctype>
#include <chrono>
#include <cmath>
#include <limits>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "core/telemetry.h"
#include "core/telemetry_window.h"
#include "exec/flight_recorder.h"

namespace vdb {
namespace {

// Strict RFC 8259 grammar check, so "valid JSON" is asserted by something
// other than the scanner under test.
class StrictJson {
 public:
  static bool Valid(std::string_view s) {
    StrictJson p(s);
    return p.Value() && p.SkipWs() == s.size();
  }

 private:
  explicit StrictJson(std::string_view s) : s_(s) {}

  std::size_t SkipWs() {
    while (i_ < s_.size() && std::string_view(" \t\r\n").find(s_[i_]) !=
                                 std::string_view::npos) {
      ++i_;
    }
    return i_;
  }
  bool Eat(char c) {
    SkipWs();
    if (i_ >= s_.size() || s_[i_] != c) return false;
    ++i_;
    return true;
  }
  bool Digits() {
    std::size_t start = i_;
    while (i_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
    return i_ > start;
  }
  bool Number() {
    if (i_ < s_.size() && s_[i_] == '-') ++i_;
    if (i_ < s_.size() && s_[i_] == '0') {
      ++i_;
    } else if (!Digits()) {
      return false;
    }
    if (i_ < s_.size() && s_[i_] == '.') {
      ++i_;
      if (!Digits()) return false;
    }
    if (i_ < s_.size() && (s_[i_] == 'e' || s_[i_] == 'E')) {
      ++i_;
      if (i_ < s_.size() && (s_[i_] == '+' || s_[i_] == '-')) ++i_;
      return Digits();
    }
    return true;
  }
  bool String() {
    if (!Eat('"')) return false;
    for (; i_ < s_.size(); ++i_) {
      unsigned char c = s_[i_];
      if (c == '"') {
        ++i_;
        return true;
      }
      if (c < 0x20) return false;
      if (c != '\\') continue;
      if (++i_ >= s_.size()) return false;
      if (s_[i_] == 'u') {
        for (int k = 0; k < 4; ++k) {
          if (++i_ >= s_.size() ||
              !std::isxdigit(static_cast<unsigned char>(s_[i_]))) {
            return false;
          }
        }
      } else if (std::string_view("\"\\/bfnrt").find(s_[i_]) ==
                 std::string_view::npos) {
        return false;
      }
    }
    return false;
  }
  bool Value() {
    SkipWs();
    if (i_ >= s_.size()) return false;
    const char c = s_[i_];
    if (c == '{' || c == '[') {
      const char close = c == '{' ? '}' : ']';
      ++i_;
      if (Eat(close)) return true;
      do {
        if (c == '{' && !(String() && Eat(':'))) return false;
        if (!Value()) return false;
      } while (Eat(','));
      return Eat(close);
    }
    if (c == '"') return String();
    for (std::string_view lit : {"true", "false", "null"}) {
      if (s_.substr(i_, lit.size()) == lit) {
        i_ += lit.size();
        return true;
      }
    }
    return Number();
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

std::string Wrap(const std::string& quoted) { return "{\"k\":" + quoted + "}"; }

TEST(JsonTest, QuoteRoundTripsEveryAsciiByte) {
  std::string all;
  for (int b = 0; b < 0x80; ++b) {
    const std::string one(1, static_cast<char>(b));
    const std::string quoted = json::Quote(one);
    EXPECT_TRUE(StrictJson::Valid(quoted)) << "byte " << b << ": " << quoted;
    EXPECT_EQ(json::FindString(Wrap(quoted), "k"), one) << "byte " << b;
    all += one;
  }
  EXPECT_EQ(json::FindString(Wrap(json::Quote(all)), "k"), all);

  for (const std::string s :
       {"\"", "\\", "a\"b\\c", "\\\"", "h\xc3\xa9llo \xe6\x97\xa5\xe6\x9c\xac "
                                       "\xf0\x9f\x99\x82"}) {
    const std::string quoted = json::Quote(s);
    EXPECT_TRUE(StrictJson::Valid(quoted)) << quoted;
    EXPECT_EQ(json::FindString(Wrap(quoted), "k"), s);
  }
}

TEST(JsonTest, QuoteSpellsControlBytesAsTheFlightRecorderDid) {
  EXPECT_EQ(json::Quote("a\"b\\c\nd\re\tf"), "\"a\\\"b\\\\c\\nd\\re\\tf\"");
  EXPECT_EQ(json::Quote(std::string("\x00\x01\x1f", 3)),
            "\"\\u0000\\u0001\\u001f\"");
  EXPECT_EQ(json::Quote("plain_name{k=v}"), "\"plain_name{k=v}\"");
}

TEST(JsonTest, FindStringDecodesForeignEscapes) {
  // Escapes other writers use: \/ \b \f, a 2-byte and a 3-byte code
  // point, and a surrogate pair.
  EXPECT_EQ(json::FindString(R"({"k":"\/\b\f\u00e9\u65e5\ud83d\ude42"})", "k"),
            "/\b\f\xc3\xa9\xe6\x97\xa5\xf0\x9f\x99\x82");
  EXPECT_EQ(json::FindString(R"({"k":"\u12"})", "k"), "u12");  // malformed
}

TEST(JsonTest, NumberIsNullForNonFinite) {
  EXPECT_EQ(json::Number(0.25), "0.25");
  EXPECT_EQ(json::Number(1e-6), "1e-06");
  EXPECT_EQ(json::Number(3), "3");
  EXPECT_EQ(json::Number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json::Number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json::Number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json::FindNumber(R"({"a":null,"b":-2.5e3})", "a", -1.0), -1.0);
  EXPECT_EQ(json::FindNumber(R"({"a":null,"b":-2.5e3})", "b"), -2500.0);
}

TEST(JsonTest, ScannerIgnoresKeysInsideStringValues) {
  const std::string doc =
      R"({"note":"\"x\":7","outer":{"x":1,"list":[{"x":2},"{}",{"x":3}]}})";
  EXPECT_EQ(json::FindNumber(doc, "x"), 1.0);
  EXPECT_EQ(json::FindObject(doc, "outer"),
            R"({"x":1,"list":[{"x":2},"{}",{"x":3}]})");
  auto items = json::ArrayItems(json::FindObject(doc, "list"));
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0], R"({"x":2})");
  EXPECT_EQ(items[1], R"({"x":3})");
  EXPECT_EQ(json::FindObject(doc, "missing"), "");
  EXPECT_EQ(json::FindString(doc, "missing"), "");
}

TEST(JsonTest, RegistryRendersHostileNamesAndNonFiniteSums) {
  Registry reg;
  const std::string name = "a\"b\nc";
  reg.GetCounter(name).Inc();
  Histogram& h = reg.GetHistogram("h_seconds");
  h.Observe(std::numeric_limits<double>::quiet_NaN());
  h.Observe(std::numeric_limits<double>::infinity());

  const std::string out = reg.RenderJson();
  EXPECT_TRUE(StrictJson::Valid(out)) << out;
  EXPECT_NE(out.find("\"sum\":null"), std::string::npos) << out;
  EXPECT_EQ(json::FindNumber(json::FindObject(out, "counters"), name), 1.0);
  const std::string hist =
      json::FindObject(json::FindObject(out, "histograms"), "h_seconds");
  EXPECT_EQ(json::FindNumber(hist, "count"), 2.0);
  EXPECT_EQ(json::FindNumber(hist, "sum", -1.0), -1.0);  // null

  WindowedRegistry win(reg);
  const auto now = std::chrono::steady_clock::now();
  win.Tick(now);
  const double windows[] = {10.0};
  const std::string windowed = win.RenderJson(windows, now);
  EXPECT_TRUE(StrictJson::Valid(windowed)) << windowed;
  EXPECT_NE(json::FindObject(windowed, name), "") << windowed;
}

TEST(JsonTest, FlightRecorderRenderIsValidForEveryControlByte) {
  FlightRecorder fr(4);
  std::string raw;
  for (int b = 0; b < 0x20; ++b) raw.push_back(static_cast<char>(b));
  raw += "\"\\";
  FlightRecord rec;
  rec.seq = fr.NoteCompletion(false, 1.0);
  rec.query = raw;
  rec.tenant = raw;
  rec.trace = raw;
  rec.total_ms = std::numeric_limits<double>::infinity();
  fr.Record(rec);
  const std::string out = fr.RenderJson();
  EXPECT_TRUE(StrictJson::Valid(out)) << out;
  auto items = json::ArrayItems(out);
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(json::FindString(items[0], "query"), raw);
  EXPECT_EQ(json::FindString(items[0], "trace"), raw);
  EXPECT_EQ(json::FindNumber(items[0], "total_ms", -1.0), -1.0);  // null
}

}  // namespace
}  // namespace vdb
