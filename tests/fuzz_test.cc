// Randomized model-checking ("fuzz") tests for the durability- and
// correctness-critical substrates: WAL corruption robustness, PagedFile
// vs an in-memory model, Bitset vs std::vector<bool>, random predicate
// trees vs a row-wise oracle, the SQL parser on mutated inputs, the
// wire-protocol decoder on mutated and random frames, and the checkpoint
// decoder on damaged segment sections.

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <limits>
#include <list>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "db/collection.h"
#include "db/query_language.h"
#include "exec/predicate.h"
#include "index/flat.h"
#include "index/hnsw.h"
#include "index/ivf.h"
#include "index/ivf_pq.h"
#include "net/protocol.h"
#include "storage/attribute_store.h"
#include "storage/paged_file.h"
#include "storage/wal.h"

namespace vdb {
namespace {

std::string TempPath(const std::string& tag) {
  return ::testing::TempDir() + "/vdb_fuzz_" + tag + "_" +
         std::to_string(::getpid());
}

// ----------------------------------------------------------------- WAL

TEST(WalFuzzTest, RandomCorruptionNeverCrashesAndNeverFabricates) {
  // Write a known log; then for many trials corrupt a random byte (or
  // truncate at a random offset) and replay. Replay must never error out
  // harshly, never crash, and every record it yields must be a prefix of
  // the originally written sequence.
  std::string base = TempPath("wal_base");
  const int kRecords = 40;
  {
    auto wal = Wal::Open(base);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < kRecords; ++i) {
      float v[2] = {static_cast<float>(i), -static_cast<float>(i)};
      if (i % 5 == 4) {
        ASSERT_TRUE((*wal)->AppendDelete(i).ok());
      } else {
        ASSERT_TRUE(
            (*wal)
                ->AppendInsert(i, {v, 2},
                               {{"tag", std::string("r") + std::to_string(i)}})
                .ok());
      }
    }
  }
  std::ifstream in(base, std::ios::binary);
  std::vector<char> original((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());

  struct PrefixChecker : Wal::Visitor {
    int expected = 0;
    bool in_order = true;
    void OnInsert(VectorId id, std::span<const float> vec,
                  const std::vector<AttrBinding>& attrs) override {
      in_order &= id == static_cast<VectorId>(expected) && vec.size() == 2 &&
                  attrs.size() == 1;
      ++expected;
    }
    void OnDelete(VectorId id) override {
      in_order &= id == static_cast<VectorId>(expected);
      ++expected;
    }
  };

  Rng rng(123);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<char> mutated = original;
    if (trial % 2 == 0) {
      // Flip one random byte.
      std::size_t at = rng.Next(mutated.size());
      mutated[at] = static_cast<char>(mutated[at] ^ (1 + rng.Next(255)));
    } else {
      mutated.resize(rng.Next(mutated.size() + 1));  // torn tail
    }
    std::string path = TempPath("wal_mut");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    out.close();

    PrefixChecker checker;
    std::size_t applied = 0;
    Status status = Wal::Replay(path, &checker, &applied);
    ASSERT_TRUE(status.ok()) << "trial " << trial;
    EXPECT_TRUE(checker.in_order) << "trial " << trial;
    EXPECT_LE(applied, static_cast<std::size_t>(kRecords));
  }
}

// ------------------------------------------------------------- PagedFile

// Contents against a page map, and every hit and miss against a
// reference LRU (capacity 4): a hit moves its page to the front; a batch
// serves its hits in request order, then caches its distinct misses in
// ascending page order; a write caches its page.
TEST(PagedFileFuzzTest, MatchesInMemoryModel) {
  constexpr std::size_t kPage = 512, kCache = 4;
  PagedFileOptions opts;
  opts.page_size = kPage;
  opts.cache_pages = kCache;
  auto file = PagedFile::Create(TempPath("pf_model"), opts);
  ASSERT_TRUE(file.ok());
  std::map<std::uint64_t, std::vector<std::uint8_t>> model;
  std::list<std::uint64_t> lru;  // most recent first
  std::uint64_t reads = 0, hits = 0;
  auto touch = [&](std::uint64_t page) {
    auto it = std::find(lru.begin(), lru.end(), page);
    if (it == lru.end()) return false;
    lru.erase(it);
    lru.push_front(page);
    return true;
  };
  auto cache = [&](std::uint64_t page) {
    if (touch(page)) return;
    if (lru.size() >= kCache) lru.pop_back();
    lru.push_front(page);
  };
  auto expected_byte = [&](std::uint64_t page, std::size_t at) {
    auto it = model.find(page);
    // A hole inside the file reads as zeros (sparse write).
    return it == model.end() ? std::uint8_t{0} : it->second[at];
  };

  Rng rng(7);
  std::vector<std::uint8_t> buf(kPage);
  for (int op = 0; op < 3000; ++op) {
    const double kind = rng.NextDouble();
    if (kind < 0.4) {
      std::uint64_t page = rng.Next(32);
      for (auto& b : buf) b = static_cast<std::uint8_t>(rng.Next(256));
      ASSERT_TRUE((*file)->WritePage(page, buf.data()).ok());
      model[page] = buf;
      cache(page);
    } else if (kind < 0.7) {
      std::uint64_t page = rng.Next(34);
      Status status = (*file)->ReadPage(page, buf.data());
      if (page >= (*file)->num_pages()) {
        EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
        continue;
      }
      ASSERT_TRUE(status.ok());
      if (touch(page)) {
        ++hits;
      } else {
        ++reads;
        cache(page);
      }
      for (std::size_t b = 0; b < kPage; ++b) {
        ASSERT_EQ(buf[b], expected_byte(page, b)) << "page " << page;
      }
    } else {
      const std::size_t len = 1 + rng.Next(kPage);
      std::vector<std::uint64_t> offsets(1 + rng.Next(6));
      bool in_file = true;
      for (auto& off : offsets) {
        std::uint64_t page = rng.Next(34);
        in_file = in_file && page < (*file)->num_pages();
        off = page * kPage + rng.Next(kPage - len + 1);
      }
      std::vector<std::uint8_t> out(offsets.size() * len);
      Status status = (*file)->ReadBlocks(offsets, len, out.data());
      if (!in_file) {
        EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
        continue;
      }
      ASSERT_TRUE(status.ok());
      std::set<std::uint64_t> misses;
      for (std::uint64_t off : offsets) {
        if (touch(off / kPage)) {
          ++hits;
        } else {
          misses.insert(off / kPage);
        }
      }
      for (std::uint64_t page : misses) {
        ++reads;
        cache(page);
      }
      for (std::size_t i = 0; i < offsets.size(); ++i) {
        for (std::size_t b = 0; b < len; ++b) {
          ASSERT_EQ(out[i * len + b],
                    expected_byte(offsets[i] / kPage, offsets[i] % kPage + b))
              << "op " << op << " slot " << i;
        }
      }
    }
    ASSERT_EQ((*file)->reads(), reads) << "op " << op;
    ASSERT_EQ((*file)->cache_hits(), hits) << "op " << op;
  }
  EXPECT_GT(hits, 0u);
}

// ---------------------------------------------------------------- Bitset

TEST(BitsetFuzzTest, MatchesVectorBoolModel) {
  Rng rng(17);
  for (int trial = 0; trial < 30; ++trial) {
    std::size_t n = 1 + rng.Next(300);
    Bitset bits(n);
    std::vector<bool> model(n, false);
    for (int op = 0; op < 500; ++op) {
      std::size_t i = rng.Next(n);
      switch (rng.Next(4)) {
        case 0:
          bits.Set(i);
          model[i] = true;
          break;
        case 1:
          bits.Clear(i);
          model[i] = false;
          break;
        case 2:
          bits.Not();
          for (std::size_t j = 0; j < n; ++j) model[j] = !model[j];
          break;
        case 3: {
          std::size_t count = 0;
          for (bool b : model) count += b;
          ASSERT_EQ(bits.Count(), count);
          break;
        }
      }
      ASSERT_EQ(bits.Test(i), static_cast<bool>(model[i]));
    }
  }
}

// ------------------------------------------------------------- Predicate

// Random predicate trees evaluated two ways: bitmask vs row-wise.
TEST(PredicateFuzzTest, BitmaskAgreesWithRowOracle) {
  AttributeStore attrs;
  ASSERT_TRUE(attrs.AddColumn("a", AttrType::kInt64).ok());
  ASSERT_TRUE(attrs.AddColumn("b", AttrType::kDouble).ok());
  ASSERT_TRUE(attrs.AddColumn("c", AttrType::kString).ok());
  Rng rng(29);
  const std::size_t rows = 200;
  for (std::size_t i = 0; i < rows; ++i) {
    ASSERT_TRUE(attrs.PutRow(i, {{"a", std::int64_t(rng.Next(10))},
                                 {"b", rng.NextDouble()},
                                 {"c", std::string(1, char('a' + rng.Next(4)))}})
                    .ok());
  }

  std::function<Predicate(int)> random_pred = [&](int depth) -> Predicate {
    if (depth <= 0 || rng.NextDouble() < 0.4) {
      switch (rng.Next(4)) {
        case 0:
          return Predicate::Cmp("a", static_cast<CmpOp>(rng.Next(6)),
                                std::int64_t(rng.Next(10)));
        case 1:
          return Predicate::Cmp("b", static_cast<CmpOp>(rng.Next(6)),
                                rng.NextDouble());
        case 2:
          return Predicate::In(
              "c", {AttrValue(std::string(1, char('a' + rng.Next(4)))),
                    AttrValue(std::string(1, char('a' + rng.Next(4))))});
        default:
          return Predicate::Between("a", std::int64_t(rng.Next(5)),
                                    std::int64_t(5 + rng.Next(5)));
      }
    }
    switch (rng.Next(3)) {
      case 0:
        return Predicate::And(random_pred(depth - 1), random_pred(depth - 1));
      case 1:
        return Predicate::Or(random_pred(depth - 1), random_pred(depth - 1));
      default:
        return Predicate::Not(random_pred(depth - 1));
    }
  };

  for (int trial = 0; trial < 100; ++trial) {
    Predicate pred = random_pred(3);
    auto bits = pred.Evaluate(attrs);
    ASSERT_TRUE(bits.ok()) << pred.ToString();
    for (std::size_t i = 0; i < rows; ++i) {
      auto row = pred.MatchesRow(attrs, i);
      ASSERT_TRUE(row.ok()) << pred.ToString();
      ASSERT_EQ(bits->Test(i), *row) << pred.ToString() << " row " << i;
    }
    // Selectivity estimate stays a probability.
    auto s = pred.EstimateSelectivity(attrs);
    ASSERT_TRUE(s.ok());
    EXPECT_GE(*s, 0.0);
    EXPECT_LE(*s, 1.0);
  }
}

// ------------------------------------------------------------ SQL parser

TEST(QueryParseFuzzTest, MutatedQueriesNeverCrash) {
  const std::string seed_query =
      "SELECT knn(10) FROM items WHERE category = 2 AND price < 400.0 "
      "OR name IN ('a', 'b') ORDER BY distance([1.0, -2, 3.5])";
  Rng rng(41);
  int parsed_ok = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = seed_query;
    int edits = 1 + static_cast<int>(rng.Next(4));
    for (int e = 0; e < edits; ++e) {
      std::size_t at = rng.Next(mutated.size());
      switch (rng.Next(3)) {
        case 0:
          mutated[at] = static_cast<char>(32 + rng.Next(95));
          break;
        case 1:
          mutated.erase(at, 1);
          break;
        default:
          mutated.insert(at, 1, static_cast<char>(32 + rng.Next(95)));
      }
      if (mutated.empty()) break;
    }
    auto result = ParseQuery(mutated);  // must not crash / UB
    parsed_ok += result.ok();
  }
  // Sanity: the fuzz actually exercised both accept and reject paths.
  EXPECT_GT(parsed_ok, 0);
  EXPECT_LT(parsed_ok, 2000);
}

// --------------------------------------------------------- Wire protocol

std::string RandomBytes(Rng* rng, std::size_t max_len) {
  std::string s(rng->Next(max_len + 1), '\0');
  for (char& c : s) c = static_cast<char>(rng->Next(256));
  return s;
}

net::Request RandomRequest(Rng* rng) {
  const net::MsgType types[] = {net::MsgType::kQuery, net::MsgType::kPing,
                                net::MsgType::kMetrics, net::MsgType::kStats};
  net::Request req;
  req.type = types[rng->Next(4)];
  req.request_id = rng->Next(~0ull);
  if (req.type == net::MsgType::kQuery) {
    req.tenant = RandomBytes(rng, 12);
    req.deadline_ms = static_cast<std::uint32_t>(rng->Next(1ull << 32));
    req.trace = rng->Next(2) == 1;
    req.text = RandomBytes(rng, 80);
  }
  return req;
}

net::Response RandomResponse(Rng* rng) {
  net::Response resp;
  resp.request_id = rng->Next(~0ull);
  resp.status = static_cast<net::WireStatus>(
      rng->Next(static_cast<std::uint64_t>(net::WireStatus::kMalformed) + 1));
  resp.retry_after_ms = static_cast<std::uint32_t>(rng->Next(1ull << 32));
  resp.message = RandomBytes(rng, 24);
  resp.rows.resize(rng->Next(9));
  for (Neighbor& n : resp.rows) {
    n.id = rng->Next(~0ull);
    // Any bit pattern, NaN and infinities included.
    n.dist = std::bit_cast<float>(
        static_cast<std::uint32_t>(rng->Next(1ull << 32)));
  }
  resp.body = RandomBytes(rng, 40);
  return resp;
}

bool SameRequest(const net::Request& a, const net::Request& b) {
  return a.type == b.type && a.request_id == b.request_id &&
         a.tenant == b.tenant && a.deadline_ms == b.deadline_ms &&
         a.trace == b.trace && a.text == b.text;
}

bool SameResponse(const net::Response& a, const net::Response& b) {
  if (a.rows.size() != b.rows.size()) return false;
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    if (a.rows[i].id != b.rows[i].id ||
        std::bit_cast<std::uint32_t>(a.rows[i].dist) !=
            std::bit_cast<std::uint32_t>(b.rows[i].dist)) {
      return false;
    }
  }
  return a.request_id == b.request_id && a.status == b.status &&
         a.retry_after_ms == b.retry_after_ms && a.message == b.message &&
         a.body == b.body;
}

struct DecodeCounts {
  std::size_t requests = 0, responses = 0, too_large = 0;
};

/// Feeds one payload to both decoders. Whatever decodes must survive a
/// round trip: encode, extract, decode again, equal message.
void CheckPayload(std::span<const std::uint8_t> payload, DecodeCounts* n) {
  std::span<const std::uint8_t> again;
  std::size_t consumed = 0;
  if (auto req = net::DecodeRequest(payload); req.ok()) {
    ++n->requests;
    std::vector<std::uint8_t> frame;
    net::EncodeRequest(*req, &frame);
    ASSERT_EQ(net::ExtractFrame(frame, &again, &consumed),
              net::FrameResult::kReady);
    EXPECT_EQ(consumed, frame.size());
    auto decoded = net::DecodeRequest(again);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(SameRequest(*decoded, *req));
  }
  if (auto resp = net::DecodeResponse(payload); resp.ok()) {
    ++n->responses;
    std::vector<std::uint8_t> frame;
    net::EncodeResponse(*resp, &frame);
    ASSERT_EQ(net::ExtractFrame(frame, &again, &consumed),
              net::FrameResult::kReady);
    EXPECT_EQ(consumed, frame.size());
    auto decoded = net::DecodeResponse(again);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_TRUE(SameResponse(*decoded, *resp));
  }
}

/// Feeds one receive buffer to ExtractFrame (checking its verdict against
/// the declared length) and both decoders.
void CheckBuffer(const std::vector<std::uint8_t>& buf, DecodeCounts* n) {
  std::span<const std::uint8_t> payload;
  std::size_t consumed = 0;
  net::FrameResult r = net::ExtractFrame(buf, &payload, &consumed);
  if (buf.size() < 4) {
    EXPECT_EQ(r, net::FrameResult::kNeedMore);
    CheckPayload(buf, n);
    return;
  }
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= std::uint32_t{buf[i]} << (8 * i);
  if (len > net::kMaxFrameBytes) {
    EXPECT_EQ(r, net::FrameResult::kTooLarge) << len;
    ++n->too_large;
  } else if (buf.size() < 4u + len) {
    EXPECT_EQ(r, net::FrameResult::kNeedMore);
  } else {
    ASSERT_EQ(r, net::FrameResult::kReady);
    EXPECT_EQ(consumed, 4u + len);
    EXPECT_EQ(payload.data(), buf.data() + 4);
    EXPECT_EQ(payload.size(), len);
  }
  // The decoders also see whatever follows the prefix, as a server that
  // trusted a forged length would hand them.
  CheckPayload(std::span<const std::uint8_t>(buf).subspan(4), n);
}

TEST(ProtocolFuzzTest, MutatedFramesDecodeConsistentlyOrNotAtAll) {
  Rng rng(20260);
  const std::uint32_t kLengths[] = {
      0, 1, static_cast<std::uint32_t>(net::kMaxFrameBytes - 1),
      static_cast<std::uint32_t>(net::kMaxFrameBytes),
      static_cast<std::uint32_t>(net::kMaxFrameBytes + 1), 0xFFFFFFFFu};
  auto valid_frame = [&] {
    std::vector<std::uint8_t> frame;
    if (rng.Next(2) == 0) {
      net::EncodeRequest(RandomRequest(&rng), &frame);
    } else {
      net::EncodeResponse(RandomResponse(&rng), &frame);
    }
    return frame;
  };
  auto put_u32 = [](std::vector<std::uint8_t>* buf, std::size_t at,
                    std::uint32_t v) {
    for (int i = 0; i < 4 && at + i < buf->size(); ++i) {
      (*buf)[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
  };
  DecodeCounts n;
  for (int trial = 0; trial < 20000; ++trial) {
    std::vector<std::uint8_t> buf = valid_frame();
    switch (rng.Next(7)) {
      case 0:  // unmodified: must round-trip
        break;
      case 1:  // bit flips
        for (std::size_t f = 0, nf = 1 + rng.Next(4); f < nf; ++f) {
          buf[rng.Next(buf.size())] ^= std::uint8_t(1u << rng.Next(8));
        }
        break;
      case 2: {  // splice two frames at random cut points
        std::vector<std::uint8_t> other = valid_frame();
        buf.resize(rng.Next(buf.size() + 1));
        buf.insert(buf.end(), other.begin() + rng.Next(other.size() + 1),
                   other.end());
        break;
      }
      case 3:  // truncate
        buf.resize(rng.Next(buf.size() + 1));
        break;
      case 4:  // extend with random bytes, keeping or fixing the prefix
        for (std::size_t e = 0, ne = 1 + rng.Next(16); e < ne; ++e) {
          buf.push_back(static_cast<std::uint8_t>(rng.Next(256)));
        }
        if (rng.Next(2) == 0) {
          put_u32(&buf, 0, static_cast<std::uint32_t>(buf.size() - 4));
        }
        break;
      case 5:  // forged length: the prefix or an inner length field
        put_u32(&buf, rng.Next(2) == 0 ? 0 : 4 + rng.Next(buf.size() - 4),
                kLengths[rng.Next(std::size(kLengths))] -
                    static_cast<std::uint32_t>(rng.Next(3)));
        break;
      case 6:  // fully random buffer
        buf.resize(rng.Next(64));
        for (auto& b : buf) b = static_cast<std::uint8_t>(rng.Next(256));
        break;
    }
    CheckBuffer(buf, &n);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Non-vacuous: the valid and lightly mutated frames decoded, and the
  // forged prefixes hit the cap.
  EXPECT_GT(n.requests, 1000u);
  EXPECT_GT(n.responses, 1000u);
  EXPECT_GT(n.too_large, 100u);
}

// ----------------------------------------------------------- checkpoint

/// One way to damage a checkpoint: a field of its segment section and
/// where it sits, as the test's own walk of the section found it.
struct Field {
  enum Kind {
    kCount, kHasKey, kKey, kMagic, kBlockLen, kRows, kLabels, kDeleted
  };
  Kind kind;
  std::size_t at;
};

/// The segment section of checkpoint bytes: the fields and the structure
/// blocks (start, length).
struct Section {
  std::vector<Field> fields;
  std::vector<std::pair<std::size_t, std::size_t>> blocks;
  std::vector<std::size_t> labels;   ///< offsets of label values
  std::vector<std::size_t> deleted;  ///< offsets of tombstone rows
};

std::uint64_t GetU64(const std::vector<std::uint8_t>& b, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t{b[at + i]} << (8 * i);
  return v;
}

void PutU64(std::vector<std::uint8_t>* b, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) (*b)[at + i] = std::uint8_t(v >> (8 * i));
}

/// Walks the segment section from `at`, its segment count, to the CRC;
/// false when the bytes there are not one.
bool WalkFrom(const std::vector<std::uint8_t>& b, std::size_t at,
              Section* s) {
  const std::size_t end = b.size() - 4;
  // Reads the u64 at `at + skip` into `*v`, if it fits before the CRC.
  auto u64 = [&](std::size_t skip, std::uint64_t* v) {
    if (at + skip + 8 > end) return false;
    *v = GetU64(b, at + skip);
    return true;
  };
  std::uint64_t count = 0;
  if (!u64(0, &count) || count > end) return false;
  s->fields.push_back({Field::kCount, at});
  at += 8;
  for (std::uint64_t seg = 0; seg < count; ++seg) {
    s->fields.push_back({Field::kHasKey, at});
    s->fields.push_back({Field::kKey, at + 1});
    s->fields.push_back({Field::kMagic, at + 9});
    at += 13;
    std::uint64_t len = 0, rows = 0, cols = 0, labels = 0, deleted = 0;
    if (!u64(0, &len) || len > end - at) return false;
    s->fields.push_back({Field::kBlockLen, at});
    s->blocks.emplace_back(at + 8, len);
    at += 8 + len;
    if (!u64(0, &rows) || !u64(8, &cols) || cols > end ||
        (cols > 0 && rows > end / cols)) {
      return false;
    }
    s->fields.push_back({Field::kRows, at});
    at += 16 + rows * cols * 4;
    if (!u64(0, &labels) || labels > end / 8) return false;
    s->fields.push_back({Field::kLabels, at});
    for (std::uint64_t i = 0; i < labels; ++i) {
      s->labels.push_back(at + 8 + 8 * i);
    }
    at += 8 + 8 * labels;
    if (!u64(0, &deleted) || deleted > end / 4) return false;
    s->fields.push_back({Field::kDeleted, at});
    for (std::uint64_t i = 0; i < deleted; ++i) {
      s->deleted.push_back(at + 8 + 4 * i);
    }
    at += 8 + 4 * deleted;
  }
  return at == end;
}

/// The segment section follows the 8 bytes of `next_internal_id`: the
/// first place holding that value from which a walk ends at the CRC.
Section WalkSegments(const std::vector<std::uint8_t>& b,
                     std::uint64_t next_internal_id) {
  for (std::size_t at = 4; at + 12 <= b.size(); ++at) {
    Section s;
    if (GetU64(b, at) == next_internal_id && WalkFrom(b, at + 8, &s)) {
      return s;
    }
  }
  ADD_FAILURE() << "no segment section found";
  return {};
}

/// Checks what `c` answers: every live row once (into `live`), and Knn
/// results that are unique live ids in non-decreasing distance order.
void CheckAnswers(const Collection& c, Rng* rng, std::set<VectorId>* live) {
  const std::size_t dim = c.dim();
  std::vector<float> origin(dim, 0.0f);
  std::vector<Neighbor> all;
  ASSERT_TRUE(
      c.RangeSearch(origin, std::numeric_limits<float>::max(), &all).ok());
  live->clear();
  for (const Neighbor& nb : all) {
    ASSERT_TRUE(live->insert(nb.id).second) << "row " << nb.id << " twice";
  }
  for (int qi = 0; qi < 3; ++qi) {
    std::vector<float> q(dim);
    for (float& x : q) x = rng->NextGaussian();
    std::vector<Neighbor> got;
    ASSERT_TRUE(c.Knn(q, 10, &got).ok());
    std::set<VectorId> seen;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(live->contains(got[i].id)) << "dead id " << got[i].id;
      EXPECT_TRUE(seen.insert(got[i].id).second) << "id twice";
      if (i > 0) {
        EXPECT_LE(got[i - 1].dist, got[i].dist);
      }
    }
  }
}

/// CheckAnswers on a restored collection, before and after an insert and
/// a delete (which reach a loaded structure's Add and Remove).
void CheckRestored(Collection* c, Rng* rng) {
  std::set<VectorId> live;
  ASSERT_NO_FATAL_FAILURE(CheckAnswers(*c, rng, &live));
  std::vector<float> v(c->dim());
  for (float& x : v) x = rng->NextGaussian();
  ASSERT_TRUE(c->Insert(5000, v, {}).ok());
  if (!live.empty()) {
    ASSERT_TRUE(c->Delete(*live.begin()).ok());
  }
  ASSERT_NO_FATAL_FAILURE(CheckAnswers(*c, rng, &live));
}

// Damaged checkpoints whose CRC is made to fit again, so only the decoder
// stands between them and the collection: segment counts, keys, codec
// magics, row and label counts, block lengths, labels, tombstones and
// structure bytes.
// Each restores into a collection whose answers hold together, or fails
// with a Status.
TEST(CheckpointFuzzTest, DamagedSegmentsRestoreConsistentlyOrNotAtAll) {
  constexpr std::size_t kDim = 4;
  struct Base {
    std::string label;
    IndexFactory factory;
    std::size_t memtable_limit = 0;
    bool partitioned = false;
    bool entities = false;
  };
  const std::vector<Base> bases = {
      {"hnsw",
       [] {
         HnswOptions o;
         o.m = 4;
         o.ef_construction = 16;
         return std::make_unique<HnswIndex>(o);
       }},
      {"ivf_flat_partitioned",
       [] {
         IvfOptions o;
         o.nlist = 2;
         return std::make_unique<IvfFlatIndex>(o);
       },
       0, true},
      {"ivf_pq_flush",
       [] {
         IvfPqOptions o;
         o.ivf.nlist = 2;
         o.pq.m = 2;
         o.pq.nbits = 2;
         return std::make_unique<IvfPqIndex>(o);
       },
       24},
      {"flat_entities", [] { return std::make_unique<FlatIndex>(); }, 0,
       false, true},
  };
  Rng rng(4242);
  std::size_t restored = 0;
  std::size_t rejected = 0;
  for (const Base& base : bases) {
    SCOPED_TRACE(base.label);
    CollectionOptions o;
    o.dim = kDim;
    o.attributes = {{"cat", AttrType::kInt64}};
    o.index_factory = base.factory;
    o.lsm_memtable_limit = base.memtable_limit;
    o.lsm_compact_at_segments = 100;
    if (base.partitioned) o.partition_column = "cat";
    auto made = Collection::Create(o);
    ASSERT_TRUE(made.ok());
    Collection& c = **made;
    auto vec = [&] {
      std::vector<float> v(kDim);
      for (float& x : v) x = rng.NextGaussian();
      return v;
    };
    for (VectorId id = 0; id < 80; ++id) {
      ASSERT_TRUE(c.Insert(id, vec(),
                           {{"cat", AttrValue{std::int64_t(id % 3)}}})
                      .ok());
    }
    std::uint64_t next_internal_id = VectorId{1} << 62;
    if (base.entities) {
      for (VectorId e = 100; e < 104; ++e) {
        FloatMatrix members(0, kDim);
        for (int m = 0; m < 3; ++m) members.AppendRow(vec().data(), kDim);
        ASSERT_TRUE(c.InsertEntity(e, members).ok());
        next_internal_id += 3;
      }
    }
    if (base.memtable_limit == 0) {
      ASSERT_TRUE(c.BuildIndex().ok());
    }
    // Tombstones, a re-add and growing or in-place rows on top.
    for (VectorId id : {3, 17, 40}) ASSERT_TRUE(c.Delete(id).ok());
    ASSERT_TRUE(c.Insert(17, vec(), {{"cat", AttrValue{std::int64_t{2}}}}).ok());
    for (VectorId id = 80; id < 86; ++id) {
      ASSERT_TRUE(c.Insert(id, vec(), {{"cat", AttrValue{std::int64_t{1}}}})
                      .ok());
    }
    ASSERT_GT(c.SegmentCount(), 0u);

    const std::string path = TempPath("checkpoint_" + base.label);
    ASSERT_TRUE(c.Checkpoint(path).ok());
    std::vector<std::uint8_t> original;
    {
      std::ifstream in(path, std::ios::binary);
      original.assign(std::istreambuf_iterator<char>(in), {});
    }
    const Section section = WalkSegments(original, next_internal_id);
    ASSERT_FALSE(HasFailure());
    ASSERT_FALSE(section.blocks.empty());

    for (int trial = 0; trial < 1000; ++trial) {
      std::vector<std::uint8_t> b = original;
      for (std::size_t m = 0, nm = 1 + rng.Next(2); m < nm; ++m) {
        switch (rng.Next(5)) {
          case 0: {  // a count, key or length field
            const Field& f = section.fields[rng.Next(section.fields.size())];
            if (f.kind == Field::kHasKey) {
              b[f.at] ^= 1;
              break;
            }
            if (f.kind == Field::kMagic) {  // another family's, or none
              b[f.at + rng.Next(4)] ^= std::uint8_t(1u << rng.Next(8));
              break;
            }
            const std::uint64_t was = GetU64(b, f.at);
            const std::uint64_t deltas[] = {1, 2, ~std::uint64_t{0},
                                            ~std::uint64_t{1}};
            PutU64(&b, f.at,
                   rng.Next(4) == 0 ? rng.Next(1u << 30) << rng.Next(34)
                                    : was + deltas[rng.Next(4)]);
            break;
          }
          case 1: {  // structure bytes
            const auto [start, len] =
                section.blocks[rng.Next(section.blocks.size())];
            if (len == 0) break;
            for (std::size_t f = 0, nf = 1 + rng.Next(3); f < nf; ++f) {
              b[start + rng.Next(len)] ^= std::uint8_t(1u << rng.Next(8));
            }
            break;
          }
          case 2: {  // a small integer over structure bytes
            const auto [start, len] =
                section.blocks[rng.Next(section.blocks.size())];
            if (len < 4) break;
            const std::size_t at = start + rng.Next(len - 3);
            const std::uint32_t v = static_cast<std::uint32_t>(rng.Next(200));
            for (int i = 0; i < 4; ++i) b[at + i] = std::uint8_t(v >> (8 * i));
            break;
          }
          case 3: {  // a label: another row's, or a fresh one
            if (section.labels.empty()) break;
            const std::size_t at =
                section.labels[rng.Next(section.labels.size())];
            PutU64(&b, at,
                   rng.Next(2) == 0
                       ? GetU64(b, section.labels[rng.Next(
                                       section.labels.size())])
                       : rng.Next(200));
            break;
          }
          case 4: {  // a tombstone row
            if (section.deleted.empty()) break;
            const std::size_t at =
                section.deleted[rng.Next(section.deleted.size())];
            const std::uint32_t v = static_cast<std::uint32_t>(rng.Next(120));
            for (int i = 0; i < 4; ++i) b[at + i] = std::uint8_t(v >> (8 * i));
            break;
          }
        }
      }
      const std::uint32_t crc = Wal::Crc32(b.data() + 4, b.size() - 8);
      for (int i = 0; i < 4; ++i) {
        b[b.size() - 4 + i] = std::uint8_t(crc >> (8 * i));
      }
      const std::string damaged = path + "_damaged";
      std::ofstream(damaged, std::ios::binary | std::ios::trunc)
          .write(reinterpret_cast<const char*>(b.data()),
                 static_cast<std::streamsize>(b.size()));
      // Mostly the same family, so its structure decoder runs; sometimes
      // Flat, which skips the structure and rebuilds from the rows.
      CollectionOptions ro = o;
      if (rng.Next(4) == 0) {
        ro.index_factory = [] { return std::make_unique<FlatIndex>(); };
      }
      auto r = Collection::Restore(ro, damaged);
      if (!r.ok()) {
        ++rejected;
        continue;
      }
      ++restored;
      SCOPED_TRACE("trial " + std::to_string(trial));
      ASSERT_NO_FATAL_FAILURE(CheckRestored(r->get(), &rng));
    }
    ::unlink(path.c_str());
    ::unlink((path + "_damaged").c_str());
  }
  // Non-vacuous: damage is both caught and, where harmless, absorbed.
  std::printf("checkpoint fuzz: %zu restored, %zu rejected\n", restored,
              rejected);
  EXPECT_GT(rejected, 800u);
  EXPECT_GT(restored, 400u);
}

}  // namespace
}  // namespace vdb
