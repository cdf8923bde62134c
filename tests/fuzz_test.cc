// Randomized model-checking ("fuzz") tests for the durability- and
// correctness-critical substrates: WAL corruption robustness, PagedFile
// vs an in-memory model, Bitset vs std::vector<bool>, random predicate
// trees vs a row-wise oracle, the SQL parser on mutated inputs, and the
// wire-protocol decoder on mutated and random frames.

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <fstream>
#include <list>
#include <map>
#include <set>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "db/query_language.h"
#include "exec/predicate.h"
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

}  // namespace
}  // namespace vdb
