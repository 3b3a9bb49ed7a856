// Deterministic fuzzing of the serve-tier frame parser and payload
// decoders (serve/wire.h).
//
// The wire layer is the trust boundary of the multi-process serving tier:
// every byte a replica sends crosses FrameBuffer/ReadFrame before anything
// else looks at it, so the parser must hold three properties under
// arbitrary input:
//
//   1. never crash or read/write out of bounds (the asan/ubsan CI lane
//      runs this binary — `unit` label, sanitizers find what EXPECTs
//      cannot);
//   2. never over-allocate on a lying length or count prefix (the
//      kMaxFramePayload cap and WireReader::FitsElements guards);
//   3. never ACCEPT a corrupted frame — a flipped bit anywhere in the
//      envelope (length, version, type, payload, CRC) must surface as a
//      typed FrameFault or an incomplete-frame wait, never as a valid
//      frame.
//
// All mutation schedules are driven by seeded xoshiro streams: every
// failure reproduces from the iteration's seed, no wall-clock or global
// RNG state anywhere.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "serve/wire.h"

namespace taste {
namespace {

serve::FrameType RandomType(Rng& rng) {
  // Only types ValidFrameType admits: a clean corpus must stay clean.
  static constexpr serve::FrameType kTypes[] = {
      serve::FrameType::kDetectRequest, serve::FrameType::kDetectResponse,
      serve::FrameType::kScrapeRequest, serve::FrameType::kScrapeResponse,
      serve::FrameType::kShutdown};
  return kTypes[rng.NextU64() % std::size(kTypes)];
}

std::string RandomPayload(Rng& rng, size_t max_len) {
  const size_t len = rng.NextU64() % (max_len + 1);
  std::string p(len, '\0');
  for (auto& c : p) c = static_cast<char>(rng.NextU64() & 0xFF);
  return p;
}

// ---------------------------------------------------------------------------
// Property 0 (baseline): uncorrupted streams always reassemble exactly,
// whatever the chunking. A fuzzer that cannot pass its own clean corpus
// proves nothing about the dirty one.

TEST(WireFuzzTest, CleanStreamsReassembleUnderRandomChunking) {
  Rng rng(0xC1EA7ull);
  for (int iter = 0; iter < 2000; ++iter) {
    const int frames = 1 + static_cast<int>(rng.NextU64() % 4);
    std::string stream;
    std::vector<std::pair<serve::FrameType, std::string>> sent;
    for (int f = 0; f < frames; ++f) {
      const serve::FrameType t = RandomType(rng);
      std::string p = RandomPayload(rng, 300);
      stream += serve::EncodeFrame(t, p);
      sent.emplace_back(t, std::move(p));
    }
    serve::FrameBuffer fb;
    size_t pos = 0;
    size_t got = 0;
    while (pos < stream.size()) {
      const size_t chunk =
          std::min(stream.size() - pos, 1 + rng.NextU64() % 64);
      fb.Append(stream.data() + pos, chunk);
      pos += chunk;
      for (;;) {
        serve::Frame frame;
        auto r = fb.Next(&frame);
        ASSERT_TRUE(r.ok()) << "iter " << iter;
        if (!*r) break;
        ASSERT_LT(got, sent.size());
        EXPECT_EQ(frame.type, sent[got].first);
        EXPECT_EQ(frame.payload, sent[got].second);
        ++got;
      }
    }
    EXPECT_EQ(got, sent.size()) << "iter " << iter;
    EXPECT_EQ(fb.buffered(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Property 3: a single flipped bit anywhere in the envelope is never
// accepted. CRC32 detects all 1-bit errors outright; a flip in the length
// prefix shifts the CRC window instead, which either truncates (wait) or
// mismatches.

TEST(WireFuzzTest, SingleBitFlipsAreNeverAccepted) {
  Rng rng(0xF11Bull);
  int rejected = 0, waited = 0;
  for (int iter = 0; iter < 10000; ++iter) {
    std::string frame =
        serve::EncodeFrame(RandomType(rng), RandomPayload(rng, 200));
    const size_t bit = rng.NextU64() % (frame.size() * 8);
    frame[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(frame[bit / 8]) ^ (1u << (bit % 8)));

    serve::FrameBuffer fb;
    fb.Append(frame.data(), frame.size());
    for (;;) {
      serve::Frame out;
      auto r = fb.Next(&out);
      if (!r.ok()) {
        EXPECT_NE(fb.last_fault(), serve::FrameFault::kNone);
        ++rejected;
        break;
      }
      if (!*r) {
        // Incomplete (a length lie that claims more bytes): not accepted,
        // and the parser buffered only what we fed it — no allocation
        // driven by the lying prefix.
        EXPECT_LE(fb.buffered(), frame.size());
        ++waited;
        break;
      }
      // A frame popped: with a flipped bit this must be impossible.
      ADD_FAILURE() << "iter " << iter << ": corrupted frame accepted (bit "
                    << bit << " of " << frame.size() * 8 << ")";
      break;
    }
  }
  // Both rejection modes must actually occur across the corpus.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(waited, 0);
}

// ---------------------------------------------------------------------------
// Truncations: any strict prefix of a valid frame is a wait, never an
// error and never a frame.

TEST(WireFuzzTest, TruncatedPrefixesWaitWithoutFaulting) {
  Rng rng(0x7A47Cull);
  for (int iter = 0; iter < 4000; ++iter) {
    const std::string frame =
        serve::EncodeFrame(RandomType(rng), RandomPayload(rng, 150));
    const size_t keep = rng.NextU64() % frame.size();  // strict prefix
    serve::FrameBuffer fb;
    fb.Append(frame.data(), keep);
    serve::Frame out;
    auto r = fb.Next(&out);
    ASSERT_TRUE(r.ok()) << "iter " << iter << " keep " << keep;
    EXPECT_FALSE(*r);
    EXPECT_EQ(fb.last_fault(), serve::FrameFault::kNone);
    // Completing the tail must recover the frame: truncation is not
    // corruption.
    fb.Append(frame.data() + keep, frame.size() - keep);
    auto r2 = fb.Next(&out);
    ASSERT_TRUE(r2.ok());
    EXPECT_TRUE(*r2);
  }
}

// ---------------------------------------------------------------------------
// Property 2: lying length prefixes. Giant lengths must be rejected from
// the 6 buffered header bytes alone — before any payload-sized allocation
// could happen.

TEST(WireFuzzTest, GiantLengthPrefixesRejectFromHeaderAlone) {
  Rng rng(0x61A47ull);
  for (int iter = 0; iter < 10000; ++iter) {
    const uint32_t len = static_cast<uint32_t>(
        serve::kMaxFramePayload + 1 + rng.NextU64() % (1u << 30));
    std::string head(serve::kFrameHeaderBytes, '\0');
    for (int i = 0; i < 4; ++i) {
      head[i] = static_cast<char>((len >> (8 * i)) & 0xFF);
    }
    head[4] = static_cast<char>(serve::kWireProtocolVersion);
    head[5] = static_cast<char>(RandomType(rng));
    serve::FrameBuffer fb;
    fb.Append(head.data(), head.size());
    serve::Frame out;
    auto r = fb.Next(&out);
    EXPECT_FALSE(r.ok()) << "iter " << iter << " len " << len;
    EXPECT_EQ(fb.last_fault(), serve::FrameFault::kOversized);
    EXPECT_EQ(fb.buffered(), head.size());  // nothing was allocated for len
  }
}

// ---------------------------------------------------------------------------
// Garbage streams: random bytes must never produce a frame (version byte,
// type range, and CRC all have to line up — rejection, wait, or fault are
// the only outcomes).

TEST(WireFuzzTest, RandomGarbageIsNeverAccepted) {
  Rng rng(0x6A4BA6Eull);
  for (int iter = 0; iter < 10000; ++iter) {
    const std::string junk = RandomPayload(rng, 256);
    serve::FrameBuffer fb;
    fb.Append(junk.data(), junk.size());
    serve::Frame out;
    auto r = fb.Next(&out);
    if (r.ok()) {
      EXPECT_FALSE(*r) << "iter " << iter << ": garbage accepted as a frame";
    } else {
      EXPECT_NE(fb.last_fault(), serve::FrameFault::kNone);
    }
  }
}

// ---------------------------------------------------------------------------
// Payload decoders: mutated DetectRequest/DetectResponse/MetricsSnapshot
// payloads must never crash or over-allocate (WireReader::FitsElements
// rejects count fields that promise more elements than bytes remain).
// Status-level rejection is the expected outcome; parsing "successfully"
// to garbage values is tolerable, crashing is not.

TEST(WireFuzzTest, MutatedPayloadDecodersNeverCrash) {
  Rng rng(0xDEC0DEull);
  // A representative response with nested vectors — the deepest decoder.
  serve::DetectResponse resp;
  resp.request_id = 99;
  resp.wall_ms = 1.5;
  resp.stats.retries = 2;
  pipeline::TableRunResult t;
  t.result.table_name = "fuzz_table";
  core::ColumnPrediction col;
  col.column_name = "c0";
  col.admitted_types = {1, 2, 3};
  col.probabilities = {0.25f, 0.5f, 0.125f};
  t.result.columns.push_back(col);
  resp.tables.push_back(t);
  const std::string resp_bytes = serve::EncodeDetectResponse(resp);

  serve::DetectRequest req;
  req.request_id = 7;
  req.tables = {"a", "b", "c"};
  const std::string req_bytes = serve::EncodeDetectRequest(req);

  for (int iter = 0; iter < 10000; ++iter) {
    std::string bytes = (iter % 2 == 0) ? resp_bytes : req_bytes;
    // One to four mutations: bit flips and truncation.
    const int edits = 1 + static_cast<int>(rng.NextU64() % 4);
    for (int e = 0; e < edits; ++e) {
      if (bytes.empty()) break;
      if (rng.NextU64() % 4 == 0) {
        bytes.resize(rng.NextU64() % bytes.size());  // truncate
      } else {
        const size_t bit = rng.NextU64() % (bytes.size() * 8);
        bytes[bit / 8] = static_cast<char>(
            static_cast<unsigned char>(bytes[bit / 8]) ^ (1u << (bit % 8)));
      }
    }
    if (iter % 2 == 0) {
      auto r = serve::DecodeDetectResponse(bytes);
      (void)r;  // ok-or-error both fine; the property is "no crash"
    } else {
      auto r = serve::DecodeDetectRequest(bytes);
      (void)r;
    }
  }
}

// A count-field lie must fail fast instead of resizing a vector to the
// lied size: 0xFFFFFFFF admitted types backed by 8 bytes of payload.

TEST(WireFuzzTest, CountFieldLiesDoNotOverAllocate) {
  serve::WireWriter w;
  w.U32(0xFFFFFFFFu);  // "four billion tables follow"
  w.U64(42);           // ...backed by eight bytes
  const std::string lie = w.Take();
  serve::WireReader r(lie);
  EXPECT_FALSE(r.FitsElements(0xFFFFFFFFull, 4));
  EXPECT_FALSE(r.ok());

  // And through a real decoder: a DetectRequest whose table count lies.
  serve::WireWriter dr;
  dr.U64(1);      // request id
  dr.F64(0.0);    // deadline
  dr.U8(0);       // dtype
  dr.U32(0x7FFFFFFFu);  // table count lie
  dr.Str("only one actual table");
  auto decoded = serve::DecodeDetectRequest(dr.Take());
  EXPECT_FALSE(decoded.ok());
}

}  // namespace
}  // namespace taste
