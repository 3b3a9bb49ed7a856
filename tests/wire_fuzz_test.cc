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
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/rng.h"
#include "model/latent_cache.h"
#include "serve/wire.h"

namespace taste {
namespace {

serve::FrameType RandomType(Rng& rng) {
  // Valid types are 1..9 (ValidFrameType; kCacheLookup/kCacheFill extended
  // the range in the cache-plane PR).
  return static_cast<serve::FrameType>(1 + rng.NextU64() % 9);
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

// ---------------------------------------------------------------------------
// Cache-plane payloads (kCacheLookup / kCacheFill / encoded cache entries).
// Same three properties as the detect-path decoders: no crash, no
// over-allocation from lying counts, no acceptance of flipped bits.

/// A representative latent-cache entry with every field populated — the
/// deepest cache-plane decoder input (nested tensors inside a fill inside a
/// frame).
model::CachedMetadata MakeCacheEntry() {
  model::CachedMetadata m;
  m.input.table_name = "fuzz_table";
  m.input.token_ids = {5, 6, 7, 8, 9};
  m.input.column_anchors = {0, 3};
  m.input.column_ordinals = {0, 1};
  m.input.column_names = {"alpha", "beta"};
  m.input.features =
      tensor::Tensor::FromVector({2, 3}, {0.5f, -1.0f, 2.25f, 0.0f, 1e-7f, 3.0f});
  m.input.attention_mask = tensor::Tensor::FromVector(
      {5, 5}, std::vector<float>(25, 1.0f));
  m.input.num_columns = 2;
  m.encoding.layer_latents.push_back(
      tensor::Tensor::FromVector({5, 4}, std::vector<float>(20, 0.125f)));
  m.encoding.layer_latents.push_back(
      tensor::Tensor::FromVector({5, 4}, std::vector<float>(20, -0.25f)));
  m.encoding.anchor_states =
      tensor::Tensor::FromVector({2, 4}, std::vector<float>(8, 0.75f));
  m.encoding.logits =
      tensor::Tensor::FromVector({2, 3}, {0.1f, -0.2f, 0.3f, 4.0f, -5.0f, 6.0f});
  return m;
}

bool SameTensor(const tensor::Tensor& a, const tensor::Tensor& b) {
  if (a.defined() != b.defined()) return false;
  if (!a.defined()) return true;
  if (a.shape() != b.shape()) return false;
  return std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// Baseline: a clean entry round-trips byte-identically (raw IEEE-754 bits on
// the wire) and its CRC validates.

TEST(WireFuzzTest, CleanCacheEntryRoundTripsByteIdentical) {
  const model::CachedMetadata entry = MakeCacheEntry();
  const std::string bytes = serve::EncodeCachedMetadata(entry);
  ASSERT_TRUE(serve::CachedEntryCrcValid(bytes));
  auto back = serve::DecodeCachedMetadata(bytes);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->input.table_name, entry.input.table_name);
  EXPECT_EQ(back->input.token_ids, entry.input.token_ids);
  EXPECT_EQ(back->input.column_anchors, entry.input.column_anchors);
  EXPECT_EQ(back->input.column_ordinals, entry.input.column_ordinals);
  EXPECT_EQ(back->input.column_names, entry.input.column_names);
  EXPECT_EQ(back->input.num_columns, entry.input.num_columns);
  EXPECT_TRUE(SameTensor(back->input.features, entry.input.features));
  EXPECT_TRUE(
      SameTensor(back->input.attention_mask, entry.input.attention_mask));
  ASSERT_EQ(back->encoding.layer_latents.size(),
            entry.encoding.layer_latents.size());
  for (size_t i = 0; i < entry.encoding.layer_latents.size(); ++i) {
    EXPECT_TRUE(SameTensor(back->encoding.layer_latents[i],
                           entry.encoding.layer_latents[i]));
  }
  EXPECT_TRUE(
      SameTensor(back->encoding.anchor_states, entry.encoding.anchor_states));
  EXPECT_TRUE(SameTensor(back->encoding.logits, entry.encoding.logits));

  // And the lookup/fill envelopes round-trip too.
  serve::CacheLookup lookup;
  lookup.lookup_id = 0xDEADBEEFull;
  lookup.key = "fuzz_table#0";
  auto lk = serve::DecodeCacheLookup(serve::EncodeCacheLookup(lookup));
  ASSERT_TRUE(lk.ok());
  EXPECT_EQ(lk->lookup_id, lookup.lookup_id);
  EXPECT_EQ(lk->key, lookup.key);
  serve::CacheFill fill;
  fill.lookup_id = 7;
  fill.hit = 1;
  fill.key = lookup.key;
  fill.entry = bytes;
  auto fl = serve::DecodeCacheFill(serve::EncodeCacheFill(fill));
  ASSERT_TRUE(fl.ok());
  EXPECT_EQ(fl->lookup_id, fill.lookup_id);
  EXPECT_EQ(fl->hit, fill.hit);
  EXPECT_EQ(fl->key, fill.key);
  EXPECT_EQ(fl->entry, fill.entry);
}

// A single flipped bit anywhere in an encoded cache entry must never
// validate: CachedEntryCrcValid is false (the router's admit/serve gate) and
// DecodeCachedMetadata rejects (the worker's decode gate). CRC-32 detects
// all single-bit errors, so this is exhaustive-by-sampling, not
// probabilistic.

TEST(WireFuzzTest, CacheEntryBitFlipsAreNeverAccepted) {
  Rng rng(0xCAC4Eull);
  const std::string clean = serve::EncodeCachedMetadata(MakeCacheEntry());
  for (int iter = 0; iter < 10000; ++iter) {
    std::string bytes = clean;
    const size_t bit = rng.NextU64() % (bytes.size() * 8);
    bytes[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(bytes[bit / 8]) ^ (1u << (bit % 8)));
    EXPECT_FALSE(serve::CachedEntryCrcValid(bytes))
        << "iter " << iter << ": flipped bit " << bit << " validated";
    EXPECT_FALSE(serve::DecodeCachedMetadata(bytes).ok())
        << "iter " << iter << ": flipped bit " << bit << " decoded";
  }
}

// Mutated cache-plane payloads (bit flips AND truncations, 1-4 edits) must
// never crash any of the three decoders. Status-level rejection is the
// expected outcome; the property under asan/ubsan is "no crash, no OOB".

TEST(WireFuzzTest, MutatedCachePayloadDecodersNeverCrash) {
  Rng rng(0xCAFEDECull);
  const std::string entry_bytes = serve::EncodeCachedMetadata(MakeCacheEntry());
  serve::CacheFill fill;
  fill.lookup_id = 3;
  fill.hit = 1;
  fill.key = "fuzz_table#1";
  fill.entry = entry_bytes;
  const std::string fill_bytes = serve::EncodeCacheFill(fill);
  serve::CacheLookup lookup;
  lookup.lookup_id = 11;
  lookup.key = "fuzz_table#1";
  const std::string lookup_bytes = serve::EncodeCacheLookup(lookup);

  for (int iter = 0; iter < 10000; ++iter) {
    std::string bytes;
    switch (iter % 3) {
      case 0: bytes = entry_bytes; break;
      case 1: bytes = fill_bytes; break;
      default: bytes = lookup_bytes; break;
    }
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
    switch (iter % 3) {
      case 0: (void)serve::DecodeCachedMetadata(bytes); break;
      case 1: (void)serve::DecodeCacheFill(bytes); break;
      default: (void)serve::DecodeCacheLookup(bytes); break;
    }
  }
}

/// Reseals a lying entry body with a VALID CRC trailer, so the decode has
/// to reject it on its structural guards (FitsElements, rank/dim bounds)
/// rather than the checksum — the count-lie properties below specifically
/// target the post-CRC code paths.
std::string SealWithValidCrc(const serve::WireWriter& w) {
  std::string body = w.data();
  const uint32_t crc = Crc32(body.data(), body.size());
  for (int i = 0; i < 4; ++i) {
    body.push_back(static_cast<char>((crc >> (8 * i)) & 0xFF));
  }
  return body;
}

// Count-field lies in cache entries must fail fast, never resize to the
// lied count. Each lie is CRC-sealed so it reaches the structural guards.

TEST(WireFuzzTest, CacheEntryCountLiesDoNotOverAllocate) {
  // Lie 1: token-id count claims four billion ints backed by a few bytes.
  {
    serve::WireWriter w;
    w.Str("t");
    w.U32(0xFFFFFFFFu);  // token_ids count lie
    w.U32(1);
    auto r = serve::DecodeCachedMetadata(SealWithValidCrc(w));
    EXPECT_FALSE(r.ok());
  }
  // Lie 2: tensor rank/dims promising ~2^62 elements.
  {
    serve::WireWriter w;
    w.Str("t");
    w.U32(0);  // token_ids
    w.U32(0);  // column_anchors
    w.U32(0);  // column_ordinals
    w.U32(0);  // column_names
    w.U8(1);   // features defined
    w.U32(2);  // rank 2
    w.I64(1ll << 31);
    w.I64(1ll << 31);  // numel lie: 2^62 floats
    auto r = serve::DecodeCachedMetadata(SealWithValidCrc(w));
    EXPECT_FALSE(r.ok());
  }
  // Lie 3: latent count claims 100k tensors backed by nothing.
  {
    const model::CachedMetadata entry = MakeCacheEntry();
    serve::WireWriter w;
    const model::EncodedMetadata& in = entry.input;
    w.Str(in.table_name);
    w.U32(0);  // token_ids
    w.U32(0);  // column_anchors
    w.U32(0);  // column_ordinals
    w.U32(0);  // column_names
    w.U8(0);   // features undefined
    w.U8(0);   // attention_mask undefined
    w.U32(static_cast<uint32_t>(in.num_columns));
    w.U32(100000);  // layer_latents count lie
    auto r = serve::DecodeCachedMetadata(SealWithValidCrc(w));
    EXPECT_FALSE(r.ok());
  }
  // And the fill envelope: a key-length lie inside a CacheFill.
  {
    serve::WireWriter w;
    w.U64(1);  // lookup_id
    w.U8(1);   // hit
    w.U32(0xFFFFFF00u);  // key length lie
    w.U64(0);
    auto r = serve::DecodeCacheFill(w.data());
    EXPECT_FALSE(r.ok());
  }
}

}  // namespace
}  // namespace taste
