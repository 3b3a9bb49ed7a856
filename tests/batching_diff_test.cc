// Differential test rig for P2 content-forward byte-identity: the pipelined
// executor (four infer workers, per-worker ExecContexts, sharded latent
// cache) must reproduce the sequential per-table detector bit for bit, in
// fp32 and in int8, whichever latent source (cache hit, job copy, or
// metadata-tower recompute) a forward attends over and whatever intra-op
// pool runs it. The guarantee rests on the kernel determinism contract
// (tensor/kernels.h: every output element accumulates in fixed k-order
// from only its own row/column) — this rig is the executable proof.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/fpu.h"
#include "core/taste_detector.h"
#include "data/table_generator.h"
#include "pipeline/scheduler.h"

namespace taste::core {
namespace {

// Pin the FPU environment of the test thread; worker threads are armed by
// the tensor library on their first op.
FlushDenormalsScope pin_fpu;

struct Env {
  data::Dataset dataset;
  std::unique_ptr<text::WordPieceTokenizer> tokenizer;
  std::unique_ptr<model::AdtdModel> model;
  std::unique_ptr<clouddb::SimulatedDatabase> db;
  std::vector<std::string> table_names;

  static Env Make(int tables, bool prepack = false) {
    Env e;
    e.dataset = data::GenerateDataset(data::DatasetProfile::WikiLike(tables));
    text::WordPieceTrainer trainer({.vocab_size = 400});
    for (const auto& d : data::BuildCorpusDocuments(e.dataset)) {
      trainer.AddDocument(d);
    }
    e.tokenizer = std::make_unique<text::WordPieceTokenizer>(trainer.Train());
    model::AdtdConfig cfg = model::AdtdConfig::Tiny(
        e.tokenizer->vocab().size(),
        data::SemanticTypeRegistry::Default().size());
    Rng rng(11);
    e.model = std::make_unique<model::AdtdModel>(cfg, rng);
    if (prepack) TASTE_CHECK(e.model->PrepackQuantWeights() > 0);
    e.db = std::make_unique<clouddb::SimulatedDatabase>(clouddb::CostModel{});
    TASTE_CHECK(e.db->IngestDataset(e.dataset).ok());
    for (const auto& t : e.dataset.tables) e.table_names.push_back(t.name);
    return e;
  }
};

/// An ExecContext that runs P2 content forwards through the prepacked int8
/// kernels (see tensor/exec_context.h P2Dtype).
tensor::ExecContext::Options Int8CtxOptions() {
  tensor::ExecContext::Options o;
  o.no_grad = true;
  o.p2_dtype = tensor::P2Dtype::kInt8;
  return o;
}

/// One P2 work item harvested from a real detector job, plus the reference
/// logits the sequential path produced for it.
struct Item {
  const model::EncodedContent* content;
  const model::EncodedMetadata* meta;
  const model::AdtdModel::MetadataEncoding* meta_encoding;
  tensor::Tensor want;  // sequential ForwardContent logits
};

/// Runs P1 prep/infer + P2 prep for every table (the untrained Tiny model
/// leaves every column uncertain, so all tables enter P2) and harvests all
/// (content, meta, latents) triples. Jobs are kept alive in `jobs` so the
/// pointers in the returned items stay valid.
std::vector<Item> HarvestItems(
    const Env& e, const TasteDetector& det,
    std::vector<std::unique_ptr<TasteDetector::Job>>* jobs) {
  auto conn = e.db->Connect();
  std::vector<Item> items;
  for (const auto& name : e.table_names) {
    auto job = std::make_unique<TasteDetector::Job>();
    TASTE_CHECK(det.PrepareP1(conn.get(), name, job.get()).ok());
    TASTE_CHECK(det.InferP1(job.get()).ok());
    TASTE_CHECK(det.PrepareP2(conn.get(), job.get()).ok());
    for (size_t i = 0; i < job->chunks.size(); ++i) {
      for (const auto& content : job->contents[i]) {
        if (content.scanned.empty()) continue;
        Item it;
        it.content = &content;
        it.meta = &job->chunks[i];
        it.meta_encoding = &job->encodings[i];
        it.want = det.model().ForwardContent(content, job->chunks[i],
                                             job->encodings[i]);
        items.push_back(std::move(it));
      }
    }
    jobs->push_back(std::move(job));
  }
  TASTE_CHECK(!items.empty());
  return items;
}

::testing::AssertionResult BytesEqual(const tensor::Tensor& want,
                                      const tensor::Tensor& got) {
  if (want.dim(0) != got.dim(0) || want.dim(1) != got.dim(1)) {
    return ::testing::AssertionFailure()
           << "shape (" << want.dim(0) << "," << want.dim(1) << ") vs ("
           << got.dim(0) << "," << got.dim(1) << ")";
  }
  if (std::memcmp(want.data(), got.data(),
                  static_cast<size_t>(want.numel()) * sizeof(float)) != 0) {
    for (int64_t i = 0; i < want.numel(); ++i) {
      if (want.data()[i] != got.data()[i]) {
        return ::testing::AssertionFailure()
               << "first byte-diff at flat index " << i << ": "
               << want.data()[i] << " vs " << got.data()[i];
      }
    }
    return ::testing::AssertionFailure() << "memcmp diff (sign of zero?)";
  }
  return ::testing::AssertionSuccess();
}

TEST(BatchingDiffTest, CacheHitAndMissLatentsProduceSameBytes) {
  // The latents a content forward attends over may come from the latent
  // cache (hit), the job's own copy, or a metadata-tower recompute (miss
  // after eviction). All three hold bitwise-equal tensors, so the forward
  // must not care which one is plugged in.
  Env e = Env::Make(3);
  TasteDetector det(e.model.get(), e.tokenizer.get(), {});
  std::vector<std::unique_ptr<TasteDetector::Job>> jobs;
  auto items = HarvestItems(e, det, &jobs);
  for (const Item& it : items) {
    model::AdtdModel::MetadataEncoding recomputed =
        det.model().ForwardMetadata(*it.meta);
    EXPECT_TRUE(BytesEqual(
        it.want, det.model().ForwardContent(*it.content, *it.meta,
                                            recomputed)));
  }
}

TEST(BatchingDiffTest, ExecutorWithBatchingByteIdenticalToSequential) {
  // End to end: the pipelined executor, running a batch of tables on four
  // infer workers, must produce bit-for-bit the probabilities of direct
  // sequential detection, however the tables interleaved.
  Env e = Env::Make(8);
  TasteDetector det(e.model.get(), e.tokenizer.get(), {.cache_shards = 4});
  pipeline::PipelineOptions popt;
  popt.infer_threads = 4;
  pipeline::PipelineExecutor exec(&det, e.db.get(), popt);
  auto got = exec.Run(e.table_names);
  ASSERT_TRUE(got.ok());
  auto conn = e.db->Connect();
  for (size_t i = 0; i < e.table_names.size(); ++i) {
    auto want = det.DetectTable(conn.get(), e.table_names[i]);
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(want->columns.size(), (*got)[i].columns.size());
    for (size_t c = 0; c < want->columns.size(); ++c) {
      const auto& w = want->columns[c];
      const auto& g = (*got)[i].columns[c];
      EXPECT_EQ(w.admitted_types, g.admitted_types);
      ASSERT_EQ(w.probabilities.size(), g.probabilities.size());
      for (size_t p = 0; p < w.probabilities.size(); ++p) {
        EXPECT_EQ(w.probabilities[p], g.probabilities[p])
            << e.table_names[i] << " col " << c << " prob " << p;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Int8 determinism (DESIGN.md §12). The int8 path's contract is weaker
// than fp32-identity but just as hard: the SAME bytes across runs, intra-op
// pools, and replicas — never the fp32 bytes (accuracy vs fp32 is
// tolerance-gated by tools/accuracy_gate.py, not byte-compared).

TEST(BatchingDiffTest, Int8RunToRunBytesStableAcrossContexts) {
  // Replica byte-agreement proxy: independent int8 contexts (fresh buffer
  // pools, as two forked replicas would have) produce the same bytes for
  // the same items, with or without an intra-op pool — and the quantized
  // tower actually ran (the bytes differ from fp32 somewhere).
  Env e = Env::Make(4, /*prepack=*/true);
  TasteDetector det(e.model.get(), e.tokenizer.get(), {});
  std::vector<std::unique_ptr<TasteDetector::Job>> jobs;
  auto items = HarvestItems(e, det, &jobs);

  tensor::ExecContext ctx_a(Int8CtxOptions());
  tensor::ExecContext ctx_b(Int8CtxOptions());
  auto opts_pool = Int8CtxOptions();
  opts_pool.intra_op_threads = 2;
  tensor::ExecContext ctx_c(opts_pool);
  bool any_diff_from_fp32 = false;
  for (size_t k = 0; k < items.size(); ++k) {
    const Item& it = items[k];
    auto forward = [&](tensor::ExecContext* ctx) {
      return det.model().ForwardContent(*it.content, *it.meta,
                                        *it.meta_encoding, ctx);
    };
    tensor::Tensor run_a = forward(&ctx_a);
    EXPECT_TRUE(BytesEqual(run_a, forward(&ctx_b))) << "item " << k;
    EXPECT_TRUE(BytesEqual(run_a, forward(&ctx_c))) << "pooled item " << k;
    if (!BytesEqual(it.want, run_a)) any_diff_from_fp32 = true;
  }
  EXPECT_TRUE(any_diff_from_fp32)
      << "int8 context produced fp32 bytes everywhere — gate inactive?";
}

TEST(BatchingDiffTest, Int8P1AndCacheBytesAreDtypeIndependent) {
  // The quant region only covers content forwards: P1 metadata latents —
  // what the latent cache stores — must be byte-identical under an int8
  // context, so cache entries written by an fp32 process are valid in an
  // int8 one and vice versa.
  Env e = Env::Make(3, /*prepack=*/true);
  TasteDetector det(e.model.get(), e.tokenizer.get(), {});
  std::vector<std::unique_ptr<TasteDetector::Job>> jobs;
  auto items = HarvestItems(e, det, &jobs);
  const Item& it = items.front();

  model::AdtdModel::MetadataEncoding fp32_enc =
      det.model().ForwardMetadata(*it.meta);
  tensor::ExecContext int8_ctx(Int8CtxOptions());
  model::AdtdModel::MetadataEncoding int8_enc =
      det.model().ForwardMetadata(*it.meta, &int8_ctx);
  ASSERT_EQ(fp32_enc.layer_latents.size(), int8_enc.layer_latents.size());
  for (size_t l = 0; l < fp32_enc.layer_latents.size(); ++l) {
    EXPECT_TRUE(BytesEqual(fp32_enc.layer_latents[l],
                           int8_enc.layer_latents[l]))
        << "layer " << l;
  }
  EXPECT_TRUE(BytesEqual(fp32_enc.anchor_states, int8_enc.anchor_states));
  EXPECT_TRUE(BytesEqual(fp32_enc.logits, int8_enc.logits));
}

TEST(BatchingDiffTest, Int8ExecutorByteIdenticalToInt8Sequential) {
  // End to end via PipelineOptions::p2_dtype: the pipelined executor in
  // int8 mode must reproduce direct int8 sequential detection bit for bit,
  // and actually diverge from the fp32 run somewhere (the flag reached the
  // kernels).
  Env e = Env::Make(6, /*prepack=*/true);
  TasteDetector det(e.model.get(), e.tokenizer.get(), {.cache_shards = 2});
  pipeline::PipelineOptions popt;
  popt.infer_threads = 3;
  popt.p2_dtype = tensor::P2Dtype::kInt8;
  pipeline::PipelineExecutor exec(&det, e.db.get(), popt);
  auto got = exec.Run(e.table_names);
  ASSERT_TRUE(got.ok());

  auto conn = e.db->Connect();
  bool any_prob_diff_from_fp32 = false;
  for (size_t i = 0; i < e.table_names.size(); ++i) {
    tensor::ExecContext int8_ctx(Int8CtxOptions());
    auto want = det.DetectTable(conn.get(), e.table_names[i], &int8_ctx);
    auto fp32 = det.DetectTable(conn.get(), e.table_names[i]);
    ASSERT_TRUE(want.ok());
    ASSERT_TRUE(fp32.ok());
    ASSERT_EQ(want->columns.size(), (*got)[i].columns.size());
    for (size_t c = 0; c < want->columns.size(); ++c) {
      const auto& w = want->columns[c];
      const auto& g = (*got)[i].columns[c];
      EXPECT_EQ(w.admitted_types, g.admitted_types);
      ASSERT_EQ(w.probabilities.size(), g.probabilities.size());
      for (size_t p = 0; p < w.probabilities.size(); ++p) {
        EXPECT_EQ(w.probabilities[p], g.probabilities[p])
            << e.table_names[i] << " col " << c << " prob " << p;
        if (w.probabilities[p] != fp32->columns[c].probabilities[p]) {
          any_prob_diff_from_fp32 = true;
        }
      }
    }
  }
  EXPECT_TRUE(any_prob_diff_from_fp32)
      << "int8 executor run matched fp32 bytes everywhere — flag unused?";
}

}  // namespace
}  // namespace taste::core
