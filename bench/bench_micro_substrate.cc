// Google-benchmark microbenchmarks of the substrates: tensor kernels,
// tokenizer throughput, model forward passes (P1, P2 with/without cached
// latents), and database access primitives. Not a paper figure — these
// bound the cost model of the larger benches.
//
// Before the google-benchmark suite runs, main() emits a machine-readable
// BENCH_substrate.json: a GEMM GFLOP/s sweep over the Tiny- and Paper-
// config encoder shapes (naive serial reference vs blocked kernel vs
// blocked + intra-op pool) plus end-to-end Fig. 4-style wall-ms of the
// pipeline executor. This file seeds the perf trajectory across PRs.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <thread>

#include "bench_common.h"
#include "clouddb/database.h"
#include "obs/export.h"
#include "common/thread_pool.h"
#include "core/cost_model.h"
#include "core/taste_detector.h"
#include "data/table_generator.h"
#include "model/adtd.h"
#include "serve/router.h"
#include "tensor/exec_context.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/quant.h"
#include "text/wordpiece.h"

namespace taste {
namespace {

// ---- tensor kernels ---------------------------------------------------------

void BM_MatMul(benchmark::State& state) {
  int64_t n = state.range(0);
  Rng rng(1);
  tensor::Tensor a = tensor::Tensor::Randn({n, n}, rng);
  tensor::Tensor b = tensor::Tensor::Randn({n, n}, rng);
  tensor::NoGradGuard ng;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128);

void BM_Softmax(benchmark::State& state) {
  Rng rng(2);
  tensor::Tensor x = tensor::Tensor::Randn({state.range(0), 128}, rng);
  tensor::NoGradGuard ng;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::Softmax(x));
  }
}
BENCHMARK(BM_Softmax)->Arg(64)->Arg(256);

void BM_LayerNorm(benchmark::State& state) {
  Rng rng(3);
  tensor::Tensor x = tensor::Tensor::Randn({state.range(0), 64}, rng);
  tensor::Tensor g = tensor::Tensor::Full({64}, 1.0f);
  tensor::Tensor b = tensor::Tensor::Zeros({64});
  tensor::NoGradGuard ng;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tensor::LayerNorm(x, g, b));
  }
}
BENCHMARK(BM_LayerNorm)->Arg(64)->Arg(256);

void BM_AutogradBackward(benchmark::State& state) {
  Rng rng(4);
  for (auto _ : state) {
    tensor::Tensor a = tensor::Tensor::Randn({32, 32}, rng, 1.0f, true);
    tensor::Tensor b = tensor::Tensor::Randn({32, 32}, rng, 1.0f, true);
    tensor::Tensor loss = tensor::MeanAll(tensor::Square(tensor::MatMul(a, b)));
    loss.Backward();
    benchmark::DoNotOptimize(a.grad().data());
  }
}
BENCHMARK(BM_AutogradBackward);

// ---- shared fixture for model-level benches ------------------------------------

struct Fixture {
  data::Dataset dataset;
  std::unique_ptr<text::WordPieceTokenizer> tokenizer;
  std::unique_ptr<model::AdtdModel> model;
  std::unique_ptr<clouddb::SimulatedDatabase> db;

  static Fixture& Get() {
    static Fixture* f = [] {
      auto* fx = new Fixture();
      fx->dataset =
          data::GenerateDataset(data::DatasetProfile::WikiLike(40));
      text::WordPieceTrainer trainer({.vocab_size = 600});
      for (const auto& d : data::BuildCorpusDocuments(fx->dataset)) {
        trainer.AddDocument(d);
      }
      fx->tokenizer =
          std::make_unique<text::WordPieceTokenizer>(trainer.Train());
      model::AdtdConfig cfg = model::AdtdConfig::Tiny(
          fx->tokenizer->vocab().size(),
          data::SemanticTypeRegistry::Default().size());
      Rng rng(5);
      fx->model = std::make_unique<model::AdtdModel>(cfg, rng);
      clouddb::CostModel cost;
      cost.time_scale = 0.0;
      fx->db = std::make_unique<clouddb::SimulatedDatabase>(cost);
      TASTE_CHECK(fx->db->IngestDataset(fx->dataset).ok());
      return fx;
    }();
    return *f;
  }
};

void BM_TokenizerEncode(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  std::string text =
      "customer_email_address varchar(255) primary contact email "
      "james.smith@example.com 555-0199 2024-01-01";
  int64_t bytes = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.tokenizer->Encode(text));
    bytes += static_cast<int64_t>(text.size());
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_TokenizerEncode);

void BM_MetadataTowerForward(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  auto conn = f.db->Connect();
  auto meta = conn->GetTableMetadata(f.dataset.tables[0].name);
  TASTE_CHECK(meta.ok());
  model::InputEncoder encoder(f.tokenizer.get(), f.model->config().input);
  model::EncodedMetadata em = encoder.EncodeMetadata(*meta);
  tensor::NoGradGuard ng;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.model->ForwardMetadata(em));
  }
}
BENCHMARK(BM_MetadataTowerForward);

void BM_ContentTowerForward_CachedLatents(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  auto conn = f.db->Connect();
  auto meta = conn->GetTableMetadata(f.dataset.tables[0].name);
  TASTE_CHECK(meta.ok());
  model::InputEncoder encoder(f.tokenizer.get(), f.model->config().input);
  model::EncodedMetadata em = encoder.EncodeMetadata(*meta);
  std::map<int, std::vector<std::string>> content;
  for (int c = 0; c < em.num_columns; ++c) {
    content[c] = f.dataset.tables[0].columns[c].values;
  }
  model::EncodedContent ec = encoder.EncodeContent(em, content);
  tensor::NoGradGuard ng;
  auto cached = f.model->ForwardMetadata(em);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.model->ForwardContent(ec, em, cached));
  }
}
BENCHMARK(BM_ContentTowerForward_CachedLatents);

void BM_ContentTowerForward_RecomputedLatents(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  auto conn = f.db->Connect();
  auto meta = conn->GetTableMetadata(f.dataset.tables[0].name);
  TASTE_CHECK(meta.ok());
  model::InputEncoder encoder(f.tokenizer.get(), f.model->config().input);
  model::EncodedMetadata em = encoder.EncodeMetadata(*meta);
  std::map<int, std::vector<std::string>> content;
  for (int c = 0; c < em.num_columns; ++c) {
    content[c] = f.dataset.tables[0].columns[c].values;
  }
  model::EncodedContent ec = encoder.EncodeContent(em, content);
  tensor::NoGradGuard ng;
  for (auto _ : state) {
    // The "TASTE w/o caching" path: the metadata tower runs again.
    auto enc = f.model->ForwardMetadata(em);
    benchmark::DoNotOptimize(f.model->ForwardContent(ec, em, enc));
  }
}
BENCHMARK(BM_ContentTowerForward_RecomputedLatents);

void BM_MetadataFetch(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  auto conn = f.db->Connect();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        conn->GetTableMetadata(f.dataset.tables[i % 40].name));
    ++i;
  }
}
BENCHMARK(BM_MetadataFetch);

void BM_ColumnScan(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  auto conn = f.db->Connect();
  const auto& table = f.dataset.tables[0];
  std::vector<std::string> cols;
  for (const auto& c : table.columns) cols.push_back(c.name);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        conn->ScanColumns(table.name, cols, {.limit_rows = 50}));
  }
}
BENCHMARK(BM_ColumnScan);

void BM_EndToEndDetectTable(benchmark::State& state) {
  Fixture& f = Fixture::Get();
  core::TasteDetector det(f.model.get(), f.tokenizer.get(), {});
  auto conn = f.db->Connect();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        det.DetectTable(conn.get(), f.dataset.tables[i % 40].name));
    ++i;
  }
}
BENCHMARK(BM_EndToEndDetectTable);

// ---- BENCH_substrate.json ---------------------------------------------------

struct GemmCase {
  const char* name;  // <config>_<gemm site>
  int64_t m, n, k;
};

// The three GEMM shapes that dominate one encoder layer (QKV projection and
// the two feed-forward matmuls) at the Tiny test config (H=48, I=128,
// ~128 tokens) and the paper's TinyBERT config (H=312, I=1200, Wmax=512).
constexpr GemmCase kGemmCases[] = {
    {"tiny_qkv", 128, 48, 48},     {"tiny_ffn1", 128, 128, 48},
    {"tiny_ffn2", 128, 48, 128},   {"paper_qkv", 512, 312, 312},
    {"paper_ffn1", 512, 1200, 312}, {"paper_ffn2", 512, 312, 1200},
};

// Best batch-average over several batches: the minimum is the standard
// microbench estimator for machines with scheduler noise — overhead only
// ever adds time.
template <typename Fn>
double TimeGemmMs(const Fn& fn, int reps) {
  fn();  // warm up (and fault in the packing scratch)
  double best = 0.0;
  for (int batch = 0; batch < 5; ++batch) {
    Stopwatch watch;
    for (int r = 0; r < reps; ++r) fn();
    const double ms = watch.ElapsedMillis() / reps;
    if (batch == 0 || ms < best) best = ms;
  }
  return best;
}

void WriteSubstrateJson() {
  const int hw_threads =
      static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  ThreadPool intra_pool(static_cast<size_t>(hw_threads));

  bench::JsonWriter json;
  json.BeginObject();
  json.Field("bench", std::string("substrate"));
  json.Field("hardware_threads", hw_threads);

  std::printf("GEMM sweep (%d hardware threads):\n", hw_threads);
  json.BeginArray("gemm");
  for (const GemmCase& s : kGemmCases) {
    Rng rng(7);
    std::vector<float> a(static_cast<size_t>(s.m * s.k));
    std::vector<float> b(static_cast<size_t>(s.k * s.n));
    std::vector<float> c(static_cast<size_t>(s.m * s.n), 0.0f);
    for (auto& x : a) x = static_cast<float>(rng.NextGaussian());
    for (auto& x : b) x = static_cast<float>(rng.NextGaussian());
    const int reps = s.m * s.n * s.k < (1 << 22) ? 50 : 10;
    const double serial_ms = TimeGemmMs(
        [&] {
          tensor::kernels::GemmAccRef(a.data(), b.data(), c.data(), s.m, s.n,
                                      s.k, false, false);
        },
        reps);
    const double blocked_ms = TimeGemmMs(
        [&] {
          tensor::kernels::GemmAcc(a.data(), b.data(), c.data(), s.m, s.n,
                                   s.k, false, false, nullptr);
        },
        reps);
    const double parallel_ms = TimeGemmMs(
        [&] {
          tensor::kernels::GemmAcc(a.data(), b.data(), c.data(), s.m, s.n,
                                   s.k, false, false, &intra_pool);
        },
        reps);
    const double mflop = 2.0 * s.m * s.n * s.k / 1e6;
    json.BeginObject();
    json.Field("shape", std::string(s.name));
    json.Field("m", s.m);
    json.Field("n", s.n);
    json.Field("k", s.k);
    json.Field("serial_ms", serial_ms);
    json.Field("serial_gflops", mflop / serial_ms);
    json.Field("blocked_ms", blocked_ms);
    json.Field("blocked_gflops", mflop / blocked_ms);
    json.Field("parallel_ms", parallel_ms);
    json.Field("parallel_gflops", mflop / parallel_ms);
    json.Field("speedup_blocked", serial_ms / blocked_ms);
    json.Field("speedup_parallel", serial_ms / parallel_ms);
    json.EndObject();
    std::printf(
        "  %-11s serial %8.3f ms (%6.2f GF/s)  blocked %8.3f ms "
        "(%6.2f GF/s, %.2fx)  +pool %8.3f ms (%6.2f GF/s, %.2fx)\n",
        s.name, serial_ms, mflop / serial_ms, blocked_ms, mflop / blocked_ms,
        serial_ms / blocked_ms, parallel_ms, mflop / parallel_ms,
        serial_ms / parallel_ms);
  }
  json.EndArray();

  // End-to-end Fig. 4-style wall clock: the full detector over the micro
  // fixture's tables, sequential vs pipelined executor (instant cost model,
  // so this is pure compute — the substrate's share of Fig. 4).
  Fixture& f = Fixture::Get();
  core::TasteDetector det(f.model.get(), f.tokenizer.get(), {});
  std::vector<std::string> tables;
  for (const auto& t : f.dataset.tables) tables.push_back(t.name);

  pipeline::PipelineExecutor seq(&det, f.db.get(), {.pipelined = false});
  TASTE_CHECK(seq.Run(tables).ok());
  pipeline::PipelineExecutor pip(&det, f.db.get(), {.pipelined = true});
  TASTE_CHECK(pip.Run(tables).ok());

  json.BeginObject("end_to_end");
  json.Field("tables", static_cast<int64_t>(tables.size()));
  json.Field("sequential_wall_ms", seq.stats().wall_ms);
  json.Field("pipelined_wall_ms", pip.stats().wall_ms);
  json.EndObject();

  // Int8 P2: the --p2-dtype=int8 content forward against fp32 at the PAPER
  // tower shape (L=4, H=312, I=1200 — the Tiny fixture's GEMMs are too
  // small to show the kernel, and the paper shape is what serving runs).
  // Weights are prepacked once (PrepackQuantWeights, as model load does);
  // each row times B content forwards, one ForwardContent per chunk, under
  // an fp32 vs an int8 ExecContext. tools/bench_check.py gates the speedup
  // (hard floor 2.5x, advisory 3x) when a SIMD kernel is compiled in. The
  // int8 timing samples also refit the router's cost model;
  // DefaultInt8Params (core/cost_model.h) were taken from the
  // "cost_model_int8" section of a committed run.
  {
    tensor::NoGradGuard ng;
    model::AdtdConfig pcfg = model::AdtdConfig::Paper(
        static_cast<int>(f.tokenizer->vocab().size()),
        static_cast<int>(data::SemanticTypeRegistry::Default().size()));
    Rng prng(17);
    model::AdtdModel pmodel(pcfg, prng);
    const int64_t packed_bytes = pmodel.PrepackQuantWeights();

    struct Chunk {
      model::EncodedMetadata em;
      model::EncodedContent ec;
      model::AdtdModel::MetadataEncoding enc;
    };
    // The Sec. 6.8 serving profile (n=2, l=2): short chunks, as wide tables
    // split at serving time. Latents come from THIS model's metadata
    // tower — cross-attention reads them during the content forward.
    model::InputConfig icfg = pcfg.input;
    icfg.cells_per_column = 2;
    model::InputEncoder encoder(f.tokenizer.get(), icfg);
    std::vector<std::unique_ptr<Chunk>> chunks;
    auto conn = f.db->Connect();
    for (int t = 0; t < 16 && chunks.size() < 16; ++t) {
      auto meta = conn->GetTableMetadata(f.dataset.tables[t].name);
      TASTE_CHECK(meta.ok());
      for (const auto& part : model::SplitWideTable(*meta, /*max_columns=*/2)) {
        if (chunks.size() >= 16) break;
        auto ch = std::make_unique<Chunk>();
        ch->em = encoder.EncodeMetadata(part);
        std::map<int, std::vector<std::string>> content;
        for (int c = 0; c < ch->em.num_columns; ++c) {
          content[c] =
              f.dataset.tables[t].columns[ch->em.column_ordinals[c]].values;
        }
        ch->ec = encoder.EncodeContent(ch->em, content);
        ch->enc = pmodel.ForwardMetadata(ch->em);
        chunks.push_back(std::move(ch));
      }
    }

    tensor::ExecContext fp32_ctx({.no_grad = true});
    tensor::ExecContext::Options int8_opt;
    int8_opt.no_grad = true;
    int8_opt.p2_dtype = tensor::P2Dtype::kInt8;
    tensor::ExecContext int8_ctx(int8_opt);

    std::vector<std::pair<int64_t, double>> int8_samples;
    double fp32_total = 0.0, int8_total = 0.0;
    std::printf("P2 int8 vs fp32 at paper shape (kernel %s, %lld KiB packed):\n",
                tensor::quant::QuantKernelName(tensor::quant::BestQuantKernel()),
                static_cast<long long>(packed_bytes / 1024));
    json.BeginObject("int8_p2");
    json.Field("kernel",
               std::string(tensor::quant::QuantKernelName(
                   tensor::quant::BestQuantKernel())));
    json.Field("packed_kib", packed_bytes / 1024);
    json.BeginArray("sweep");
    for (int bsize : {1, 2, 4, 8}) {
      std::vector<const Chunk*> items;
      int64_t total_tokens = 0;
      for (int i = 0; i < bsize; ++i) {
        items.push_back(chunks[static_cast<size_t>(i) % chunks.size()].get());
        total_tokens += static_cast<int64_t>(items.back()->ec.token_ids.size());
      }
      auto forward_all = [&](tensor::ExecContext* ctx) {
        for (const Chunk* ch : items) {
          benchmark::DoNotOptimize(
              pmodel.ForwardContent(ch->ec, ch->em, ch->enc, ctx));
        }
      };
      const int reps = std::max(1, 8 / bsize);
      const double fp32_ms = TimeGemmMs([&] { forward_all(&fp32_ctx); }, reps);
      const double int8_ms = TimeGemmMs([&] { forward_all(&int8_ctx); }, reps);
      fp32_total += fp32_ms;
      int8_total += int8_ms;
      int8_samples.emplace_back(total_tokens, int8_ms);
      json.BeginObject();
      json.Field("batch_size", static_cast<int64_t>(bsize));
      json.Field("tokens", total_tokens);
      json.Field("fp32_ms", fp32_ms);
      json.Field("int8_ms", int8_ms);
      json.Field("speedup", fp32_ms / int8_ms);
      json.EndObject();
      std::printf("  B=%-3d fp32 %8.3f ms  int8 %8.3f ms  %.2fx\n", bsize,
                  fp32_ms, int8_ms, fp32_ms / int8_ms);
    }
    json.EndArray();
    json.Field("speedup", fp32_total / int8_total);
    json.EndObject();
    std::printf("  overall int8 speedup %.2fx\n", fp32_total / int8_total);

    core::P2CostModel icm;
    const bool int8_calibrated = icm.Calibrate(int8_samples);
    json.BeginObject("cost_model_int8");
    json.Field("calibrated", int8_calibrated);
    json.Field("samples", static_cast<int64_t>(int8_samples.size()));
    json.Field("overhead_ms", icm.params().overhead_ms);
    json.Field("ms_per_token", icm.params().ms_per_token);
    json.EndObject();
    std::printf(
        "int8 cost model fit (%zu samples): overhead %.4f ms + %.5f "
        "ms/token%s\n",
        int8_samples.size(), icm.params().overhead_ms, icm.params().ms_per_token,
        int8_calibrated ? "" : " (fit failed; defaults kept)");
  }

  // Serving level: the pipelined executor at 4 infer workers vs the
  // paper's sequential mode over the same tables — identical result bytes
  // either way, so wall clock is the whole story. Uses the small-chunk
  // serving profile (n=2, l=2 overrides) over a WIDE-table corpus: cloud
  // tables are wide (paper Sec. 1) and split into many short P2 chunks.
  // The fixture's 2-8 column corpus stays with the other sections; serving
  // gets its own 40 wide tables.
  {
    data::DatasetProfile wide = data::DatasetProfile::WikiLike(40);
    wide.min_columns = 6;
    wide.max_columns = 16;
    wide.seed = 11;
    data::Dataset wide_ds = data::GenerateDataset(wide);
    clouddb::CostModel wide_cost;
    wide_cost.time_scale = 0.0;
    clouddb::SimulatedDatabase wide_db(wide_cost);
    TASTE_CHECK(wide_db.IngestDataset(wide_ds).ok());
    std::vector<std::string> wide_tables;
    for (const auto& t : wide_ds.tables) wide_tables.push_back(t.name);

    core::TasteOptions topt;
    topt.override_cells_per_column = 2;  // n
    topt.override_split_threshold = 2;   // l
    topt.cache_shards = 4;
    json.BeginObject("p2_serving");
    double seq_ms = 0.0, pip_ms = 0.0;
    for (const bool pipelined : {false, true}) {
      core::TasteDetector sdet(f.model.get(), f.tokenizer.get(), topt);
      pipeline::PipelineOptions popt;
      popt.prep_threads = 2;
      popt.infer_threads = 4;
      popt.pipelined = pipelined;
      // Best of three runs: a single pass on a shared box is dominated by
      // scheduler noise.
      double best = 0.0;
      for (int rep = 0; rep < 3; ++rep) {
        pipeline::PipelineExecutor exec(&sdet, &wide_db, popt);
        TASTE_CHECK(exec.Run(wide_tables).ok());
        const double wall = exec.stats().wall_ms;
        if (rep == 0 || wall < best) best = wall;
      }
      (pipelined ? pip_ms : seq_ms) = best;
    }
    json.Field("infer_threads", static_cast<int64_t>(4));
    json.Field("tables", static_cast<int64_t>(wide_tables.size()));
    json.Field("sequential_wall_ms", seq_ms);
    json.Field("pipelined_wall_ms", pip_ms);
    json.Field("speedup", seq_ms / pip_ms);
    json.EndObject();
    std::printf(
        "serving @4 infer workers (n=2, l=2): sequential %.1f ms, "
        "pipelined %.1f ms (%.2fx)\n",
        seq_ms, pip_ms, seq_ms / pip_ms);
  }
  // Multi-process serving tier (DESIGN.md §10): the same batch scattered
  // across forked replica workers by the supervising router. Runs here, in
  // main() before benchmark::Initialize, so fork happens at a known-safe
  // point. Each replica count forks fresh workers (cold latent caches —
  // comparable across rows); the parent detector never runs a table itself,
  // so every row starts from the same image. The failover row re-runs at
  // full strength with a crash injected into the owner of the first table
  // and reports how long the supervisor took to restore the replica.
  {
    core::TasteOptions mp_topt;
    core::TasteDetector mp_det(f.model.get(), f.tokenizer.get(), mp_topt);
    serve::WorkerEnv env;
    env.detector = &mp_det;
    env.db = f.db.get();

    std::printf("multi-process serving (replicas x %zu tables):\n",
                tables.size());
    json.BeginObject("p2_serving_mp");
    json.Field("tables", static_cast<int64_t>(tables.size()));
    json.BeginArray("rows");
    double wall1 = 0.0, wall4 = 0.0;
    for (const int replicas : {1, 2, 4}) {
      serve::RouterOptions ropt;
      ropt.supervisor.replicas = replicas;
      double best = 0.0;
      for (int rep = 0; rep < 3; ++rep) {
        serve::Router router(env, ropt);
        TASTE_CHECK(router.Start().ok());
        pipeline::BatchResult batch = router.RunBatch(tables);
        for (const auto& t : batch.tables) {
          TASTE_CHECK(t.outcome == pipeline::TableOutcome::kComplete);
        }
        const double wall = router.stats().wall_ms;
        router.Shutdown();
        if (rep == 0 || wall < best) best = wall;
      }
      if (replicas == 1) wall1 = best;
      if (replicas == 4) wall4 = best;
      const double tps = 1000.0 * static_cast<double>(tables.size()) / best;
      json.BeginObject();
      json.Field("replicas", static_cast<int64_t>(replicas));
      json.Field("wall_ms", best);
      json.Field("tables_per_s", tps);
      json.EndObject();
      std::printf("  replicas=%d  wall %8.1f ms  %7.1f tables/s\n", replicas,
                  best, tps);
    }
    json.EndArray();
    json.Field("scaling_1_to_4", wall1 / wall4);

    serve::ConsistentHashRing ring(4, 64);
    serve::WorkerEnv crash_env = env;
    crash_env.crash_table = tables[0];
    crash_env.crash_replica =
        ring.NodeFor(tables[0], [](int) { return true; });
    serve::RouterOptions ropt;
    ropt.supervisor.replicas = 4;
    serve::Router router(crash_env, ropt);
    TASTE_CHECK(router.Start().ok());
    pipeline::BatchResult batch = router.RunBatch(tables);
    for (const auto& t : batch.tables) {
      TASTE_CHECK(t.outcome == pipeline::TableOutcome::kComplete);
    }
    TASTE_CHECK(router.MaintainUntilAllUp(5000.0));
    const auto& rec = router.supervisor().recovery_times_ms();
    TASTE_CHECK(!rec.empty());
    const double recovery_ms = rec.front();
    router.Shutdown();
    json.Field("failover_recovery_ms", recovery_ms);

    // Gray-failure rows (DESIGN.md §13): SIGSTOP-wedge the ring owner of
    // the first table, twice, once per recovery mechanism.
    //
    // Hedge run: straggler hedging re-sends the wedged leg to the ring
    // successor and the batch completes without waiting for the wedge.
    // The gate is hedge duplicate work: a wedged replica can never answer,
    // so wasted (duplicate) responses per admitted table must stay < 10%.
    // Whether the derived watchdog also condemns the wedge before the
    // batch drains is timing-dependent, so this run asserts nothing about
    // recovery; Shutdown reaps the stopped worker either way.
    serve::WorkerEnv wedge_env = env;
    wedge_env.wedge_table = tables[0];
    wedge_env.wedge_replica =
        ring.NodeFor(tables[0], [](int) { return true; });
    serve::RouterOptions hopt;
    hopt.supervisor.replicas = 4;
    hopt.hedge_multiplier = 1.0;
    hopt.hedge_floor_ms = 40.0;
    hopt.hedge_budget_fraction = 1.0;
    double hedge_waste_fraction = 0.0;
    int64_t hedged_tables = 0, hedge_wasted_tables = 0;
    {
      serve::Router hrouter(wedge_env, hopt);
      TASTE_CHECK(hrouter.Start().ok());
      pipeline::BatchResult hbatch = hrouter.RunBatch(tables);
      for (const auto& t : hbatch.tables) {
        TASTE_CHECK(t.outcome == pipeline::TableOutcome::kComplete);
      }
      hedged_tables = hrouter.stats().hedged_tables;
      hedge_wasted_tables = hrouter.stats().hedge_wasted_tables;
      hedge_waste_fraction = static_cast<double>(hedge_wasted_tables) /
                             static_cast<double>(tables.size());
      hrouter.Shutdown();
    }

    // Watchdog run: hedging off, so the batch CANNOT complete until the
    // watchdog condemns the wedged replica (SIGTERM -> SIGKILL) and its
    // tables re-dispatch — which makes the respawn, and therefore the
    // recovery-time sample, deterministic. The gate bounds wedge->respawn
    // recovery by the same 5 s budget as kill->respawn.
    double wedge_recovery_ms = 0.0;
    {
      serve::RouterOptions wopt;
      wopt.supervisor.replicas = 4;
      wopt.hedge_multiplier = 0.0;
      // Generous vs this box's healthy leg wall (~300 ms for the whole
      // batch): only the wedge — which never completes — crosses it, so
      // the run condemns exactly the wedged replica.
      wopt.watchdog_ms = 800.0;
      serve::Router wrouter(wedge_env, wopt);
      TASTE_CHECK(wrouter.Start().ok());
      pipeline::BatchResult wbatch = wrouter.RunBatch(tables);
      for (const auto& t : wbatch.tables) {
        TASTE_CHECK(t.outcome == pipeline::TableOutcome::kComplete);
      }
      TASTE_CHECK(wrouter.supervisor().watchdog_kills() >= 1);
      TASTE_CHECK(wrouter.MaintainUntilAllUp(5000.0));
      const auto& wrec = wrouter.supervisor().recovery_times_ms();
      TASTE_CHECK(!wrec.empty());
      wedge_recovery_ms = wrec.back();
      wrouter.Shutdown();
    }
    json.Field("wedge_hedged_tables", hedged_tables);
    json.Field("wedge_hedge_wasted_tables", hedge_wasted_tables);
    json.Field("hedge_waste_fraction", hedge_waste_fraction);
    json.Field("wedge_recovery_ms", wedge_recovery_ms);

    json.EndObject();
    std::printf("  scaling 1->4: %.2fx;  kill->respawn recovery %.1f ms\n",
                wall1 / wall4, recovery_ms);
    std::printf(
        "  wedge: hedged %lld, wasted %lld (%.1f%% of %zu tables); "
        "watchdog recovery %.1f ms\n",
        static_cast<long long>(hedged_tables),
        static_cast<long long>(hedge_wasted_tables),
        100.0 * hedge_waste_fraction, tables.size(), wedge_recovery_ms);
  }

  // The unified-observability view of the same two runs: stage latency
  // histograms, cache and db counters, per-op kernel timings. This is the
  // machine-readable surface tools/bench_check.py sanity-checks.
  obs::AppendMetricsJson(obs::Registry::Global().snapshot(), &json);
  json.EndObject();

  const char* path = "BENCH_substrate.json";
  if (json.WriteFile(path)) {
    std::printf("end-to-end: %zu tables, sequential %.1f ms, pipelined %.1f ms\n",
                tables.size(), seq.stats().wall_ms, pip.stats().wall_ms);
    std::printf("wrote %s\n", path);
  } else {
    std::fprintf(stderr, "failed to write %s\n", path);
  }
}

}  // namespace
}  // namespace taste

int main(int argc, char** argv) {
  taste::WriteSubstrateJson();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
