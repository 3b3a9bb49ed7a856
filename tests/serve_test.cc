// Tests for the crash-fault-tolerant multi-process serving tier: the wire
// protocol's bit-exact round trips, consistent-hash placement, supervised
// fork/respawn lifecycle, the wedge watchdog, and — the headline invariant —
// that scatter/gather across replicas (including forced mid-request crashes
// with failover re-dispatch) produces results BYTE-IDENTICAL to a
// single-process PipelineExecutor run.
//
// Everything here forks real processes; the suite carries the `unit` label
// (TSan instruments fork poorly, and the tsan CI job runs only tsan-heavy).

#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/cost_model.h"
#include "core/taste_detector.h"
#include "data/table_generator.h"
#include "model/adtd.h"
#include "obs/aggregate.h"
#include "pipeline/scheduler.h"
#include "serve/router.h"
#include "serve/supervisor.h"
#include "serve/wire.h"
#include "serve/worker.h"
#include "text/wordpiece.h"

namespace taste {
namespace {

// ---------------------------------------------------------------------------
// Wire protocol

TEST(WireTest, DetectRequestRoundTrip) {
  serve::DetectRequest req;
  req.request_id = 0xDEADBEEFCAFEull;
  req.deadline_remaining_ms = 123.456;
  req.p2_dtype = 1; // int8
  req.tables = {"users", "事件", "", std::string("a\0b", 3)};
  auto back = serve::DecodeDetectRequest(serve::EncodeDetectRequest(req));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->request_id, req.request_id);
  EXPECT_EQ(back->deadline_remaining_ms, req.deadline_remaining_ms);
  EXPECT_EQ(back->p2_dtype, req.p2_dtype);
  EXPECT_EQ(back->tables, req.tables);
}

TEST(WireTest, DetectResponseRoundTripIsBitExact) {
  serve::DetectResponse resp;
  resp.request_id = 7;
  resp.wall_ms = 0.125;
  resp.stats.retries = 3;
  resp.stats.degraded_tables = 1;

  pipeline::TableRunResult t;
  t.status = Status::DeadlineExceeded("deadline exceeded: p1 prep");
  t.outcome = pipeline::TableOutcome::kExpired;
  t.result.table_name = "events";
  t.result.columns_scanned = 4;
  t.result.total_columns = 5;
  core::ColumnPrediction col;
  col.column_name = "ip_address";
  col.ordinal = 3;
  col.went_to_p2 = true;
  col.provenance = core::ResultProvenance::kDegradedMetadataOnly;
  col.admitted_types = {1, 9, 12};
  // Values a lossy (text) encoding would mangle: denormal, NaN payload,
  // signed zero, and an odd mantissa.
  col.probabilities = {std::numeric_limits<float>::denorm_min(),
                       std::nanf("0x5ca1e"), -0.0f, 0.30000001192092896f};
  t.result.columns.push_back(col);
  resp.tables.push_back(t);

  auto back = serve::DecodeDetectResponse(serve::EncodeDetectResponse(resp));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->request_id, resp.request_id);
  EXPECT_EQ(back->stats.retries, 3);
  ASSERT_EQ(back->tables.size(), 1u);
  const auto& bt = back->tables[0];
  EXPECT_EQ(bt.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(bt.status.ToString(), t.status.ToString());
  EXPECT_EQ(bt.outcome, pipeline::TableOutcome::kExpired);
  ASSERT_EQ(bt.result.columns.size(), 1u);
  const auto& bc = bt.result.columns[0];
  EXPECT_EQ(bc.admitted_types, col.admitted_types);
  EXPECT_EQ(bc.provenance, col.provenance);
  ASSERT_EQ(bc.probabilities.size(), col.probabilities.size());
  // memcmp, not ==: NaN != NaN but its bits must survive the wire.
  EXPECT_EQ(std::memcmp(bc.probabilities.data(), col.probabilities.data(),
                        col.probabilities.size() * sizeof(float)),
            0);
}

TEST(WireTest, FrameBufferReassemblesSplitFrames) {
  // EncodeFrame emits the full v2 envelope: header (len + version + type)
  // and CRC trailer; byte-at-a-time reassembly must pop frames exactly at
  // their boundaries with the CRC verified.
  std::string stream =
      serve::EncodeFrame(serve::FrameType::kScrapeRequest, "12345678") +
      serve::EncodeFrame(serve::FrameType::kDetectResponse,
                         std::string(1000, 'x'));

  serve::FrameBuffer fb;
  serve::Frame frame;
  int got = 0;
  for (char c : stream) {
    fb.Append(&c, 1);
    auto r = fb.Next(&frame);
    ASSERT_TRUE(r.ok());
    if (*r) {
      ++got;
      if (got == 1) {
        EXPECT_EQ(frame.type, serve::FrameType::kScrapeRequest);
        EXPECT_EQ(frame.payload, "12345678");
      } else {
        EXPECT_EQ(frame.type, serve::FrameType::kDetectResponse);
        EXPECT_EQ(frame.payload.size(), 1000u);
      }
    }
  }
  EXPECT_EQ(got, 2);
  EXPECT_EQ(fb.buffered(), 0u);
}

TEST(WireTest, OversizedFramePrefixIsRejected) {
  serve::FrameBuffer fb;
  const char bad[6] = {'\xFF', '\xFF', '\xFF', '\xFF',
                       static_cast<char>(serve::kWireProtocolVersion), 1};
  fb.Append(bad, sizeof(bad));
  serve::Frame frame;
  auto r = fb.Next(&frame);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(fb.last_fault(), serve::FrameFault::kOversized);
}

TEST(WireTest, CorruptedPayloadFailsCrcAndCountsIt) {
  obs::Counter* corrupt =
      obs::Registry::Global().GetCounter("taste_frames_corrupt_total");
  const int64_t before = corrupt->Value();
  std::string frame = serve::EncodeFrame(serve::FrameType::kDetectResponse,
                                         "the payload bytes");
  frame[serve::kFrameHeaderBytes + 3] ^= 0x01;  // one flipped payload bit
  serve::FrameBuffer fb;
  fb.Append(frame.data(), frame.size());
  serve::Frame out;
  auto r = fb.Next(&out);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(fb.last_fault(), serve::FrameFault::kBadCrc);
  EXPECT_GT(corrupt->Value(), before);
}

TEST(WireTest, CorruptedHeaderLengthFailsCrc) {
  // A length-prefix lie that still fits the cap: the frame parses to the
  // wrong boundary and the CRC (which covers version+type+payload) fails.
  std::string frame = serve::EncodeFrame(serve::FrameType::kScrapeRequest,
                                         std::string(64, 'a'));
  frame[0] ^= 0x04;  // payload length 64 -> 68
  frame += std::string(8, 'b');  // keep enough bytes buffered to "complete"
  serve::FrameBuffer fb;
  fb.Append(frame.data(), frame.size());
  serve::Frame out;
  auto r = fb.Next(&out);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(fb.last_fault(), serve::FrameFault::kBadCrc);
}

TEST(WireTest, WrongProtocolVersionIsRejected) {
  std::string frame = serve::EncodeFrame(serve::FrameType::kScrapeRequest, "x");
  frame[4] = static_cast<char>(serve::kWireProtocolVersion + 1);
  serve::FrameBuffer fb;
  fb.Append(frame.data(), frame.size());
  serve::Frame out;
  auto r = fb.Next(&out);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(fb.last_fault(), serve::FrameFault::kBadVersion);
}

TEST(WireTest, InvalidFrameTypeIsRejected) {
  // 3 and 4 once carried the retired idle-liveness probe and its ack, 8
  // and 9 the retired cross-replica latent-cache frames; they must be as
  // foreign to the parser as any other byte.
  for (const uint8_t type :
       {uint8_t{0}, uint8_t{3}, uint8_t{4}, uint8_t{8}, uint8_t{9},
        uint8_t{0xEE}}) {
    std::string frame = serve::EncodeFrame(serve::FrameType::kScrapeRequest, "x");
    frame[5] = static_cast<char>(type);
    serve::FrameBuffer fb;
    fb.Append(frame.data(), frame.size());
    serve::Frame out;
    auto r = fb.Next(&out);
    EXPECT_FALSE(r.ok()) << int{type};
    EXPECT_EQ(fb.last_fault(), serve::FrameFault::kBadType) << int{type};
  }
}

TEST(WireTest, TruncatedFrameWaitsInsteadOfFaulting) {
  // A prefix of a valid frame is not an error in a stream — it just has
  // not finished arriving. No fault, no frame.
  const std::string frame =
      serve::EncodeFrame(serve::FrameType::kDetectResponse, "payload");
  serve::FrameBuffer fb;
  fb.Append(frame.data(), frame.size() - 1);
  serve::Frame out;
  auto r = fb.Next(&out);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(*r);
  EXPECT_EQ(fb.last_fault(), serve::FrameFault::kNone);
}

TEST(WireTest, ReadFrameRejectsTruncatedStreamOverPipe) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::string frame =
      serve::EncodeFrame(serve::FrameType::kScrapeRequest, "abcdefgh");
  // Write all but the CRC trailer's last byte, then close: mid-frame EOF.
  ASSERT_EQ(::write(sv[0], frame.data(), frame.size() - 1),
            static_cast<ssize_t>(frame.size() - 1));
  ::close(sv[0]);
  serve::FrameFault fault = serve::FrameFault::kNone;
  auto r = serve::ReadFrame(sv[1], &fault);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(fault, serve::FrameFault::kTruncated);
  ::close(sv[1]);
}

TEST(WireTest, MetricsSnapshotRoundTrip) {
  obs::Registry reg;
  reg.GetCounter("c_total")->Inc(5);
  reg.GetGauge("g_bytes")->Set(1.5);
  reg.GetHistogram("h_ms", {1.0, 10.0})->Observe(3.0);
  auto back = serve::DecodeMetricsSnapshot(
      serve::EncodeMetricsSnapshot(reg.snapshot()));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->counters.at("c_total"), 5);
  EXPECT_DOUBLE_EQ(back->gauges.at("g_bytes"), 1.5);
  const auto& h = back->histograms.at("h_ms");
  EXPECT_EQ(h.count, 1);
  EXPECT_DOUBLE_EQ(h.sum, 3.0);
  ASSERT_EQ(h.bounds.size(), 2u);
  ASSERT_EQ(h.counts.size(), 3u);
  EXPECT_EQ(h.counts[1], 1);
}

// ---------------------------------------------------------------------------
// Consistent hash ring

TEST(RingTest, PlacementIsDeterministicAndFailoverIsMinimal) {
  serve::ConsistentHashRing ring(4, 64);
  serve::ConsistentHashRing ring2(4, 64);
  auto all = [](int) { return true; };
  std::vector<int> owners;
  int spread[4] = {0, 0, 0, 0};
  for (int i = 0; i < 200; ++i) {
    const std::string t = "table_" + std::to_string(i);
    const int o = ring.NodeFor(t, all);
    ASSERT_GE(o, 0);
    ASSERT_LT(o, 4);
    EXPECT_EQ(o, ring2.NodeFor(t, all));  // pure function of the name
    owners.push_back(o);
    ++spread[o];
  }
  for (int n : spread) EXPECT_GT(n, 0) << "vnode placement left a node empty";

  // Kill node 2: only its tables move; everyone else keeps their owner.
  auto not2 = [](int id) { return id != 2; };
  for (int i = 0; i < 200; ++i) {
    const std::string t = "table_" + std::to_string(i);
    const int o = ring.NodeFor(t, not2);
    ASSERT_NE(o, 2);
    if (owners[static_cast<size_t>(i)] != 2) {
      EXPECT_EQ(o, owners[static_cast<size_t>(i)]) << t;
    }
  }
  // No acceptable node at all.
  EXPECT_EQ(ring.NodeFor("x", [](int) { return false; }), -1);
}

// ---------------------------------------------------------------------------
// Shared detection environment (built once; the fixture cost is one tiny
// model + tokenizer, same as the chaos harness startup)

struct ServeEnv {
  data::Dataset dataset;
  std::unique_ptr<text::WordPieceTokenizer> tokenizer;
  std::unique_ptr<model::AdtdModel> model;
  std::unique_ptr<core::TasteDetector> detector;
  std::vector<std::string> table_names;

  static const ServeEnv& Get() {
    static ServeEnv* env = [] {
      auto* e = new ServeEnv();
      e->dataset = data::GenerateDataset(data::DatasetProfile::WikiLike(6));
      text::WordPieceTrainer trainer({.vocab_size = 400});
      for (const auto& d : data::BuildCorpusDocuments(e->dataset)) {
        trainer.AddDocument(d);
      }
      e->tokenizer =
          std::make_unique<text::WordPieceTokenizer>(trainer.Train());
      model::AdtdConfig cfg = model::AdtdConfig::Tiny(
          e->tokenizer->vocab().size(),
          data::SemanticTypeRegistry::Default().size());
      Rng rng(21);
      e->model = std::make_unique<model::AdtdModel>(cfg, rng);
      // Prepacked so the int8 router case can run; inert for fp32 contexts.
      TASTE_CHECK(e->model->PrepackQuantWeights() > 0);
      core::TasteOptions topt;  // faults off, defaults everywhere
      e->detector = std::make_unique<core::TasteDetector>(
          e->model.get(), e->tokenizer.get(), topt);
      for (const auto& t : e->dataset.tables) {
        e->table_names.push_back(t.name);
      }
      return e;
    }();
    return *env;
  }

  std::unique_ptr<clouddb::SimulatedDatabase> MakeDb() const {
    clouddb::CostModel cost;
    cost.time_scale = 0.0;  // ledger-only I/O costs; no real sleeping
    auto db = std::make_unique<clouddb::SimulatedDatabase>(cost);
    EXPECT_TRUE(db->IngestDataset(dataset).ok());
    return db;
  }

  /// A detector with its own (cold) latent cache over the shared model, so
  /// a router's replicas fork an image that never computed anything.
  std::unique_ptr<core::TasteDetector> MakeDetector() const {
    return std::make_unique<core::TasteDetector>(model.get(), tokenizer.get(),
                                                 core::TasteOptions{});
  }
};

pipeline::PipelineOptions WorkerPipelineOptions() {
  pipeline::PipelineOptions popt;
  popt.prep_threads = 2;
  popt.infer_threads = 2;
  return popt;
}

/// Bit-exact comparison of two batch results (the idempotency oracle).
void ExpectBatchesIdentical(const pipeline::BatchResult& got,
                            const pipeline::BatchResult& want) {
  ASSERT_EQ(got.tables.size(), want.tables.size());
  for (size_t i = 0; i < want.tables.size(); ++i) {
    const auto& g = got.tables[i];
    const auto& w = want.tables[i];
    EXPECT_EQ(g.outcome, w.outcome) << i;
    EXPECT_EQ(g.status.ToString(), w.status.ToString()) << i;
    EXPECT_EQ(g.result.table_name, w.result.table_name);
    EXPECT_EQ(g.result.columns_scanned, w.result.columns_scanned);
    EXPECT_EQ(g.result.degraded_columns, w.result.degraded_columns);
    ASSERT_EQ(g.result.columns.size(), w.result.columns.size()) << i;
    for (size_t c = 0; c < w.result.columns.size(); ++c) {
      const auto& gc = g.result.columns[c];
      const auto& wc = w.result.columns[c];
      EXPECT_EQ(gc.column_name, wc.column_name);
      EXPECT_EQ(gc.ordinal, wc.ordinal);
      EXPECT_EQ(gc.went_to_p2, wc.went_to_p2);
      EXPECT_EQ(gc.provenance, wc.provenance);
      EXPECT_EQ(gc.admitted_types, wc.admitted_types);
      ASSERT_EQ(gc.probabilities.size(), wc.probabilities.size());
      if (!wc.probabilities.empty()) {
        EXPECT_EQ(std::memcmp(gc.probabilities.data(), wc.probabilities.data(),
                              wc.probabilities.size() * sizeof(float)),
                  0)
            << g.result.table_name << "." << gc.column_name
            << ": probabilities differ bitwise";
      }
    }
  }
}

pipeline::BatchResult OracleRun(
    const ServeEnv& env, const std::vector<std::string>& tables,
    tensor::P2Dtype dtype = tensor::P2Dtype::kFp32) {
  auto db = env.MakeDb();
  pipeline::PipelineOptions popt = WorkerPipelineOptions();
  popt.p2_dtype = dtype;
  pipeline::PipelineExecutor exec(env.detector.get(), db.get(), popt);
  return exec.RunBatch(tables);
}

// ---------------------------------------------------------------------------
// Router vs. single-process oracle

TEST(RouterTest, ScatterGatherMatchesSingleProcessByteForByte) {
  const ServeEnv& env = ServeEnv::Get();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = env.detector.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  serve::RouterOptions ropt;
  ropt.supervisor.replicas = 3;
  serve::Router router(wenv, ropt);
  ASSERT_TRUE(router.Start().ok());

  pipeline::BatchResult got = router.RunBatch(env.table_names);
  ExpectBatchesIdentical(got, OracleRun(env, env.table_names));
  EXPECT_EQ(router.stats().replica_deaths, 0);
  EXPECT_EQ(router.stats().local_fallback_tables, 0);
  EXPECT_EQ(router.stats().dispatched_tables,
            static_cast<int64_t>(env.table_names.size()));
  router.Shutdown();
}

TEST(RouterTest, InjectedMidRequestCrashFailsOverByteIdentical) {
  const ServeEnv& env = ServeEnv::Get();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = env.detector.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  serve::RouterOptions ropt;
  ropt.supervisor.replicas = 3;

  // Aim the crash at the actual ring owner of a table so the injected
  // _exit fires deterministically on first dispatch.
  serve::ConsistentHashRing ring(ropt.supervisor.replicas, ropt.vnodes);
  const std::string victim_table = env.table_names[1];
  wenv.crash_replica = ring.NodeFor(victim_table, [](int) { return true; });
  wenv.crash_table = victim_table;

  serve::Router router(wenv, ropt);
  ASSERT_TRUE(router.Start().ok());
  pipeline::BatchResult got = router.RunBatch(env.table_names);

  // Failover must have replayed the dead replica's tables elsewhere, and
  // the merged output must be indistinguishable from a crash-free run.
  ExpectBatchesIdentical(got, OracleRun(env, env.table_names));
  EXPECT_GE(router.stats().replica_deaths, 1);
  EXPECT_GE(router.stats().redispatched_tables, 1);
  // The fleet recovers to full strength within the respawn backoff budget.
  EXPECT_TRUE(router.MaintainUntilAllUp(5000.0));
  EXPECT_GE(router.supervisor().total_respawns(), 1);
  router.Shutdown();
}

TEST(RouterTest, ExhaustedReplicaSetFallsBackLocally) {
  const ServeEnv& env = ServeEnv::Get();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = env.detector.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  serve::RouterOptions ropt;
  ropt.supervisor.replicas = 1;
  ropt.supervisor.max_respawns = 0;  // first death parks the only replica
  wenv.crash_replica = 0;
  wenv.crash_table = env.table_names[0];

  serve::Router router(wenv, ropt);
  ASSERT_TRUE(router.Start().ok());
  pipeline::BatchResult got = router.RunBatch(env.table_names);

  // The whole batch degraded to the router's local executor — and is still
  // byte-identical, because fallback shares detector, database, options.
  ExpectBatchesIdentical(got, OracleRun(env, env.table_names));
  EXPECT_GE(router.stats().local_fallback_tables,
            static_cast<int64_t>(env.table_names.size()));
  EXPECT_EQ(router.supervisor().alive_count(), 0);
  // A parked replica never respawns: Maintain reaches "full strength"
  // (nothing left pending) with the fleet still at zero live replicas.
  EXPECT_TRUE(router.MaintainUntilAllUp(50.0));
  EXPECT_EQ(router.supervisor().replica(0)->state,
            serve::ReplicaState::kParked);
  EXPECT_EQ(router.supervisor().alive_count(), 0);
  router.Shutdown();
}

TEST(RouterTest, PreExpiredDeadlinePropagatesToWorkers) {
  const ServeEnv& env = ServeEnv::Get();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = env.detector.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  wenv.pipeline_options.deadline_ms = -1.0;  // expired before work starts
  serve::RouterOptions ropt;
  ropt.supervisor.replicas = 2;
  serve::Router router(wenv, ropt);
  ASSERT_TRUE(router.Start().ok());

  pipeline::BatchResult got = router.RunBatch(env.table_names);
  ASSERT_EQ(got.tables.size(), env.table_names.size());
  for (const auto& t : got.tables) {
    EXPECT_EQ(t.outcome, pipeline::TableOutcome::kExpired)
        << pipeline::TableOutcomeName(t.outcome);
    EXPECT_EQ(t.status.code(), StatusCode::kDeadlineExceeded);
  }
  router.Shutdown();
}

TEST(RouterTest, ScrapeAggregatesReplicaRegistries) {
  const ServeEnv& env = ServeEnv::Get();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = env.detector.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  serve::RouterOptions ropt;
  ropt.supervisor.replicas = 2;
  serve::Router router(wenv, ropt);
  ASSERT_TRUE(router.Start().ok());
  (void)router.RunBatch(env.table_names);

  auto snap = router.Scrape();
  ASSERT_TRUE(snap.ok());
  // The fleet served every table exactly once between the two replicas.
  EXPECT_EQ(snap->counters.at("taste_worker_tables_total"),
            static_cast<int64_t>(env.table_names.size()));
  // Per-replica series exist alongside the summed base series.
  int per_replica = 0;
  for (const auto& [name, v] : snap->counters) {
    if (name.rfind("taste_worker_tables_total{replica=", 0) == 0) {
      ++per_replica;
    }
  }
  EXPECT_EQ(per_replica, 2);
  router.Shutdown();
}

// Randomized table mixes (duplicates allowed, random order) over one
// long-lived fleet: every batch is byte-identical to the single-process
// oracle while the replicas' latent caches warm up batch by batch.
TEST(RouterTest, RandomizedBatchesMatchOracleAcross50Seeds) {
  const ServeEnv& env = ServeEnv::Get();
  auto det = env.MakeDetector();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = det.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  serve::RouterOptions ropt;
  ropt.supervisor.replicas = 3;
  serve::Router router(wenv, ropt);
  ASSERT_TRUE(router.Start().ok());

  for (uint64_t seed = 1; seed <= 50; ++seed) {
    Rng rng(seed * 7919);
    const size_t n = 1 + rng.NextU64() % 4;
    std::vector<std::string> tables;
    for (size_t k = 0; k < n; ++k) {
      tables.push_back(env.table_names[rng.NextU64() % env.table_names.size()]);
    }
    ExpectBatchesIdentical(router.RunBatch(tables), OracleRun(env, tables));
    if (::testing::Test::HasFatalFailure()) break;
  }
  EXPECT_EQ(router.stats().replica_deaths, 0);
  router.Shutdown();
}

/// SIGKILLs a ring owner between two batches and respawns it: the fresh
/// fork starts with a cold latent cache and recomputes P1 for every table
/// it owns, which must be byte-identical to the oracle in either dtype.
void RunRespawnRecomputeCase(tensor::P2Dtype dtype) {
  const ServeEnv& env = ServeEnv::Get();
  auto det = env.MakeDetector();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = det.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  wenv.pipeline_options.p2_dtype = dtype;
  serve::RouterOptions ropt;
  ropt.supervisor.replicas = 2;
  serve::Router router(wenv, ropt);
  ASSERT_TRUE(router.Start().ok());

  const pipeline::BatchResult want =
      OracleRun(env, env.table_names, dtype);
  ExpectBatchesIdentical(router.RunBatch(env.table_names), want);

  serve::ConsistentHashRing ring(ropt.supervisor.replicas, ropt.vnodes);
  const int victim = ring.NodeFor(env.table_names[0], [](int) { return true; });
  ASSERT_GE(victim, 0);
  ASSERT_EQ(::kill(router.supervisor().replica(victim)->pid, SIGKILL), 0);
  for (int spin = 0; spin < 400; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (!router.supervisor().ReapDead().empty()) break;
  }
  ASSERT_TRUE(router.MaintainUntilAllUp(10000.0));
  ASSERT_EQ(router.supervisor().total_respawns(), 1);

  ExpectBatchesIdentical(router.RunBatch(env.table_names), want);
  EXPECT_EQ(router.stats().local_fallback_tables, 0);
  router.Shutdown();
}

TEST(RouterTest, RespawnedReplicaRecomputesByteIdenticalFp32) {
  RunRespawnRecomputeCase(tensor::P2Dtype::kFp32);
}

TEST(RouterTest, RespawnedReplicaRecomputesByteIdenticalInt8) {
  RunRespawnRecomputeCase(tensor::P2Dtype::kInt8);
}

// ---------------------------------------------------------------------------
// Straggler cost model (the router's hedge threshold re-fits it online)

TEST(P2CostModelTest, CalibrateRecoversLinearFit) {
  core::P2CostModel cm;
  // ms = 0.5 + 0.02 * tokens, exactly.
  std::vector<std::pair<int64_t, double>> samples;
  for (int64_t t : {10, 50, 100, 400, 1000}) {
    samples.emplace_back(t, 0.5 + 0.02 * static_cast<double>(t));
  }
  ASSERT_TRUE(cm.Calibrate(samples));
  EXPECT_NEAR(cm.params().overhead_ms, 0.5, 1e-9);
  EXPECT_NEAR(cm.params().ms_per_token, 0.02, 1e-12);
  EXPECT_NEAR(cm.EstimateBatchMs(200), 4.5, 1e-9);
  // Degenerate inputs keep the previous parameters.
  core::P2CostModel untouched;
  const double before = untouched.params().ms_per_token;
  EXPECT_FALSE(untouched.Calibrate({}));
  EXPECT_FALSE(untouched.Calibrate({{100, 1.0}}));
  EXPECT_FALSE(untouched.Calibrate({{100, 1.0}, {100, 2.0}}));  // det == 0
  EXPECT_EQ(untouched.params().ms_per_token, before);
}

// ---------------------------------------------------------------------------
// Gray failures: wedge (SIGSTOP), corruption, slow drip

TEST(RouterTest, SigstoppedReplicaIsHedgedByteIdentical) {
  const ServeEnv& env = ServeEnv::Get();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = env.detector.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  serve::RouterOptions ropt;
  ropt.supervisor.replicas = 3;
  ropt.hedge_multiplier = 1.0;     // hedge promptly; this test waits on it
  ropt.hedge_floor_ms = 40.0;
  ropt.hedge_budget_fraction = 1.0;

  // Wedge the ring owner of a table mid-request: SIGSTOP means no SIGCHLD
  // (SA_NOCLDSTOP), no EOF, a process that is alive but makes no progress.
  // Without hedging this leg would stall its hash range to the deadline.
  serve::ConsistentHashRing ring(ropt.supervisor.replicas, ropt.vnodes);
  const std::string victim_table = env.table_names[2];
  wenv.wedge_replica = ring.NodeFor(victim_table, [](int) { return true; });
  wenv.wedge_table = victim_table;

  serve::Router router(wenv, ropt);
  ASSERT_TRUE(router.Start().ok());
  pipeline::BatchResult got = router.RunBatch(env.table_names);

  // The hedge raced the wedge and won; results are indistinguishable from
  // a healthy single-process run.
  ExpectBatchesIdentical(got, OracleRun(env, env.table_names));
  EXPECT_GE(router.stats().hedged_tables, 1);
  router.Shutdown();
}

TEST(RouterTest, WatchdogRecoversWedgedReplicaWithoutHedging) {
  const ServeEnv& env = ServeEnv::Get();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = env.detector.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  serve::RouterOptions ropt;
  ropt.supervisor.replicas = 3;
  ropt.hedge_multiplier = 0.0;  // isolate the watchdog path
  ropt.watchdog_ms = 80.0;

  serve::ConsistentHashRing ring(ropt.supervisor.replicas, ropt.vnodes);
  const std::string victim_table = env.table_names[0];
  wenv.wedge_replica = ring.NodeFor(victim_table, [](int) { return true; });
  wenv.wedge_table = victim_table;

  serve::Router router(wenv, ropt);
  ASSERT_TRUE(router.Start().ok());
  pipeline::BatchResult got = router.RunBatch(env.table_names);

  // The watchdog escalated SIGTERM -> SIGKILL on the stopped process and
  // re-dispatched its tables byte-identically.
  ExpectBatchesIdentical(got, OracleRun(env, env.table_names));
  EXPECT_GE(router.supervisor().watchdog_kills(), 1);
  EXPECT_GE(router.stats().replica_deaths, 1);
  EXPECT_GE(router.stats().redispatched_tables, 1);
  // SIGKILL terminates even a stopped process; the fleet heals.
  EXPECT_TRUE(router.MaintainUntilAllUp(5000.0));
  EXPECT_GE(router.supervisor().total_respawns(), 1);
  router.Shutdown();
}

// With hedging off and no explicit watchdog, the watchdog still derives
// its threshold from the cost model, so a mid-request wedge in a batch
// with no deadline is condemned instead of hanging the batch.
TEST(RouterTest, WatchdogStaysOnWithHedgingOffAndNoThreshold) {
  const ServeEnv& env = ServeEnv::Get();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = env.detector.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();  // no deadline
  serve::RouterOptions ropt;
  ropt.supervisor.replicas = 3;
  ropt.hedge_multiplier = 0.0;
  ropt.watchdog_ms = 0.0;

  serve::ConsistentHashRing ring(ropt.supervisor.replicas, ropt.vnodes);
  const std::string victim_table = env.table_names[0];
  const int victim = ring.NodeFor(victim_table, [](int) { return true; });
  wenv.wedge_replica = victim;
  wenv.wedge_table = victim_table;

  serve::Router router(wenv, ropt);
  ASSERT_TRUE(router.Start().ok());
  const pid_t wedged = router.supervisor().replica(victim)->pid;

  // Were the watchdog off, nothing would ever end this batch. Rather than
  // hang, the test resumes the stopped worker (SIGCONT) after 20 s: the
  // batch then completes normally and the watchdog assertion below fails.
  std::mutex mu;
  std::condition_variable cv;
  bool finished = false;
  std::thread rescue([&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, std::chrono::seconds(20),
                     [&] { return finished; })) {
      ::kill(wedged, SIGCONT);
    }
  });
  pipeline::BatchResult got = router.RunBatch(env.table_names);
  {
    std::lock_guard<std::mutex> lock(mu);
    finished = true;
  }
  cv.notify_all();
  rescue.join();

  ExpectBatchesIdentical(got, OracleRun(env, env.table_names));
  EXPECT_GE(router.supervisor().watchdog_kills(), 1);
  EXPECT_GE(router.stats().redispatched_tables, 1);
  EXPECT_TRUE(router.MaintainUntilAllUp(5000.0));
  router.Shutdown();
}

// A replica wedged while idle stays wedged across batches. Each leg it is
// sent loses its hedge race and is abandoned at the end of its batch; the
// watchdog judges abandoned legs too, so the replica is condemned and
// respawned instead of sitting in the ring for every later batch it owns
// to pay the hedge threshold.
TEST(RouterTest, PersistentIdleWedgeIsCondemnedAcrossBatches) {
  const ServeEnv& env = ServeEnv::Get();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = env.detector.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  serve::RouterOptions ropt;  // defaults: hedging on, derived watchdog
  ropt.supervisor.replicas = 3;

  serve::Router router(wenv, ropt);
  ASSERT_TRUE(router.Start().ok());
  serve::ConsistentHashRing ring(ropt.supervisor.replicas, ropt.vnodes);
  const int victim =
      ring.NodeFor(env.table_names[0], [](int) { return true; });
  ASSERT_EQ(::kill(router.supervisor().replica(victim)->pid, SIGSTOP), 0);

  std::vector<pipeline::BatchResult> oracle;
  for (const auto& name : env.table_names) {
    oracle.push_back(OracleRun(env, {name}));
  }
  for (int b = 0; b < 40; ++b) {
    const size_t i = static_cast<size_t>(b) % env.table_names.size();
    ExpectBatchesIdentical(router.RunBatch({env.table_names[i]}), oracle[i]);
    if (::testing::Test::HasFatalFailure()) break;
  }
  EXPECT_GE(router.supervisor().watchdog_kills(), 1);
  EXPECT_GE(router.stats().replica_deaths, 1);
  EXPECT_TRUE(router.MaintainUntilAllUp(5000.0));
  EXPECT_EQ(router.supervisor().alive_count(), ropt.supervisor.replicas);
  router.Shutdown();
}

// The watchdog judges an abandoned leg only after the loop has read the
// replica's socket: a late answer already sitting in the buffer when its
// threshold has passed clears the entry — counted as wasted hedge work —
// and never leads to a kill.
TEST(RouterTest, LateAnswerToAbandonedLegIsNotAWedge) {
  const ServeEnv& env = ServeEnv::Get();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = env.detector.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  serve::RouterOptions ropt;
  ropt.supervisor.replicas = 2;
  ropt.hedge_multiplier = 1.0;  // hedge at the floor
  ropt.hedge_floor_ms = 40.0;
  ropt.hedge_budget_fraction = 1.0;
  ropt.watchdog_ms = 1000.0;

  serve::ConsistentHashRing ring(ropt.supervisor.replicas, ropt.vnodes);
  const std::string victim_table = env.table_names[0];
  const int victim = ring.NodeFor(victim_table, [](int) { return true; });
  wenv.wedge_replica = victim;
  wenv.wedge_table = victim_table;

  serve::Router router(wenv, ropt);
  ASSERT_TRUE(router.Start().ok());
  const pid_t wedged = router.supervisor().replica(victim)->pid;

  // The hedge wins; the stopped owner's leg is abandoned with the batch.
  ExpectBatchesIdentical(router.RunBatch({victim_table}),
                         OracleRun(env, {victim_table}));
  ASSERT_EQ(router.stats().hedged_tables, 1);
  ASSERT_EQ(router.supervisor().watchdog_kills(), 0);

  // Resume the owner: it answers the abandoned leg at once. Wait until the
  // answer sits in the socket buffer AND the leg is past its threshold.
  ASSERT_EQ(::kill(wedged, SIGCONT), 0);
  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(ropt.watchdog_ms) + 500));

  std::vector<std::string> others;
  for (const auto& name : env.table_names) {
    if (name != victim_table) others.push_back(name);
  }
  ExpectBatchesIdentical(router.RunBatch(others), OracleRun(env, others));
  EXPECT_EQ(router.supervisor().watchdog_kills(), 0);
  EXPECT_EQ(router.stats().replica_deaths, 0);
  EXPECT_EQ(router.supervisor().replica(victim)->pid, wedged);
  EXPECT_EQ(router.stats().hedge_wasted_tables, 1);
  router.Shutdown();
}

// Past the batch deadline plus kOverdueGraceMs, replicas still holding
// legs are killed and their tables replayed pre-expired — even when the
// watchdog threshold is far away. The batch ends within about a second
// instead of at the watchdog.
TEST(RouterTest, OverdueDeadlineKillsLegHolders) {
  const ServeEnv& env = ServeEnv::Get();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = env.detector.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  wenv.pipeline_options.deadline_ms = 200.0;
  serve::RouterOptions ropt;
  ropt.supervisor.replicas = 3;
  ropt.hedge_multiplier = 0.0;
  ropt.watchdog_ms = 60'000.0;

  serve::ConsistentHashRing ring(ropt.supervisor.replicas, ropt.vnodes);
  const std::string victim_table = env.table_names[0];
  wenv.wedge_replica = ring.NodeFor(victim_table, [](int) { return true; });
  wenv.wedge_table = victim_table;

  serve::Router router(wenv, ropt);
  ASSERT_TRUE(router.Start().ok());
  pipeline::BatchResult got = router.RunBatch(env.table_names);

  EXPECT_LT(router.stats().wall_ms, 200.0 + serve::kOverdueGraceMs + 2000.0);
  EXPECT_EQ(router.stats().replica_deaths, 1);
  EXPECT_EQ(router.supervisor().watchdog_kills(), 0);
  ASSERT_EQ(got.tables.size(), env.table_names.size());
  for (size_t i = 0; i < got.tables.size(); ++i) {
    const auto& t = got.tables[i];
    EXPECT_EQ(t.result.table_name, env.table_names[i]);
    EXPECT_TRUE(t.outcome == pipeline::TableOutcome::kComplete ||
                t.outcome == pipeline::TableOutcome::kDegraded ||
                t.outcome == pipeline::TableOutcome::kExpired)
        << env.table_names[i] << ": "
        << pipeline::TableOutcomeName(t.outcome);
  }
  EXPECT_TRUE(router.MaintainUntilAllUp(5000.0));
  EXPECT_EQ(router.supervisor().alive_count(), ropt.supervisor.replicas);
  router.Shutdown();
}

TEST(RouterTest, CorruptResponseIsNeverSurfacedAndRedispatched) {
  const ServeEnv& env = ServeEnv::Get();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = env.detector.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  serve::RouterOptions ropt;
  ropt.supervisor.replicas = 3;
  // Isolate the CRC path: on a slow (e.g. sanitized) build a hedge or the
  // watchdog could otherwise resolve the leg before the corrupt frame is
  // read. chaos_soak --gray-storm covers corruption racing a hedge.
  ropt.hedge_multiplier = 0.0;
  ropt.watchdog_ms = 60'000.0;

  serve::ConsistentHashRing ring(ropt.supervisor.replicas, ropt.vnodes);
  const std::string victim_table = env.table_names[1];
  wenv.corrupt_replica = ring.NodeFor(victim_table, [](int) { return true; });
  wenv.corrupt_table = victim_table;

  obs::Counter* corrupt =
      obs::Registry::Global().GetCounter("taste_frames_corrupt_total");
  const int64_t corrupt_before = corrupt->Value();

  serve::Router router(wenv, ropt);
  ASSERT_TRUE(router.Start().ok());
  pipeline::BatchResult got = router.RunBatch(env.table_names);

  // The bit-flipped response failed its CRC, was counted, and its tables
  // were recomputed elsewhere — corrupted bytes never reach the caller.
  ExpectBatchesIdentical(got, OracleRun(env, env.table_names));
  EXPECT_GT(corrupt->Value(), corrupt_before);
  EXPECT_GE(router.stats().replica_deaths, 1);
  EXPECT_GE(router.stats().redispatched_tables, 1);
  router.Shutdown();
}

TEST(RouterTest, SlowDripResponseReassemblesByteIdentical) {
  const ServeEnv& env = ServeEnv::Get();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = env.detector.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  serve::RouterOptions ropt;
  ropt.supervisor.replicas = 2;
  ropt.hedge_multiplier = 0.0;  // the drip alone must be harmless

  serve::ConsistentHashRing ring(ropt.supervisor.replicas, ropt.vnodes);
  const std::string victim_table = env.table_names[3];
  wenv.drip_replica = ring.NodeFor(victim_table, [](int) { return true; });
  wenv.drip_table = victim_table;
  wenv.drip_chunk_bytes = 64;
  wenv.drip_delay_us = 100;

  serve::Router router(wenv, ropt);
  ASSERT_TRUE(router.Start().ok());
  pipeline::BatchResult got = router.RunBatch(env.table_names);

  // Partial writes split frames at arbitrary byte boundaries; the frame
  // buffer reassembles them with the CRC intact — no fault, no failover.
  ExpectBatchesIdentical(got, OracleRun(env, env.table_names));
  EXPECT_EQ(router.stats().replica_deaths, 0);
  router.Shutdown();
}

// A hedge race's loser can still be in flight when RunBatch returns; if its
// response lands during the next Scrape, it is wasted duplicate work and
// must be counted exactly as if the next batch had drained it.
TEST(RouterTest, ScrapeCountsLateSupersededResponseAsWasted) {
  const ServeEnv& env = ServeEnv::Get();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = env.detector.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  serve::RouterOptions ropt;
  ropt.supervisor.replicas = 2;
  ropt.hedge_multiplier = 1.0;  // hedge at the floor
  ropt.hedge_floor_ms = 40.0;
  ropt.hedge_budget_fraction = 1.0;
  ropt.watchdog_ms = 60'000.0;        // the drip is slow, not wedged
  ropt.scrape_timeout_ms = 30'000.0;  // wait out the rest of the drip

  // The owner of the victim table drips its whole response at ~8 bytes per
  // 2 ms: far past the hedge floor, so the successor's hedge wins.
  serve::ConsistentHashRing ring(ropt.supervisor.replicas, ropt.vnodes);
  const std::string victim_table = env.table_names[3];
  wenv.drip_replica = ring.NodeFor(victim_table, [](int) { return true; });
  wenv.drip_table = victim_table;
  wenv.drip_chunk_bytes = 8;
  wenv.drip_delay_us = 2000;

  obs::Counter* wasted =
      obs::Registry::Global().GetCounter("taste_hedge_wasted_total");
  const int64_t wasted_before = wasted->Value();

  serve::Router router(wenv, ropt);
  ASSERT_TRUE(router.Start().ok());
  pipeline::BatchResult got = router.RunBatch(env.table_names);
  ExpectBatchesIdentical(got, OracleRun(env, env.table_names));
  const int64_t hedged = router.stats().hedged_tables;
  ASSERT_GE(hedged, 1);
  // Every hedged race's loser is still dripping.
  ASSERT_EQ(router.stats().hedge_wasted_tables, 0);

  ASSERT_TRUE(router.Scrape().ok());
  // Each hedged table had exactly one loser, now drained by the scrape.
  EXPECT_EQ(router.stats().hedge_wasted_tables, hedged);
  EXPECT_EQ(wasted->Value() - wasted_before, hedged);
  router.Shutdown();
}

// ---------------------------------------------------------------------------
// Supervisor lifecycle

TEST(SupervisorTest, SigkillIsDetectedAndRespawnedWithBackoff) {
  const ServeEnv& env = ServeEnv::Get();
  auto db = env.MakeDb();
  serve::WorkerEnv wenv;
  wenv.detector = env.detector.get();
  wenv.db = db.get();
  wenv.pipeline_options = WorkerPipelineOptions();
  serve::SupervisorOptions sopt;
  sopt.replicas = 2;
  serve::Supervisor sup(wenv, sopt);
  ASSERT_TRUE(sup.Start().ok());
  ASSERT_EQ(sup.alive_count(), 2);

  const pid_t victim = sup.replica(0)->pid;
  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  // SIGCHLD -> self-pipe -> reap. Give the kernel a beat.
  std::vector<int> died;
  for (int spin = 0; spin < 200 && died.empty(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    died = sup.ReapDead();
  }
  ASSERT_EQ(died, std::vector<int>{0});
  EXPECT_EQ(sup.alive_count(), 1);
  EXPECT_EQ(sup.replica(0)->state, serve::ReplicaState::kDead);

  // Respawn honours the deterministic backoff, then brings the replica up.
  std::vector<int> up;
  for (int spin = 0; spin < 400 && up.empty(); ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    up = sup.RespawnEligible();
  }
  ASSERT_EQ(up, std::vector<int>{0});
  EXPECT_EQ(sup.alive_count(), 2);
  EXPECT_EQ(sup.total_respawns(), 1);
  ASSERT_EQ(sup.recovery_times_ms().size(), 1u);
  EXPECT_GT(sup.recovery_times_ms()[0], 0.0);
  sup.Shutdown();
}

// ---------------------------------------------------------------------------
// Metrics aggregation (pure snapshot arithmetic)

TEST(AggregateTest, SumsBaseSeriesAndFansOutPerPartLabels) {
  obs::Registry a, b;
  a.GetCounter("req_total")->Inc(3);
  b.GetCounter("req_total")->Inc(4);
  a.GetGauge("bytes")->Set(10.0);
  b.GetGauge("bytes")->Set(5.0);
  a.GetHistogram("lat_ms", {1.0, 10.0})->Observe(0.5);
  b.GetHistogram("lat_ms", {1.0, 10.0})->Observe(5.0);
  // Already-labeled series sum under their own name but never nest labels.
  a.GetCounter("stage_ms{stage=\"p1\"}")->Inc(1);
  b.GetCounter("stage_ms{stage=\"p1\"}")->Inc(2);

  auto merged = obs::AggregateSnapshots(
      "replica", {{"0", a.snapshot()}, {"1", b.snapshot()}});
  EXPECT_EQ(merged.counters.at("req_total"), 7);
  EXPECT_EQ(merged.counters.at("req_total{replica=\"0\"}"), 3);
  EXPECT_EQ(merged.counters.at("req_total{replica=\"1\"}"), 4);
  EXPECT_DOUBLE_EQ(merged.gauges.at("bytes"), 15.0);
  EXPECT_EQ(merged.histograms.at("lat_ms").count, 2);
  EXPECT_DOUBLE_EQ(merged.histograms.at("lat_ms").sum, 5.5);
  EXPECT_EQ(merged.histograms.at("lat_ms").counts[0], 1);
  EXPECT_EQ(merged.histograms.at("lat_ms").counts[1], 1);
  EXPECT_EQ(merged.counters.at("stage_ms{stage=\"p1\"}"), 3);
  EXPECT_EQ(merged.counters.count("stage_ms{stage=\"p1\"}{replica=\"0\"}"),
            0u);
}

TEST(AggregateTest, EmptyPartContributesNothing) {
  // A replica that scraped before serving anything returns an empty
  // snapshot; it must not perturb sums or mint phantom labeled series.
  obs::Registry a;
  a.GetCounter("req_total")->Inc(2);
  a.GetGauge("depth")->Set(3.0);
  auto merged = obs::AggregateSnapshots(
      "replica", {{"0", a.snapshot()}, {"1", obs::Registry::Snapshot()}});
  EXPECT_EQ(merged.counters.at("req_total"), 2);
  EXPECT_EQ(merged.counters.count("req_total{replica=\"1\"}"), 0u);
  EXPECT_EQ(merged.counters.size(), 2u);  // base + replica=0 only
  EXPECT_DOUBLE_EQ(merged.gauges.at("depth"), 3.0);
  EXPECT_EQ(merged.gauges.size(), 2u);
  EXPECT_TRUE(merged.histograms.empty());
  // All-empty input produces an empty (not crashing) aggregate.
  auto none = obs::AggregateSnapshots("replica", {});
  EXPECT_TRUE(none.counters.empty());
}

TEST(AggregateTest, HistogramBucketMismatchFoldsScalarsOnly) {
  // Replicas on different build generations can disagree on bucket layout;
  // adding bucket-wise would be wrong, dropping the series would be worse.
  // The first layout wins and only count/sum fold in from the misfit.
  obs::Registry a, b;
  a.GetHistogram("lat_ms", {1.0, 10.0})->Observe(0.5);
  b.GetHistogram("lat_ms", {1.0, 5.0, 10.0})->Observe(7.0);
  auto merged = obs::AggregateSnapshots(
      "replica", {{"0", a.snapshot()}, {"1", b.snapshot()}});
  const auto& base = merged.histograms.at("lat_ms");
  EXPECT_EQ(base.bounds, (std::vector<double>{1.0, 10.0}));
  EXPECT_EQ(base.count, 2);
  EXPECT_DOUBLE_EQ(base.sum, 7.5);
  int64_t bucketed = 0;
  for (int64_t c : base.counts) bucketed += c;
  EXPECT_EQ(bucketed, 1);  // only part 0's observation landed in a bucket
  // The per-part series keep their own layouts intact.
  EXPECT_EQ(merged.histograms.at("lat_ms{replica=\"0\"}").bounds.size(), 2u);
  EXPECT_EQ(merged.histograms.at("lat_ms{replica=\"1\"}").bounds.size(), 3u);
}

TEST(AggregateTest, LiteralReplicaLabeledSeriesSumsWithFanOut) {
  // A part that already exports a series spelled exactly like the fan-out
  // target (replica 0's own "x_total{replica=\"0\"}") must SUM with the
  // fan-out series — never nest labels, never clobber either side.
  obs::Registry a, b;
  a.GetCounter("x_total")->Inc(1);
  b.GetCounter("x_total{replica=\"0\"}")->Inc(5);
  auto merged = obs::AggregateSnapshots(
      "replica", {{"0", a.snapshot()}, {"1", b.snapshot()}});
  EXPECT_EQ(merged.counters.at("x_total"), 1);
  EXPECT_EQ(merged.counters.at("x_total{replica=\"0\"}"), 6);
  for (const auto& [name, v] : merged.counters) {
    EXPECT_EQ(name.find('{'), name.rfind('{')) << "nested label in " << name;
  }
}

}  // namespace
}  // namespace taste
