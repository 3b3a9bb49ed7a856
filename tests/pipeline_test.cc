// Tests for the pipelined scheduler (Algorithm 1): correctness parity with
// sequential execution, stage-order safety under concurrency, and the
// wall-clock benefit of overlapping I/O with inference.

#include <gtest/gtest.h>

#include "data/table_generator.h"
#include "pipeline/scheduler.h"

namespace taste::pipeline {
namespace {

struct Env {
  data::Dataset dataset;
  std::unique_ptr<text::WordPieceTokenizer> tokenizer;
  std::unique_ptr<model::AdtdModel> model;
  std::unique_ptr<clouddb::SimulatedDatabase> db;
  std::vector<std::string> table_names;

  /// `seed` != 0 varies both the generated tables and the model weights.
  static Env Make(int tables, double time_scale, uint64_t seed = 0) {
    Env e;
    data::DatasetProfile profile = data::DatasetProfile::WikiLike(tables);
    if (seed != 0) profile.seed = seed;
    e.dataset = data::GenerateDataset(profile);
    text::WordPieceTrainer trainer({.vocab_size = 400});
    for (const auto& d : data::BuildCorpusDocuments(e.dataset)) {
      trainer.AddDocument(d);
    }
    e.tokenizer = std::make_unique<text::WordPieceTokenizer>(trainer.Train());
    model::AdtdConfig cfg = model::AdtdConfig::Tiny(
        e.tokenizer->vocab().size(),
        data::SemanticTypeRegistry::Default().size());
    Rng rng(seed != 0 ? seed : 11);
    e.model = std::make_unique<model::AdtdModel>(cfg, rng);
    clouddb::CostModel cost;
    cost.time_scale = time_scale;
    e.db = std::make_unique<clouddb::SimulatedDatabase>(cost);
    TASTE_CHECK(e.db->IngestDataset(e.dataset).ok());
    for (const auto& t : e.dataset.tables) e.table_names.push_back(t.name);
    return e;
  }
};

TEST(PipelineTest, SequentialProcessesAllTables) {
  Env e = Env::Make(8, 0.0);
  core::TasteDetector det(e.model.get(), e.tokenizer.get(), {});
  PipelineExecutor exec(&det, e.db.get(), {.pipelined = false});
  auto res = exec.Run(e.table_names);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->size(), e.table_names.size());
  EXPECT_EQ(exec.stats().tables_processed, 8);
}

TEST(PipelineTest, PipelinedProcessesAllTables) {
  Env e = Env::Make(8, 0.0);
  core::TasteDetector det(e.model.get(), e.tokenizer.get(), {});
  PipelineExecutor exec(&det, e.db.get(), {.pipelined = true});
  auto res = exec.Run(e.table_names);
  ASSERT_TRUE(res.ok());
  ASSERT_EQ(res->size(), e.table_names.size());
  // Results returned in input order with complete per-column output.
  for (size_t i = 0; i < res->size(); ++i) {
    EXPECT_EQ((*res)[i].table_name, e.table_names[i]);
    EXPECT_EQ((*res)[i].columns.size(),
              e.dataset.tables[i].columns.size());
  }
}

TEST(PipelineTest, PipelinedMatchesSequentialPredictions) {
  Env e = Env::Make(10, 0.0);
  core::TasteDetector det(e.model.get(), e.tokenizer.get(), {});
  PipelineExecutor seq(&det, e.db.get(), {.pipelined = false});
  auto a = seq.Run(e.table_names);
  PipelineExecutor pip(&det, e.db.get(), {.pipelined = true});
  auto b = pip.Run(e.table_names);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->size(), b->size());
  for (size_t i = 0; i < a->size(); ++i) {
    ASSERT_EQ((*a)[i].columns.size(), (*b)[i].columns.size());
    for (size_t c = 0; c < (*a)[i].columns.size(); ++c) {
      EXPECT_EQ((*a)[i].columns[c].admitted_types,
                (*b)[i].columns[c].admitted_types)
          << e.table_names[i] << " col " << c;
    }
    EXPECT_EQ((*a)[i].columns_scanned, (*b)[i].columns_scanned);
  }
}

TEST(PipelineTest, RunOutputByteIdenticalToDirectDetection) {
  // The executor's per-worker ExecContexts (buffer pool + structural
  // no-grad) must not perturb a single bit of the predictions relative to
  // calling the detector directly with no context at all.
  Env e = Env::Make(6, 0.0);
  core::TasteDetector det(e.model.get(), e.tokenizer.get(), {});
  PipelineExecutor exec(&det, e.db.get(), {.pipelined = true});
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

TEST(PipelineTest, UnknownTableSurfacesError) {
  Env e = Env::Make(4, 0.0);
  core::TasteDetector det(e.model.get(), e.tokenizer.get(), {});
  PipelineExecutor exec(&det, e.db.get(), {.pipelined = true});
  auto names = e.table_names;
  names.push_back("ghost_table");
  auto res = exec.Run(names);
  EXPECT_FALSE(res.ok());
}

TEST(PipelineTest, EmptyBatchIsFine) {
  Env e = Env::Make(2, 0.0);
  core::TasteDetector det(e.model.get(), e.tokenizer.get(), {});
  PipelineExecutor exec(&det, e.db.get(), {.pipelined = true});
  auto res = exec.Run({});
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->empty());
}

TEST(PipelineTest, StatsCountP2Tables) {
  Env e = Env::Make(6, 0.0);
  // Untrained model -> every table goes to P2.
  core::TasteDetector det(e.model.get(), e.tokenizer.get(), {});
  PipelineExecutor exec(&det, e.db.get(), {.pipelined = true});
  ASSERT_TRUE(exec.Run(e.table_names).ok());
  EXPECT_EQ(exec.stats().tables_entered_p2, 6);
  // Privacy mode -> none.
  core::TasteDetector no_p2(e.model.get(), e.tokenizer.get(),
                            {.enable_p2 = false});
  PipelineExecutor exec2(&no_p2, e.db.get(), {.pipelined = true});
  ASSERT_TRUE(exec2.Run(e.table_names).ok());
  EXPECT_EQ(exec2.stats().tables_entered_p2, 0);
}

TEST(PipelineTest, PipeliningReducesWallClockWithRealLatency) {
  // With real (scaled) network latency, overlapping prep with inference
  // must beat strictly sequential execution. This is Fig. 4's
  // "TASTE w/o pipelining" comparison in miniature.
  Env e = Env::Make(10, 0.3);  // latency realized at 30% scale
  core::TasteDetector det(e.model.get(), e.tokenizer.get(), {});
  PipelineExecutor seq(&det, e.db.get(), {.pipelined = false});
  ASSERT_TRUE(seq.Run(e.table_names).ok());
  double seq_ms = seq.stats().wall_ms;
  PipelineExecutor pip(&det, e.db.get(),
                       {.prep_threads = 2, .infer_threads = 2});
  ASSERT_TRUE(pip.Run(e.table_names).ok());
  double pip_ms = pip.stats().wall_ms;
  EXPECT_LT(pip_ms, seq_ms * 0.95)
      << "sequential " << seq_ms << "ms, pipelined " << pip_ms << "ms";
}

TEST(PipelineTest, LedgerCountsIndependentOfExecutionMode) {
  Env e = Env::Make(6, 0.0);
  core::TasteDetector det(e.model.get(), e.tokenizer.get(), {});
  PipelineExecutor seq(&det, e.db.get(), {.pipelined = false});
  e.db->ledger().Reset();
  ASSERT_TRUE(seq.Run(e.table_names).ok());
  auto seq_snap = e.db->ledger().snapshot();
  PipelineExecutor pip(&det, e.db.get(), {.pipelined = true});
  e.db->ledger().Reset();
  ASSERT_TRUE(pip.Run(e.table_names).ok());
  auto pip_snap = e.db->ledger().snapshot();
  EXPECT_EQ(seq_snap.scanned_columns, pip_snap.scanned_columns);
  EXPECT_EQ(seq_snap.metadata_columns, pip_snap.metadata_columns);
}

// Metadata-first invariant on the executor path, over seeded tables,
// weights and α/β (fault-free): the I/O ledger, the per-table scan counts
// and the per-column provenance must all tell the same story. A column P1
// decided (no probability strictly inside (α, β)) is never scanned, and
// α = β leaves nothing uncertain, so nothing is scanned. The untrained Tiny
// model's sigmoids cluster just around 0.5, so the narrow windows below are
// the ones that split each table into P1-decided and scanned columns.
struct LedgerCase {
  uint64_t seed;
  double alpha;
  double beta;
};

void PrintTo(const LedgerCase& c, std::ostream* os) {
  *os << "seed " << c.seed << " alpha " << c.alpha << " beta " << c.beta;
}

class LedgerPropertyTest : public ::testing::TestWithParam<LedgerCase> {};

TEST_P(LedgerPropertyTest, ScansMatchProvenance) {
  const LedgerCase p = GetParam();
  Env e = Env::Make(6, 0.0, p.seed);
  core::TasteOptions topt;
  topt.alpha = p.alpha;
  topt.beta = p.beta;
  core::TasteDetector det(e.model.get(), e.tokenizer.get(), topt);
  PipelineOptions popt;
  popt.infer_threads = 1 + static_cast<int>(p.seed % 4);
  PipelineExecutor exec(&det, e.db.get(), popt);
  const int64_t before = e.db->ledger().snapshot().scanned_columns;
  BatchResult batch = exec.RunBatch(e.table_names);
  const int64_t scanned = e.db->ledger().snapshot().scanned_columns - before;

  int64_t sum_scanned = 0;
  for (const TableRunResult& t : batch.tables) {
    ASSERT_TRUE(t.status.ok()) << t.status.ToString();
    int went_to_p2 = 0;
    for (const auto& col : t.result.columns) {
      went_to_p2 += col.went_to_p2;
      if (col.went_to_p2) continue;
      for (float prob : col.probabilities) {
        EXPECT_FALSE(prob > p.alpha && prob < p.beta)
            << t.result.table_name << "." << col.column_name
            << " was uncertain in P1 but never scanned";
      }
    }
    EXPECT_EQ(t.result.columns_scanned, went_to_p2) << t.result.table_name;
    sum_scanned += t.result.columns_scanned;
  }
  EXPECT_EQ(scanned, sum_scanned);
  if (p.alpha == p.beta) {
    EXPECT_EQ(scanned, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndThresholds, LedgerPropertyTest,
    ::testing::Values(LedgerCase{1, 0.1, 0.9}, LedgerCase{1, 0.512, 0.52},
                      LedgerCase{2, 0.508, 0.515}, LedgerCase{3, 0.49, 0.495},
                      LedgerCase{4, 0.508, 0.515}, LedgerCase{2, 0.5, 0.5},
                      LedgerCase{3, 0.9, 0.9}, LedgerCase{4, 0.2, 0.2}));

}  // namespace
}  // namespace taste::pipeline
