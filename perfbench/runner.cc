// Benchmark runner: runs one workload against the repository's public API
// and prints one JSON object of raw measurements on its last stdout line.
// perfbench/run.py builds this binary, runs it, turns the raw samples into
// the reported statistics and checks the output contract.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    [--trace-out PATH]
//
// Every input is generated from --seed. The program under test only ever
// receives the generated tables (labels stay here, for F1). The runner sets
// only the options that define a workload (enable_p2, replica count) and
// leaves every other option at its default.
//
// --trace 0 measures the end-to-end run: set-up (repeated, each timed),
// then the oracle of every generated table (untimed), then requests into
// the workload's entry point for --seconds and at least kMinRequests
// requests. Each request's tables are checked against the oracle as soon
// as it returns, outside the measured window, and only counters are kept,
// so the runner's memory does not grow with throughput. Peak RSS, F1 and
// the result shape are taken over the first kMinRequests requests, a fixed
// amount of work, so they do not move with throughput either.
// --trace 1 is the separate per-layer run: the workload's tables go
// through the detector's stage API with spans recorded around each call
// (and around direct clouddb / text / model calls on the same inputs),
// then the normal entry point runs once with the program's metrics on.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "clouddb/database.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/taste_detector.h"
#include "data/semantic_types.h"
#include "data/table_generator.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "model/adtd.h"
#include "model/input_encoding.h"
#include "nn/serialize.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "pipeline/scheduler.h"
#include "serve/router.h"
#include "tensor/quant.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace taste;  // NOLINT: a runner touching every layer

// The simulated DB realises modelled latency as real sleeping at this scale
// (the value the repository's wall-clock benches use).
constexpr double kTimeScale = 0.2;

// The committed WikiLike ADTD checkpoint and the stack options that key it.
constexpr char kCheckpoint[] =
    ".taste_model_cache/cv2_WikiLike_n240_v700_p1_f12_lr0.002_s1234_adtd.ckpt";

eval::StackOptions CheckpointStackOptions() {
  eval::StackOptions o;
  o.num_tables = 240;
  o.vocab_size = 700;
  o.pretrain_epochs = 1;
  o.finetune_epochs = 12;
  o.train_adtd = true;
  o.train_adtd_hist = false;
  o.train_baselines = false;
  o.cache_dir = ".taste_model_cache";
  o.seed = 1234;
  return o;
}

// -- Workloads ----------------------------------------------------------------

struct Workload {
  const char* name;
  int min_columns;
  int max_columns;
  bool enable_p2;
  int tables;       // generated tables: the catalog, or the router's pool
  int batch;        // tables per request
  int replicas;     // 0 = in-process PipelineExecutor::RunBatch
  bool fresh;       // router: every request a table not requested before
};

// Set-ups per end-to-end run; setup_s is their median.
constexpr int kSetups = 3;

// Requests per end-to-end run, at least: with 200 samples the 95th
// percentile leaves ten above it (perfbench/stats.py MIN_REQUESTS), so
// request_ms_p95 is the same statistic whatever the throughput. Peak RSS,
// F1 and the result shape are taken over this many first requests.
constexpr size_t kMinRequests = 200;

// Sizes. The batch workloads cycle a catalog of many batches, so one
// seed's tables are many enough that throughput does not hang on a few
// wide ones; a batch is small enough that kMinRequests of them take about
// 30 s (backfill_wide) or 12 s (privacy_metadata) on a 4-vCPU host. The
// fresh router's pool outlasts a 10 s run at three times today's request
// rate (a run that exhausts it stops early).
constexpr Workload kWorkloads[] = {
    {"backfill_wide", 6, 16, true, 192, 8, 0, false},
    {"privacy_metadata", 2, 8, false, 640, 80, 0, false},
    {"interactive_router", 2, 8, true, 1000, 1, 2, false},
    {"interactive_router_cold", 2, 8, true, 1500, 1, 2, true},
};

// Skew of the interactive_router draw, a synthetic choice (no measured
// trace backs it): rank r is picked with weight 1 / (r + 1)^kZipfExponent,
// ranks shuffled over the pool by the seed, so about 40% of requests
// repeat an earlier table. interactive_router_cold shows the same path
// with no repeats at all.
constexpr double kZipfExponent = 0.5;
// Requests per traced router pass.
constexpr int kTracedRouterRequests = 200;

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t z = a * 0x9E3779B97F4A7C15ULL + b + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::vector<data::TableSpec> GenerateTables(const Workload& w, uint64_t seed) {
  data::DatasetProfile p = data::DatasetProfile::WikiLike(w.tables);
  p.min_columns = w.min_columns;
  p.max_columns = w.max_columns;
  p.seed = Mix(seed, serve::HashTableName(w.name));
  return data::GenerateDataset(p).tables;
}

/// The router's request sequence over its table pool: Zipf-skewed draws,
/// or each table once in a seeded order when the workload is fresh.
class RequestStream {
 public:
  RequestStream(const Workload& w, uint64_t seed)
      : fresh_(w.fresh), rng_(Mix(seed, 0x5eed)) {
    rank_to_table_.resize(static_cast<size_t>(w.tables));
    for (int i = 0; i < w.tables; ++i) {
      rank_to_table_[static_cast<size_t>(i)] = i;
    }
    rng_.Shuffle(rank_to_table_);
    double total = 0.0;
    for (int r = 0; r < w.tables && !fresh_; ++r) {
      total += 1.0 / std::pow(r + 1.0, kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
  }

  bool exhausted() const { return fresh_ && next_ == rank_to_table_.size(); }

  int Next() {
    if (fresh_) return rank_to_table_[next_++];
    const double u = rng_.NextUniform(0.0, 1.0);
    const size_t r = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return rank_to_table_[std::min(r, rank_to_table_.size() - 1)];
  }

 private:
  bool fresh_;
  Rng rng_;
  std::vector<int> rank_to_table_;
  std::vector<double> cdf_;
  size_t next_ = 0;
};

// -- Small utilities ----------------------------------------------------------

double CpuMs(int who) {
  rusage ru{};
  getrusage(who, &ru);
  auto ms = [](const timeval& tv) {
    return tv.tv_sec * 1e3 + tv.tv_usec / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

double MaxRssMib(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Resets the kernel's peak-RSS mark (VmHWM) of process `pid` ("self" or a
/// number) to its current RSS, so the next read covers only what follows.
void ResetPeakRss(const std::string& pid) {
  std::FILE* f = std::fopen(("/proc/" + pid + "/clear_refs").c_str(), "w");
  if (f == nullptr) return;
  std::fputs("5", f);
  std::fclose(f);
}

/// VmHWM of process `pid` in MiB (0 when unreadable).
double PeakRssMib(const std::string& pid) {
  std::FILE* f = std::fopen(("/proc/" + pid + "/status").c_str(), "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Exact serialisation of a result (floats as raw bits): two results are
/// byte-identical iff their digests are equal.
std::string Digest(const core::TableDetectionResult& r) {
  std::string out = r.table_name;
  auto add_int = [&out](int64_t v) { out += '|' + std::to_string(v); };
  add_int(r.columns_scanned);
  add_int(r.total_columns);
  add_int(r.degraded_columns);
  add_int(r.failed_columns);
  add_int(r.retries);
  add_int(r.deadline_misses);
  add_int(r.breaker_short_circuits);
  for (const auto& c : r.columns) {
    out += '#' + c.column_name;
    add_int(c.ordinal);
    add_int(c.went_to_p2 ? 1 : 0);
    add_int(static_cast<int>(c.provenance));
    for (int t : c.admitted_types) add_int(t);
    out += ':';
    for (float p : c.probabilities) {
      uint32_t bits = 0;
      std::memcpy(&bits, &p, sizeof(bits));
      char buf[12];
      std::snprintf(buf, sizeof(buf), "%08x", bits);
      out += buf;
    }
  }
  return out;
}

// The live router, so that a failing run still stops its replicas.
serve::Router* g_router = nullptr;

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_runner: %s\n", msg.c_str());
  if (g_router != nullptr) g_router->Shutdown();
  std::exit(2);
}

// -- Set-up -------------------------------------------------------------------

/// Loads the committed checkpoint into a model of the matching shape and
/// returns its parameters. The stack build would silently retrain on a
/// failed load; a benchmark must measure the committed model or nothing.
std::map<std::string, tensor::Tensor> LoadCommittedCheckpoint() {
  auto params = nn::ReadCheckpoint(kCheckpoint);
  if (!params.ok()) Die("checkpoint unreadable: " + params.status().ToString());
  auto emb = params->find("tok_emb.weight");
  if (emb == params->end() || emb->second.shape().size() != 2) {
    Die(std::string("checkpoint has no tok_emb.weight: ") + kCheckpoint);
  }
  const int vocab = static_cast<int>(emb->second.shape()[0]);
  const int types = data::SemanticTypeRegistry::Default().size();
  Rng rng(0);
  model::AdtdModel probe(model::AdtdConfig::Tiny(vocab, types), rng);
  Status st = nn::LoadCheckpoint(&probe, kCheckpoint);
  if (!st.ok()) Die("checkpoint does not load: " + st.ToString());
  return std::move(*params);
}

/// True when `m` carries exactly the checkpoint's parameter bytes, i.e. the
/// stack loaded the committed file instead of training a model of its own.
bool SameParameters(const model::AdtdModel& m,
                    const std::map<std::string, tensor::Tensor>& ckpt) {
  const auto named = m.NamedParameters();
  if (named.size() != ckpt.size()) return false;
  for (const auto& [name, t] : named) {
    auto it = ckpt.find(name);
    if (it == ckpt.end() || it->second.shape() != t.shape() ||
        std::memcmp(it->second.data(), t.data(),
                    static_cast<size_t>(t.numel()) * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

struct Env {
  eval::TrainedStack stack;
  std::vector<data::TableSpec> tables;  // inputs + labels (labels stay here)
  std::vector<std::string> names;
  std::unique_ptr<clouddb::SimulatedDatabase> db;  // latency realised
  std::unique_ptr<core::TasteDetector> detector;   // the router's detector
  std::unique_ptr<serve::Router> router;           // destroyed first

  ~Env() {
    if (router) {
      router->Shutdown();
      g_router = nullptr;
    }
  }
};

core::TasteOptions WorkloadOptions(const Workload& w) {
  core::TasteOptions o;
  o.enable_p2 = w.enable_p2;
  return o;
}

std::unique_ptr<clouddb::SimulatedDatabase> IngestTables(
    const std::vector<data::TableSpec>& tables, double time_scale) {
  clouddb::CostModel cost;
  cost.time_scale = time_scale;
  auto db = std::make_unique<clouddb::SimulatedDatabase>(cost);
  for (const auto& t : tables) {
    Status st = db->CreateTable(t);
    if (!st.ok()) Die("ingest failed: " + st.ToString());
  }
  return db;
}

/// Start to ready: stack build (tokenizer, checkpoint load, int8 prepack),
/// input generation, DB ingest and router fork. The caller checks the
/// checkpoint before and the loaded parameters after, outside its timing.
std::unique_ptr<Env> Setup(const Workload& w, uint64_t seed) {
  auto env = std::make_unique<Env>();
  auto stack = eval::BuildStack(data::DatasetProfile::WikiLike(),
                                CheckpointStackOptions());
  if (!stack.ok()) Die("stack build failed: " + stack.status().ToString());
  env->stack = std::move(*stack);
  env->tables = GenerateTables(w, seed);
  for (const auto& t : env->tables) env->names.push_back(t.name);
  env->db = IngestTables(env->tables, kTimeScale);
  env->detector = std::make_unique<core::TasteDetector>(
      env->stack.adtd.get(), env->stack.tokenizer.get(), WorkloadOptions(w));
  if (w.replicas > 0) {
    serve::WorkerEnv wenv;
    wenv.detector = env->detector.get();
    wenv.db = env->db.get();
    serve::RouterOptions ropt;
    ropt.supervisor.replicas = w.replicas;
    env->router = std::make_unique<serve::Router>(wenv, ropt);
    Status st = env->router->Start();
    if (!st.ok()) Die("router start failed: " + st.ToString());
    g_router = env->router.get();
  }
  return env;
}

void CheckLoaded(const Env& env,
                 const std::map<std::string, tensor::Tensor>& committed) {
  if (!SameParameters(*env.stack.adtd, committed)) {
    Die(std::string("the stack did not load ") + kCheckpoint);
  }
}

// -- Output checks ------------------------------------------------------------

/// Sequential DetectTable digests of the tables `wanted` (indices), by
/// table index; the others stay empty. Same build and options, on an
/// instant (time_scale 0) copy of the database: the simulated latency never
/// changes bytes, only wall time. Tables are spread over a few threads,
/// each with its own detector and connection.
std::vector<std::string> OracleDigests(const Env& env, const Workload& w,
                                       const std::vector<int>& wanted) {
  auto db = IngestTables(env.tables, 0.0);
  std::vector<std::string> out(env.tables.size());
  std::atomic<size_t> next{0};
  std::mutex mu;
  std::string error;
  auto work = [&]() {
    core::TasteDetector oracle(env.stack.adtd.get(), env.stack.tokenizer.get(),
                               WorkloadOptions(w));
    auto conn = db->Connect();
    for (size_t k = next++; k < wanted.size(); k = next++) {
      const size_t ix = static_cast<size_t>(wanted[k]);
      auto r = oracle.DetectTable(conn.get(), env.names[ix]);
      if (!r.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        error = "oracle failed on " + env.names[ix] + ": " +
                r.status().ToString();
        return;
      }
      out[ix] = Digest(*r);
    }
  };
  const unsigned threads =
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(work);
  for (auto& t : pool) t.join();
  if (!error.empty()) Die(error);
  return out;
}

/// Checks every table result against the oracle as it arrives, and keeps
/// only counters: failures, invariant violations, and the quality and
/// shape of each distinct table's first result among the profiled ones.
class Checker {
 public:
  Checker(const Env& env, std::vector<std::string> oracle)
      : env_(env),
        oracle_(std::move(oracle)),
        seen_(env.tables.size(), false),
        f1_(data::SemanticTypeRegistry::Default().null_type_id()) {
    for (size_t i = 0; i < env.names.size(); ++i) {
      index_[env.names[i]] = i;
    }
  }

  /// One table outcome: counts toward failed when the table did not
  /// complete or its bytes differ from the oracle's. F1 and the result
  /// shape count only `profiled` outcomes.
  void Add(const core::TableDetectionResult& r, bool complete,
           bool profiled = true) {
    ++attempted_;
    auto it = index_.find(r.table_name);
    if (!complete || it == index_.end() || oracle_[it->second].empty() ||
        oracle_[it->second] != Digest(r)) {
      ++failed_;
    }
    if (!profiled || it == index_.end() || seen_[it->second]) return;
    seen_[it->second] = true;
    ++distinct_;
    f1_.AddTable(env_.tables[it->second], r);
    scanned_ += r.columns_scanned;
    columns_ += r.total_columns;
    for (const auto& c : r.columns) to_p2_ += c.went_to_p2 ? 1 : 0;
  }

  void Add(const pipeline::TableRunResult& t, bool profiled = true) {
    Add(t.result,
        t.status.ok() && t.outcome == pipeline::TableOutcome::kComplete,
        profiled);
  }

  /// The metadata-first invariant: the DB ledger counts exactly the columns
  /// the results say were scanned, and privacy mode scans none.
  void CheckScans(int64_t ledger, int64_t from_results, bool enable_p2) {
    if (ledger != from_results) {
      Violation("ledger scanned_columns " + std::to_string(ledger) +
                " != results columns_scanned " + std::to_string(from_results));
    }
    if (!enable_p2 && ledger != 0) {
      Violation("privacy mode scanned " + std::to_string(ledger) + " columns");
    }
  }

  /// Tally and result shape, as fields of the runner's JSON object.
  void Write(obs::JsonWriter* j) const {
    const double cols = std::max<double>(1.0, static_cast<double>(columns_));
    j->Field("f1_micro", f1_.Compute().f1);
    j->Field("scanned_column_ratio", scanned_ / cols);
    j->Field("p2_column_share", to_p2_ / cols);
    j->Field("mean_columns",
             columns_ / std::max<double>(1.0, static_cast<double>(distinct_)));
    j->Field("distinct_tables", distinct_);
    j->Field("attempted", attempted_);
    j->Field("failed", failed_);
    j->Field("invariants_ok", violations_.empty());
    j->BeginArray("violations");
    for (const auto& v : violations_) j->Element(v);
    j->EndArray();
  }

 private:
  void Violation(const std::string& what) {
    if (violations_.size() < 8) violations_.push_back(what);
  }

  const Env& env_;
  std::vector<std::string> oracle_;
  std::map<std::string, size_t> index_;
  std::vector<bool> seen_;
  eval::MetricsAccumulator f1_;
  int64_t attempted_ = 0, failed_ = 0, distinct_ = 0;
  int64_t scanned_ = 0, columns_ = 0, to_p2_ = 0;
  std::vector<std::string> violations_;
};

/// The catalog cut into consecutive batches of `size` tables.
std::vector<std::vector<std::string>> Batches(
    const std::vector<std::string>& names, int size) {
  std::vector<std::vector<std::string>> out;
  for (size_t b = 0; b < names.size(); b += static_cast<size_t>(size)) {
    const size_t e = std::min(names.size(), b + static_cast<size_t>(size));
    out.emplace_back(names.begin() + static_cast<std::ptrdiff_t>(b),
                     names.begin() + static_cast<std::ptrdiff_t>(e));
  }
  return out;
}

/// Columns the results of `b` say were scanned.
int64_t ScannedInResults(const pipeline::BatchResult& b) {
  int64_t n = 0;
  for (const auto& t : b.tables) n += t.result.columns_scanned;
  return n;
}

// -- End-to-end run -----------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

void HostFacts(obs::JsonWriter* j) {
  j->BeginObject("host");
  j->Field("nproc", static_cast<int64_t>(
                        std::max(1u, std::thread::hardware_concurrency())));
  j->Field("quant_kernel", std::string(tensor::quant::QuantKernelName(
                               tensor::quant::BestQuantKernel())));
  j->Field("build_type", std::string(PERFBENCH_BUILD_TYPE));
  j->EndObject();
}

void WriteRunHeader(obs::JsonWriter* j, const Workload& w, const Args& args,
                    const char* mode) {
  j->Field("workload", std::string(w.name));
  j->Field("mode", std::string(mode));
  j->Field("seed", static_cast<int64_t>(args.seed));
  HostFacts(j);
}

int RunEndToEnd(const Workload& w, const Args& args) {
  const auto committed = LoadCommittedCheckpoint();
  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  for (int i = 0; i < kSetups; ++i) {
    env.reset();  // shuts the previous router down before the next set-up
    Stopwatch sw;
    env = Setup(w, args.seed);
    setup_s.push_back(sw.ElapsedSeconds());
    CheckLoaded(*env, committed);
  }
  std::vector<int> all(env->tables.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  Checker checker(*env, OracleDigests(*env, w, all));

  // Peak RSS over the runner and the replicas during the first
  // kMinRequests requests. The kernel's mark is reset before each request,
  // so set-up and the oracle do not count.
  std::vector<std::string> pids = {"self"};
  if (env->router) {
    for (int r = 0; r < env->router->supervisor().configured_replicas(); ++r) {
      pids.push_back(std::to_string(env->router->supervisor().replica(r)->pid));
    }
  }
  double peak_rss_mib = 0.0;

  // Work between requests (checks, RSS reads) is taken out of the measured
  // window: its wall time, and the runner's CPU time spent on it.
  double untimed_s = 0.0;
  double untimed_cpu_ms = 0.0;
  auto untimed = [&](const auto& fn) {
    Stopwatch sw;
    const double cpu0 = CpuMs(RUSAGE_SELF);
    fn();
    untimed_cpu_ms += CpuMs(RUSAGE_SELF) - cpu0;
    untimed_s += sw.ElapsedSeconds();
  };
  auto begin_request = [&pids] {
    for (const auto& p : pids) ResetPeakRss(p);
  };
  auto end_request = [&pids, &peak_rss_mib] {
    for (const auto& p : pids) {
      peak_rss_mib = std::max(peak_rss_mib, PeakRssMib(p));
    }
  };

  const double children_cpu0 = CpuMs(RUSAGE_CHILDREN);
  const double self_cpu0 = CpuMs(RUSAGE_SELF);
  std::vector<double> request_ms;
  std::vector<int64_t> request_repeat;  // router: 1 when the table was seen
  int64_t tables_done = 0;
  Stopwatch wall;
  auto more = [&](size_t requests) {
    return requests < kMinRequests ||
           wall.ElapsedSeconds() - untimed_s < args.seconds;
  };
  if (w.replicas > 0) {
    RequestStream stream(w, args.seed);
    std::vector<bool> seen(env->tables.size(), false);
    while (!stream.exhausted() && more(request_ms.size())) {
      const int ix = stream.Next();
      request_repeat.push_back(seen[static_cast<size_t>(ix)] ? 1 : 0);
      seen[static_cast<size_t>(ix)] = true;
      const bool profile = request_ms.size() < kMinRequests;
      if (profile) untimed(begin_request);
      Stopwatch sw;
      pipeline::BatchResult b =
          env->router->RunBatch({env->names[static_cast<size_t>(ix)]});
      request_ms.push_back(sw.ElapsedMillis());
      untimed([&] {
        if (profile) end_request();
        for (const auto& t : b.tables) checker.Add(t, profile);
      });
      tables_done += 1;
    }
  } else {
    // The catalog is cut into batches that are submitted in turn, over
    // and over; each batch gets a fresh detector, so its latent cache
    // starts cold like a first backfill of those tables.
    const core::TasteOptions topt = WorkloadOptions(w);
    const auto cuts = Batches(env->names, w.batch);
    for (size_t k = 0; more(request_ms.size()); ++k) {
      const std::vector<std::string>& cut = cuts[k % cuts.size()];
      core::TasteDetector det(env->stack.adtd.get(),
                              env->stack.tokenizer.get(), topt);
      pipeline::PipelineExecutor exec(&det, env->db.get(), {});
      const bool profile = request_ms.size() < kMinRequests;
      int64_t scanned0 = 0;
      untimed([&] {
        scanned0 = env->db->ledger().snapshot().scanned_columns;
        if (profile) begin_request();
      });
      Stopwatch sw;
      pipeline::BatchResult b = exec.RunBatch(cut);
      request_ms.push_back(sw.ElapsedMillis());
      untimed([&] {
        if (profile) end_request();
        checker.CheckScans(
            env->db->ledger().snapshot().scanned_columns - scanned0,
            ScannedInResults(b), w.enable_p2);
        for (const auto& t : b.tables) checker.Add(t, profile);
      });
      tables_done += static_cast<int64_t>(cut.size());
    }
  }
  const double wall_s = wall.ElapsedSeconds() - untimed_s;
  const double self_cpu = CpuMs(RUSAGE_SELF) - self_cpu0 - untimed_cpu_ms;
  if (env->router) env->router->Shutdown();  // reaps the replicas
  const double children_cpu = CpuMs(RUSAGE_CHILDREN) - children_cpu0;

  obs::JsonWriter j;
  j.BeginObject();
  WriteRunHeader(&j, w, args, "end_to_end");
  j.BeginArray("setup_s");
  for (double v : setup_s) j.Element(v);
  j.EndArray();
  j.BeginArray("request_ms");
  for (double v : request_ms) j.Element(v);
  j.EndArray();
  j.BeginArray("request_repeat");
  for (int64_t v : request_repeat) j.Element(v);
  j.EndArray();
  j.Field("tables", tables_done);
  j.Field("wall_s", wall_s);
  j.Field("cpu_ms", self_cpu + children_cpu);
  j.Field("peak_rss_mib", peak_rss_mib);
  checker.Write(&j);
  j.EndObject();
  std::printf("%s\n", j.str().c_str());
  return 0;
}

// -- Traced per-layer run -----------------------------------------------------

/// In-memory span recorder; written out as Chrome trace-event JSON. Spans
/// are recorded by the runner around its own calls into each layer.
class Tracer {
 public:
  struct Span {
    std::string name;
    int64_t id = 0;
    int64_t parent = 0;  // 0 = root
    int table = -1;      // index into the workload's tables
    double start_ms = 0.0;
    double end_ms = 0.0;
  };

  explicit Tracer(bool on) : on_(on) {}

  int64_t Begin(const char* name, int table, int64_t parent) {
    if (!on_) return 0;
    Span s;
    s.name = name;
    s.id = static_cast<int64_t>(spans_.size()) + 1;
    s.parent = parent;
    s.table = table;
    s.start_ms = clock_.ElapsedMillis();
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }
  void End(int64_t id) {
    if (on_) {
      spans_[static_cast<size_t>(id - 1)].end_ms = clock_.ElapsedMillis();
    }
  }

  /// Sum of durations of spans named `name`.
  double TotalMs(const std::string& name) const {
    double t = 0.0;
    for (const auto& s : spans_) {
      if (s.name == name) t += s.end_ms - s.start_ms;
    }
    return t;
  }

  /// Self time per span name: duration minus the part its children cover
  /// (children never overlap: every span is recorded on one thread).
  std::map<std::string, double> SelfMs() const {
    std::vector<double> child_ms(spans_.size() + 1, 0.0);
    for (const auto& s : spans_) {
      if (s.parent > 0) {
        child_ms[static_cast<size_t>(s.parent)] += s.end_ms - s.start_ms;
      }
    }
    std::map<std::string, double> out;
    for (const auto& s : spans_) {
      out[s.name] +=
          s.end_ms - s.start_ms - child_ms[static_cast<size_t>(s.id)];
    }
    return out;
  }

  bool WriteChromeTrace(const std::string& path,
                        const std::vector<std::string>& table_names) const {
    obs::JsonWriter j;
    j.BeginObject();
    j.BeginArray("traceEvents");
    for (const auto& s : spans_) {
      j.BeginObject();
      j.Field("name", s.name);
      j.Field("ph", std::string("X"));
      j.Field("pid", 1);
      j.Field("tid", 1);
      j.Field("ts", static_cast<int64_t>(std::llround(s.start_ms * 1e3)));
      j.Field("dur",
              static_cast<int64_t>(std::llround((s.end_ms - s.start_ms) * 1e3)));
      j.BeginObject("args");
      j.Field("id", s.id);
      j.Field("parent", s.parent);
      j.Field("table", s.table >= 0 ? table_names[static_cast<size_t>(s.table)]
                                    : std::string());
      j.EndObject();
      j.EndObject();
    }
    j.EndArray();
    j.EndObject();
    return j.WriteFile(path);
  }

  size_t size() const { return spans_.size(); }

 private:
  bool on_;
  Stopwatch clock_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, int table, int64_t parent)
      : t_(t), id_(t->Begin(name, table, parent)) {}
  ~ScopedSpan() { t_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer* t_;
  int64_t id_;
};

void MustOk(const Status& st, const std::string& what) {
  if (!st.ok()) Die(what + ": " + st.ToString());
}

/// The workload's tables in stage-API order: every table once for the batch
/// workloads, the first requests of the request stream for the router.
std::vector<int> TracedSequence(const Workload& w, uint64_t seed) {
  std::vector<int> seq;
  if (w.replicas > 0) {
    RequestStream stream(w, seed);
    for (int i = 0; i < kTracedRouterRequests; ++i) {
      seq.push_back(stream.Next());
    }
  } else {
    for (int i = 0; i < w.tables; ++i) seq.push_back(i);
  }
  return seq;
}

/// The four stages of one table, in order, each inside a span when `tr`
/// records.
core::TasteDetector::Job RunStages(const core::TasteDetector& det,
                                   clouddb::Connection* conn,
                                   const std::string& name, int ix,
                                   Tracer* tr) {
  core::TasteDetector::Job job;
  ScopedSpan table(tr, "core.table", ix, 0);
  {
    ScopedSpan s(tr, "core.p1_prep", ix, table.id());
    MustOk(det.PrepareP1(conn, name, &job), "PrepareP1 " + name);
  }
  {
    ScopedSpan s(tr, "core.p1_infer", ix, table.id());
    MustOk(det.InferP1(&job), "InferP1 " + name);
  }
  {
    ScopedSpan s(tr, "core.p2_prep", ix, table.id());
    MustOk(det.PrepareP2(conn, &job), "PrepareP2 " + name);
  }
  {
    ScopedSpan s(tr, "core.p2_infer", ix, table.id());
    MustOk(det.InferP2(&job), "InferP2 " + name);
  }
  return job;
}

/// Runs every table of `seq` through the stage API twice: on an untraced
/// detector and on a traced one (each with its own connection and latent
/// cache), alternating which goes first. The two time totals give the
/// tracing overhead without warm-up or drift favouring either side.
struct StagePasses {
  double untraced_s = 0.0;
  double traced_s = 0.0;
  std::vector<core::TasteDetector::Job> untraced;
  std::vector<core::TasteDetector::Job> traced;
};

StagePasses RunStagePasses(const Env& env, const Workload& w,
                           const std::vector<int>& seq, Tracer* tr) {
  Tracer off(false);
  core::TasteDetector det_off(env.stack.adtd.get(), env.stack.tokenizer.get(),
                              WorkloadOptions(w));
  core::TasteDetector det_on(env.stack.adtd.get(), env.stack.tokenizer.get(),
                             WorkloadOptions(w));
  auto conn_off = env.db->Connect();
  auto conn_on = env.db->Connect();
  StagePasses out;
  for (size_t k = 0; k < seq.size(); ++k) {
    const int ix = seq[k];
    const std::string& name = env.names[static_cast<size_t>(ix)];
    for (int side = 0; side < 2; ++side) {
      const bool traced = (side == 0) == (k % 2 == 1);
      Stopwatch sw;
      if (traced) {
        out.traced.push_back(RunStages(det_on, conn_on.get(), name, ix, tr));
        out.traced_s += sw.ElapsedSeconds();
      } else {
        out.untraced.push_back(
            RunStages(det_off, conn_off.get(), name, ix, &off));
        out.untraced_s += sw.ElapsedSeconds();
      }
    }
  }
  return out;
}

struct LayerCounts {
  int64_t p1_tokens = 0;
  int64_t p2_tokens = 0;
};

/// Direct clouddb / text / model calls on the inputs the stage pass saw:
/// the same metadata fetch, chunk encoding and metadata forward, and for
/// the columns P1 left uncertain the same scan, content encoding and
/// content forward.
LayerCounts LayerPass(const Env& env, const Workload& w,
                      const std::vector<int>& seq,
                      const std::vector<core::TasteDetector::Job>& jobs,
                      Tracer* tr) {
  const model::AdtdModel& m = *env.stack.adtd;
  const core::TasteOptions topt = WorkloadOptions(w);
  model::InputEncoder encoder(env.stack.tokenizer.get(), m.config().input);
  const clouddb::ScanOptions scan_options = {
      .limit_rows = topt.scan_rows,
      .random_sample = topt.random_sample,
      .sample_seed = topt.sample_seed};
  auto conn = env.db->Connect();
  tensor::NoGradGuard no_grad;
  LayerCounts counts;
  for (size_t k = 0; k < seq.size(); ++k) {
    const int ix = seq[k];
    const std::string& name = env.names[static_cast<size_t>(ix)];
    const core::TasteDetector::Job& job = jobs[k];
    ScopedSpan table(tr, "layers.table", ix, 0);
    clouddb::TableMetadata meta;
    {
      ScopedSpan s(tr, "clouddb.metadata_call", ix, table.id());
      auto r = conn->GetTableMetadata(name);
      MustOk(r.status(), "GetTableMetadata " + name);
      meta = std::move(*r);
    }
    std::vector<model::EncodedMetadata> chunks;
    {
      ScopedSpan s(tr, "text.encode_metadata", ix, table.id());
      for (const auto& part : model::SplitWideTable(
               meta, m.config().input.column_split_threshold)) {
        chunks.push_back(encoder.EncodeMetadata(part));
      }
    }
    for (const auto& c : chunks) counts.p1_tokens += c.token_ids.size();
    {
      ScopedSpan s(tr, "model.p1_forward", ix, table.id());
      for (const auto& c : chunks) m.ForwardMetadata(c);
    }
    for (size_t i = 0; i < job.chunks.size() && i < job.contents.size(); ++i) {
      if (job.contents[i].empty()) continue;
      const auto& uncertain = job.uncertain_columns[i];
      std::vector<std::string> cols;
      for (int c : uncertain) {
        cols.push_back(job.chunks[i].column_names[static_cast<size_t>(c)]);
      }
      std::vector<std::vector<std::string>> values;
      {
        ScopedSpan s(tr, "clouddb.scan_call", ix, table.id());
        auto r = conn->ScanColumns(name, cols, scan_options);
        MustOk(r.status(), "ScanColumns " + name);
        values = std::move(*r);
      }
      std::vector<model::EncodedContent> contents;
      {
        ScopedSpan s(tr, "text.encode_content", ix, table.id());
        for (const auto& batch : job.contents[i]) {
          std::map<int, std::vector<std::string>> by_column;
          for (int local : batch.scanned) {
            const auto pos =
                std::find(uncertain.begin(), uncertain.end(), local);
            by_column[local] =
                values[static_cast<size_t>(pos - uncertain.begin())];
          }
          contents.push_back(encoder.EncodeContent(job.chunks[i], by_column));
        }
      }
      for (const auto& c : contents) counts.p2_tokens += c.token_ids.size();
      {
        ScopedSpan s(tr, "model.p2_forward", ix, table.id());
        // The detector keeps P1 latents only with the latent cache on.
        model::AdtdModel::MetadataEncoding recomputed;
        if (i >= job.encodings.size()) {
          recomputed = m.ForwardMetadata(job.chunks[i]);
        }
        const auto& enc =
            i < job.encodings.size() ? job.encodings[i] : recomputed;
        for (const auto& c : contents) {
          if (!c.scanned.empty()) m.ForwardContent(c, job.chunks[i], enc);
        }
      }
    }
  }
  return counts;
}

double HistSum(const obs::Registry::Snapshot& s, const std::string& name) {
  auto it = s.histograms.find(name);
  return it == s.histograms.end() ? 0.0 : it->second.sum;
}

double CounterValue(const obs::Registry::Snapshot& s,
                    const std::string& name) {
  auto it = s.counters.find(name);
  return it == s.counters.end() ? 0.0 : static_cast<double>(it->second);
}

/// after - before, for counters and histograms.
obs::Registry::Snapshot Delta(const obs::Registry::Snapshot& after,
                              const obs::Registry::Snapshot& before) {
  obs::Registry::Snapshot d = after;
  for (auto& [name, v] : d.counters) {
    auto it = before.counters.find(name);
    if (it != before.counters.end()) v -= it->second;
  }
  for (auto& [name, h] : d.histograms) {
    auto it = before.histograms.find(name);
    if (it == before.histograms.end() ||
        it->second.counts.size() != h.counts.size()) {
      continue;
    }
    for (size_t i = 0; i < h.counts.size(); ++i) {
      h.counts[i] -= it->second.counts[i];
    }
    h.count -= it->second.count;
    h.sum -= it->second.sum;
  }
  return d;
}

std::string Stage(const char* stage) {
  return obs::LabeledName("taste_pipeline_stage_ms", "stage", stage);
}

std::string Op(const char* op) {
  return obs::LabeledName("taste_op_ms", "op", op);
}

int RunTraced(const Workload& w, const Args& args) {
  const auto committed = LoadCommittedCheckpoint();
  std::unique_ptr<Env> env = Setup(w, args.seed);
  CheckLoaded(*env, committed);
  const std::vector<int> seq = TracedSequence(w, args.seed);
  const double n = static_cast<double>(seq.size());

  const std::set<int> wanted(seq.begin(), seq.end());
  Checker checker(*env, OracleDigests(*env, w, {wanted.begin(), wanted.end()}));
  auto check_jobs = [&](const std::vector<core::TasteDetector::Job>& jobs) {
    for (const auto& job : jobs) checker.Add(job.result, true);
  };

  Tracer tr(true);
  const auto ledger0 = env->db->ledger().snapshot();
  StagePasses passes = RunStagePasses(*env, w, seq, &tr);
  const auto ledger1 = env->db->ledger().snapshot();
  check_jobs(passes.untraced);
  check_jobs(passes.traced);
  passes.untraced.clear();
  const std::vector<core::TasteDetector::Job>& jobs = passes.traced;
  const double untraced_s = passes.untraced_s;
  const double traced_s = passes.traced_s;
  // Both passes scan: the ledger counts the columns of both.
  int64_t scanned_results = 0, p2_tables = 0, total_columns = 0;
  for (const auto& job : jobs) {
    scanned_results += 2 * job.result.columns_scanned;
    total_columns += job.result.total_columns;
    p2_tables += job.needs_p2 ? 1 : 0;
  }
  checker.CheckScans(ledger1.scanned_columns - ledger0.scanned_columns,
                     scanned_results, w.enable_p2);
  const LayerCounts counts = LayerPass(*env, w, seq, jobs, &tr);

  // The workload's normal entry point once, with the program's metrics on:
  // the registry delta across the run gives the layer counters.
  obs::SetMetricsEnabled(true);
  std::map<std::string, double> layer;
  obs::Registry::Snapshot before, after;
  const pipeline::PipelineOptions popt;
  if (w.replicas > 0) {
    auto scrape = [&env]() {
      auto s = env->router->Scrape();
      MustOk(s.status(), "scrape");
      return std::move(*s);
    };
    before = scrape();
    std::vector<double> request_ms;
    for (int ix : seq) {
      Stopwatch sw;
      auto b = env->router->RunBatch({env->names[static_cast<size_t>(ix)]});
      request_ms.push_back(sw.ElapsedMillis());
      for (const auto& t : b.tables) checker.Add(t);
    }
    after = scrape();
    const serve::RouterStats rs = env->router->stats();
    env->router->Shutdown();
    layer["serve.hedged_ratio"] =
        rs.dispatched_tables > 0
            ? static_cast<double>(rs.hedged_tables) / rs.dispatched_tables
            : 0.0;
    layer["serve.redispatched_tables"] =
        static_cast<double>(rs.redispatched_tables);
    layer["serve.local_fallback_tables"] =
        static_cast<double>(rs.local_fallback_tables);
    layer["serve.worker_peak_rss_mib"] = MaxRssMib(RUSAGE_CHILDREN);
    // Replica executors are not observable from here.
    layer["pipeline.max_tables_in_flight"] = 0.0;

    // serve.overhead_ms: request latency minus the in-process DetectTable
    // time of the same table (same simulated DB, one detector whose cache
    // warms like the replicas', one reused connection), median over the
    // request sequence.
    core::TasteDetector det(env->stack.adtd.get(), env->stack.tokenizer.get(),
                            WorkloadOptions(w));
    auto conn = env->db->Connect();
    std::vector<double> overhead;
    for (size_t k = 0; k < seq.size(); ++k) {
      Stopwatch sw;
      auto r = det.DetectTable(conn.get(),
                               env->names[static_cast<size_t>(seq[k])]);
      MustOk(r.status(), "DetectTable");
      overhead.push_back(request_ms[k] - sw.ElapsedMillis());
    }
    std::sort(overhead.begin(), overhead.end());
    layer["serve.overhead_ms"] = overhead[overhead.size() / 2];
  } else {
    before = obs::Registry::Global().snapshot();
    int max_in_flight = 0;
    for (const auto& cut : Batches(env->names, w.batch)) {
      core::TasteDetector det(env->stack.adtd.get(),
                              env->stack.tokenizer.get(), WorkloadOptions(w));
      pipeline::PipelineExecutor exec(&det, env->db.get(), popt);
      const int64_t scanned0 = env->db->ledger().snapshot().scanned_columns;
      pipeline::BatchResult b = exec.RunBatch(cut);
      checker.CheckScans(
          env->db->ledger().snapshot().scanned_columns - scanned0,
          ScannedInResults(b), w.enable_p2);
      for (const auto& t : b.tables) checker.Add(t);
      max_in_flight =
          std::max(max_in_flight, exec.stats().max_tables_in_flight);
    }
    after = obs::Registry::Global().snapshot();
    layer["pipeline.max_tables_in_flight"] = max_in_flight;
    for (const char* k : {"serve.hedged_ratio", "serve.redispatched_tables",
                          "serve.local_fallback_tables",
                          "serve.worker_peak_rss_mib", "serve.overhead_ms"}) {
      layer[k] = 0.0;  // no serving tier on this workload
    }
  }
  const obs::Registry::Snapshot d = Delta(after, before);
  layer["tensor.op_ms.gemm"] = HistSum(d, Op("gemm")) / n;
  layer["tensor.op_ms.softmax"] = HistSum(d, Op("softmax")) / n;
  auto bs = d.histograms.find("taste_p2_batch_size");
  layer["serving_scheduler.batch_size_p50"] =
      bs != d.histograms.end() ? bs->second.Quantile(0.5) : 0.0;
  const double forwards = CounterValue(d, "taste_p2_batches_total");
  layer["serving_scheduler.forwards_per_table"] = forwards / n;
  layer["serving_scheduler.items_per_forward"] =
      forwards > 0 ? CounterValue(d, "taste_p2_batch_items_total") / forwards
                   : 0.0;
  layer["clouddb.connects_per_table"] =
      CounterValue(d, "taste_db_connects_total") / n;
  layer["clouddb.queries_per_table"] =
      CounterValue(d, "taste_db_queries_total") / n;
  const double hits = CounterValue(d, "taste_cache_hits_total");
  const double misses = CounterValue(d, "taste_cache_misses_total");
  layer["model.latent_cache_hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
  // Busy share of each pool over the executors' batch wall time.
  const double batch_ms = HistSum(d, "taste_pipeline_batch_ms");
  auto busy = [&](const char* a, const char* b, int threads) {
    return batch_ms > 0
               ? (HistSum(d, Stage(a)) + HistSum(d, Stage(b))) /
                     (threads * batch_ms)
               : 0.0;
  };
  layer["pipeline.prep_busy_ratio"] =
      busy("p1_prep", "p2_prep", popt.prep_threads);
  layer["pipeline.infer_busy_ratio"] =
      busy("p1_infer", "p2_infer", popt.infer_threads);

  // Stage-API spans.
  const double table_ms = tr.TotalMs("core.table");
  const double stages_ms = tr.TotalMs("core.p1_prep") +
                           tr.TotalMs("core.p1_infer") +
                           tr.TotalMs("core.p2_prep") +
                           tr.TotalMs("core.p2_infer");
  layer["core.p1_prep_ms"] = tr.TotalMs("core.p1_prep") / n;
  layer["core.p1_infer_ms"] = tr.TotalMs("core.p1_infer") / n;
  layer["core.p2_prep_ms"] = tr.TotalMs("core.p2_prep") / n;
  layer["core.p2_infer_ms"] = tr.TotalMs("core.p2_infer") / n;
  layer["core.p2_table_ratio"] = p2_tables / n;
  layer["core.scanned_column_ratio"] =
      total_columns > 0 ? scanned_results / (2.0 * total_columns) : 0.0;
  layer["core.stage_coverage"] = table_ms > 0 ? stages_ms / table_ms : 0.0;
  layer["trace.overhead_ratio"] = traced_s / untraced_s;
  layer["trace.untraced_tables_per_s"] = n / untraced_s;
  layer["trace.traced_tables_per_s"] = n / traced_s;
  // Direct layer calls.
  layer["clouddb.metadata_call_ms"] = tr.TotalMs("clouddb.metadata_call") / n;
  layer["clouddb.scan_call_ms"] = tr.TotalMs("clouddb.scan_call") / n;
  layer["clouddb.scanned_cells_per_table"] =
      (ledger1.scanned_cells - ledger0.scanned_cells) / (2 * n);
  layer["clouddb.simulated_io_ms_per_table"] =
      (ledger1.simulated_io_ms - ledger0.simulated_io_ms) / (2 * n);
  layer["text.encode_ms"] =
      (tr.TotalMs("text.encode_metadata") + tr.TotalMs("text.encode_content")) /
      n;
  layer["text.p1_tokens_per_table"] = counts.p1_tokens / n;
  layer["text.p2_tokens_per_table"] = counts.p2_tokens / n;
  layer["model.p1_forward_ms"] = tr.TotalMs("model.p1_forward") / n;
  layer["model.p2_forward_ms"] = tr.TotalMs("model.p2_forward") / n;

  bool trace_written = false;
  if (!args.trace_out.empty()) {
    trace_written = tr.WriteChromeTrace(args.trace_out, env->names);
    if (!trace_written) Die("cannot write trace " + args.trace_out);
  }

  obs::JsonWriter j;
  j.BeginObject();
  WriteRunHeader(&j, w, args, "trace");
  j.Field("tables", static_cast<int64_t>(seq.size()));
  j.BeginObject("layer");
  for (const auto& [k, v] : layer) j.Field(k.c_str(), v);
  j.EndObject();
  j.BeginObject("self_ms");
  for (const auto& [k, v] : tr.SelfMs()) j.Field(k.c_str(), v);
  j.EndObject();
  j.Field("spans", static_cast<int64_t>(tr.size()));
  j.Field("trace_file", trace_written ? args.trace_out : std::string());
  checker.Write(&j);
  j.EndObject();
  std::printf("%s\n", j.str().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      args.workload = v;
    } else if (k == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      args.seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      args.trace = v == "1";
    } else if (k == "--trace-out") {
      args.trace_out = v;
    } else {
      Die("unknown flag " + k);
    }
  }
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) Die("unknown workload '" + args.workload + "'");
  SetLogLevel(LogLevel::kWarn);
  return args.trace ? RunTraced(*w, args) : RunEndToEnd(*w, args);
}
