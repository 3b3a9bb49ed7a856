#include "serve/worker.h"

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <deque>
#include <memory>
#include <mutex>

#include "common/logging.h"
#include "obs/metrics.h"
#include "serve/cache_plane.h"
#include "serve/wire.h"

namespace taste::serve {

namespace {

/// True when a gray/crash hook aimed at (replica, table) matches this
/// request.
bool HookMatches(int replica_id, int hook_replica, const std::string& table,
                 const std::vector<std::string>& tables) {
  return replica_id == hook_replica && !table.empty() &&
         std::find(tables.begin(), tables.end(), table) != tables.end();
}

/// The worker's end of the cache plane (DESIGN.md §14): a RemoteLatentStore
/// over the router socket. Installed into the shared detector's latent
/// cache after the fork, so only this replica's copy-on-write image carries
/// it.
///
/// Concurrency contract: pipeline pool threads call Fetch/Publish while the
/// protocol thread is parked inside HandleDetect (it reads the socket only
/// between requests, and the executor joins its pools before HandleDetect
/// returns), so plane I/O and main-loop I/O never overlap. `mu_` serializes
/// the pool threads against each other — one plane exchange owns the socket
/// at a time, which is also what keeps lookup/fill pairing trivial.
///
/// Frames read during a fetch that are not the awaited fill are either
/// absorbed (plane fills: late answers to abandoned fetches, warm-up
/// pushes — both become local warm data) or parked in an inbox the main
/// loop drains before its next blocking read.
class PlaneClient : public model::RemoteLatentStore {
 public:
  PlaneClient(int fd, int replica_id, const WorkerEnv& env,
              model::LatentCache* cache)
      : fd_(fd), replica_id_(replica_id), env_(env), cache_(cache) {
    obs::Registry& r = obs::Registry::Global();
    timeouts_ = r.GetCounter("taste_cache_remote_timeouts_total");
    corrupt_ = r.GetCounter("taste_cache_remote_corrupt_total");
    warm_received_ = r.GetCounter("taste_cache_warmup_received_total");
  }

  std::optional<model::CachedMetadata> Fetch(
      const std::string& key, const CancelToken* cancel) override {
    if (CancelledNow(cancel)) return std::nullopt;
    // The wait is bounded by the plane budget AND the request's remaining
    // deadline: an overdue cache frame degrades to local recompute, it
    // never blocks the request.
    double budget_ms = static_cast<double>(env_.cache_plane_timeout_ms);
    if (cancel != nullptr && !cancel->deadline().IsInfinite()) {
      budget_ms = std::min(budget_ms, cancel->deadline().RemainingMillis());
    }
    if (budget_ms <= 0.0) {
      timeouts_->Inc();
      return std::nullopt;
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_) return std::nullopt;
    const uint64_t id = next_lookup_id_++;
    CacheLookup lookup;
    lookup.lookup_id = id;
    lookup.key = key;
    if (!WriteFrame(fd_, FrameType::kCacheLookup, EncodeCacheLookup(lookup))
             .ok()) {
      dead_ = true;
      return std::nullopt;
    }
    const Deadline wait = Deadline::AfterMillis(budget_ms);
    for (;;) {
      const double remaining = wait.RemainingMillis();
      if (remaining <= 0.0) {
        timeouts_->Inc();
        return std::nullopt;  // the late fill, if any, is absorbed later
      }
      struct pollfd pfd;
      pfd.fd = fd_;
      pfd.events = POLLIN;
      pfd.revents = 0;
      const int rc =
          ::poll(&pfd, 1, static_cast<int>(std::ceil(remaining)));
      if (rc < 0) {
        if (errno == EINTR) continue;
        dead_ = true;
        return std::nullopt;
      }
      if (rc == 0) {
        timeouts_->Inc();
        return std::nullopt;
      }
      auto frame = ReadFrame(fd_);
      if (!frame.ok()) {
        dead_ = true;
        return std::nullopt;
      }
      if (frame->type != FrameType::kCacheFill) {
        // A frame for the protocol loop (re-dispatch, heartbeat, shutdown)
        // arriving during a fetch: park it, keep waiting for our fill.
        inbox_.push_back(std::move(*frame));
        continue;
      }
      auto fill = DecodeCacheFill(frame->payload);
      if (!fill.ok()) {
        dead_ = true;
        return std::nullopt;
      }
      if (fill->lookup_id != id) {
        // Late answer to an abandoned fetch, or a warm-up push racing the
        // request: demote to warm data instead of misattributing it.
        AbsorbFill(*fill);
        continue;
      }
      if (fill->hit == 0) return std::nullopt;  // plane miss
      auto entry = DecodeCachedMetadata(fill->entry);
      if (!entry.ok()) {
        // Frame CRC passed but the entry rotted (or was forged): count it
        // and recompute. The stream itself is still in sync.
        corrupt_->Inc();
        return std::nullopt;
      }
      return std::move(*entry);
    }
  }

  void Publish(const std::string& key,
               const model::CachedMetadata& value) override {
    CacheFill fill;
    fill.lookup_id = 0;  // unsolicited publish
    fill.hit = 1;
    fill.key = key;
    fill.entry = EncodeCachedMetadata(value);
    const std::string table = CachePlane::TableOfKey(key);
    if (replica_id_ == env_.cache_entry_corrupt_replica &&
        table == env_.cache_entry_corrupt_table && fill.entry.size() > 8) {
      // Entry-level corruption: flip one body bit AFTER the entry CRC was
      // sealed. The frame checksum still validates — the router's admit
      // check is the only thing standing between this and the plane.
      fill.entry[fill.entry.size() / 2] ^= 0x10;
    }
    const std::string payload = EncodeCacheFill(fill);
    std::lock_guard<std::mutex> lock(mu_);
    if (dead_) return;
    Status st;
    if (replica_id_ == env_.cache_frame_corrupt_replica &&
        table == env_.cache_frame_corrupt_table) {
      st = WriteFrameCorrupted(fd_, FrameType::kCacheFill, payload);
    } else {
      st = WriteFrame(fd_, FrameType::kCacheFill, payload);
    }
    if (!st.ok()) dead_ = true;  // fire-and-forget: drop, never fail the job
  }

  /// Decodes a fill and parks it in the local cache as warm data (warm-up
  /// pushes and late fills). A corrupt entry is counted and dropped.
  void AbsorbFill(const CacheFill& fill) {
    if (fill.hit == 0 || fill.entry.empty()) return;
    auto entry = DecodeCachedMetadata(fill.entry);
    if (!entry.ok()) {
      corrupt_->Inc();
      return;
    }
    warm_received_->Inc();
    cache_->Put(fill.key, std::move(*entry));
  }

  /// Hands the main loop one frame parked during a fetch, FIFO.
  bool PopInbox(Frame* out) {
    std::lock_guard<std::mutex> lock(mu_);
    if (inbox_.empty()) return false;
    *out = std::move(inbox_.front());
    inbox_.pop_front();
    return true;
  }

 private:
  const int fd_;
  const int replica_id_;
  const WorkerEnv& env_;
  model::LatentCache* cache_;
  std::mutex mu_;
  bool dead_ = false;
  uint64_t next_lookup_id_ = 1;
  std::deque<Frame> inbox_;
  obs::Counter* timeouts_;
  obs::Counter* corrupt_;
  obs::Counter* warm_received_;
};

/// Handles one detect request: re-anchors the wire deadline on the local
/// steady clock, runs the batch, serializes the results.
DetectResponse HandleDetect(const WorkerEnv& env, const DetectRequest& req) {
  pipeline::PipelineOptions popt = env.pipeline_options;
  // Deadline propagation (common/deadline.h semantics): the wire carries
  // the REMAINING budget; AfterMillis re-anchors it here, so skew between
  // router and worker clocks cannot stretch it. A non-positive remainder
  // arrives pre-expired, exactly like deadline_ms < 0.
  popt.deadline_ms = req.deadline_remaining_ms;
  // The numeric mode rides the wire too: every replica of a scattered
  // batch must run the same kernels for replica byte-agreement to hold.
  popt.p2_dtype = req.p2_dtype == 1 ? tensor::P2Dtype::kInt8
                                    : tensor::P2Dtype::kFp32;
  popt.cancel = nullptr;  // never inherit a pointer across the wire

  pipeline::PipelineExecutor exec(env.detector, env.db, popt);
  pipeline::BatchResult batch = exec.RunBatch(req.tables);

  DetectResponse resp;
  resp.request_id = req.request_id;
  resp.wall_ms = exec.stats().wall_ms;
  resp.stats = exec.resilience_stats();
  resp.tables = std::move(batch.tables);
  return resp;
}

}  // namespace

int WorkerMain(int fd, const WorkerEnv& env, int replica_id) {
  // A router that dies mid-read must surface as EPIPE on our next write,
  // not kill the worker with SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);
  TASTE_CHECK(env.detector != nullptr && env.db != nullptr);

  obs::Counter* requests =
      obs::Registry::Global().GetCounter("taste_worker_requests_total");
  obs::Counter* tables =
      obs::Registry::Global().GetCounter("taste_worker_tables_total");

  // Cache plane: install the socket-backed remote tier into this replica's
  // (copy-on-write) latent cache. Cleared on exit so a caller that keeps
  // the process alive (standalone taste_worker, tests) never holds a
  // dangling store pointer.
  std::unique_ptr<PlaneClient> plane;
  model::LatentCache& cache = env.detector->cache();
  if (env.cache_plane) {
    plane = std::make_unique<PlaneClient>(fd, replica_id, env, &cache);
    cache.SetRemoteStore(plane.get());
  }
  struct StoreReset {
    model::LatentCache* cache;
    bool armed;
    ~StoreReset() {
      if (armed) cache->SetRemoteStore(nullptr);
    }
  } store_reset{&cache, plane != nullptr};

  for (;;) {
    // A frame that arrived mid-fetch is served before blocking again.
    Frame inboxed;
    const bool from_inbox = plane != nullptr && plane->PopInbox(&inboxed);
    Result<Frame> frame =
        from_inbox ? Result<Frame>(std::move(inboxed)) : ReadFrame(fd);
    if (!frame.ok()) {
      // Clean hangup (router exited / closed us out of the ring) is a
      // normal shutdown; anything else is a protocol failure worth a log.
      if (frame.status().code() != StatusCode::kUnavailable) {
        TASTE_LOG(Warn) << "worker " << replica_id << ": read error: "
                        << frame.status().ToString();
        return 1;
      }
      return 0;
    }
    switch (frame->type) {
      case FrameType::kHeartbeat: {
        const Status st = WriteFrame(fd, FrameType::kHeartbeatAck,
                                     frame->payload);
        if (!st.ok()) return st.code() == StatusCode::kUnavailable ? 0 : 1;
        break;
      }
      case FrameType::kDetectRequest: {
        auto req = DecodeDetectRequest(frame->payload);
        if (!req.ok()) {
          TASTE_LOG(Warn) << "worker " << replica_id
                          << ": bad detect request: "
                          << req.status().ToString();
          return 1;
        }
        if (HookMatches(replica_id, env.crash_replica, env.crash_table,
                        req->tables)) {
          // Injected crash: die exactly like a SIGKILL'd worker would —
          // no response, no flush, socket torn down by the kernel.
          _exit(kCrashExitCode);
        }
        if (HookMatches(replica_id, env.wedge_replica, env.wedge_table,
                        req->tables)) {
          // Injected wedge: stop dead mid-request, holding the leg. The
          // process stays alive (no SIGCHLD — SA_NOCLDSTOP — and no EOF);
          // it resumes only if SIGCONTed, and the supervisor's watchdog
          // SIGKILL terminates even a stopped process.
          ::raise(SIGSTOP);
          // If resumed, fall through and serve normally (byte-identical).
        }
        requests->Inc();
        tables->Inc(static_cast<int64_t>(req->tables.size()));
        DetectResponse resp = HandleDetect(env, *req);
        const std::string payload = EncodeDetectResponse(resp);
        Status st;
        if (HookMatches(replica_id, env.corrupt_replica, env.corrupt_table,
                        req->tables)) {
          // Injected corruption: a valid-length frame whose payload was
          // bit-flipped after the CRC — the router must reject it.
          st = WriteFrameCorrupted(fd, FrameType::kDetectResponse, payload);
        } else if (HookMatches(replica_id, env.drip_replica, env.drip_table,
                               req->tables)) {
          st = WriteFrameDripped(fd, FrameType::kDetectResponse, payload,
                                 env.drip_chunk_bytes, env.drip_delay_us);
        } else {
          st = WriteFrame(fd, FrameType::kDetectResponse, payload);
        }
        if (!st.ok()) return st.code() == StatusCode::kUnavailable ? 0 : 1;
        break;
      }
      case FrameType::kScrapeRequest: {
        const Status st = WriteFrame(
            fd, FrameType::kScrapeResponse,
            EncodeMetricsSnapshot(obs::Registry::Global().snapshot()));
        if (!st.ok()) return st.code() == StatusCode::kUnavailable ? 0 : 1;
        break;
      }
      case FrameType::kShutdown:
        return 0;
      case FrameType::kCacheFill: {
        // Warm-up push after respawn, or a fill that answered a fetch the
        // worker had already abandoned: either way it is warm data for the
        // local cache, never an error.
        auto fill = DecodeCacheFill(frame->payload);
        if (!fill.ok()) {
          TASTE_LOG(Warn) << "worker " << replica_id << ": bad cache fill: "
                          << fill.status().ToString();
          return 1;
        }
        if (plane != nullptr) plane->AbsorbFill(*fill);
        break;
      }
      default:
        TASTE_LOG(Warn) << "worker " << replica_id
                        << ": unexpected frame type "
                        << static_cast<int>(frame->type);
        return 1;
    }
  }
}

}  // namespace taste::serve
