#include "serve/worker.h"

#include <signal.h>
#include <unistd.h>

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"
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

  for (;;) {
    Result<Frame> frame = ReadFrame(fd);
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
      default:
        TASTE_LOG(Warn) << "worker " << replica_id
                        << ": unexpected frame type "
                        << static_cast<int>(frame->type);
        return 1;
    }
  }
}

}  // namespace taste::serve
