#include "serve/router.h"

#include <errno.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <set>

#include "common/logging.h"
#include "common/rng.h"
#include "obs/aggregate.h"

namespace taste::serve {

namespace {

obs::Counter* RedispatchCounter() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter("taste_redispatched_tables_total");
  return c;
}

obs::Counter* FallbackCounter() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter("taste_local_fallback_tables_total");
  return c;
}

obs::Counter* HedgeCounter() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter("taste_hedges_total");
  return c;
}

obs::Counter* HedgeWastedCounter() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter("taste_hedge_wasted_total");
  return c;
}

int PollTimeoutMs(double ms) {
  if (ms < 1.0) return 1;
  if (ms > 60'000.0) return 60'000;
  return static_cast<int>(std::ceil(ms));
}

double AgeMs(std::chrono::steady_clock::time_point since,
             std::chrono::steady_clock::time_point now) {
  return std::chrono::duration<double, std::milli>(now - since).count();
}

}  // namespace

uint64_t HashTableName(const std::string& name) {
  // FNV-1a over the bytes, finished with a SplitMix64 round for avalanche.
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : name) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return SplitMix64(h);
}

ConsistentHashRing::ConsistentHashRing(int replicas, int vnodes)
    : replicas_(replicas) {
  TASTE_CHECK(replicas >= 1 && replicas <= 64);
  TASTE_CHECK(vnodes >= 1);
  points_.reserve(static_cast<size_t>(replicas) * vnodes);
  for (int node = 0; node < replicas; ++node) {
    for (int v = 0; v < vnodes; ++v) {
      // Each (node, vnode) pair is hashed independently: sequential
      // SplitMix64 streams seeded per node would overlap (stream n starts
      // one step into stream n-1), collapsing most vnodes onto one id.
      uint64_t s = (static_cast<uint64_t>(node) << 32) |
                   static_cast<uint64_t>(v);
      points_.push_back(Point{SplitMix64(s), node});
    }
  }
  std::sort(points_.begin(), points_.end(),
            [](const Point& a, const Point& b) {
              return a.hash != b.hash ? a.hash < b.hash : a.node < b.node;
            });
}

// ---------------------------------------------------------------------------

struct Router::Leg {
  uint64_t request_id = 0;
  int replica = -1;
  std::vector<size_t> indices;
  std::chrono::steady_clock::time_point sent_at{};
  // Thresholds frozen at send time; straggler_ms is 0 with hedging off.
  double straggler_ms = 0.0;
  double watchdog_ms = 0.0;
  /// A straggle verdict already fired for this leg (or it IS the hedge) —
  /// hedges never cascade; the watchdog covers a straggling hedge.
  bool hedged = false;
};

Router::Router(WorkerEnv env, RouterOptions options)
    : env_(std::move(env)),
      options_(options),
      supervisor_(env_, options_.supervisor),
      ring_(options_.supervisor.replicas, options_.vnodes),
      cost_model_(env_.pipeline_options.p2_dtype == tensor::P2Dtype::kInt8
                      ? core::P2CostModel::DefaultInt8Params()
                      : core::P2CostModel::Params()) {}

Router::~Router() { Shutdown(); }

Status Router::Start() {
  TASTE_CHECK(!started_);
  TASTE_RETURN_IF_ERROR(supervisor_.Start());
  started_ = true;
  return Status::OK();
}

void Router::Shutdown() {
  if (!started_) return;
  supervisor_.Shutdown();
  started_ = false;
}

bool Router::SendLeg(int replica_id, std::vector<size_t> indices,
                     const std::vector<std::string>& tables,
                     double remaining_ms, SendKind kind,
                     std::vector<Leg>* legs) {
  Replica* r = supervisor_.replica(replica_id);
  TASTE_CHECK(r != nullptr && r->state == ReplicaState::kUp);
  DetectRequest req;
  req.request_id = next_request_id_++;
  req.deadline_remaining_ms = remaining_ms;
  req.p2_dtype = static_cast<uint8_t>(env_.pipeline_options.p2_dtype);
  req.tables.reserve(indices.size());
  for (size_t i : indices) req.tables.push_back(tables[i]);
  const Status st =
      WriteFrame(r->fd, FrameType::kDetectRequest, EncodeDetectRequest(req));
  if (!st.ok()) {
    supervisor_.MarkDead(replica_id);
    return false;
  }
  Leg leg;
  leg.request_id = req.request_id;
  leg.replica = replica_id;
  leg.indices = std::move(indices);
  leg.sent_at = std::chrono::steady_clock::now();
  leg.straggler_ms =
      options_.hedge_multiplier > 0.0
          ? StragglerThresholdMs(leg.indices.size(), options_.hedge_multiplier)
          : 0.0;
  leg.watchdog_ms = WatchdogThresholdMs(leg.indices.size());
  leg.hedged = kind == SendKind::kHedge;
  legs->push_back(std::move(leg));
  return true;
}

double Router::StragglerThresholdMs(size_t leg_tables,
                                    double multiplier) const {
  const int64_t tokens = static_cast<int64_t>(leg_tables) *
                         static_cast<int64_t>(options_.hedge_tokens_per_table);
  return std::max(options_.hedge_floor_ms,
                  cost_model_.EstimateP99Ms(tokens) * multiplier);
}

double Router::WatchdogThresholdMs(size_t leg_tables) const {
  if (options_.watchdog_ms > 0.0) return options_.watchdog_ms;
  // The hedge fires first; the watchdog mops up a replica that stays
  // wedged. With hedging off it still derives from the cost model, so a
  // mid-request wedge can never hang a batch that has no deadline.
  const double multiplier = options_.hedge_multiplier > 0.0
                                ? options_.hedge_multiplier
                                : kDefaultHedgeMultiplier;
  return 4.0 * StragglerThresholdMs(leg_tables, multiplier);
}

void Router::AccountUnmatchedResponse(uint64_t request_id, size_t tables) {
  auto sup = superseded_.find(request_id);
  if (sup == superseded_.end()) return;
  superseded_.erase(sup);
  const auto w = static_cast<int64_t>(tables);
  stats_.hedge_wasted_tables += w;
  HedgeWastedCounter()->Inc(w);
}

void Router::RecordLegSample(size_t leg_tables, double wall_ms) {
  const int64_t tokens = static_cast<int64_t>(leg_tables) *
                         static_cast<int64_t>(options_.hedge_tokens_per_table);
  cost_samples_.emplace_back(tokens, wall_ms);
  if (cost_samples_.size() > 256) {
    cost_samples_.erase(
        cost_samples_.begin(),
        cost_samples_.begin() +
            static_cast<std::ptrdiff_t>(cost_samples_.size() - 256));
  }
  // Refit every few legs; Calibrate keeps the current parameters when the
  // sample set is degenerate (no token spread, non-positive slope).
  if (cost_samples_.size() % 8 == 0) {
    (void)cost_model_.Calibrate(cost_samples_);
  }
}

pipeline::BatchResult Router::RunBatch(const std::vector<std::string>& tables) {
  TASTE_CHECK(started_);
  const auto t0 = std::chrono::steady_clock::now();
  stats_.batches += 1;

  const double budget = env_.pipeline_options.deadline_ms;
  const Deadline dl =
      budget == 0.0 ? Deadline::Infinite() : Deadline::AfterMillis(budget);
  // Remaining budget as the wire encodes it: 0 = none, negative =
  // pre-expired (the RemainingMillis() clamp at 0 maps to -1).
  auto wire_remaining = [&dl]() -> double {
    if (dl.IsInfinite()) return 0.0;
    const double r = dl.RemainingMillis();
    return r > 0.0 ? r : -1.0;
  };

  const size_t n = tables.size();
  pipeline::BatchResult out;
  out.tables.resize(n);
  std::vector<bool> done(n, false);
  std::vector<bool> in_fallback(n, false);
  // Poison blacklist: replicas that died (or straggled) while serving table
  // i. Re-dispatch walks the ring past them, so a table that reliably kills
  // its owner cannot crash-loop the fleet; an exhausted ring sends it to
  // the local fallback executor instead.
  std::vector<std::set<int>> blacklist(n);
  std::vector<size_t> fallback;
  std::vector<Leg> legs;

  const bool hedging = options_.hedge_multiplier > 0.0;
  const int64_t hedge_cap = std::max<int64_t>(
      1, static_cast<int64_t>(std::llround(
             static_cast<double>(n) * options_.hedge_budget_fraction)));
  int64_t hedged_this_batch = 0;

  auto acceptable = [&](size_t i, int id) {
    return supervisor_.Dispatchable(id) && blacklist[i].count(id) == 0;
  };

  // Places every index with its ring owner; indices with no acceptable
  // owner fall through to the local fallback list. A send failure marks
  // the owner dead and re-plans, so this always terminates: each round
  // either sends, loses a replica, or drains to fallback.
  auto dispatch = [&](std::vector<size_t> idxs, SendKind kind) {
    while (!idxs.empty()) {
      std::map<int, std::vector<size_t>> groups;
      std::vector<size_t> rest;
      for (size_t i : idxs) {
        if (done[i] || in_fallback[i]) continue;  // already resolved
        const int owner =
            ring_.NodeFor(tables[i], [&](int id) { return acceptable(i, id); });
        if (owner < 0) {
          fallback.push_back(i);
          in_fallback[i] = true;
        } else {
          groups[owner].push_back(i);
        }
      }
      idxs.clear();
      for (const auto& [id, group] : groups) {
        if (SendLeg(id, group, tables, wire_remaining(), kind, &legs)) {
          const auto count = static_cast<int64_t>(group.size());
          switch (kind) {
            case SendKind::kFirst:
              stats_.dispatched_tables += count;
              break;
            case SendKind::kRedispatch:
              stats_.redispatched_tables += count;
              RedispatchCounter()->Inc(count);
              break;
            case SendKind::kHedge:
              stats_.hedged_tables += count;
              HedgeCounter()->Inc(count);
              break;
          }
        } else {
          // The owner died on the write; re-plan these indices — the next
          // round routes around the now-dead replica.
          rest.insert(rest.end(), group.begin(), group.end());
        }
      }
      idxs = std::move(rest);
    }
  };

  // A replica died: blacklist it for its in-flight tables and re-dispatch
  // them to survivors (idempotent — detection is a pure function of the
  // table and the shared forked model, so replayed work is byte-identical).
  // Indices already resolved, or still covered by another live leg (the
  // other side of a hedge pair), are not replayed.
  auto handle_death = [&](int id) {
    stats_.replica_deaths += 1;
    std::vector<size_t> orphaned;
    for (auto it = legs.begin(); it != legs.end();) {
      if (it->replica == id) {
        orphaned.insert(orphaned.end(), it->indices.begin(),
                        it->indices.end());
        it = legs.erase(it);
      } else {
        ++it;
      }
    }
    auto covered_elsewhere = [&](size_t i) {
      return std::any_of(legs.begin(), legs.end(), [&](const Leg& l) {
        return std::find(l.indices.begin(), l.indices.end(), i) !=
               l.indices.end();
      });
    };
    std::vector<size_t> replay;
    for (size_t i : orphaned) {
      blacklist[i].insert(id);
      if (!done[i] && !covered_elsewhere(i)) replay.push_back(i);
    }
    if (!replay.empty()) dispatch(std::move(replay), SendKind::kRedispatch);
  };

  // Drains complete frames buffered for a replica. Returns false on a
  // protocol error (the caller then treats the replica as dead).
  auto process_frames = [&](int id) -> bool {
    Replica* r = supervisor_.replica(id);
    for (;;) {
      Frame frame;
      auto next = r->frames.Next(&frame);
      if (!next.ok()) {
        TASTE_LOG(Warn) << "replica " << id
                        << ": corrupt stream: " << next.status().ToString();
        return false;
      }
      if (!*next) return true;
      switch (frame.type) {
        case FrameType::kDetectResponse: {
          auto resp = DecodeDetectResponse(frame.payload);
          if (!resp.ok()) {
            TASTE_LOG(Warn) << "replica " << id << ": bad response: "
                            << resp.status().ToString();
            return false;
          }
          auto leg = std::find_if(legs.begin(), legs.end(), [&](const Leg& l) {
            return l.replica == id && l.request_id == resp->request_id;
          });
          if (leg == legs.end()) {
            AccountUnmatchedResponse(resp->request_id, resp->tables.size());
            break;
          }
          if (resp->tables.size() != leg->indices.size()) {
            TASTE_LOG(Warn) << "replica " << id << ": response table count "
                            << resp->tables.size() << " != leg size "
                            << leg->indices.size();
            return false;
          }
          // First valid response wins each table; a hedge race's loser is
          // counted as wasted duplicate work and its bytes dropped (both
          // sides compute identical bytes, but merging stats twice would
          // double-count resilience activity).
          int64_t contributed = 0;
          int64_t wasted = 0;
          for (size_t k = 0; k < leg->indices.size(); ++k) {
            const size_t i = leg->indices[k];
            if (done[i]) {
              ++wasted;
              continue;
            }
            out.tables[i] = std::move(resp->tables[k]);
            done[i] = true;
            ++contributed;
          }
          if (wasted > 0) {
            stats_.hedge_wasted_tables += wasted;
            HedgeWastedCounter()->Inc(wasted);
          }
          if (contributed > 0) {
            stats_.resilience.Merge(resp->stats);
            RecordLegSample(
                leg->indices.size(),
                AgeMs(leg->sent_at, std::chrono::steady_clock::now()));
          }
          legs.erase(leg);
          break;
        }
        default:
          break;  // scrape responses etc. outside a scrape are stale
      }
    }
  };

  // One read of a replica's socket (the caller knows it is readable, so
  // the read never blocks) and a drain of the complete frames it buffered.
  // EOF or a corrupt stream (CRC / framing fault, protocol violation) makes
  // the replica's bytes untrustworthy: drop it and re-dispatch — a
  // corrupted frame is never surfaced as a valid result.
  auto read_replica = [&](int id) {
    Replica* r = supervisor_.replica(id);
    char buf[64 * 1024];
    const ssize_t got = ::read(r->fd, buf, sizeof(buf));
    if (got > 0) {
      r->frames.Append(buf, static_cast<size_t>(got));
      if (process_frames(id)) return;
    } else if (got < 0 && (errno == EINTR || errno == EAGAIN)) {
      return;
    }
    supervisor_.MarkDead(id);
    handle_death(id);
  };

  // An abandoned leg counts only while its replica is the same live
  // process it was sent to; once the replica dies or respawns the answer
  // can never come.
  auto still_owed = [&](const AbandonedLeg& a) {
    const Replica* r = supervisor_.replica(a.replica);
    return r->state == ReplicaState::kUp && r->pid == a.pid;
  };

  // Replicas owing an answer past its watchdog threshold: the holders of
  // overdue in-flight legs and of overdue legs abandoned in earlier
  // batches.
  auto overdue_replicas = [&](std::chrono::steady_clock::time_point now) {
    std::set<int> ids;
    for (const Leg& l : legs) {
      if (AgeMs(l.sent_at, now) > l.watchdog_ms) ids.insert(l.replica);
    }
    for (const auto& [request_id, a] : superseded_) {
      if (still_owed(a) && AgeMs(a.sent_at, now) > a.watchdog_ms) {
        ids.insert(a.replica);
      }
    }
    return ids;
  };

  dispatch([&] {
    std::vector<size_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = i;
    return all;
  }(), SendKind::kFirst);

  // Unresolved = not yet answered and not bound for the local fallback.
  // Legs alone no longer signal completion: a hedge pair leaves its loser
  // in flight after every table is resolved.
  auto unresolved = [&]() {
    size_t c = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!done[i] && !in_fallback[i]) ++c;
    }
    return c;
  };

  // Gather loop: wake on replica bytes, SIGCHLD, or the earliest timer
  // (respawn backoff / hedge or watchdog crossing / deadline).
  bool overdue_armed = false;
  std::chrono::steady_clock::time_point overdue_since;
  while (unresolved() > 0) {
    std::erase_if(superseded_,
                  [&](const auto& entry) { return !still_owed(entry.second); });
    std::vector<pollfd> pfds;
    std::vector<int> owner;  // pfds[i] -> replica id; -1 = sigchld pipe
    pfds.push_back(pollfd{supervisor_.sigchld_fd(), POLLIN, 0});
    owner.push_back(-1);
    for (int id = 0; id < supervisor_.configured_replicas(); ++id) {
      const Replica* r = supervisor_.replica(id);
      if (r->state == ReplicaState::kUp) {
        pfds.push_back(pollfd{r->fd, POLLIN, 0});
        owner.push_back(id);
      }
    }
    double wait = options_.poll_slack_ms;
    const double timer = supervisor_.NextTimerMillis();
    if (timer >= 0.0) wait = std::min(wait, timer);
    {
      const auto now = std::chrono::steady_clock::now();
      for (const Leg& l : legs) {
        const double age = AgeMs(l.sent_at, now);
        if (hedging && !l.hedged) {
          wait = std::min(wait, std::max(0.0, l.straggler_ms - age));
        }
        wait = std::min(wait, std::max(0.0, l.watchdog_ms - age));
      }
      for (const auto& [request_id, a] : superseded_) {
        wait = std::min(wait,
                        std::max(0.0, a.watchdog_ms - AgeMs(a.sent_at, now)));
      }
    }
    if (!dl.IsInfinite()) {
      const double rem = dl.RemainingMillis();
      wait = std::min(wait, rem > 0.0 ? rem : kOverdueGraceMs / 4.0);
    }
    ::poll(pfds.data(), pfds.size(), PollTimeoutMs(wait));

    if (pfds[0].revents & POLLIN) {
      for (int id : supervisor_.ReapDead()) handle_death(id);
    }
    for (size_t p = 1; p < pfds.size(); ++p) {
      if ((pfds[p].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const int id = owner[p];
      // Skip a replica that died earlier this pass.
      if (supervisor_.replica(id)->state == ReplicaState::kUp) {
        read_replica(id);
      }
    }

    supervisor_.RespawnEligible();

    // Wedge verdicts. A suspect's socket is drained first, without
    // waiting: an answer already sitting in its buffer resolves its leg
    // (or clears its abandoned entry) and must never lead to a kill. Still
    // overdue after that, on a live process: the wedge signature.
    {
      const auto now = std::chrono::steady_clock::now();
      for (int id : overdue_replicas(now)) {
        for (;;) {
          const Replica* r = supervisor_.replica(id);
          if (r->state != ReplicaState::kUp) break;
          pollfd p{r->fd, POLLIN, 0};
          if (::poll(&p, 1, 0) <= 0) break;
          read_replica(id);
        }
      }
      for (int id : overdue_replicas(now)) {
        supervisor_.CondemnWedged(id);
        handle_death(id);
      }
    }

    // Straggler scan: a leg past its hedge threshold is re-sent to its
    // ring successor. Verdicts first, then dispatch (which mutates legs).
    if (hedging && !legs.empty()) {
      const auto now = std::chrono::steady_clock::now();
      std::vector<size_t> to_hedge;
      for (Leg& l : legs) {
        if (l.hedged || AgeMs(l.sent_at, now) <= l.straggler_ms) continue;
        l.hedged = true;
        if (hedged_this_batch >= hedge_cap) continue;
        for (size_t i : l.indices) {
          if (done[i]) continue;
          blacklist[i].insert(l.replica);  // successor, not the straggler
          to_hedge.push_back(i);
        }
      }
      if (!to_hedge.empty()) {
        hedged_this_batch += static_cast<int64_t>(to_hedge.size());
        dispatch(std::move(to_hedge), SendKind::kHedge);
      }
    }

    // A busy replica that stops making progress long past the deadline is
    // treated as wedged whatever its watchdog threshold: kill and
    // re-dispatch — the replay runs pre-expired and terminates through the
    // degrade path instead of holding the batch.
    if (!dl.IsInfinite() && dl.RemainingMillis() <= 0.0 && !legs.empty()) {
      const auto now = std::chrono::steady_clock::now();
      if (!overdue_armed) {
        overdue_armed = true;
        overdue_since = now;
      } else if (AgeMs(overdue_since, now) > kOverdueGraceMs) {
        std::vector<int> holders;
        for (const Leg& l : legs) holders.push_back(l.replica);
        for (int id : holders) {
          supervisor_.MarkDead(id);
          handle_death(id);
        }
        overdue_since = now;
      }
    }
  }

  // Legs still in flight lost their race (a hedge or the fallback resolved
  // every table they carried), but their replicas still owe the answers.
  // Remember them: a late response draining in a future batch or scrape is
  // accounted as wasted hedge work instead of warned about as stale, and a
  // replica that never answers is condemned by the watchdog in a later
  // batch. Bounded so the map cannot grow.
  for (const Leg& l : legs) {
    superseded_[l.request_id] = AbandonedLeg{
        l.replica, supervisor_.replica(l.replica)->pid, l.sent_at,
        l.watchdog_ms};
  }
  while (superseded_.size() > 1024) superseded_.erase(superseded_.begin());

  // Tables no replica could serve run locally under the remaining budget.
  // Same detector, database, and options as the workers' forked image, so
  // with faults off this produces the same bytes; with the budget gone it
  // reuses the single-process degrade semantics (metadata-only / kExpired).
  // A table whose racing leg answered first is already done — skip it.
  if (!fallback.empty()) {
    std::sort(fallback.begin(), fallback.end());
    fallback.erase(std::unique(fallback.begin(), fallback.end()),
                   fallback.end());
    fallback.erase(std::remove_if(fallback.begin(), fallback.end(),
                                  [&](size_t i) { return done[i]; }),
                   fallback.end());
  }
  if (!fallback.empty()) {
    std::vector<std::string> names;
    names.reserve(fallback.size());
    for (size_t i : fallback) names.push_back(tables[i]);
    pipeline::PipelineOptions popt = env_.pipeline_options;
    popt.deadline_ms = wire_remaining();
    popt.cancel = nullptr;
    pipeline::PipelineExecutor local(env_.detector, env_.db, popt);
    pipeline::BatchResult lb = local.RunBatch(names);
    for (size_t k = 0; k < fallback.size(); ++k) {
      out.tables[fallback[k]] = std::move(lb.tables[k]);
      done[fallback[k]] = true;
    }
    stats_.resilience.Merge(local.resilience_stats());
    stats_.local_fallback_tables += static_cast<int64_t>(fallback.size());
    FallbackCounter()->Inc(static_cast<int64_t>(fallback.size()));
  }

  for (size_t i = 0; i < n; ++i) TASTE_CHECK(done[i]);
  stats_.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return out;
}

bool Router::MaintainUntilAllUp(double budget_ms) {
  TASTE_CHECK(started_);
  const Deadline dl = Deadline::AfterMillis(budget_ms);
  for (;;) {
    supervisor_.ReapDead();
    supervisor_.RespawnEligible();
    bool all_up = true;
    for (int id = 0; id < supervisor_.configured_replicas(); ++id) {
      if (supervisor_.replica(id)->state == ReplicaState::kDead) {
        all_up = false;
        break;
      }
    }
    if (all_up) return true;
    if (dl.Expired()) return false;
    double wait = options_.poll_slack_ms;
    const double timer = supervisor_.NextTimerMillis();
    if (timer >= 0.0) wait = std::min(wait, timer);
    wait = std::min(wait, dl.RemainingMillis());
    pollfd p{supervisor_.sigchld_fd(), POLLIN, 0};
    ::poll(&p, 1, PollTimeoutMs(wait));
  }
}

Result<obs::Registry::Snapshot> Router::Scrape() {
  TASTE_CHECK(started_);
  std::vector<obs::LabeledSnapshot> parts;
  parts.push_back({"router", obs::Registry::Global().snapshot()});

  std::set<int> waiting;
  for (int id = 0; id < supervisor_.configured_replicas(); ++id) {
    Replica* r = supervisor_.replica(id);
    if (r->state != ReplicaState::kUp) continue;
    if (WriteFrame(r->fd, FrameType::kScrapeRequest, std::string()).ok()) {
      waiting.insert(id);
    } else {
      supervisor_.MarkDead(id);
    }
  }

  const Deadline dl = Deadline::AfterMillis(options_.scrape_timeout_ms);
  while (!waiting.empty() && !dl.Expired()) {
    std::vector<pollfd> pfds;
    std::vector<int> owner;
    pfds.push_back(pollfd{supervisor_.sigchld_fd(), POLLIN, 0});
    owner.push_back(-1);
    for (int id : waiting) {
      pfds.push_back(pollfd{supervisor_.replica(id)->fd, POLLIN, 0});
      owner.push_back(id);
    }
    ::poll(pfds.data(), pfds.size(), PollTimeoutMs(dl.RemainingMillis()));
    if (pfds[0].revents & POLLIN) {
      for (int id : supervisor_.ReapDead()) waiting.erase(id);
    }
    for (size_t p = 1; p < pfds.size(); ++p) {
      if ((pfds[p].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const int id = owner[p];
      Replica* r = supervisor_.replica(id);
      if (r == nullptr || r->state != ReplicaState::kUp) {
        waiting.erase(id);
        continue;
      }
      char buf[64 * 1024];
      const ssize_t got = ::read(r->fd, buf, sizeof(buf));
      if (got <= 0) {
        if (got < 0 && (errno == EINTR || errno == EAGAIN)) continue;
        supervisor_.MarkDead(id);
        waiting.erase(id);
        continue;
      }
      r->frames.Append(buf, static_cast<size_t>(got));
      for (;;) {
        Frame frame;
        auto next = r->frames.Next(&frame);
        if (!next.ok()) {
          supervisor_.MarkDead(id);
          waiting.erase(id);
          break;
        }
        if (!*next) break;
        if (frame.type == FrameType::kScrapeResponse) {
          auto snap = DecodeMetricsSnapshot(frame.payload);
          if (snap.ok()) {
            parts.push_back({std::to_string(id), std::move(*snap)});
          }
          waiting.erase(id);
        } else if (frame.type == FrameType::kDetectResponse) {
          // A leg that lost its race in the last batch can land here; no
          // leg is in flight between batches, so every response is
          // unmatched.
          auto resp = DecodeDetectResponse(frame.payload);
          if (resp.ok()) {
            AccountUnmatchedResponse(resp->request_id, resp->tables.size());
          }
        }
      }
    }
  }
  return obs::AggregateSnapshots("replica", parts);
}

}  // namespace taste::serve
