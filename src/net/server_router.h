// ServerRouter: the client side of hot-standby failover (DESIGN.md
// section 19).
//
// Clients hold one ServerEndpoint*; with a hot standby configured that
// pointer is a ServerRouter owning a two-entry endpoint table. Requests go
// to the active entry; three outcomes make the router suspect the primary
// and probe the other node:
//
//   - Status::Crashed          the primary process is gone,
//   - WouldBlock(kRpcTimeout)  the wire is silent (the router charges the
//                              client's timeout budget on the clock first),
//   - WouldBlock(kFailoverInProgress)
//                              the node answered but is deposed.
//
// Only the status of the call is routed: a per-item lock outcome inside
// LockObjectBatch is the answer of a serving node, and the server reports a
// timed-out leg to a *third* client as kCrashedDependency, so kRpcTimeout
// here always means the client's own leg to the node.
//
// The probe (FailoverNode::FailoverProbe) asks the other node to confirm or
// assume mastership. On success the table flips and the request is retried
// once against the new primary; a probe refused with kFailoverInProgress is
// the mastership gap -- the incumbent's lease has not expired yet -- and is
// surfaced to the caller as a retryable WouldBlock. Any other probe failure
// surfaces the original error (e.g. both nodes down, or the *client* is the
// partitioned party and its probe timed out too).
//
// The router is deliberately dumb: it holds no mastership state of its own
// beyond the table index, so a stale index is always safe -- the epoch fence
// on the server side rejects requests a deposed node can no longer serve,
// and the next response flips the table.

#ifndef FINELOG_NET_SERVER_ROUTER_H_
#define FINELOG_NET_SERVER_ROUTER_H_

#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "net/channel.h"
#include "net/endpoints.h"
#include "util/metrics.h"

namespace finelog {

// A server node the router can fail over to: the full endpoint surface plus
// the mastership probe. Abstract so net/ does not depend on server/.
class FailoverNode : public ServerEndpoint {
 public:
  // Client-driven failover: confirm (serving node) or assume (standby that
  // wins the lease) mastership. Returns the serving epoch; Crashed while
  // the node's process is down; WouldBlock(kFailoverInProgress) while the
  // incumbent's unexpired lease blocks the takeover.
  virtual Result<uint64_t> FailoverProbe(ClientId client) = 0;
};

class FINELOG_SHARED_STATE_CLASS ServerRouter : public ServerEndpoint {
 public:
  // `timeout_us` is the per-attempt budget a client burns against a silent
  // or crashed primary before probing the standby (charged on the clock so
  // the unavailability window is honestly accounted).
  ServerRouter(FailoverNode* node0, FailoverNode* node1, Channel* channel,
               Metrics* metrics, uint64_t timeout_us)
      : channel_(channel), metrics_(metrics), timeout_us_(timeout_us) {
    nodes_[0] = node0;
    nodes_[1] = node1;
  }

  ServerRouter(const ServerRouter&) = delete;
  ServerRouter& operator=(const ServerRouter&) = delete;

  int active_node() const {
    SimMutexLock lock(mu_);
    return active_;
  }

  // Harness: partitions node `i` away from every client. Requests to it
  // burn the timeout budget and fail with kRpcTimeout; probes skip it.
  void SetNodeUnreachable(int i, bool unreachable) {
    SimMutexLock lock(mu_);
    unreachable_[i] = unreachable;
  }

  // ServerEndpoint ----------------------------------------------------------

  Result<PageLockReply> LockPage(ClientId client, PageId pid, LockMode mode,
                                 Psn cached_psn) override {
    return Route<Result<PageLockReply>>(client, [&](FailoverNode* n) {
      return n->LockPage(client, pid, mode, cached_psn);
    });
  }
  Result<std::vector<ObjectLockOutcome>> LockObjectBatch(
      ClientId client, const std::vector<ObjectLockRequest>& items) override {
    return Route<Result<std::vector<ObjectLockOutcome>>>(
        client,
        [&](FailoverNode* n) { return n->LockObjectBatch(client, items); });
  }
  Result<std::vector<PageFetchReply>> FetchPages(
      ClientId client, const std::vector<PageId>& pids) override {
    return Route<Result<std::vector<PageFetchReply>>>(
        client, [&](FailoverNode* n) { return n->FetchPages(client, pids); });
  }
  Status ShipPages(ClientId client,
                   const std::vector<ShippedPage>& pages) override {
    return Route<Status>(
        client, [&](FailoverNode* n) { return n->ShipPages(client, pages); });
  }
  Result<AllocReply> AllocatePage(ClientId client) override {
    return Route<Result<AllocReply>>(
        client, [&](FailoverNode* n) { return n->AllocatePage(client); });
  }
  Status ForcePage(ClientId client, PageId pid) override {
    return Route<Status>(
        client, [&](FailoverNode* n) { return n->ForcePage(client, pid); });
  }
  Status ReleaseLocks(ClientId client, const std::vector<ObjectId>& objects,
                      const std::vector<PageId>& pages) override {
    return Route<Status>(client, [&](FailoverNode* n) {
      return n->ReleaseLocks(client, objects, pages);
    });
  }
  Status CommitShipLogs(ClientId client, size_t log_bytes) override {
    return Route<Status>(client, [&](FailoverNode* n) {
      return n->CommitShipLogs(client, log_bytes);
    });
  }
  Status CommitShipPages(ClientId client,
                         const std::vector<ShippedPage>& pages) override {
    return Route<Status>(client, [&](FailoverNode* n) {
      return n->CommitShipPages(client, pages);
    });
  }
  Result<TokenReply> AcquireToken(ClientId client, PageId pid) override {
    return Route<Result<TokenReply>>(
        client, [&](FailoverNode* n) { return n->AcquireToken(client, pid); });
  }
  Result<DctSnapshot> RecGetMyDct(ClientId client) override {
    return Route<Result<DctSnapshot>>(
        client, [&](FailoverNode* n) { return n->RecGetMyDct(client); });
  }
  Result<ClientRecoveryState> RecGetMyXLocks(ClientId client) override {
    return Route<Result<ClientRecoveryState>>(
        client, [&](FailoverNode* n) { return n->RecGetMyXLocks(client); });
  }
  Result<PageFetchReply> RecFetchPage(ClientId client, PageId pid) override {
    return Route<Result<PageFetchReply>>(
        client, [&](FailoverNode* n) { return n->RecFetchPage(client, pid); });
  }
  Status RecComplete(ClientId client) override {
    return Route<Status>(
        client, [&](FailoverNode* n) { return n->RecComplete(client); });
  }
  Result<ClientRecoveryState> RecInstallLocks(
      ClientId client, const std::vector<ObjectId>& objects,
      const std::vector<PageId>& pages) override {
    return Route<Result<ClientRecoveryState>>(client, [&](FailoverNode* n) {
      return n->RecInstallLocks(client, objects, pages);
    });
  }
  Result<std::vector<CallbackListEntry>> RecGetCallbackList(
      ClientId client, PageId pid) override {
    return Route<Result<std::vector<CallbackListEntry>>>(
        client,
        [&](FailoverNode* n) { return n->RecGetCallbackList(client, pid); });
  }
  Result<PageFetchReply> RecOrderedFetch(ClientId client, PageId pid,
                                         ClientId other, Psn psn) override {
    return Route<Result<PageFetchReply>>(client, [&](FailoverNode* n) {
      return n->RecOrderedFetch(client, pid, other, psn);
    });
  }
  Status Heartbeat(ClientId client) override {
    return Route<Status>(
        client, [&](FailoverNode* n) { return n->Heartbeat(client); });
  }

 private:
  static const Status& StatusOf(const Status& s) { return s; }
  template <typename T>
  static const Status& StatusOf(const Result<T>& r) {
    return r.status();
  }

  // A failure that makes the router suspect the active node is no longer
  // the serving master (see the file comment).
  static bool NeedsFailover(const Status& s) {
    if (s.IsCrashed()) return true;
    if (!s.IsWouldBlock()) return false;
    return s.would_block_reason() == WouldBlockReason::kRpcTimeout ||
           s.would_block_reason() == WouldBlockReason::kFailoverInProgress;
  }

  template <typename R, typename Fn>
  R Route(ClientId client, Fn&& fn) {
    int active;
    bool active_unreachable;
    bool other_unreachable;
    {
      SimMutexLock lock(mu_);
      active = active_;
      active_unreachable = unreachable_[active_];
      other_unreachable = unreachable_[1 - active_];
    }
    R result = [&]() -> R {
      if (active_unreachable) {
        // Silent wire: the client burns its timeout budget first.
        channel_->clock()->Advance(timeout_us_);
        return R(Status::WouldBlock(WouldBlockReason::kRpcTimeout,
                                    "primary unreachable"));
      }
      return fn(nodes_[active]);
    }();
    const Status& st = StatusOf(result);
    if (!NeedsFailover(st)) return result;
    const int other = 1 - active;
    if (other_unreachable) return result;
    if (st.IsCrashed()) {
      // A crashed primary answers nothing; in the real deployment the
      // client only learns this by waiting out its timeout.
      channel_->clock()->Advance(timeout_us_);
    }
    auto probe = nodes_[other]->FailoverProbe(client);
    if (!probe.ok()) {
      if (probe.status().IsFailoverInProgress()) {
        // The mastership gap: the incumbent's lease must expire before the
        // standby may serve. Retryable (kFailoverBlocked is counted by the
        // probed node); the epoch fence guarantees no node serves the old
        // epoch meanwhile.
        return R(probe.status());
      }
      // Standby dead or unreachable too: surface the original failure.
      return result;
    }
    {
      SimMutexLock lock(mu_);
      if (active_ == active) {
        active_ = other;
        metrics_->Add(Counter::kFailoverSwitchovers);
      }
    }
    // Retry exactly once against the confirmed master; further failures are
    // the caller's to retry (and will re-enter this routing logic).
    return fn(nodes_[other]);
  }

  FailoverNode* nodes_[2] FINELOG_UNGUARDED(
      "externally owned wiring, set once");
  Channel* channel_ FINELOG_UNGUARDED("externally owned wiring, set once");
  Metrics* metrics_ FINELOG_UNGUARDED(
      "monotonic counters, not protocol state");
  uint64_t timeout_us_ FINELOG_UNGUARDED("immutable after construction");

  mutable SimMutex mu_;
  int active_ FINELOG_GUARDED_BY(mu_) = 0;
  bool unreachable_[2] FINELOG_GUARDED_BY(mu_) = {false, false};
};

}  // namespace finelog

#endif  // FINELOG_NET_SERVER_ROUTER_H_
