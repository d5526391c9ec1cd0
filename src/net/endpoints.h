// Abstract client/server endpoints: the RPC vocabulary of the protocol.
//
// finelog simulates the network, so "RPCs" are direct virtual calls; each
// implementation routes its request and reply through the Rpc chokepoint for
// message/byte accounting. Both interfaces are pure: server::Server and the
// hot-standby ServerRouter implement ServerEndpoint, client::Client
// implements ClientEndpoint.
//
// Handlers on ClientEndpoint must not call back into the server, with one
// deliberate exception: the parallel-recovery handshake of Section 3.4
// (RecoverPage may trigger an ordered fetch through the server into another
// recovering client).

#ifndef FINELOG_NET_ENDPOINTS_H_
#define FINELOG_NET_ENDPOINTS_H_

#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/types.h"
#include "lock/lock_mode.h"
#include "log/log_record.h"

namespace finelog {

// A page copy in flight, with the book-keeping that makes copy merging
// possible (Section 3.1): which slots the sender modified since it last
// shipped the page, and whether the structure changed (under a page X lock).
struct ShippedPage {
  PageId page = kInvalidPageId;
  std::string image;  // Raw page bytes.
  std::vector<SlotId> modified_slots;
  bool structural = false;

  size_t wire_size() const {
    return image.size() + modified_slots.size() * sizeof(SlotId) + 16;
  }
};

// One exclusive-lock callback a lock request triggered: the object that
// changed hands, the client that responded, and the PSN the page had when
// that client's copy reached the server. The requester writes one callback
// log record per entry (Section 3.1).
struct XCallbackInfo {
  ClientId responder = kInvalidClientId;
  ObjectId object;
  Psn psn;
};

// Reply to an object lock request. Exactly one of `object_image` /
// `page_image` is set on success when data must be refreshed:
//  - `object_image`: the client has the page cached; it installs just this
//    object (the client-side merge of Section 2).
//  - `page_image`: the client does not have the page; the full page is sent.
// `object_present=false` with neither image set means the object was deleted.
struct ObjectLockReply {
  bool object_present = true;
  std::optional<std::string> object_image;
  std::optional<std::string> page_image;
  Psn server_psn;  // PSN of the server's current copy.
  std::vector<XCallbackInfo> x_callbacks;
};

struct PageLockReply {
  // The server always ships its current copy on a page grant; the client
  // merges its own unshipped modifications over it.
  std::optional<std::string> page_image;
  Psn server_psn;
  std::vector<XCallbackInfo> x_callbacks;
};

struct PageFetchReply {
  std::string page_image;
  // PSN from the DCT entry for the requesting client; kNullPsn outside
  // recovery (clients ignore it during normal processing, Section 3.2).
  Psn dct_psn = kNullPsn;
};

struct AllocReply {
  PageId page = kInvalidPageId;
  std::string page_image;  // Freshly formatted page.
};

struct TokenReply {
  // Latest page image if the token moved (the update-privilege approach
  // ships the page along with the token, Section 3.1).
  std::optional<std::string> page_image;
};

// An entry of a CallBack_P list (Section 3.4): an object on page P that was
// called back from the recovering client, and the PSN the page had when the
// recovering client shipped it in response.
struct CallbackListEntry {
  ObjectId object;
  Psn psn;
};

// The server's DCT entries for one recovering client (Section 3.3).
// `authoritative` is false while the DCT is being rebuilt after a server
// crash: the recovering client must then recover every page in its DPT
// instead of only DCT-listed pages (Section 3.5).
struct DctSnapshot {
  bool authoritative = true;
  std::vector<DctEntry> entries;
};

// Snapshot a client hands the restarting server (Section 3.4).
struct ClientRecoveryState {
  std::vector<DptEntry> dpt;
  std::vector<PageId> cached_pages;
  std::vector<std::pair<ObjectId, LockMode>> object_locks;
  std::vector<std::pair<PageId, LockMode>> page_locks;
};

// One item of an object lock request (see LockObjectBatch).
struct ObjectLockRequest {
  ObjectId oid;
  LockMode mode = LockMode::kShared;
  Psn cached_psn = kNullPsn;
};

// Per-item outcome of an object lock request: lock grants fail individually
// (WouldBlock on a denied callback does not poison the other items, and is
// not the status of the call).
struct ObjectLockOutcome {
  Status status;  // Default-constructed = OK; `reply` is valid only then.
  ObjectLockReply reply;
};

// The server-side endpoint (implemented by server::Server).
class ServerEndpoint {
 public:
  virtual ~ServerEndpoint() = default;

  // Normal processing --------------------------------------------------
  //
  // One endpoint per protocol step. The three item-carrying steps -- a
  // forwarded LLM miss, a cache-miss fetch, a copy-back ship -- take a
  // vector of items in one request message and answer them in one reply
  // message, so the per-message overhead is charged once per call (the
  // *caller* chunks at config.max_batch_items). A single item is a call of
  // one.

  // Forwarded LLM misses for object locks. Each item's `cached_psn` carries
  // the PSN of the client's cached copy (kNullPsn if the page is not
  // cached); the server uses it to seed the DCT entry on a first X grant
  // (Section 3.2). Grants are attempted in item order and fail
  // individually; the reply vector is index-aligned with `items`.
  virtual Result<std::vector<ObjectLockOutcome>> LockObjectBatch(
      ClientId client, const std::vector<ObjectLockRequest>& items) = 0;

  // Forwarded page lock request (used for non-mergeable updates, escalation,
  // and by the page-level-locking baseline).
  virtual Result<PageLockReply> LockPage(ClientId client, PageId pid,
                                         LockMode mode, Psn cached_psn) = 0;

  // Cache-miss fetch of pages the client already holds locks on;
  // all-or-nothing (a fetch only fails on real I/O or topology errors,
  // never on contention).
  virtual Result<std::vector<PageFetchReply>> FetchPages(
      ClientId client, const std::vector<PageId>& pids) = 0;

  // Dirty pages replaced from the client's cache (Section 2): one ship
  // message, one ack. The server merges the updates into its copies.
  virtual Status ShipPages(ClientId client,
                           const std::vector<ShippedPage>& pages) = 0;

  // Allocates a new page; the caller is granted a page-level X lock on it.
  virtual Result<AllocReply> AllocatePage(ClientId client) = 0;

  // Log space management (Section 3.6): force `pid` to disk.
  virtual Status ForcePage(ClientId client, PageId pid) = 0;

  // Orderly lock release (e.g. a client preparing to disconnect, which the
  // paper's introduction calls out as handled "in an orderly fashion"):
  // drops the listed cached locks from the GLM.
  virtual Status ReleaseLocks(ClientId client,
                              const std::vector<ObjectId>& objects,
                              const std::vector<PageId>& pages) = 0;

  // Baseline commit traffic (Section 4.1 comparisons).
  virtual Status CommitShipLogs(ClientId client, size_t log_bytes) = 0;
  virtual Status CommitShipPages(ClientId client,
                                 const std::vector<ShippedPage>& pages) = 0;

  // Update-token baseline (Section 3.1).
  virtual Result<TokenReply> AcquireToken(ClientId client, PageId pid) = 0;

  // Recovery protocol ---------------------------------------------------

  // Crashed-client restart (Section 3.3).
  virtual Result<DctSnapshot> RecGetMyDct(ClientId client) = 0;
  virtual Result<ClientRecoveryState> RecGetMyXLocks(ClientId client) = 0;
  virtual Result<PageFetchReply> RecFetchPage(ClientId client, PageId pid) = 0;
  // Client finished restart; the server resumes normal service for it.
  virtual Status RecComplete(ClientId client) = 0;

  // Complex crash: the GLM was lost with the server, so a restarting client
  // registers the exclusive locks it re-derived from its own log. Claims
  // that conflict with locks operational clients already re-registered are
  // rejected (they prove the crashed client's lock was called back before
  // the failure); the reply carries the accepted subset.
  virtual Result<ClientRecoveryState> RecInstallLocks(
      ClientId client, const std::vector<ObjectId>& objects,
      const std::vector<PageId>& pages) = 0;

  // Complex crash: merged CallBack_P list for (pid, client), collected from
  // the other clients' logs (Section 3.4). The restarting client uses it to
  // skip records for objects whose exclusive lock it had relinquished
  // before the crash.
  virtual Result<std::vector<CallbackListEntry>> RecGetCallbackList(
      ClientId client, PageId pid) = 0;

  // Parallel-recovery handshake (Section 3.4, step 3 of the client page
  // recovery procedure): give me P once it reflects `other`'s updates up to
  // `psn`.
  virtual Result<PageFetchReply> RecOrderedFetch(ClientId client, PageId pid,
                                                 ClientId other, Psn psn) = 0;

  // Liveness lease renewal (DESIGN.md section 14).
  virtual Status Heartbeat(ClientId client) = 0;
};

// The client-side endpoint (implemented by client::Client).
class ClientEndpoint {
 public:
  virtual ~ClientEndpoint() = default;

  struct CallbackReply {
    bool granted = false;
    // Page copy shipped with the response when the page carries unshipped
    // modifications ("C ... sends a copy of P to the server", Section 3.2).
    std::optional<ShippedPage> page;
    // PSN of the client's copy when it responded (recorded by the
    // requester's callback log record, Section 3.1).
    Psn psn_at_response;
    bool dropped_page = false;  // Client dropped P from its cache.
  };

  // Callback for an object lock held by this client. `requested` is the
  // mode the remote client wants: kExclusive => release, kShared =>
  // downgrade. Denied while a local transaction actively uses the object.
  virtual CallbackReply HandleObjectCallback(ObjectId oid,
                                             LockMode requested) = 0;

  struct DeescalateReply {
    bool granted = false;
    std::vector<std::pair<ObjectId, LockMode>> object_locks;
    std::optional<ShippedPage> page;
    Psn psn_at_response;
  };

  // Page-level de-escalation (Section 3.2, page-level conflict).
  virtual DeescalateReply HandleDeescalate(PageId pid) = 0;

  // Callback for a page lock held by this client (page-granularity policy).
  virtual CallbackReply HandlePageCallback(PageId pid, LockMode requested) = 0;

  // The server flushed `pid`; `flushed_psn` is the DCT PSN recorded for this
  // client at force time (Sections 3.2 and 3.6).
  virtual void HandleFlushNotify(PageId pid, Psn flushed_psn) = 0;

  // Update-token recall: ship the page back, releasing the token.
  virtual Result<ShippedPage> HandleTokenRecall(PageId pid) = 0;

  // ARIES/CSA-style synchronized server checkpoint (Section 4.1).
  virtual Status HandleCheckpointSync() = 0;

  // Server restart recovery (Section 3.4).
  virtual Result<ClientRecoveryState> HandleRecGetState() = 0;
  // `suppress` is the merged CallBack_P list for (pid, this client): slots a
  // successor demonstrably updated are excluded from the shipped overlay.
  virtual Result<ShippedPage> HandleRecFetchCachedPage(
      PageId pid, const std::vector<CallbackListEntry>& suppress) = 0;
  // Scan this client's log for callback records about objects on `pid` that
  // were called back from `crashed` (building a CallBack_P list).
  virtual Result<std::vector<CallbackListEntry>> HandleRecScanCallbacks(
      PageId pid, ClientId crashed) = 0;
  // Recover this client's updates on `pid`, applying records with PSN at
  // least `psn_limit`... up to `psn_limit` exclusive when bounded
  // (kNullPsn = unbounded). `callback_list` is the merged CallBack_P list,
  // `base` the server's copy with the DCT PSN installed.
  virtual Status HandleRecRecoverPage(
      PageId pid, const std::vector<CallbackListEntry>& callback_list,
      const std::string& base_image, Psn base_psn, Psn psn_limit) = 0;
};

}  // namespace finelog

#endif  // FINELOG_NET_ENDPOINTS_H_
