// Minimal SunRPC-style request/reply layer over any MsgStream, with
// pipelining on both ends.
//
// Call frame:   u32 xid | u32 type(0) | u32 prog | u32 proc | opaque args
// Reply frame:  u32 xid | u32 type(1) | u32 accept_status | opaque result
// accept_status 0 = success (result = procedure output), non-zero = error
// (result = UTF-8 error message; the status code is a StatusCode).
//
// Client side: RpcClient matches replies to calls by xid, so any number of
// calls can be in flight on one stream (CallAsync); the blocking Call is a
// one-deep special case. Demux runs either on a dedicated thread per client
// (the default, and the only option for fd-less streams) or — when an
// EventLoop is supplied — as a readability callback on a shared poller, so
// a proxy holding thousands of upstream connections needs one thread, not
// thousands.
//
// Server side: RpcConnection serves a stream entirely from an EventLoop:
// decode on readability, execute on a shared WorkerPool, and reply through
// a bounded per-connection send queue drained by a single writer, with an
// optional global admission bound that busy-rejects when the pool backs up.
// RpcDispatcher::ServeConnection is the inline, one-request-at-a-time
// server for fd-less streams.
#ifndef DISCFS_SRC_RPC_RPC_H_
#define DISCFS_SRC_RPC_RPC_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/crypto/dsa.h"
#include "src/net/event_loop.h"
#include "src/net/transport.h"
#include "src/obs/recorder.h"
#include "src/obs/trace.h"
#include "src/util/status.h"
#include "src/util/worker_pool.h"

namespace discfs {

// Context passed to server handlers; carries the authenticated peer identity
// when the stream is a SecureChannel.
struct RpcContext {
  // Empty when the transport is unauthenticated (the CFS-NE baseline).
  std::optional<DsaPublicKey> peer_key;
  // Trace id from the call frame's optional trailer (0 = untraced). The
  // runtime also installs it as the thread's obs::TraceScope around handler
  // execution, so deep call paths can read obs::CurrentTraceId().
  uint64_t trace_id = 0;
};

class RpcClient {
 public:
  // Takes ownership of the stream (plain transport or secure channel).
  // With `loop` null (or a stream that has no pollable fd), replies are
  // demuxed on a dedicated receive thread. With a loop and a pollable
  // stream, the client registers on the shared poller instead — N clients,
  // one thread.
  explicit RpcClient(std::unique_ptr<MsgStream> stream,
                     EventLoop* loop = nullptr);
  ~RpcClient();

  RpcClient(const RpcClient&) = delete;
  RpcClient& operator=(const RpcClient&) = delete;

  // Blocking call; returns the procedure result or the server-side error.
  // Concurrent callers pipeline on the shared connection.
  Result<Bytes> Call(uint32_t prog, uint32_t proc, const Bytes& args);

  // Starts a call and returns immediately; the future resolves when the
  // matching reply arrives (or with the connection error if the stream
  // breaks or Close is called first — in-flight calls fail fast, they
  // never hang).
  std::future<Result<Bytes>> CallAsync(uint32_t prog, uint32_t proc,
                                       const Bytes& args);

  // Deadline-aware calls: the pending promise fails with
  // kDeadlineExceeded when no reply arrives within `deadline_ms`, so a
  // stalled server cannot hang the caller. The budget also rides the call
  // frame's version-2 trailer, letting the server drop the work at
  // dequeue once it is already dead instead of executing it.
  // deadline_ms == 0 means no deadline (the plain CallAsync behavior).
  std::future<Result<Bytes>> CallAsyncWithDeadline(uint32_t prog,
                                                   uint32_t proc,
                                                   const Bytes& args,
                                                   uint32_t deadline_ms);
  Result<Bytes> CallWithDeadline(uint32_t prog, uint32_t proc,
                                 const Bytes& args, uint32_t deadline_ms);

  // Default budget applied to every Call/CallAsync that does not name its
  // own deadline. 0 (the default) keeps the historical block-forever
  // behavior.
  void set_default_deadline_ms(uint32_t ms) {
    default_deadline_ms_.store(ms, std::memory_order_relaxed);
  }

  // Fails all in-flight calls, makes future calls fail immediately, and
  // tears down the stream. Safe to call from any thread, including while
  // calls are blocked.
  void Close();

  // Calls awaiting a reply right now (diagnostics).
  size_t inflight() const;

 private:
  void DemuxLoop();
  // Fails pending calls whose deadline passed with kDeadlineExceeded.
  // Lazily started by the first deadline-carrying call.
  void DeadlineLoop();
  void ArmDeadline(uint32_t xid, uint32_t deadline_ms);
  // Drains TryRecv on the event loop until the socket is empty or broken.
  void OnReadable();
  // Resolves one reply frame against the pending table. Returns false when
  // the frame is malformed (the stream can no longer be trusted).
  bool ProcessReply(const Bytes& frame);
  // Marks the connection broken (first status wins) and fails every
  // pending call with it.
  void FailAllPending(const Status& status);

  std::unique_ptr<MsgStream> stream_;
  std::mutex send_mu_;  // serializes call frames onto the stream

  mutable std::mutex pending_mu_;
  uint32_t next_xid_ = 1;  // guarded by pending_mu_
  std::unordered_map<uint32_t, std::promise<Result<Bytes>>> pending_;
  bool broken_ = false;   // guarded by pending_mu_
  Status broken_status_;  // guarded by pending_mu_

  // Exactly one demux mechanism is active: loop_fd_ >= 0 means the client
  // is registered on loop_; otherwise demux_thread_ runs DemuxLoop.
  EventLoop* loop_ = nullptr;
  int loop_fd_ = -1;
  std::thread demux_thread_;

  // Deadline reaper: earliest-first queue of (expiry, xid). Entries for
  // calls that already completed fire as no-ops (pending_ probe misses).
  std::atomic<uint32_t> default_deadline_ms_{0};
  std::mutex deadline_mu_;
  std::condition_variable deadline_cv_;
  std::multimap<std::chrono::steady_clock::time_point, uint32_t> deadlines_;
  bool deadline_stop_ = false;     // guarded by deadline_mu_
  std::thread deadline_thread_;    // guarded by deadline_mu_ (lazy start)
};

// RPC call frames may carry an optional trailer after the opaque args:
//   u32 kRpcTraceMagic | u32 version | u64 trace_id [| u32 deadline_ms]
// Version 1 carries the trace id only; version 2 appends the caller's
// remaining deadline budget in milliseconds (relative, so clocks need not
// be synchronized; 0 = no deadline). Peers that predate the trailer parse
// the frame unchanged and never look past the args, and version-1 parsers
// accept any version >= 1 and simply stop after the trace id, so both
// extensions are backward compatible (see src/rpc/README.md).
inline constexpr uint32_t kRpcTraceMagic = 0x44545243;  // "DTRC"
inline constexpr uint32_t kRpcTraceVersion = 1;
inline constexpr uint32_t kRpcDeadlineVersion = 2;

// Priority classes for policy-aware shedding, highest first. Under
// overload the server sheds kData first (cheap to retry, no durable
// effect), then kNamespace, and only rejects kControl at the hard
// admission limit — a revocation the server could have applied is never
// the first thing dropped.
enum class RpcPriority : uint8_t {
  kControl = 0,    // credential submits/revocations, cluster pushes, stats
  kNamespace = 1,  // lookup/create/rename-class operations (the default)
  kData = 2,       // reads/writes/getattr and other data-plane traffic
};
inline constexpr size_t kRpcPriorityCount = 3;

class RpcDispatcher {
 public:
  using Handler =
      std::function<Result<Bytes>(const Bytes& args, const RpcContext& ctx)>;

  void Register(uint32_t prog, uint32_t proc, Handler handler);

  // Priority used by RpcConnection's watermark shedding. Like Register,
  // call during server setup: the map is read without a lock once serving
  // starts. Unregistered procedures default to kNamespace (the middle
  // tier), so unknown work is neither privileged nor the first shed.
  void SetPriority(uint32_t prog, uint32_t proc, RpcPriority priority);
  RpcPriority PriorityOf(uint32_t prog, uint32_t proc) const;

  // Serves one request from the stream (recv, dispatch, reply). Returns
  // UNAVAILABLE when the peer disconnects.
  Status ServeOne(MsgStream& stream, const RpcContext& ctx) const;

  // Serves until the peer disconnects, one request at a time on the
  // calling thread. The only server for streams without a pollable fd
  // (in-process test pairs); everything else is served by RpcConnection.
  void ServeConnection(MsgStream& stream, const RpcContext& ctx) const;

  // Dispatches one decoded request (shared with RpcConnection).
  Result<Bytes> Dispatch(uint32_t prog, uint32_t proc, const Bytes& args,
                         const RpcContext& ctx) const;

 private:
  std::map<std::pair<uint32_t, uint32_t>, Handler> handlers_;
  std::map<std::pair<uint32_t, uint32_t>, RpcPriority> priorities_;
};

// One event-driven server connection. Requests are decoded on the loop as
// the socket becomes readable and executed on the shared WorkerPool;
// replies go through a bounded per-connection send queue drained by a
// single writer — whichever thread holds the writer token. On an idle wire
// that is the worker that finished the request (seal + gathered
// non-blocking send, zero thread hops); once the kernel buffer fills the
// workers hand off and the loop's EPOLLOUT event resumes the drain, so no
// thread ever parks inside a send. When the queue is full the executing
// worker blocks (backpressure), which holds its in-flight slot and in turn
// pauses reading from this connection.
class RpcConnection : public std::enable_shared_from_this<RpcConnection> {
 public:
  struct Options {
    EventLoop* loop = nullptr;  // required
    WorkerPool* pool = nullptr;  // required
    // Per-connection bound on requests executing or awaiting reply.
    size_t max_inflight = 64;
    // Per-connection bound on replies queued for the writer.
    size_t send_queue_limit = 128;
    // Global admission bound: when the shared pool's queue depth reaches
    // this, new requests are rejected with RESOURCE_EXHAUSTED instead of
    // queued, so connection fan-in cannot blow tail latency. 0 = off.
    // With the watermarks below unset this is a binary bound on every
    // request; with them set it becomes the hard limit that even
    // kControl work sheds at.
    size_t admission_queue_limit = 0;
    // Watermark tiers for policy-aware shedding. A non-zero watermark
    // busy-rejects requests of that priority class (and every class
    // below it) once the shared pool's queue depth reaches it, so under
    // pressure data reads shed first, then namespace operations, and
    // control-plane work (submits, revocations) only at the hard
    // admission_queue_limit. Both 0 = tiering off (binary behavior).
    size_t shed_data_watermark = 0;
    size_t shed_namespace_watermark = 0;
    // Flight recorder: when set (and its registry is enabled), the
    // connection stamps each call at five points and reports span timings
    // plus queue depths per (prog, proc). Null = no timing overhead.
    obs::RpcRecorder* recorder = nullptr;
  };
  // Invoked once, on whichever thread finishes the connection (the loop
  // for peer-initiated close, the Abort caller otherwise). The connection
  // is fully quiesced: deregistered and accepting no new work.
  using ClosedFn = std::function<void(RpcConnection*)>;

  // Registers the stream on options.loop and starts serving. Fails when
  // the stream has no pollable fd. The dispatcher must outlive the
  // connection; the stream is shared with in-flight worker tasks.
  static Result<std::shared_ptr<RpcConnection>> Start(
      const RpcDispatcher* dispatcher, std::shared_ptr<MsgStream> stream,
      RpcContext ctx, const Options& options, ClosedFn on_closed = nullptr);

  ~RpcConnection();

  RpcConnection(const RpcConnection&) = delete;
  RpcConnection& operator=(const RpcConnection&) = delete;

  // Force-closes from any thread: drops queued replies, unblocks workers,
  // deregisters from the loop. In-flight handlers finish on the pool but
  // their replies are discarded. Idempotent.
  void Abort();

  bool closed() const;

  // --- stats (tests and load introspection) ---
  // Highest send-queue depth observed (≤ send_queue_limit unless busy
  // rejects, which bypass the bound so they can never deadlock the loop).
  size_t send_queue_peak() const;
  // Requests rejected by the admission bound or a shed watermark (total).
  uint64_t busy_rejected() const;
  // Busy rejects broken down by the rejected request's priority class.
  uint64_t shed_by_priority(RpcPriority priority) const;
  // Requests dropped at dequeue because their deadline had already
  // expired (answered kDeadlineExceeded without executing the handler).
  uint64_t expired_dropped() const;

 private:
  RpcConnection(const RpcDispatcher* dispatcher,
                std::shared_ptr<MsgStream> stream, RpcContext ctx,
                const Options& options, ClosedFn on_closed);

  void OnEvent(uint32_t events);      // loop thread
  void PumpReads();                   // loop thread
  void Drain();                       // loop thread (EPOLLOUT entry)
  // Pool-queue-depth ceiling that admits a request of this priority
  // (smallest applicable watermark, falling back to the hard limit);
  // 0 = unbounded.
  size_t AdmissionLimitFor(RpcPriority priority) const;
  void ExecuteOnPool(uint32_t xid, uint32_t prog, uint32_t proc, Bytes args,
                     uint64_t trace_id, uint64_t expires_at_ns,
                     obs::CallTimestamps ts, size_t pool_queue_depth);
  // Returns the send-queue depth right after this reply was appended
  // (0 when the connection closed and the reply was dropped).
  size_t EnqueueReply(Bytes frame);   // worker thread; blocks when full
  // Appends a reply and drains inline when the writer token is free.
  void PushReplyAndDrainLocked(Bytes frame,
                               std::unique_lock<std::mutex>& lock);
  // Sends queued replies until empty or EAGAIN. Requires draining_ (the
  // writer token) held by this thread; releases it before returning.
  void DrainQueueLocked(std::unique_lock<std::mutex>& lock);
  void UpdateInterestLocked();        // any thread, mu_ held
  // True when paused reads should restart: below the in-flight low-water
  // mark (hysteresis) and with room in the send queue.
  bool ShouldResumeReadsLocked() const;
  // Clears the pause and posts an interest-update + read pump to the loop.
  void ResumeReadsLocked();
  void MaybeFinishLocked();
  void FinishClose();                 // loop thread
  void InvokeClosed();

  const RpcDispatcher* dispatcher_;
  std::shared_ptr<MsgStream> stream_;
  RpcContext ctx_;
  Options opts_;
  int fd_ = -1;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Bytes> send_queue_;
  ClosedFn on_closed_;         // consumed by whichever side closes first
  size_t inflight_ = 0;        // executing or awaiting reply enqueue
  size_t queue_peak_ = 0;
  bool read_open_ = true;      // still accepting new requests
  bool read_paused_ = false;   // paused by the in-flight bound
  bool applied_read_ = true;   // interest set last pushed to epoll
  bool applied_write_ = false;
  bool want_write_ = false;    // EPOLLOUT armed (kernel buffer full)
  bool flush_pending_ = false; // transport holds buffered output
  bool draining_ = false;      // writer token: exactly one thread sends
  bool finish_scheduled_ = false;
  bool send_broken_ = false;   // write side failed; replies are discarded
  bool closed_ = false;
  std::atomic<uint64_t> busy_rejected_{0};
  std::atomic<uint64_t> shed_by_priority_[kRpcPriorityCount] = {};
  std::atomic<uint64_t> expired_dropped_{0};
};

}  // namespace discfs

#endif  // DISCFS_SRC_RPC_RPC_H_
