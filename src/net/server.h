#ifndef HDD_NET_SERVER_H_
#define HDD_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cc/controller.h"
#include "engine/executor.h"
#include "net/admission.h"
#include "net/epoll_loop.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "obs/metrics_registry.h"

namespace hdd {

class WalManager;

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; the bound port is available via port() after Start().
  std::uint16_t port = 0;
  int listen_backlog = 1024;
  /// Threads multiplexing socket IO (accept + read/decode + write). Each
  /// connection is EPOLLONESHOT, so any IO thread may service any
  /// connection, one at a time.
  int num_io_threads = 2;
  /// Threads executing admitted transaction programs.
  int num_workers = 4;

  /// Every admitted request is compiled and driven through RunProgram by a
  /// worker; there is no other backend. The enum and the field remain only
  /// because perfbench/served_bench.cc still sets them: delete that line
  /// with the next benchmark change, then this enum.
  enum class Backend { kPerTxn };
  Backend backend = Backend::kPerTxn;
  int max_retries = 10000;

  /// Number of update classes the server accepts (ids 0..num_classes-1);
  /// read-only traffic is always accepted as kReadOnlyClass.
  int num_classes = 1;
  AdmissionOptions admission;

  /// Backpressure bounds. A connection with this many admitted-but-
  /// unanswered requests stops being read (EPOLLIN not re-armed) until
  /// responses drain — pipelining deeper than this parks bytes in the
  /// kernel socket buffer, never in server memory.
  std::size_t per_connection_inflight_cap = 64;
  /// A connection whose pending response bytes exceed this also stops
  /// being read until the client drains its receive side.
  std::size_t outbox_pause_bytes = 1u << 20;

  /// TEST-ONLY: while the pointee is true, workers idle without popping,
  /// so a test can pile up an admitted backlog deterministically (on a
  /// one-core host, timing-based backlogs are unwinnable races) and
  /// observe admission decisions against it.
  std::shared_ptr<std::atomic<bool>> test_pause_workers;
};

/// The HDD network front end: a non-blocking epoll server speaking the
/// length-prefixed CRC-framed protocol of net/frame.h + net/protocol.h
/// behind per-class admission control. Each admitted request runs one
/// way: a worker pops the wire request, compiles it with ToTxnProgram and
/// drives it through RunProgram, the workload executor's core, against
/// the one controller it serves. A single node serves its HddController;
/// a shard of the sharded deployment serves its dist/DistSession, which
/// routes cross-shard reads and two-phases remotely owned writes behind
/// the same ConcurrencyController interface, so net/ stays independent
/// of dist/.
///
/// Durable serving parks the ack, not the worker. Each worker runs its
/// program inside a DeferredCommitWait scope (wal/wal_manager.h). Over a
/// controller whose database has a WAL attached, the commit installs,
/// draws its WAL ticket and returns, and the worker parks the response
/// and takes the next request; without a WAL no ticket is drawn and the
/// response goes out at once. One completion thread waits in the WAL's
/// group commit for the highest parked ticket and answers every parked
/// request the synced frontier has passed; if the sync fails (the WAL's
/// error is sticky) it answers them all as failed. A commit that is not
/// durable is never acked. On a shard only plain local commits (and
/// read-only ones) park: a 2PC commit waits for its sync in the
/// controller before its decision leaves, so it draws no parked ticket.
///
/// Metrics (all through the MetricsRegistry passed in):
///   counters   net_accepted, net_closed, net_frames,
///              net_protocol_errors, net_admitted, net_shed,
///              net_committed, net_failed,
///              net_class_<c>_{admitted,shed,committed} per class
///   gauges     net_connections, net_queue_depth,
///              net_class_<c>_inflight per class
///   histograms net_request_us (admission to response enqueue),
///              net_ack_wait_us (a parked response: park to answer)
class HddServer {
 public:
  /// `cc` and `metrics` are borrowed and must outlive the server. A WAL,
  /// if any, is attached to `cc`'s database before Start().
  HddServer(ConcurrencyController* cc, const ServerOptions& options,
            MetricsRegistry* metrics);
  ~HddServer();

  HddServer(const HddServer&) = delete;
  HddServer& operator=(const HddServer&) = delete;

  /// Binds, listens and spawns the IO + worker threads, and the
  /// completion thread when `cc`'s database has a WAL attached.
  Status Start();

  /// Graceful shutdown: stop accepting, refuse new admissions, drain
  /// already-admitted programs and flush their responses (parked ones
  /// included), then join all threads and close every connection.
  /// Idempotent.
  void Stop();

  std::uint16_t port() const { return port_; }
  std::uint64_t connection_count() const;

 private:
  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    std::mutex mu;
    FrameDecoder decoder;
    std::string outbox;       // encoded frames not yet written
    std::size_t outbox_off = 0;
    std::uint32_t inflight = 0;  // admitted, not yet answered
    bool closed = false;
  };
  using ConnPtr = std::shared_ptr<Connection>;

  /// One admitted request waiting for (or in) execution, in wire form:
  /// the worker compiles it.
  struct WorkItem {
    ConnPtr conn;
    ClassId cls = 0;  // admission class (kReadOnlyClass for read-only)
    SubmitRequest submit;
    std::chrono::steady_clock::time_point admitted_at;
  };

  /// An executed request whose response waits for its commit's WAL
  /// ticket to be synced.
  struct ParkedAck {
    WorkItem item;
    ProgramResult result;
    std::vector<Value> values;  // reads of the committed attempt
    std::uint64_t ticket = 0;
    std::chrono::steady_clock::time_point parked_at;
  };

  void IoThread();
  void WorkerThread();
  /// Answers parked responses as the WAL's synced frontier passes them.
  void CompletionThread();

  void HandleAccept();
  void HandleConnEvent(std::uint64_t id, std::uint32_t events);
  /// Reads + decodes under conn->mu; returns false if the connection died.
  bool DrainReadable(const ConnPtr& conn);
  void HandleFrame(const ConnPtr& conn, std::string_view payload);
  /// Appends an encoded response frame and tries to flush. Caller holds
  /// conn->mu.
  void EnqueueResponseLocked(Connection& conn, const ResponseMsg& msg);
  /// write()s as much of the outbox as the socket takes. Caller holds
  /// conn->mu. Returns false on fatal socket error.
  bool FlushOutboxLocked(Connection& conn);
  /// Recomputes the EPOLLONESHOT mask from inflight/outbox state and
  /// re-arms. Caller holds conn->mu.
  void RearmLocked(Connection& conn);
  void CloseConn(const ConnPtr& conn);
  void Respond(const ConnPtr& conn, const ResponseMsg& msg);

  /// Answers an executed request, at once or once its ticket is synced.
  void FinishItem(const WorkItem& item, const ProgramResult& result,
                  std::vector<Value> values);
  /// Ends an item's execution (it no longer holds Stop()'s drain).
  void ItemDone(std::uint64_t count);

  bool PopItemLocked(WorkItem* item);
  std::size_t QueueIndex(ClassId cls) const;

  ConcurrencyController* cc_;
  ServerOptions options_;
  MetricsRegistry* metrics_;
  AdmissionController admission_;

  EpollLoop loop_;
  // Atomic: Stop() retires it while IO threads may be mid-accept.
  std::atomic<int> listen_fd_{-1};
  std::uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> io_stop_{false};
  std::atomic<bool> workers_stop_{false};

  mutable std::mutex conns_mu_;
  std::unordered_map<std::uint64_t, ConnPtr> conns_;
  std::uint64_t next_conn_id_ = 1;

  // Per-class work queues (update classes 0..n-1, read-only last) with
  // deficit-round-robin service weighted by the class policy weights.
  std::mutex dispatch_mu_;
  std::condition_variable dispatch_cv_;
  std::vector<std::deque<WorkItem>> queues_;
  std::vector<std::uint32_t> deficits_;
  std::size_t drr_cursor_ = 0;
  std::size_t queued_ = 0;
  // Popped and not yet answered; parked responses count until answered.
  std::uint64_t executing_ = 0;

  // Parked responses (see the class comment). Start() sets wal_ when the
  // database has a WAL; the completion thread runs exactly then.
  WalManager* wal_ = nullptr;
  std::mutex park_mu_;
  std::condition_variable park_cv_;
  std::vector<ParkedAck> parked_;
  bool completion_stop_ = false;

  std::vector<std::thread> io_threads_;
  std::vector<std::thread> worker_threads_;
  std::thread completion_thread_;

  // Flat metric handles (per-class handles live in admission_).
  Counter* m_accepted_ = nullptr;
  Counter* m_closed_ = nullptr;
  Counter* m_frames_ = nullptr;
  Counter* m_protocol_errors_ = nullptr;
  Counter* m_admitted_ = nullptr;
  Counter* m_shed_ = nullptr;
  Counter* m_committed_ = nullptr;
  Counter* m_failed_ = nullptr;
  Gauge* m_connections_ = nullptr;
  Gauge* m_queue_depth_ = nullptr;
  Histogram* m_request_us_ = nullptr;
  Histogram* m_ack_wait_us_ = nullptr;
  std::vector<Counter*> m_class_committed_;
};

}  // namespace hdd

#endif  // HDD_NET_SERVER_H_
