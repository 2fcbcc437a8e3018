#include "net/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <utility>

#include "engine/executor.h"
#include "wal/wal_manager.h"

namespace hdd {

namespace {

// Listener sentinel in epoll event data; connection ids start at 1 and
// EpollLoop::kWakeData is ~0, so neither collides.
constexpr std::uint64_t kListenData = ~std::uint64_t{0} - 1;

// Cap on read() calls per connection event so one firehose connection
// cannot starve the rest of an IO thread's event batch; level-triggered
// epoll re-delivers whatever is left.
constexpr int kMaxReadsPerEvent = 16;

}  // namespace

HddServer::HddServer(ConcurrencyController* cc, const ServerOptions& options,
                     MetricsRegistry* metrics)
    : cc_(cc),
      options_(options),
      metrics_(metrics),
      admission_(options.admission, options.num_classes, metrics) {
  queues_.resize(static_cast<std::size_t>(options_.num_classes) + 1);
  deficits_.assign(queues_.size(), 0);
  m_accepted_ = &metrics_->GetCounter("net_accepted");
  m_closed_ = &metrics_->GetCounter("net_closed");
  m_frames_ = &metrics_->GetCounter("net_frames");
  m_protocol_errors_ = &metrics_->GetCounter("net_protocol_errors");
  m_admitted_ = &metrics_->GetCounter("net_admitted");
  m_shed_ = &metrics_->GetCounter("net_shed");
  m_committed_ = &metrics_->GetCounter("net_committed");
  m_failed_ = &metrics_->GetCounter("net_failed");
  m_connections_ = &metrics_->GetGauge("net_connections");
  m_queue_depth_ = &metrics_->GetGauge("net_queue_depth");
  m_request_us_ = &metrics_->GetHistogram("net_request_us");
  m_ack_wait_us_ = &metrics_->GetHistogram("net_ack_wait_us");
  m_class_committed_.resize(queues_.size());
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    const std::string label =
        i + 1 == queues_.size() ? std::string("ro") : "c" + std::to_string(i);
    m_class_committed_[i] =
        &metrics_->GetCounter("net_class_" + label + "_committed");
  }
}

HddServer::~HddServer() { Stop(); }

Status HddServer::Start() {
  if (!loop_.ok()) return Status::IoError("epoll/eventfd setup failed");
  const int lfd =
      socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (lfd < 0) return Status::IoError("socket() failed");
  const int one = 1;
  setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    close(lfd);
    return Status::InvalidArgument("bad bind address: " +
                                   options_.bind_address);
  }
  if (bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(lfd, options_.listen_backlog) != 0) {
    close(lfd);
    return Status::IoError(std::string("bind/listen: ") +
                           std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  Status status = loop_.AddPersistent(lfd, EPOLLIN, kListenData);
  if (!status.ok()) {
    close(lfd);
    return status;
  }
  listen_fd_.store(lfd, std::memory_order_release);
  started_.store(true, std::memory_order_release);
  for (int i = 0; i < options_.num_io_threads; ++i) {
    io_threads_.emplace_back([this] { IoThread(); });
  }
  wal_ = cc_->db().wal();
  if (wal_ != nullptr) {
    completion_thread_ = std::thread([this] { CompletionThread(); });
  }
  for (int i = 0; i < options_.num_workers; ++i) {
    worker_threads_.emplace_back([this] { WorkerThread(); });
  }
  return Status::OK();
}

void HddServer::Stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;

  // 1. Stop the intake: no new connections, no new admissions. IO threads
  //    stay up so in-flight responses still reach their sockets.
  const int lfd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (lfd >= 0) {
    (void)loop_.Remove(lfd);
    close(lfd);
  }
  admission_.Close();

  // 2. Drain everything already admitted.
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(dispatch_mu_);
      if (queued_ == 0 && executing_ == 0) break;
    }
    dispatch_cv_.notify_all();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // 3. Give pending outboxes a moment to flush through the IO threads.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  for (;;) {
    bool pending = false;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (const auto& [id, conn] : conns_) {
        std::lock_guard<std::mutex> conn_lock(conn->mu);
        if (!conn->closed && conn->outbox.size() > conn->outbox_off) {
          pending = true;
          break;
        }
      }
    }
    if (!pending || std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // 4. Tear the thread pools down.
  {
    std::lock_guard<std::mutex> lock(dispatch_mu_);
    workers_stop_ = true;
  }
  dispatch_cv_.notify_all();
  for (std::thread& t : worker_threads_) t.join();
  worker_threads_.clear();
  if (completion_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(park_mu_);
      completion_stop_ = true;
    }
    park_cv_.notify_all();
    completion_thread_.join();
  }
  io_stop_.store(true, std::memory_order_release);
  loop_.Wakeup();
  for (std::thread& t : io_threads_) t.join();
  io_threads_.clear();

  // 5. Close whatever connections remain.
  std::vector<ConnPtr> leftover;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    leftover.reserve(conns_.size());
    for (const auto& [id, conn] : conns_) leftover.push_back(conn);
  }
  for (const ConnPtr& conn : leftover) CloseConn(conn);
  started_.store(false, std::memory_order_release);
}

std::uint64_t HddServer::connection_count() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  return conns_.size();
}

void HddServer::IoThread() {
  std::vector<EpollLoop::Event> events;
  while (!io_stop_.load(std::memory_order_acquire)) {
    events.clear();
    loop_.Wait(&events, 100);
    for (const EpollLoop::Event& ev : events) {
      if (ev.data == EpollLoop::kWakeData) continue;
      if (ev.data == kListenData) {
        HandleAccept();
        continue;
      }
      HandleConnEvent(ev.data, ev.events);
    }
  }
}

void HddServer::HandleAccept() {
  const int lfd = listen_fd_.load(std::memory_order_acquire);
  if (lfd < 0) return;  // Stop() already retired the listener
  for (;;) {
    const int fd =
        accept4(lfd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN (another IO thread won the race) or error
    if (stopping_.load(std::memory_order_relaxed)) {
      close(fd);
      continue;
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conn->id = next_conn_id_++;
      conns_.emplace(conn->id, conn);
    }
    if (!loop_.AddOneshot(fd, EPOLLIN | EPOLLRDHUP, conn->id).ok()) {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.erase(conn->id);
      close(fd);
      continue;
    }
    m_accepted_->Add();
    m_connections_->Add();
  }
}

void HddServer::HandleConnEvent(std::uint64_t id, std::uint32_t events) {
  ConnPtr conn;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    conn = it->second;
  }
  bool dead = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed) return;
    if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
      dead = true;
    } else {
      if ((events & EPOLLOUT) != 0) dead = !FlushOutboxLocked(*conn);
      if (!dead && (events & (EPOLLIN | EPOLLRDHUP)) != 0) {
        dead = !DrainReadable(conn);
      }
      if (!dead) RearmLocked(*conn);
    }
  }
  if (dead) CloseConn(conn);
}

bool HddServer::DrainReadable(const ConnPtr& conn) {
  Connection& c = *conn;
  char buf[16384];
  for (int i = 0; i < kMaxReadsPerEvent; ++i) {
    // Backpressure: at the inflight or outbox bound we simply stop
    // reading; unread bytes stay in the kernel socket buffer and TCP flow
    // control pushes back to the client. Never buffered server-side.
    if (c.inflight >= options_.per_connection_inflight_cap ||
        c.outbox.size() - c.outbox_off >= options_.outbox_pause_bytes) {
      return true;
    }
    const ssize_t n = read(c.fd, buf, sizeof(buf));
    if (n == 0) return false;  // orderly EOF
    if (n < 0) {
      if (errno == EINTR) continue;
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
    c.decoder.Feed(std::string_view(buf, static_cast<std::size_t>(n)));
    std::string payload;
    while (c.inflight < options_.per_connection_inflight_cap &&
           c.outbox.size() - c.outbox_off < options_.outbox_pause_bytes) {
      const FrameDecoder::Next next = c.decoder.Poll(&payload);
      if (next == FrameDecoder::Next::kNeedMore) break;
      if (next == FrameDecoder::Next::kCorrupt) {
        m_protocol_errors_->Add();
        return false;
      }
      HandleFrame(conn, payload);
      if (c.closed) return false;
    }
    if (n < static_cast<ssize_t>(sizeof(buf))) return true;
  }
  return true;
}

void HddServer::HandleFrame(const ConnPtr& conn, std::string_view payload) {
  m_frames_->Add();
  Result<RequestMsg> decoded = DecodeRequest(payload);
  if (!decoded.ok()) {
    m_protocol_errors_->Add();
    ResponseMsg msg;
    msg.type = NetMsgType::kError;
    msg.error = decoded.status().message();
    EnqueueResponseLocked(*conn, msg);
    return;
  }
  RequestMsg& req = *decoded;
  if (req.type == NetMsgType::kPing) {
    ResponseMsg msg;
    msg.type = NetMsgType::kPong;
    msg.request_id = req.request_id;
    EnqueueResponseLocked(*conn, msg);
    return;
  }
  SubmitRequest& submit = req.submit;
  if (!submit.read_only && !admission_.KnowsClass(submit.txn_class)) {
    ResponseMsg msg;
    msg.type = NetMsgType::kError;
    msg.request_id = submit.request_id;
    msg.error = "unknown transaction class";
    EnqueueResponseLocked(*conn, msg);
    return;
  }
  const ClassId cls = submit.read_only ? kReadOnlyClass : submit.txn_class;
  const AdmitDecision decision = admission_.TryAdmit(cls);
  if (!decision.admitted) {
    m_shed_->Add();
    ResponseMsg msg;
    msg.type = NetMsgType::kOverload;
    msg.request_id = submit.request_id;
    msg.retry_after_ms = decision.retry_after_ms;
    EnqueueResponseLocked(*conn, msg);
    return;
  }
  m_admitted_->Add();
  ++conn->inflight;
  WorkItem item;
  item.conn = conn;
  item.cls = cls;
  item.submit = std::move(submit);
  item.admitted_at = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(dispatch_mu_);
    queues_[QueueIndex(cls)].push_back(std::move(item));
    ++queued_;
  }
  m_queue_depth_->Add();
  dispatch_cv_.notify_one();
}

void HddServer::EnqueueResponseLocked(Connection& conn,
                                      const ResponseMsg& msg) {
  if (conn.closed) return;
  AppendNetFrame(&conn.outbox, EncodeResponse(msg));
  if (!FlushOutboxLocked(conn)) conn.closed = true;  // caller notices
}

bool HddServer::FlushOutboxLocked(Connection& conn) {
  while (conn.outbox_off < conn.outbox.size()) {
    const ssize_t n = write(conn.fd, conn.outbox.data() + conn.outbox_off,
                            conn.outbox.size() - conn.outbox_off);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      return false;
    }
    conn.outbox_off += static_cast<std::size_t>(n);
  }
  conn.outbox.clear();
  conn.outbox_off = 0;
  return true;
}

void HddServer::RearmLocked(Connection& conn) {
  if (conn.closed) return;
  std::uint32_t events = EPOLLRDHUP;
  if (conn.outbox.size() > conn.outbox_off) events |= EPOLLOUT;
  const bool paused =
      conn.inflight >= options_.per_connection_inflight_cap ||
      conn.outbox.size() - conn.outbox_off >= options_.outbox_pause_bytes;
  if (!paused) events |= EPOLLIN;
  (void)loop_.Rearm(conn.fd, events, conn.id);
}

void HddServer::CloseConn(const ConnPtr& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->closed && conn->fd < 0) return;
    conn->closed = true;
    if (conn->fd >= 0) {
      (void)loop_.Remove(conn->fd);
      close(conn->fd);
      conn->fd = -1;
    }
  }
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.erase(conn->id);
  }
  m_closed_->Add();
  m_connections_->Sub();
}

void HddServer::Respond(const ConnPtr& conn, const ResponseMsg& msg) {
  bool dead = false;
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    if (conn->inflight > 0) --conn->inflight;
    if (conn->closed) return;
    EnqueueResponseLocked(*conn, msg);
    dead = conn->closed;
    if (!dead) {
      // The inflight drop may unpause reads; also resume any complete
      // frames parked in the decoder while we were at the cap (epoll
      // cannot re-notify for bytes already read into userspace).
      std::string payload;
      while (conn->inflight < options_.per_connection_inflight_cap &&
             conn->outbox.size() - conn->outbox_off <
                 options_.outbox_pause_bytes) {
        const FrameDecoder::Next next = conn->decoder.Poll(&payload);
        if (next == FrameDecoder::Next::kNeedMore) break;
        if (next == FrameDecoder::Next::kCorrupt) {
          m_protocol_errors_->Add();
          dead = true;
          break;
        }
        HandleFrame(conn, payload);
        if (conn->closed) {
          dead = true;
          break;
        }
      }
    }
    if (!dead) RearmLocked(*conn);
  }
  if (dead) CloseConn(conn);
}

void HddServer::FinishItem(const WorkItem& item, const ProgramResult& result,
                           std::vector<Value> values) {
  admission_.Finish(item.cls);
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - item.admitted_at)
                           .count();
  m_request_us_->Record(static_cast<std::uint64_t>(elapsed));
  if (result.committed) {
    m_committed_->Add();
    m_class_committed_[QueueIndex(item.cls)]->Add();
  } else {
    m_failed_->Add();
  }
  ResponseMsg msg;
  msg.type = NetMsgType::kResult;
  msg.request_id = item.submit.request_id;
  msg.committed = result.committed;
  msg.aborted_attempts =
      static_cast<std::uint32_t>(result.aborted_attempts);
  msg.values = std::move(values);
  Respond(item.conn, msg);
}

std::size_t HddServer::QueueIndex(ClassId cls) const {
  return cls == kReadOnlyClass ? queues_.size() - 1
                               : static_cast<std::size_t>(cls);
}

bool HddServer::PopItemLocked(WorkItem* item) {
  // Deficit round robin weighted by the class policy weights: a backlogged
  // class gets `weight` consecutive pops before the cursor moves on, so
  // service share under contention tracks the configured ratios.
  const std::size_t n = queues_.size();
  for (std::size_t scanned = 0; scanned < 2 * n; ++scanned) {
    std::deque<WorkItem>& q = queues_[drr_cursor_];
    if (q.empty()) {
      deficits_[drr_cursor_] = 0;
      drr_cursor_ = (drr_cursor_ + 1) % n;
      continue;
    }
    if (deficits_[drr_cursor_] == 0) {
      const ClassId cls = drr_cursor_ + 1 == n
                              ? kReadOnlyClass
                              : static_cast<ClassId>(drr_cursor_);
      deficits_[drr_cursor_] = std::max<std::uint32_t>(
          1, admission_.weight(cls));
    }
    *item = std::move(q.front());
    q.pop_front();
    if (--deficits_[drr_cursor_] == 0) drr_cursor_ = (drr_cursor_ + 1) % n;
    return true;
  }
  return false;
}

void HddServer::WorkerThread() {
  for (;;) {
    WorkItem item;
    if (options_.test_pause_workers &&
        options_.test_pause_workers->load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      {
        std::lock_guard<std::mutex> lock(dispatch_mu_);
        if (workers_stop_ && queued_ == 0) return;
      }
      continue;
    }
    {
      std::unique_lock<std::mutex> lock(dispatch_mu_);
      dispatch_cv_.wait(lock, [this] { return queued_ > 0 || workers_stop_; });
      if (queued_ == 0) {
        if (workers_stop_) return;
        continue;
      }
      if (!PopItemLocked(&item)) continue;
      --queued_;
      ++executing_;
    }
    m_queue_depth_->Sub();
    ProgramResult result;
    std::vector<Value> values;
    std::uint64_t ticket = 0;
    {
      // A commit parks a nonzero ticket here only when a WAL is attached.
      DeferredCommitWait deferred;
      result = RunProgram(*cc_, ToTxnProgram(item.submit, &values),
                          options_.max_retries);
      ticket = deferred.ticket();
    }
    if (ticket == 0) {
      FinishItem(item, result, std::move(values));
      ItemDone(1);
      continue;
    }
    // Committed, not yet durable: the completion thread answers it.
    {
      std::lock_guard<std::mutex> lock(park_mu_);
      parked_.push_back(ParkedAck{std::move(item), result, std::move(values),
                                  ticket, std::chrono::steady_clock::now()});
    }
    park_cv_.notify_one();
  }
}

void HddServer::ItemDone(std::uint64_t count) {
  {
    std::lock_guard<std::mutex> lock(dispatch_mu_);
    executing_ -= count;
  }
  dispatch_cv_.notify_all();  // Stop() polls queued_/executing_
}

void HddServer::CompletionThread() {
  std::vector<ParkedAck> answer;
  for (;;) {
    std::uint64_t target = 0;
    {
      std::unique_lock<std::mutex> lock(park_mu_);
      park_cv_.wait(lock,
                    [this] { return !parked_.empty() || completion_stop_; });
      // Stop() joins the workers and drains executing_ first, so a stop
      // request never finds a parked response left to answer.
      if (parked_.empty()) return;
      for (const ParkedAck& p : parked_) target = std::max(target, p.ticket);
    }
    // The group commit sets the batching, pause and fan-out rule
    // included: this thread is one more waiter in the same gate. On a
    // single node it is the only one, so it pauses in no round but the
    // first.
    const Status synced = wal_->AwaitParked(target);
    const std::uint64_t stable = wal_->StableTicket();
    {
      std::lock_guard<std::mutex> lock(park_mu_);
      auto ready = std::partition(
          parked_.begin(), parked_.end(), [&](const ParkedAck& p) {
            return synced.ok() && p.ticket > stable;
          });
      std::move(ready, parked_.end(), std::back_inserter(answer));
      parked_.erase(ready, parked_.end());
    }
    const auto now = std::chrono::steady_clock::now();
    for (ParkedAck& p : answer) {
      m_ack_wait_us_->Record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(now -
                                                                p.parked_at)
              .count()));
      // Installed but not durable: never acked as committed.
      if (!synced.ok()) p.result.committed = false;
      FinishItem(p.item, p.result, std::move(p.values));
    }
    ItemDone(answer.size());
    answer.clear();
  }
}

}  // namespace hdd
