#ifndef HDD_DIST_REMOTE_CLOCK_H_
#define HDD_DIST_REMOTE_CLOCK_H_

#include <atomic>
#include <mutex>

#include "common/clock.h"
#include "common/status.h"
#include "dist/transport.h"

namespace hdd {

/// LogicalClock backed by the cluster's clock service (the node hosting
/// the real clock — node 0 by convention — answers kClockTickReq /
/// kClockNowReq, see DistNode). Socket deployments use this on every
/// other node so all initiation and commit timestamps across the cluster
/// stay totally ordered, exactly as the paper's single logical clock
/// requires.
///
/// Each Tick is one synchronous RPC. That is the honest price of a
/// centralized timestamp authority and is acceptable for the shard
/// deployment's scale. A class's shard latch is held across the call:
/// Begin ticks the initiation time and a commit ticks the finish time
/// under it (HddController), so every other user of that class's latch
/// waits out the round trip, a peer's kActivityReq for the class
/// included. That delays them but cannot deadlock, for two reasons: the
/// clock handler touches no controller state, and the calling thread
/// reads its own reply (SocketTransport gives each concurrent caller its
/// own connection). A transport that read replies on a thread which also
/// ran handlers would deadlock here: a handler waiting for the latch would
/// stall the read of the latch holder's tick reply.
///
/// Transport failure cannot be surfaced through Tick's signature, so the
/// first error is latched (last_error()) and the clock falls back to a
/// locally monotone counter seeded above the last remote value. The
/// deployment is broken at that point — callers must check last_error()
/// at shutdown — but the fallback keeps the process coherent enough to
/// shut down instead of handing out duplicate or zero timestamps.
class RemoteClock : public LogicalClock {
 public:
  RemoteClock(Transport* transport, int node_id, int clock_node = 0)
      : transport_(transport), node_id_(node_id), clock_node_(clock_node) {}

  Timestamp Tick() override { return Call(DistMsgType::kClockTickReq); }
  Timestamp Now() const override {
    return const_cast<RemoteClock*>(this)->Call(DistMsgType::kClockNowReq);
  }

  Status last_error() const {
    std::lock_guard<std::mutex> lock(mu_);
    return last_error_;
  }

 private:
  Timestamp Call(DistMsgType type);

  Transport* transport_;
  int node_id_;
  int clock_node_;
  mutable std::mutex mu_;
  Status last_error_ = Status::OK();
  /// Highest timestamp seen from the service; the failure fallback counts
  /// on from here.
  std::atomic<Timestamp> last_seen_{0};
};

}  // namespace hdd

#endif  // HDD_DIST_REMOTE_CLOCK_H_
