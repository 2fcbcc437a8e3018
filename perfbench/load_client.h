// The benchmark's own load generator: seeded request streams (one request
// type per request, so update and read-only latencies are kept apart) and
// a closed-loop client fleet, one thread and one connection per stream,
// each keeping a fixed number of requests in flight.
#ifndef PERFBENCH_LOAD_CLIENT_H_
#define PERFBENCH_LOAD_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "net/protocol.h"

namespace perfbench {

/// Shape of the transactions one stream sends against the depth-`depth`
/// chain hierarchy (segment 0 on top).
struct TrafficMix {
  int depth = 4;
  std::uint32_t granules_per_segment = 64;
  /// Update transaction: `upper_reads` reads of EACH segment above its
  /// class, then `own_reads` reads and `own_writes` writes of its own.
  int upper_reads = 1;
  int own_reads = 1;
  int own_writes = 1;
  /// Share of ad-hoc read-only transactions (one read of every segment).
  double read_only_fraction = 0.1;
  /// Zipfian theta of the granule choice within a segment (0 = uniform).
  double granule_skew = 0.0;
  /// Classes updates are drawn from, uniformly; empty = every class.
  std::vector<hdd::ClassId> update_classes;
  /// read_scope declared by read-only transactions (empty = Protocol C).
  std::vector<hdd::SegmentId> read_only_scope;
};

class RequestGenerator {
 public:
  RequestGenerator(TrafficMix mix, std::uint64_t seed);

  /// The next request of the stream; the caller sets submit.request_id.
  hdd::RequestMsg Next();

 private:
  hdd::GranuleRef Granule(hdd::SegmentId segment);

  TrafficMix mix_;
  hdd::Rng rng_;
  std::optional<hdd::ZipfianGenerator> zipf_;
};

/// Client-side outcome of the responses that arrived during one phase.
struct PhaseStats {
  std::uint64_t sent = 0;  // requests answered (or lost) in this phase
  std::uint64_t committed = 0;
  std::uint64_t failed = 0;    // kResult with committed = false
  std::uint64_t overload = 0;  // kOverload (shed by admission)
  std::uint64_t errors = 0;    // kError, malformed result, transport error
  std::uint64_t aborted_attempts = 0;  // summed over committed results
  /// Request write to response decode, committed requests only, in us.
  std::vector<double> update_us;
  std::vector<double> read_only_us;

  void Merge(const PhaseStats& other);
  std::uint64_t not_ok() const { return failed + overload + errors; }
};

struct StreamSpec {
  std::uint16_t port = 0;
  TrafficMix mix;
};

struct FleetOptions {
  std::vector<StreamSpec> streams;  // one connection + thread each
  std::size_t pipeline = 4;         // requests in flight per connection
  std::uint64_t seed = 1;
  /// Requests per stream; 0 = keep going until Stop().
  std::uint64_t max_requests_per_stream = 0;
  int num_phases = 1;
};

/// Closed-loop load: every stream sends `pipeline` requests, then sends
/// one more each time a response arrives. Responses are charged to the
/// phase current when they are decoded (SetPhase).
class ClientFleet {
 public:
  explicit ClientFleet(FleetOptions options);
  ~ClientFleet();

  ClientFleet(const ClientFleet&) = delete;
  ClientFleet& operator=(const ClientFleet&) = delete;

  /// Opens every connection (part of set-up).
  hdd::Status Connect();
  void Start();
  void SetPhase(int phase) { phase_.store(phase, std::memory_order_release); }
  /// Stops sending, waits for every outstanding response, joins.
  void Stop();
  /// Joins once every stream sent its max_requests_per_stream and got
  /// every answer.
  void Wait();

  /// Per-phase stats merged across streams (valid after Stop).
  std::vector<PhaseStats> Merged() const;
  /// Committed responses over the whole life of the fleet.
  std::uint64_t acked_commits() const;
  /// First transport or protocol error seen by any stream ("" if none).
  std::string first_error() const;

 private:
  struct Stream;
  void RunStream(Stream& stream);

  FleetOptions options_;
  std::vector<std::unique_ptr<Stream>> streams_;
  std::atomic<int> phase_{0};
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_CLIENT_H_
