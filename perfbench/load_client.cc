#include "load_client.h"

#include <sys/socket.h>
#include <sys/time.h>

#include <chrono>
#include <unordered_map>
#include <utility>

#include "net/client.h"

namespace perfbench {

namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A response that never comes must fail the run, not hang it.
constexpr int kRecvTimeoutSeconds = 30;

}  // namespace

RequestGenerator::RequestGenerator(TrafficMix mix, std::uint64_t seed)
    : mix_(std::move(mix)), rng_(seed) {
  if (mix_.granule_skew > 0.0) {
    zipf_.emplace(mix_.granules_per_segment, mix_.granule_skew);
  }
  if (mix_.update_classes.empty()) {
    for (int c = 0; c < mix_.depth; ++c) mix_.update_classes.push_back(c);
  }
}

hdd::GranuleRef RequestGenerator::Granule(hdd::SegmentId segment) {
  hdd::GranuleRef ref;
  ref.segment = segment;
  ref.index = static_cast<std::uint32_t>(
      zipf_ ? zipf_->Next(rng_) : rng_.NextBounded(mix_.granules_per_segment));
  return ref;
}

hdd::RequestMsg RequestGenerator::Next() {
  using hdd::WireOp;
  hdd::RequestMsg msg;
  msg.type = hdd::NetMsgType::kSubmit;
  hdd::SubmitRequest& submit = msg.submit;
  const auto add = [&](WireOp::Kind kind, hdd::SegmentId segment) {
    WireOp op;
    op.kind = kind;
    op.granule = Granule(segment);
    if (kind == WireOp::Kind::kWrite) {
      op.value = static_cast<hdd::Value>(rng_.Next() % 1000003);
    }
    submit.ops.push_back(op);
  };
  if (rng_.NextBool(mix_.read_only_fraction)) {
    submit.read_only = true;
    submit.read_scope = mix_.read_only_scope;
    for (int segment = 0; segment < mix_.depth; ++segment) {
      add(WireOp::Kind::kRead, segment);
    }
    return msg;
  }
  const hdd::ClassId cls = mix_.update_classes[rng_.NextBounded(
      mix_.update_classes.size())];
  submit.txn_class = cls;
  for (hdd::SegmentId upper = 0; upper < cls; ++upper) {
    for (int i = 0; i < mix_.upper_reads; ++i) add(WireOp::Kind::kRead, upper);
  }
  for (int i = 0; i < mix_.own_reads; ++i) add(WireOp::Kind::kRead, cls);
  for (int i = 0; i < mix_.own_writes; ++i) add(WireOp::Kind::kWrite, cls);
  return msg;
}

void PhaseStats::Merge(const PhaseStats& other) {
  sent += other.sent;
  committed += other.committed;
  failed += other.failed;
  overload += other.overload;
  errors += other.errors;
  aborted_attempts += other.aborted_attempts;
  update_us.insert(update_us.end(), other.update_us.begin(),
                   other.update_us.end());
  read_only_us.insert(read_only_us.end(), other.read_only_us.begin(),
                      other.read_only_us.end());
}

struct ClientFleet::Stream {
  Stream(const StreamSpec& spec, std::uint64_t seed, int num_phases)
      : spec(spec), generator(spec.mix, seed), stats(num_phases) {}

  struct InFlight {
    std::int64_t sent_ns = 0;
    bool read_only = false;
    std::size_t reads = 0;
  };

  StreamSpec spec;
  RequestGenerator generator;
  hdd::SyncClient client;
  std::vector<PhaseStats> stats;
  std::unordered_map<std::uint64_t, InFlight> inflight;
  std::uint64_t issued = 0;
  std::uint64_t acked_commits = 0;
  std::string error;
};

ClientFleet::ClientFleet(FleetOptions options) : options_(std::move(options)) {
  for (std::size_t i = 0; i < options_.streams.size(); ++i) {
    // Each stream draws from its own seeded sequence, so the requests a
    // stream sends depend only on --seed and the stream index.
    streams_.push_back(std::make_unique<Stream>(
        options_.streams[i], options_.seed * 1000003 + i + 1,
        options_.num_phases));
  }
}

ClientFleet::~ClientFleet() { Stop(); }

hdd::Status ClientFleet::Connect() {
  for (auto& stream : streams_) {
    hdd::Status status = stream->client.Connect("127.0.0.1", stream->spec.port);
    if (!status.ok()) return status;
    timeval tv{};
    tv.tv_sec = kRecvTimeoutSeconds;
    setsockopt(stream->client.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  return hdd::Status::OK();
}

void ClientFleet::Start() {
  for (auto& stream : streams_) {
    threads_.emplace_back([this, s = stream.get()] { RunStream(*s); });
  }
}

void ClientFleet::Stop() {
  stop_.store(true, std::memory_order_release);
  Wait();
}

void ClientFleet::Wait() {
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

void ClientFleet::RunStream(Stream& stream) {
  const auto may_send = [&] {
    return !stop_.load(std::memory_order_acquire) &&
           (options_.max_requests_per_stream == 0 ||
            stream.issued < options_.max_requests_per_stream);
  };
  const auto send_one = [&]() -> bool {
    hdd::RequestMsg msg = stream.generator.Next();
    msg.submit.request_id = ++stream.issued;
    Stream::InFlight entry;
    entry.read_only = msg.submit.read_only;
    for (const hdd::WireOp& op : msg.submit.ops) {
      if (op.kind == hdd::WireOp::Kind::kRead) ++entry.reads;
    }
    entry.sent_ns = NowNs();
    stream.inflight.emplace(msg.submit.request_id, entry);
    const hdd::Status status = stream.client.Send(msg);
    if (!status.ok()) {
      stream.error = "send: " + status.ToString();
      return false;
    }
    return true;
  };

  bool healthy = true;
  for (std::size_t i = 0; i < options_.pipeline && healthy && may_send(); ++i) {
    healthy = send_one();
  }
  while (healthy && !stream.inflight.empty()) {
    hdd::Result<hdd::ResponseMsg> response = stream.client.Recv();
    const std::int64_t now = NowNs();
    PhaseStats& stats =
        stream.stats[static_cast<std::size_t>(
            phase_.load(std::memory_order_acquire))];
    if (!response.ok()) {
      stream.error = "recv: " + response.status().ToString();
      break;
    }
    const auto it = stream.inflight.find(response->request_id);
    if (it == stream.inflight.end()) {
      stream.error = "response for unknown request id " +
                     std::to_string(response->request_id);
      break;
    }
    const Stream::InFlight entry = it->second;
    stream.inflight.erase(it);
    ++stats.sent;
    switch (response->type) {
      case hdd::NetMsgType::kResult:
        if (!response->committed) {
          ++stats.failed;
        } else if (response->values.size() != entry.reads) {
          // A committed answer must carry one value per declared read.
          ++stats.errors;
          if (stream.error.empty()) {
            stream.error = "committed result carries " +
                           std::to_string(response->values.size()) +
                           " values for " + std::to_string(entry.reads) +
                           " reads";
          }
        } else {
          ++stats.committed;
          ++stream.acked_commits;
          stats.aborted_attempts += response->aborted_attempts;
          (entry.read_only ? stats.read_only_us : stats.update_us)
              .push_back(static_cast<double>(now - entry.sent_ns) / 1000.0);
        }
        break;
      case hdd::NetMsgType::kOverload:
        ++stats.overload;
        break;
      default:
        ++stats.errors;
        break;
    }
    if (may_send()) healthy = send_one();
  }
  if (!stream.inflight.empty()) {
    // Requests lost to a transport failure count as errors of the phase
    // the failure happened in.
    PhaseStats& stats = stream.stats[static_cast<std::size_t>(
        phase_.load(std::memory_order_acquire))];
    stats.sent += stream.inflight.size();
    stats.errors += stream.inflight.size();
    stream.inflight.clear();
  }
  stream.client.Close();
}

std::vector<PhaseStats> ClientFleet::Merged() const {
  std::vector<PhaseStats> merged(static_cast<std::size_t>(options_.num_phases));
  for (const auto& stream : streams_) {
    for (std::size_t p = 0; p < merged.size(); ++p) {
      merged[p].Merge(stream->stats[p]);
    }
  }
  return merged;
}

std::uint64_t ClientFleet::acked_commits() const {
  std::uint64_t total = 0;
  for (const auto& stream : streams_) total += stream->acked_commits;
  return total;
}

std::string ClientFleet::first_error() const {
  for (const auto& stream : streams_) {
    if (!stream->error.empty()) return stream->error;
  }
  return "";
}

}  // namespace perfbench
