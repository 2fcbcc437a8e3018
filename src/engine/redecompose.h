#ifndef HDD_ENGINE_REDECOMPOSE_H_
#define HDD_ENGINE_REDECOMPOSE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/status.h"
#include "engine/cost_model.h"
#include "graph/auto_decompose.h"
#include "hdd/hdd_controller.h"
#include "obs/footprint.h"
#include "storage/database.h"

namespace hdd {

/// Converts the engine's CostModel into the flat scoring prices the graph
/// layer's inference takes (graph/auto_decompose.h keeps the fields as
/// plain doubles to stay independent of this library).
InferenceCosts CostsFrom(const CostModel& model);

struct RedecomposerOptions {
  /// Footprints a window must hold before it is evaluated for drift.
  /// With `adaptive_window` set this is only the STARTING size; the
  /// effective size is re-derived after every evaluated window (see
  /// DeriveWindowTxns).
  std::uint64_t window_txns = 64;
  /// Size the window from the observed dispersion of recent window
  /// distances instead of holding `window_txns` fixed. The window is the
  /// drift estimator's sample size: when the coefficient of variation of
  /// recent distances is above `window_cov_hi` the estimate is too noisy
  /// to threshold and the window doubles (more footprints per estimate);
  /// below `window_cov_lo` the estimate is steadier than it needs to be
  /// and the window halves (drift is detected sooner). Inside the band
  /// the size holds.
  bool adaptive_window = true;
  /// Bounds for the adaptive size. A configured `window_txns` outside
  /// this range widens the range to include it, so explicitly small (or
  /// large) windows keep working unclamped.
  std::uint64_t window_min_txns = 16;
  std::uint64_t window_max_txns = 256;
  double window_cov_lo = 0.15;
  double window_cov_hi = 0.50;
  /// Conflict-graph distance (ConflictDistance, in [0,1]) between the
  /// baseline trace and the current window above which the driver infers
  /// and hot-swaps a new decomposition.
  double drift_threshold = 0.30;
  /// Inference knobs, including min-support pruning and the
  /// mutation_misclassify_granule canary.
  InferenceOptions infer;
};

struct RedecomposerStats {
  std::uint64_t polls = 0;
  std::uint64_t windows = 0;       // windows evaluated for drift
  std::uint64_t drift_events = 0;  // windows whose distance crossed the bar
  std::uint64_t inferences = 0;
  std::uint64_t validations = 0;
  std::uint64_t restructures = 0;  // successful Restructure calls
  std::uint64_t busy_retries = 0;  // Restructure returned Busy (epoch open)
  /// Canary accounting: a mutated inference rejected by validation is a
  /// catch; a mutated inference that validation PASSED is an escape — the
  /// sim sweep fails the run on any escape.
  std::uint64_t canary_catches = 0;
  std::uint64_t canary_escapes = 0;
  double last_distance = 0;
  /// Adaptive window accounting: the size currently in force and how
  /// often DeriveWindowTxns moved it.
  std::uint64_t window_txns_current = 0;
  std::uint64_t window_grows = 0;
  std::uint64_t window_shrinks = 0;
};

/// Derives the next drift-window size from the coefficient of variation
/// (stddev / mean) of the distances the most recent windows produced.
/// Fewer than three samples, or a CoV inside [cov_lo, cov_hi], keep
/// `current`; a CoV above the band doubles it (noisy estimates need more
/// samples); a CoV below the band — or a mean of ~zero, the workload
/// sitting exactly on the baseline — halves it (a stable estimate can
/// afford to react faster). Results are clamped to [min_txns, max_txns]
/// (floored at 1). Exposed as a free function for direct unit testing.
std::uint64_t DeriveWindowTxns(const std::vector<double>& recent_distances,
                               std::uint64_t current, std::uint64_t min_txns,
                               std::uint64_t max_txns, double cov_lo,
                               double cov_hi);

/// One successful Restructure call, recorded so a crash-recovery harness
/// can re-apply the merges (in order) to a freshly constructed controller
/// before restoring control state — Restructure is deterministic given
/// the same sequence, so the rebuilt class structure is identical.
struct AppliedMerge {
  std::vector<SegmentId> write_segments;
  std::vector<SegmentId> read_segments;
};

/// The online re-decomposition driver: drains the FootprintRecorder the
/// controller feeds, folds footprints into a windowed FootprintTrace,
/// thresholds the conflict-graph distance against the running baseline,
/// and on drift infers a new decomposition (InferBestDecomposition over
/// baseline + window), PROVES it (ValidateDecomposition +
/// ValidateAgainstTrace — nothing unvalidated ever reaches the
/// controller), and legalizes every shaping access pattern through
/// HddController::Restructure. Restructure returning Busy (an epoch is
/// open — the PR 5 exclusion) leaves the plan pending; the next Poll
/// retries it.
///
/// Threading: Poll/RunUntil must be called from one thread (the driver is
/// the controller's only restructuring agent); the recorder side is
/// concurrent. Under deterministic simulation, run it as the executor's
/// service task (ExecutorOptions::service) so its steps interleave under
/// the model checker.
class Redecomposer {
 public:
  /// `db` fixes the granule flattening (segment sizes must not change
  /// during the run). All pointers are borrowed and must outlive this.
  Redecomposer(HddController* cc, FootprintRecorder* recorder,
               const Database* db, RedecomposerOptions options = {});

  /// One step: drain, evaluate drift, maybe infer + validate + swap.
  /// Returns Busy when a Restructure must wait for the current epoch,
  /// the first hard error otherwise (a validation failure with no canary
  /// armed is a hard error — it means inference broke its own proof
  /// obligation). Hard errors are also latched into last_error().
  Status Poll();

  /// Service loop for ExecutorOptions::service (both executors): polls
  /// until `done`, yielding between polls (a real sleep outside
  /// simulation), then drains one final time.
  void RunUntil(const std::atomic<bool>& done);

  /// Convenience binding for the executor options.
  std::function<void(const std::atomic<bool>&)> AsService() {
    return [this](const std::atomic<bool>& done) { RunUntil(done); };
  }

  const RedecomposerStats& stats() const { return stats_; }
  const Status& last_error() const { return last_error_; }
  const std::vector<AppliedMerge>& applied_merges() const { return applied_; }
  /// The trace accumulated as baseline so far (post-merge of evaluated
  /// windows) — exposed for tests.
  const FootprintTrace& baseline() const { return baseline_; }

 private:
  std::uint32_t Flatten(std::uint64_t packed) const;
  SegmentId SegmentOfFlat(std::uint32_t flat) const;
  Status EvaluateWindow();
  Status ApplyPending();
  /// Records an evaluated window's distance and, under adaptive sizing,
  /// re-derives the effective window size from the recent history.
  void ResizeWindow(double distance);

  HddController* cc_;
  FootprintRecorder* recorder_;
  RedecomposerOptions options_;
  std::vector<std::uint32_t> segment_base_;  // prefix sums of segment sizes
  std::uint32_t num_granules_ = 0;

  /// Effective window size (== options_.window_txns unless adaptive
  /// sizing has moved it) and its clamp range, widened in the constructor
  /// to include the configured starting size.
  std::uint64_t window_txns_ = 0;
  std::uint64_t window_floor_ = 1;
  std::uint64_t window_ceil_ = 1;
  /// Distances of the most recent evaluated windows (bounded history;
  /// the CoV input to DeriveWindowTxns).
  std::deque<double> recent_distances_;

  FootprintTrace baseline_;
  FootprintTrace window_;
  std::vector<AppliedMerge> pending_;
  std::vector<AppliedMerge> applied_;
  RedecomposerStats stats_;
  Status last_error_ = Status::OK();
};

}  // namespace hdd

#endif  // HDD_ENGINE_REDECOMPOSE_H_
