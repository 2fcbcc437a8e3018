#include "sim/explorer.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "cc/controller.h"
#include "storage/database.h"
#include "txn/dependency_graph.h"
#include "txn/schedule_analysis.h"

namespace hdd {

namespace {

std::string DescribeScript(const std::vector<int>& script) {
  std::string out = "[";
  for (std::size_t i = 0; i < script.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(script[i]);
  }
  out += "]";
  return out;
}

}  // namespace

SimRunReport RunSimulation(const SimScheduler::Options& options,
                           const SimWorkloadFn& fn) {
  SimScheduler sched(options);
  SimRunReport report;
  report.failure = fn(sched);
  if (report.failure.empty() && sched.deadlocked()) {
    report.failure = "simulated deadlock: " + sched.halt_reason();
  }
  if (report.failure.empty() && sched.decision_limit_hit()) {
    report.failure = "livelock suspected: " + sched.halt_reason();
  }
  report.deadlocked = sched.deadlocked();
  report.decision_limit_hit = sched.decision_limit_hit();
  report.decisions = sched.decisions_made();
  report.faults_injected = sched.faults_injected();
  report.trace = sched.trace();
  report.choices = sched.choices();
  report.choice_arity = sched.choice_arity();
  return report;
}

SeedSweepReport RunSeedSweep(SimScheduler::Options base,
                             std::uint64_t first_seed,
                             std::uint64_t num_seeds, const SimWorkloadFn& fn,
                             const std::string& replay_hint,
                             std::size_t max_failures) {
  SeedSweepReport report;
  for (std::uint64_t i = 0; i < num_seeds; ++i) {
    const std::uint64_t seed = first_seed + i;
    base.seed = seed;
    SimRunReport run = RunSimulation(base, fn);
    ++report.runs;
    report.faults_injected += run.faults_injected;
    if (run.deadlocked) ++report.deadlocks;
    if (run.failure.empty()) continue;
    if (report.failures.size() >= max_failures) continue;

    // A failure is only actionable if it replays: run the exact same
    // options again and demand the identical trace and verdict.
    const SimRunReport replay = RunSimulation(base, fn);
    SimFailure failure;
    failure.seed = seed;
    failure.message = run.failure;
    failure.replayed_identically =
        replay.trace == run.trace && replay.failure == run.failure;
    failure.replay_command = "HDD_SIM_FIRST_SEED=" + std::to_string(seed) +
                             " HDD_SIM_SEEDS=1 " + replay_hint;
    report.failures.push_back(std::move(failure));
  }
  return report;
}

ExploreReport ExploreBoundedSchedules(SimScheduler::Options base,
                                      int branch_depth,
                                      std::uint64_t max_schedules,
                                      const SimWorkloadFn& fn,
                                      std::size_t max_failures) {
  base.scripted = true;
  base.faults = FaultInjectorConfig{};  // script = the only nondeterminism
  ExploreReport report;
  std::vector<int> prefix;
  for (;;) {
    if (report.schedules >= max_schedules) return report;  // not exhausted
    base.script = prefix;
    SimRunReport run = RunSimulation(base, fn);
    ++report.schedules;
    if (!run.failure.empty() && report.failures.size() < max_failures) {
      SimFailure failure;
      failure.seed = report.schedules - 1;
      failure.message = run.failure;
      failure.script = run.choices;
      // Scripted runs replay from their choice script, not a seed.
      failure.replay_command =
          "replay script " + DescribeScript(run.choices);
      const SimRunReport replay = RunSimulation(base, fn);
      failure.replayed_identically =
          replay.trace == run.trace && replay.failure == run.failure;
      report.failures.push_back(std::move(failure));
    }
    // Backtrack: deepest branching decision (within the depth bound) that
    // can still be incremented becomes the new prefix tail.
    const int limit = static_cast<int>(
        std::min<std::size_t>(run.choices.size(),
                              static_cast<std::size_t>(branch_depth)));
    int pos = limit - 1;
    while (pos >= 0 && run.choices[static_cast<std::size_t>(pos)] + 1 >=
                           run.choice_arity[static_cast<std::size_t>(pos)]) {
      --pos;
    }
    if (pos < 0) {
      report.exhausted = true;
      return report;
    }
    prefix.assign(run.choices.begin(), run.choices.begin() + pos + 1);
    ++prefix[static_cast<std::size_t>(pos)];
  }
}

std::string CheckSimHistory(const ConcurrencyController& cc, Database& db,
                            bool replay_bounds) {
  return CheckRecordedHistory(cc.recorder().steps(), cc.recorder().outcomes(),
                              cc.recorder().identities(), db, replay_bounds);
}

std::string CheckRecordedHistory(
    const std::vector<Step>& steps,
    const std::unordered_map<TxnId, TxnState>& outcomes,
    const std::unordered_map<TxnId, ScheduleRecorder::TxnIdentity>& identities,
    Database& db, bool replay_bounds) {
  // 1. Dependency graph acyclic.
  const SerializabilityReport sr = CheckSerializability(steps, outcomes);
  if (!sr.serializable) {
    std::string msg = "dependency cycle:";
    for (const std::string& line :
         ExplainCycle(steps, outcomes, sr.witness_cycle)) {
      msg += " | " + line;
    }
    return msg;
  }

  // 2. The serial witness: topological order replayed as a serial
  // single-version execution must reproduce every read.
  const std::vector<Step> serialized =
      SerializeSchedule(steps, outcomes, sr.serial_order);
  if (!IsSerialSchedule(serialized)) {
    return "serialized witness is not a serial schedule";
  }
  if (!IsMonoversionConsistent(serialized)) {
    return "serial witness is not monoversion-consistent (not 1SR)";
  }

  // 3. Bound replay against the history's committed writes (the initial
  // version has order key 0): no transaction may ever have committed a
  // version below a bound that was already served. Not against the
  // chains, which GC may prune; those must still end in the last
  // committed write of each granule.
  if (replay_bounds) {
    std::map<std::pair<SegmentId, std::uint32_t>, std::set<Timestamp>> written;
    for (const Step& step : steps) {
      const auto outcome = outcomes.find(step.txn);
      if (step.action == Step::Action::kWrite && outcome != outcomes.end() &&
          outcome->second == TxnState::kCommitted) {
        written[{step.granule.segment, step.granule.index}].insert(
            step.version);
      }
    }
    const auto latest_below = [&written](GranuleRef g, Timestamp bound) {
      const auto it = written.find({g.segment, g.index});
      if (it == written.end()) return Timestamp{0};
      const auto above = it->second.lower_bound(bound);
      return above == it->second.begin() ? Timestamp{0} : *std::prev(above);
    };
    for (const Step& step : steps) {
      if (step.action != Step::Action::kRead) continue;
      if (step.bound == kTimestampMin) continue;
      const Timestamp expected = latest_below(step.granule, step.bound);
      if (step.version != expected) {
        std::ostringstream msg;
        msg << "txn " << step.txn << " read version " << step.version
            << " of granule (" << step.granule.segment << ","
            << step.granule.index << ") under bound " << step.bound
            << " but the latest committed write below that bound is "
            << expected << " — a version committed below a served bound";
        return msg.str();
      }
      const auto identity = identities.find(step.txn);
      if (identity != identities.end() && !identity->second.read_only &&
          step.bound > identity->second.init_ts) {
        std::ostringstream msg;
        msg << "update txn " << step.txn << " served at bound " << step.bound
            << " above its initiation time " << identity->second.init_ts;
        return msg.str();
      }
    }
    for (SegmentId s = 0; s < db.num_segments(); ++s) {
      for (std::uint32_t i = 0; i < db.segment(s).size(); ++i) {
        const Version* tip = db.segment(s).granule(i).LatestCommitted();
        const Timestamp last = latest_below({s, i}, kTimestampInfinity);
        if (tip == nullptr || tip->order_key != last) {
          return "granule (" + std::to_string(s) + "," + std::to_string(i) +
                 ") does not end in its last committed write " +
                 std::to_string(last);
        }
      }
    }
  }

  // 4. Consistent-cut shape for read-only transactions. Like the bound
  // replay, this is specific to bound-carrying (HDD Protocol C) histories:
  // other controllers' read-only reads legitimately record no bound.
  if (!replay_bounds) return "";
  std::map<std::pair<TxnId, SegmentId>, std::set<Timestamp>> bounds;
  std::map<std::pair<TxnId, std::uint64_t>, std::set<std::uint64_t>> seen;
  for (const Step& step : steps) {
    if (step.action != Step::Action::kRead) continue;
    const auto identity = identities.find(step.txn);
    if (identity == identities.end() || !identity->second.read_only) continue;
    if (step.bound == kTimestampMin) {
      return "read-only txn " + std::to_string(step.txn) +
             " read without a recorded bound";
    }
    bounds[{step.txn, step.granule.segment}].insert(step.bound);
    const std::uint64_t granule_key =
        (static_cast<std::uint64_t>(step.granule.segment) << 32) |
        step.granule.index;
    seen[{step.txn, granule_key}].insert(step.version);
  }
  for (const auto& [txn_segment, used] : bounds) {
    if (used.size() != 1) {
      return "read-only txn " + std::to_string(txn_segment.first) + " used " +
             std::to_string(used.size()) + " distinct bounds in segment " +
             std::to_string(txn_segment.second) + " — not a consistent cut";
    }
  }
  for (const auto& [txn_granule, versions] : seen) {
    if (versions.size() != 1) {
      return "read-only txn " + std::to_string(txn_granule.first) +
             " saw multiple versions of one granule";
    }
  }
  return "";
}

}  // namespace hdd
