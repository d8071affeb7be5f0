#include "durability/manager.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/fault_injection.h"
#include "common/fs.h"
#include "common/logging.h"
#include "durability/snapshot.h"
#include "graph/csr.h"
#include "graph/validate.h"
#include "serve/validate.h"
#include "telemetry/metrics.h"

namespace kgov::durability {
namespace {

struct ManagerMetrics {
  telemetry::Counter* checkpoints;
  telemetry::Counter* recoveries;
  telemetry::Histogram* checkpoint_span;

  static const ManagerMetrics& Get() {
    static const ManagerMetrics m = [] {
      telemetry::MetricRegistry& reg = telemetry::MetricRegistry::Global();
      return ManagerMetrics{
          reg.GetCounter("durability.checkpoints"),
          reg.GetCounter("durability.recoveries"),
          reg.GetHistogram("span.durability.checkpoint.seconds")};
    }();
    return m;
  }
};

}  // namespace

Status DurabilityOptions::Validate() const {
  if (dir.empty()) {
    return Status::InvalidArgument("DurabilityOptions.dir must be set");
  }
  if (snapshots_to_keep < 1) {
    return Status::InvalidArgument(
        "DurabilityOptions.snapshots_to_keep must be >= 1");
  }
  return wal.Validate();
}

Status RecoverOptions::Validate() const { return Status::OK(); }

StatusOr<DurabilityManager> DurabilityManager::Open(
    DurabilityOptions options) {
  KGOV_RETURN_IF_ERROR(options.Validate());
  KGOV_RETURN_IF_ERROR(fs::CreateDirs(options.dir));
  KGOV_ASSIGN_OR_RETURN(VoteWal wal,
                        VoteWal::Open(options.dir, options.wal));
  return DurabilityManager(std::move(options.dir), options.snapshots_to_keep,
                           std::move(wal));
}

Status DurabilityManager::Checkpoint(const core::OnlineKgOptimizer& optimizer,
                                     uint64_t num_entities,
                                     uint64_t num_documents) {
  const ManagerMetrics& metrics = ManagerMetrics::Get();
  telemetry::ScopedSpan span(metrics.checkpoint_span);

  // Step 1: roll the WAL first. Every vote acknowledged from here on
  // lands in a segment the snapshot's wal_seq stamp marks for replay, so
  // the snapshot and the surviving log can never disagree about a vote.
  KGOV_RETURN_IF_ERROR(wal_.RollSegment());

  // Step 2: freeze the optimizer's current state. The pinned epoch, the
  // vote buffers, and the wal_seq stamp are captured before the write so
  // a concurrent reader's view is irrelevant (the write path - and thus
  // Checkpoint - is single-threaded by contract).
  const core::ServingEpoch epoch = optimizer.CurrentEpoch();
  SnapshotMeta meta;
  meta.epoch = epoch.epoch;
  meta.num_entities = num_entities;
  meta.num_documents = num_documents;
  meta.wal_seq = wal_.live_seq();
  meta.pending = optimizer.PendingVoteList();
  meta.dead_letters = optimizer.DeadLetters();

  // Step 3: atomic publish (contains the kCrashMidSnapshot kill point).
  const std::string path = dir_ + "/" + SnapshotFileName(meta.epoch);
  KGOV_RETURN_IF_ERROR(WriteSnapshot(path, epoch.view(), meta));

  // Kill point: the new snapshot is live but the old generation has not
  // been garbage-collected - recovery must prefer the new snapshot and
  // ignore the stale segments its wal_seq stamp excludes.
  MaybeKillProcess(FaultSite::kCrashMidEpochSwap);

  // Step 4: truncate the log behind the snapshot and thin old snapshots.
  // Failures here are cleanup failures, not durability failures - the
  // state IS checkpointed - so they are logged, not returned.
  Status gc = wal_.DeleteSegmentsBelow(meta.wal_seq);
  if (gc.ok()) gc = DeleteSnapshotsBeyondRetention();
  if (!gc.ok()) {
    KGOV_LOG(WARNING) << "checkpoint GC incomplete (stale files remain in "
                      << dir_ << "): " << gc.ToString();
  }
  metrics.checkpoints->Increment();
  return Status::OK();
}

Status DurabilityManager::DeleteSnapshotsBeyondRetention() {
  KGOV_ASSIGN_OR_RETURN(std::vector<std::string> entries, fs::ListDir(dir_));
  std::vector<std::string> snapshots;
  for (const std::string& name : entries) {
    if (ParseSnapshotFileName(name).has_value()) snapshots.push_back(name);
  }
  if (snapshots.size() <= snapshots_to_keep_) return Status::OK();
  // ListDir sorts ascending and the names zero-pad their epoch, so the
  // oldest snapshots come first.
  for (size_t i = 0; i + snapshots_to_keep_ < snapshots.size(); ++i) {
    KGOV_RETURN_IF_ERROR(fs::RemoveFile(dir_ + "/" + snapshots[i]));
  }
  return fs::SyncDir(dir_);
}

StatusOr<RecoveredState> Recover(const std::string& dir,
                                 const RecoverOptions& options) {
  KGOV_RETURN_IF_ERROR(options.Validate());
  KGOV_ASSIGN_OR_RETURN(std::vector<std::string> entries, fs::ListDir(dir));
  std::vector<std::string> snapshots;
  for (const std::string& name : entries) {
    if (ParseSnapshotFileName(name).has_value()) snapshots.push_back(name);
  }
  // Newest first: recovery wants the snapshot that minimizes replay, and
  // only falls back when a newer file fails its checksum.
  std::sort(snapshots.rbegin(), snapshots.rend());

  RecoveredState state;
  std::unique_ptr<MappedSnapshot> loaded;
  SnapshotLoadOptions load_options;
  load_options.verify_body_checksum = options.verify_body_checksum;
  for (const std::string& name : snapshots) {
    StatusOr<MappedSnapshot> candidate =
        MappedSnapshot::Load(dir + "/" + name, load_options);
    if (candidate.ok()) {
      loaded = std::make_unique<MappedSnapshot>(std::move(candidate.value()));
      break;
    }
    // Loud skip: a corrupted snapshot is detected, reported, and stepped
    // over - never trusted, never silently ignored.
    KGOV_LOG(ERROR) << "recovery: skipping snapshot " << name << ": "
                    << candidate.status().ToString();
    ++state.snapshots_skipped;
  }
  if (loaded == nullptr) {
    return Status::NotFound(
        "no loadable snapshot in " + dir + " (" +
        std::to_string(snapshots.size()) + " candidate(s), " +
        std::to_string(state.snapshots_skipped) + " corrupt)");
  }

  state.snapshot_path = loaded->path();
  state.epoch = loaded->epoch();
  state.num_entities = loaded->num_entities();
  state.num_documents = loaded->num_documents();
  state.graph = loaded->ToWeightedDigraph();
  state.pending = loaded->pending();
  state.dead_letters = loaded->dead_letters();

  WalReplayOptions replay_options;
  replay_options.truncate_torn_tail = options.truncate_torn_tail;
  KGOV_ASSIGN_OR_RETURN(
      WalReplayResult replay,
      ReplayWal(dir, loaded->wal_seq(), replay_options));
  state.wal_records_replayed = replay.records.size();
  state.torn_tails_truncated = replay.torn_tails_truncated;
  state.corrupt_records = replay.corrupt_records;
  for (WalRecord& record : replay.records) {
    if (record.type == WalRecordType::kVote) {
      state.pending.push_back(std::move(record.vote));
      continue;
    }
    // A replayed dead-letter record moves the vote out of the pending
    // list (it was abandoned after the snapshot froze it as pending).
    auto it = std::find_if(
        state.pending.begin(), state.pending.end(),
        [&](const votes::Vote& vote) { return vote.id == record.vote.id; });
    if (it != state.pending.end()) state.pending.erase(it);
    state.dead_letters.push_back(std::move(record.vote));
  }

  if (options.validate) {
    KGOV_RETURN_IF_ERROR(graph::ValidateCsr(loaded->View()));
    // The serve-path contract check, run on the exact epoch a restored
    // optimizer would republish: recovery refuses to hand back a state
    // the query engine would refuse to serve.
    core::ServingEpoch epoch{
        std::make_shared<graph::CsrSnapshot>(state.graph), state.epoch};
    KGOV_RETURN_IF_ERROR(serve::ValidateEpochPin(epoch, state.epoch));
  }

  ManagerMetrics::Get().recoveries->Increment();
  return state;
}

}  // namespace kgov::durability
