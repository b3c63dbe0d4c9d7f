// Startup recovery: rebuild a PiService from its durable log.
//
// Recovery = construct a fresh service (same options, fresh same-seed
// fault injector), replay the recovered input history with the event
// sink detached, then reattach the log and resume appends. Because the
// stack is deterministic (see recover/event.h), replay reproduces the
// pre-crash state exactly — estimator windows, finish orders, snapshot
// sequence numbers, everything — which the checkpoint's verification
// trailer proves byte-for-byte at the checkpoint cut.
//
// Invariants the replay enforces:
//   - session and query ids re-assigned by the engine must match the
//     journaled ids (a mismatch means the history is not the one this
//     configuration produced — recovery fails loudly rather than
//     continuing from a diverged state);
//   - a control event that succeeded pre-crash must succeed on replay;
//   - the verification snapshot, rebuilt at the journaled probe point,
//     must match the checkpoint trailer (recorded in `verified`; a
//     checkpoint-less directory has nothing to verify).
//
// Caveat: faults that fail *calls* without changing state (e.g.
// service.session_control_fail) desynchronize fault-point evaluation
// counts on replay, because failed calls are never journaled. Arm
// state-changing fault points (sched.*, pi.*, service.publish_delay)
// for chaos runs that must recover differentially.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "recover/durable_log.h"
#include "service/pi_service.h"
#include "service/session.h"
#include "service/sharded_service.h"

namespace mqpi::storage {
class Catalog;
}  // namespace mqpi::storage

namespace mqpi::recover {

/// Wire-encodes `snapshot` as a SNAPSHOT_FULL frame via a fresh
/// per-subscriber encoder — the canonical byte image checkpoint
/// verification and the differential tests compare.
std::string EncodeSnapshotBytes(const service::SnapshotPtr& snapshot);

/// Cuts a checkpoint of `service`'s current state into `log`: journals
/// the verification probe, builds the unpublished snapshot, and writes
/// the consolidated image. Safe to call while the service runs.
Status Checkpoint(service::PiService* service, DurableLog* log);

struct RecoveredService {
  // Member order is destruction order in reverse, and it matters:
  // sessions close through the service, and the service journals into
  // the log — so sessions die first, the log last.
  /// The reopened log, already attached as the service's event sink.
  std::unique_ptr<DurableLog> log;
  std::unique_ptr<service::PiService> service;
  /// Open session handles, keyed by the ids the journal recorded (the
  /// same ids the engine re-assigned on replay).
  std::unordered_map<std::uint64_t, std::unique_ptr<service::Session>>
      sessions;
  std::uint64_t events_replayed = 0;
  bool had_checkpoint = false;
  /// True when the checkpoint's verification snapshot matched the
  /// replayed state byte-for-byte (false when there was no checkpoint
  /// to verify).
  bool verified = false;
  bool tail_truncated = false;
  std::uint64_t dropped_bytes = 0;
  std::uint64_t corrupt_checkpoints = 0;
};

/// Recovers the service whose history lives in `dir`. A missing or
/// empty directory is a fresh start (no events; still succeeds). The
/// ticker is held off during replay regardless of
/// `options.start_ticker` and started afterwards when requested;
/// `options.event_sink` is ignored (the reopened log takes that role).
/// `options.fault` should be a FRESH injector with the pre-crash seed
/// — its evaluation streams are part of the replayed timeline.
Result<RecoveredService> Recover(const storage::Catalog* catalog,
                                 const std::string& dir,
                                 service::PiServiceOptions options,
                                 DurableLog::Options log_options = {});

// ---- sharded recovery -------------------------------------------------------

/// The journal layout a sharded deployment uses: shard i journals into
/// `<root>/shard-<i>`, so shards flush, checkpoint, and recover with
/// zero cross-shard coordination (one fault scope per directory).
std::string ShardJournalDir(const std::string& root, int shard);

struct RecoveredShardedService {
  /// Per-shard recovery results, in shard order. Declared before the
  /// coordinator so the coordinator (which borrows the services) is
  /// destroyed first.
  std::vector<RecoveredService> shards;
  std::unique_ptr<service::ShardedPiService> coordinator;
  std::uint64_t events_replayed = 0;  // sum over shards
  /// True when every recovered shard with a checkpoint verified.
  bool all_verified = false;
};

/// Recovers an N-shard deployment from `<root>/shard-<i>` directories
/// (each a missing-dir fresh start when absent, like Recover). Shards
/// recover independently; the returned coordinator adopts the
/// recovered services. Tickers are started per `options.start_ticker`
/// (after replay), exactly as in single-shard Recover. `per_shard`
/// (optional) customizes each shard's options copy — fresh same-seed
/// fault injectors per shard, matching how the pre-crash deployment
/// was scoped.
Result<RecoveredShardedService> RecoverSharded(
    const storage::Catalog* catalog, const std::string& root, int num_shards,
    service::PiServiceOptions options, DurableLog::Options log_options = {},
    std::function<void(int shard, service::PiServiceOptions*)> per_shard = {});

}  // namespace mqpi::recover
