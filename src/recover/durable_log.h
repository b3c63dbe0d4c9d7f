// DurableLog: the on-disk home of a PiService's input history.
//
// Directory layout (all files use the journal.h record framing):
//
//   journal-<S>.wal      events appended while segment S was active
//   checkpoint-<S>.ckpt  consolidated image written when segment S
//                        became active: one kCheckpointHeader record
//                        {index, event count}, then every event from
//                        genesis up to the cut, then one kVerification
//                        record holding the wire-encoded SNAPSHOT_FULL
//                        of the service state at the cut
//
// A fresh directory starts on segment 0 (journal-0.wal, no
// checkpoint). WriteCheckpoint(S -> S+1) writes checkpoint-(S+1).ckpt
// via tmp-file + fsync + rename, then rotates to a fresh
// journal-(S+1).wal. Journals are rotated, never truncated mid-life,
// so if checkpoint S+1 later proves corrupt, recovery falls back to
// checkpoint S and replays journal-S plus journal-(S+1) — nothing is
// lost. Retention keeps the last two checkpoints and every journal
// segment they need.
//
// A checkpoint is NOT a serialization of estimator internals: it is
// the event history itself, consolidated (see recover/event.h for why
// replay is the recovery mechanism). The verification trailer lets
// recovery prove, byte for byte, that replaying the checkpoint's
// events reproduces the state the checkpoint was cut from.
//
// Failure semantics (availability over durability): a journal write
// failure — real, or injected via the recover.journal_write_fail fault
// point — poisons the active segment; events keep accumulating in
// memory and the next successful checkpoint (written from the full
// in-memory history) makes the log whole again. Appends never fail the
// caller. The recover.checkpoint_corrupt fault point flips a byte in
// the checkpoint image before publication, exercising the fallback
// path end to end.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/instruments.h"
#include "recover/event.h"
#include "recover/journal.h"

namespace mqpi::fault {
class FaultInjector;
}  // namespace mqpi::fault
namespace mqpi::service {
class MetricsRegistry;
}  // namespace mqpi::service

namespace mqpi::recover {

/// Everything Load() could salvage from a log directory, ready for
/// replay.
struct LoadedState {
  /// The full recovered input history, in order: the newest valid
  /// checkpoint's events followed by every journaled event after the
  /// cut (up to the first gap or torn tail).
  std::vector<Event> events;
  /// True when a valid checkpoint anchored the history.
  bool had_checkpoint = false;
  /// Index of that checkpoint (meaningful when had_checkpoint).
  std::uint64_t checkpoint_index = 0;
  /// Number of leading `events` covered by the checkpoint — the replay
  /// position of the verification snapshot below.
  std::size_t verification_prefix = 0;
  /// The checkpoint's kVerification payload (wire-encoded
  /// SNAPSHOT_FULL at the cut); empty without a checkpoint.
  std::string verification;
  /// Segment appends should resume on, and the byte offset of its
  /// valid prefix (the truncation point for a torn tail).
  std::uint64_t active_index = 0;
  std::uint64_t active_valid_bytes = 0;
  /// True when any journal bytes were dropped (torn/corrupt tail).
  bool tail_truncated = false;
  std::uint64_t dropped_bytes = 0;
  /// Checkpoint files that existed but failed validation (corrupt,
  /// torn, or misindexed) and were skipped.
  std::uint64_t corrupt_checkpoints = 0;
};

class DurableLog : public EventSink {
 public:
  struct Options {
    /// Optional chaos wiring (recover.journal_write_fail,
    /// recover.checkpoint_corrupt).
    fault::FaultInjector* fault = nullptr;
    /// Optional counters: recover.journal_records,
    /// recover.journal_write_fails, recover.checkpoints_written.
    service::MetricsRegistry* metrics = nullptr;
    /// fsync after every append (tests and paranoid deployments; the
    /// default syncs on checkpoint + Drain only).
    bool sync_each_append = false;
  };

  DurableLog() = default;
  ~DurableLog() override;
  DurableLog(const DurableLog&) = delete;
  DurableLog& operator=(const DurableLog&) = delete;

  /// Reads a log directory without touching it. NotFound when the
  /// directory does not exist; corruption is salvaged, never an error.
  static Result<LoadedState> Load(const std::string& dir);

  /// Opens the log for writing. Pass the LoadedState from Load() to
  /// resume an existing directory (the torn tail, if any, is truncated
  /// here); omit it for a directory that should start empty. Creates
  /// the directory if missing.
  Status Open(const std::string& dir, Options options,
              const LoadedState* resume = nullptr);
  void Close();

  /// EventSink: appends to the in-memory history and the active
  /// journal segment. Never fails the caller — see header comment.
  void Append(const Event& event) override;

  /// fsync the active journal segment.
  Status Sync();

  /// Cuts checkpoint (active+1) carrying the full history plus
  /// `verification` (wire-encoded snapshot at the cut), rotates to a
  /// fresh journal segment, and applies retention. The caller must
  /// have journaled the probe event of the verification build *before*
  /// calling (recovery relies on the final checkpoint event being that
  /// kProbe).
  Status WriteCheckpoint(std::string_view verification);

  /// False while the active journal segment is poisoned by a write
  /// failure (a successful checkpoint heals it).
  bool healthy() const;

  const std::string& dir() const { return dir_; }
  std::uint64_t active_index() const;
  std::uint64_t history_size() const;

  static std::string CheckpointPath(const std::string& dir,
                                    std::uint64_t index);
  static std::string JournalPath(const std::string& dir,
                                 std::uint64_t index);

 private:
  Status OpenSegmentLocked(std::uint64_t index, std::int64_t truncate_to);

  mutable std::mutex mu_;
  std::string dir_;
  Options options_;
  RecordWriter journal_;
  std::uint64_t active_index_ = 0;
  bool poisoned_ = false;
  /// Authoritative input history from genesis (checkpoints are written
  /// from it, so a poisoned journal loses nothing once the next
  /// checkpoint lands).
  std::vector<Event> history_;

  obs::Counter* journal_records_ = nullptr;
  obs::Counter* journal_write_fails_ = nullptr;
  obs::Counter* checkpoints_written_ = nullptr;
};

}  // namespace mqpi::recover
