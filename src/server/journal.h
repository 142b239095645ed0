#pragma once

/// \file journal.h
/// Append-only job journal for ringclu_simd crash recovery.
///
/// Every job lifecycle transition the daemon commits to (acceptance and
/// the terminal outcome) is one JSON Lines record appended atomically (O_APPEND + flock via
/// append_line_atomic, the PR 3 result-store primitive), so a kill -9 at
/// any instant leaves a prefix of whole records.  On restart the daemon
/// replays the journal: jobs with a terminal record are restored as
/// completed history; jobs without one are re-submitted — and because
/// results persist in the ResultStore (and warmup in the checkpoint
/// directory), replayed work that already finished resolves as store
/// hits instead of re-simulating.
///
/// Record grammar (one JSON object per line):
///
///   {"journal_schema":1,"seq":N,"event":"accepted","id":"j000001",
///    "client":"alice","priority":"normal","request":{...}}
///   {"journal_schema":1,"seq":N,"event":"completed","id":"j000001"}
///   {"journal_schema":1,"seq":N,"event":"failed","id":"j000001",
///    "error":"..."}
///
/// Journals written before the daemon stopped emitting it may also hold
/// {"event":"started"} records; they load like any other event and
/// replay ignores them.
///
/// "request" is the accepted POST /v1/jobs body verbatim (as parsed
/// JSON), so replay re-runs exactly what the client asked for.  seq is
/// monotonically increasing per journal file.  Corrupt or truncated
/// lines are skipped and counted, never fatal — same contract as the
/// on-disk result stores.  See DESIGN.md §13.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.h"

namespace ringclu {

/// Version of the journal record schema (the "journal_schema" field).
inline constexpr int kJournalSchemaVersion = 1;

/// One journal record (write side and parsed read side).
struct JournalRecord {
  std::string event;  ///< accepted|completed|failed (any string loads)
  std::uint64_t seq = 0;  ///< assigned by append(); preserved by load()
  std::string id;         ///< server job id, "j%06u"
  std::string client;     ///< accepted only
  std::string priority;   ///< accepted only
  JsonValue request;      ///< accepted only: the POST body, parsed
  std::string error;      ///< failed only
};

/// The append-only journal file.  append() is safe from multiple threads
/// (and, via flock, multiple processes); load() is called once before
/// the daemon serves.
class JobJournal {
 public:
  /// \p path "" disables journaling: append() is a no-op and load()
  /// returns nothing.
  explicit JobJournal(std::string path);

  [[nodiscard]] bool enabled() const { return !path_.empty(); }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Appends \p record as one atomic line, assigning it the next seq.
  void append(JournalRecord record);

  struct LoadResult {
    std::vector<JournalRecord> records;  ///< valid records, file order
    std::size_t corrupt_lines = 0;       ///< skipped lines
  };

  /// Reads the journal back.  Missing file = empty journal.  Also
  /// advances the internal seq counter past the highest seq seen, so
  /// records appended after a load continue the sequence.
  [[nodiscard]] LoadResult load();

 private:
  std::string path_;
  std::mutex mutex_;
  std::uint64_t next_seq_ = 1;
};

}  // namespace ringclu
