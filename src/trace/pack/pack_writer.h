#pragma once

/// \file pack_writer.h
/// Streams micro-ops into an RCLP trace pack (pack_format.h) through a
/// three-stage pipeline (DESIGN.md §14):
///
///   1. the appending thread copies ops into a batch of several blocks;
///   2. a small worker pool encodes, compresses and checksums the blocks
///      of whole batches in parallel;
///   3. one committer thread takes the batches in order, folds their ops
///      into the content digest and writes their blocks.
///
/// A fixed ring of batch buffers bounds the memory in flight, and every
/// handoff carries a whole batch, so threads wake a few dozen times per
/// million ops; they block on condition variables and never spin.  The
/// bytes written are those of a serial writer.  Blocks go to a unique temp
/// file that close() finalizes (index footer, header patch) and atomically
/// renames into place, so a crashed, failed or abandoned write never
/// leaves a partial pack at the destination (the checkpoint writer's
/// idiom).

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "isa/micro_op.h"
#include "trace/pack/pack_format.h"

namespace ringclu {

class TracePackWriter {
 public:
  explicit TracePackWriter(std::string path,
                           std::uint32_t block_ops = kPackDefaultBlockOps);

  /// Without a prior close() this abandons the pack: it stops and joins
  /// the pipeline's threads and removes the temp file, so nothing reaches
  /// the destination.
  ~TracePackWriter();

  TracePackWriter(const TracePackWriter&) = delete;
  TracePackWriter& operator=(const TracePackWriter&) = delete;

  void append(const MicroOp& op) {
    filling_->ops[filled_] = op;
    if (++filled_ == batch_ops_) hand_off();
  }

  /// Drains the pipeline, writes the index footer, patches the header and
  /// renames the temp file into place.  False with \p error set on any
  /// I/O failure (the first one sticks; the temp file is then removed).
  [[nodiscard]] bool close(std::string* error);

  /// Ops appended so far.
  [[nodiscard]] std::uint64_t ops_written() const {
    return handed_off_ops_ + filled_;
  }

  /// Content digest of every appended op.  \pre close() was called.
  [[nodiscard]] std::uint64_t content_digest() const;

 private:
  /// One handoff unit: a whole number of blocks of ops (the last batch
  /// may end in a partial block) and, once coded, their compressed bytes
  /// back to back.
  struct Batch {
    std::vector<MicroOp> ops;  ///< sized once; the first `count` are live
    std::size_t count = 0;
    std::vector<std::uint8_t> comp;
    std::vector<PackBlockInfo> blocks;  ///< offset/first_op set at commit
    bool coded = false;
  };

  [[nodiscard]] Batch& slot(std::uint64_t index) {
    return slots_[index % slots_.size()];
  }
  void submit_locked();
  void hand_off();
  void stop_threads(bool abandon);
  void work();
  void commit_loop();
  void commit(Batch& batch);
  void io_fail(const std::string& message);

  std::string path_;
  std::string tmp_path_;
  std::uint32_t block_ops_;
  std::size_t batch_ops_;
  std::FILE* file_ = nullptr;
  bool closed_ = false;

  // Appending thread only.
  Batch* filling_ = nullptr;
  std::size_t filled_ = 0;
  std::uint64_t handed_off_ops_ = 0;

  // Committer thread only until the threads are joined.
  std::string error_;
  TraceDigest digest_;
  std::vector<PackBlockInfo> index_;
  std::uint64_t offset_ = kPackHeaderSize;
  /// Set by the committer (or the constructor); workers read it to skip
  /// coding blocks that will never be written.
  std::atomic<bool> failed_{false};

  // Guarded by mutex_ (with each Batch's `count` and `coded`).
  std::mutex mutex_;
  std::condition_variable work_cv_;    ///< workers: a batch to code
  std::condition_variable commit_cv_;  ///< committer: next batch coded
  std::condition_variable space_cv_;   ///< appender: a batch slot freed
  std::uint64_t submitted_ = 0;        ///< batches handed off
  std::uint64_t claimed_ = 0;          ///< batches taken by a worker
  std::uint64_t committed_ = 0;        ///< batches committed, slot free
  bool closing_ = false;               ///< no batch follows the last one
  bool abandon_ = false;               ///< stop without finishing

  std::vector<Batch> slots_;
  std::vector<std::thread> threads_;
};

}  // namespace ringclu
