#include "trace/pack/pack_writer.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "trace/pack/block_codec.h"
#include "util/assert.h"
#include "util/format.h"

namespace ringclu {
namespace {

/// Ops per batch to aim for: four default blocks, so a million-op pack is
/// about sixty handoffs.
constexpr std::size_t kBatchTargetOps = 4 * kPackDefaultBlockOps;

/// Batch buffers in the ring: one filling, one per worker coding, one
/// being committed.  This bounds the memory in flight.
constexpr std::size_t kBatchSlots = 4;

/// Coding workers: the cores left beside the appending and committing
/// threads, at least one and at most two (two already code faster than
/// the committer digests, so a third would not help).
std::size_t worker_count() {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return static_cast<std::size_t>(std::clamp(cores - 2, 1, 2));
}

}  // namespace

TracePackWriter::TracePackWriter(std::string path, std::uint32_t block_ops)
    : path_(std::move(path)), block_ops_(block_ops == 0 ? 1 : block_ops) {
  batch_ops_ = std::max<std::size_t>(1, kBatchTargetOps / block_ops_) *
               block_ops_;
  // Unique temp name per writer instance so concurrent recorders in the
  // same directory never clobber each other's partial file (same idiom as
  // CheckpointWriter::write_file).
  const std::uintptr_t self = reinterpret_cast<std::uintptr_t>(this);
  tmp_path_ = str_format(
      "%s.tmp.%llx", path_.c_str(),
      static_cast<unsigned long long>(
          fnv1a64(reinterpret_cast<const std::uint8_t*>(path_.data()),
                  path_.size()) ^
          self));
  file_ = std::fopen(tmp_path_.c_str(), "wb");
  if (file_ == nullptr) {
    io_fail(str_format("cannot open '%s': %s", tmp_path_.c_str(),
                       std::strerror(errno)));
  } else {
    // Header placeholder; patched with real counts/offsets in close().
    const std::uint8_t zeros[kPackHeaderSize] = {};
    if (std::fwrite(zeros, 1, kPackHeaderSize, file_) != kPackHeaderSize) {
      io_fail(str_format("short write to '%s'", tmp_path_.c_str()));
    }
  }

  slots_.resize(kBatchSlots);
  filling_ = &slots_[0];
  filling_->ops.resize(batch_ops_);
  const std::size_t workers = worker_count();
  threads_.reserve(workers + 1);
  for (std::size_t i = 0; i < workers; ++i) {
    threads_.emplace_back(&TracePackWriter::work, this);
  }
  threads_.emplace_back(&TracePackWriter::commit_loop, this);
}

TracePackWriter::~TracePackWriter() {
  if (closed_) return;
  stop_threads(/*abandon=*/true);
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
    std::remove(tmp_path_.c_str());
  }
}

std::uint64_t TracePackWriter::content_digest() const {
  RINGCLU_EXPECTS(closed_);
  return digest_.value();
}

void TracePackWriter::io_fail(const std::string& message) {
  if (!failed_) {
    failed_ = true;
    error_ = message;
  }
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
    std::remove(tmp_path_.c_str());
  }
}

void TracePackWriter::submit_locked() {
  filling_->count = filled_;
  ++submitted_;
  handed_off_ops_ += filled_;
  filled_ = 0;
  work_cv_.notify_one();
}

void TracePackWriter::hand_off() {
  std::unique_lock<std::mutex> lock(mutex_);
  submit_locked();
  space_cv_.wait(lock,
                 [this] { return submitted_ - committed_ < slots_.size(); });
  filling_ = &slot(submitted_);
  // Slots are sized on first use, so a short pack touches one.
  if (filling_->ops.empty()) filling_->ops.resize(batch_ops_);
}

void TracePackWriter::stop_threads(bool abandon) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closing_ = true;
    abandon_ = abandon;
  }
  work_cv_.notify_all();
  commit_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
  threads_.clear();
}

void TracePackWriter::work() {
  PackBlockCoder coder;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] {
      return abandon_ || closing_ || claimed_ < submitted_;
    });
    if (abandon_ || claimed_ == submitted_) return;
    Batch& batch = slot(claimed_++);
    lock.unlock();

    batch.comp.clear();
    batch.blocks.clear();
    if (!failed_) {
      for (std::size_t first = 0; first < batch.count; first += block_ops_) {
        const std::size_t ops = std::min<std::size_t>(block_ops_,
                                                      batch.count - first);
        const std::size_t start = batch.comp.size();
        PackBlockInfo info;
        info.raw_size = static_cast<std::uint32_t>(
            coder.code({batch.ops.data() + first, ops}, batch.comp));
        info.comp_size = static_cast<std::uint32_t>(batch.comp.size() - start);
        info.op_count = static_cast<std::uint32_t>(ops);
        info.checksum = fnv1a64(batch.comp.data() + start, info.comp_size);
        batch.blocks.push_back(info);
      }
    }

    lock.lock();
    batch.coded = true;
    commit_cv_.notify_one();
  }
}

void TracePackWriter::commit_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    commit_cv_.wait(lock, [this] {
      return abandon_ || slot(committed_).coded ||
             (closing_ && committed_ == submitted_);
    });
    if (abandon_ || !slot(committed_).coded) return;
    Batch& batch = slot(committed_);
    lock.unlock();
    commit(batch);
    lock.lock();
    batch.coded = false;
    ++committed_;
    space_cv_.notify_one();
  }
}

void TracePackWriter::commit(Batch& batch) {
  std::uint64_t first_op = digest_.ops();
  for (std::size_t i = 0; i < batch.count; ++i) digest_.add(batch.ops[i]);
  if (failed_) return;
  for (PackBlockInfo& info : batch.blocks) {
    info.offset = offset_;
    info.first_op = first_op;
    offset_ += info.comp_size;
    first_op += info.op_count;
    index_.push_back(info);
  }
  if (std::fwrite(batch.comp.data(), 1, batch.comp.size(), file_) !=
      batch.comp.size()) {
    io_fail(str_format("short write to '%s'", tmp_path_.c_str()));
  }
}

bool TracePackWriter::close(std::string* error) {
  if (closed_) {
    if (failed_ && error != nullptr) *error = error_;
    return !failed_;
  }
  if (filled_ > 0) {
    // The filling slot is already free, so no wait for space.
    std::lock_guard<std::mutex> lock(mutex_);
    submit_locked();
  }
  stop_threads(/*abandon=*/false);
  closed_ = true;
  if (!failed_) {
    // Index footer: one fixed-width entry per block + trailing checksum.
    std::vector<std::uint8_t> footer;
    footer.reserve(index_.size() * kPackIndexEntrySize + 8);
    auto put_u32 = [&footer](std::uint32_t value) {
      for (int i = 0; i < 4; ++i) {
        footer.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
      }
    };
    auto put_u64 = [&footer](std::uint64_t value) {
      for (int i = 0; i < 8; ++i) {
        footer.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
      }
    };
    for (const PackBlockInfo& info : index_) {
      put_u64(info.offset);
      put_u64(info.first_op);
      put_u32(info.comp_size);
      put_u32(info.raw_size);
      put_u32(info.op_count);
      put_u32(0);
      put_u64(info.checksum);
    }
    const std::uint64_t index_checksum = fnv1a64(footer.data(), footer.size());
    put_u64(index_checksum);
    if (std::fwrite(footer.data(), 1, footer.size(), file_) !=
        footer.size()) {
      io_fail(str_format("short write to '%s'", tmp_path_.c_str()));
    }
  }
  if (!failed_) {
    PackHeader header;
    header.total_ops = digest_.ops();
    header.content_digest = digest_.value();
    header.index_offset = offset_;
    header.block_count = static_cast<std::uint32_t>(index_.size());
    header.block_ops = block_ops_;
    std::uint8_t bytes[kPackHeaderSize];
    header.encode(bytes);
    if (std::fseek(file_, 0, SEEK_SET) != 0 ||
        std::fwrite(bytes, 1, kPackHeaderSize, file_) != kPackHeaderSize) {
      io_fail(str_format("cannot patch header of '%s'", tmp_path_.c_str()));
    }
  }
  if (!failed_) {
    if (std::fclose(file_) != 0) {
      file_ = nullptr;
      failed_ = true;
      error_ = str_format("short write to '%s'", tmp_path_.c_str());
      std::remove(tmp_path_.c_str());
    } else {
      file_ = nullptr;
      if (std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
        failed_ = true;
        error_ = str_format("cannot rename '%s' to '%s': %s",
                            tmp_path_.c_str(), path_.c_str(),
                            std::strerror(errno));
        std::remove(tmp_path_.c_str());
      }
    }
  }
  if (failed_ && error != nullptr) *error = error_;
  return !failed_;
}

}  // namespace ringclu
