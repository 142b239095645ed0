#pragma once

/// \file pack_reader.h
/// Replays an RCLP trace pack as a TraceSource.  The file is mmap-backed
/// (read-only, shared) and decoded one block at a time: open() validates
/// header + index footer up front; each block's checksum is verified
/// before decompression and every decode step is bounds-checked, so
/// adversarial bytes produce a sticky diagnostic instead of UB.  A
/// corrupt block mid-stream ends the stream (produce() returns false)
/// with ok() false and error() naming the block.
///
/// The reader overrides save_pos/restore_pos to seek through the block
/// index — O(one block decode) resume instead of the default
/// reset-and-skip replay — pinned bit-identical to the skip path by
/// trace_conformance_test.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "trace/pack/pack_format.h"
#include "trace/trace_source.h"

namespace ringclu {

class TracePackReader final : public TraceSource {
 public:
  /// Maps and validates \p path.  nullptr with \p error set on I/O
  /// failure, bad magic/version/flags, or a malformed index (never
  /// aborts).  Block payloads are validated lazily as they stream.
  [[nodiscard]] static std::unique_ptr<TracePackReader> open(
      const std::string& path, std::string* error);

  ~TracePackReader() override;

  TracePackReader(const TracePackReader&) = delete;
  TracePackReader& operator=(const TracePackReader&) = delete;

  /// "trace:<stem>@<16-hex content digest>" — self-describing, so the
  /// checkpoint workload identity and cache keys cover the trace content,
  /// not just its filename.
  [[nodiscard]] std::string_view name() const override { return name_; }

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] std::uint64_t total_ops() const { return header_.total_ops; }
  [[nodiscard]] std::uint64_t content_digest() const {
    return header_.content_digest;
  }
  [[nodiscard]] std::uint32_t block_count() const {
    return header_.block_count;
  }
  [[nodiscard]] std::uint32_t block_ops() const { return header_.block_ops; }
  /// Sum of compressed block sizes (stats/tooling).
  [[nodiscard]] std::uint64_t compressed_bytes() const;
  /// Sum of raw (encoded, uncompressed) block sizes.
  [[nodiscard]] std::uint64_t raw_bytes() const;

  /// False after the first corrupt block / malformed record; sticky.
  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Seek-based position contract: restore jumps to the containing block
  /// via the index and decodes only that block.
  void save_pos(CheckpointWriter& out) const override;
  void restore_pos(CheckpointReader& in) override;

 protected:
  bool produce(MicroOp& out) override;
  void do_reset() override;

 private:
  TracePackReader() = default;

  /// Decodes block \p index into ops_buf_.  False (sticky fail) on a
  /// checksum/decode failure.
  bool load_block(std::size_t index);
  void fail(const std::string& message);

  std::string path_;
  std::string name_;
  bool ok_ = true;
  std::string error_;

  const std::uint8_t* data_ = nullptr;  ///< mmap base (whole file)
  std::size_t size_ = 0;

  PackHeader header_;
  std::vector<PackBlockInfo> index_;

  static constexpr std::size_t kNoBlock = static_cast<std::size_t>(-1);
  std::size_t cur_block_ = kNoBlock;  ///< block decoded into ops_buf_
  std::vector<std::uint8_t> raw_buf_;  ///< decompressed block, reused
  std::vector<MicroOp> ops_buf_;
  std::size_t buf_pos_ = 0;      ///< next op within ops_buf_
  std::uint64_t consumed_ = 0;   ///< stream index of the next op
};

}  // namespace ringclu
