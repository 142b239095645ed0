#pragma once

/// \file pack_format.h
/// On-disk layout constants for the RCLP block-compressed trace-pack
/// format (DESIGN.md §14).  A pack is:
///
///   [64-byte header] [block 0] ... [block N-1] [index footer]
///
/// Header (fixed-width little-endian):
///   off  0  u32  magic            "RCLP"
///   off  4  u16  format version   kPackFormatVersion
///   off  6  u16  op schema        kPackOpSchemaVersion (compat field:
///                                 bumps when MicroOp encoding semantics
///                                 change, like kSimSchemaVersion does for
///                                 counters)
///   off  8  u64  total ops
///   off 16  u64  content digest   trace_content_digest of the op stream
///   off 24  u64  index offset     file offset of the index footer
///   off 32  u32  block count
///   off 36  u32  ops per block    (every block but the last holds exactly
///                                 this many ops)
///   off 40  u32  flags            0; reserved for future encodings
///   off 44  u32  reserved         0
///   off 48  u64  header checksum  fnv1a64 over bytes [0, 48)
///   off 56  u64  reserved         0
///
/// Each block is the varint/delta op encoding (block_codec.h) compressed
/// with the dependency-free LZ scheme, fully self-contained: delta
/// baselines restart at zero so any block decodes without its
/// predecessors — the property the seek-based restore_pos needs.
///
/// Index footer: block count entries of kPackIndexEntrySize bytes
///   u64 offset | u64 first op | u32 compressed size | u32 raw size |
///   u32 op count | u32 reserved(0) | u64 fnv1a64 of compressed bytes
/// followed by one u64 fnv1a64 over all entry bytes.
///
/// Compat rules: readers reject unknown magic, format version, op schema
/// or nonzero flags (never misread), and every size/offset/checksum is
/// validated before use so adversarial bytes diagnose instead of
/// corrupting — same contract as core/checkpoint.h.  Writes are atomic
/// (unique temp file + rename) in the checkpoint style.

#include <cstddef>
#include <cstdint>
#include <string>

#include "isa/micro_op.h"

namespace ringclu {

inline constexpr std::uint32_t kPackMagic = 0x504C4352;  // "RCLP"
inline constexpr std::uint16_t kPackFormatVersion = 1;

/// Compat field for the op encoding itself: bump when the block record
/// layout or MicroOp field semantics change so old packs are rejected,
/// independent of the container format version.
inline constexpr std::uint16_t kPackOpSchemaVersion = 1;

inline constexpr std::uint32_t kPackDefaultBlockOps = 4096;
inline constexpr std::size_t kPackHeaderSize = 64;
inline constexpr std::size_t kPackIndexEntrySize = 40;

/// Canonical pack filename extension; the registry scans for it and the
/// CLIs dispatch on it.
inline constexpr std::string_view kPackExtension = ".rclp";

/// FNV-1a 64-bit over a byte range; the pack's only hash (checksums and
/// the content digest).  Deterministic, dependency-free, endian-stable.
[[nodiscard]] std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t size,
                                    std::uint64_t seed = 14695981039346656037ULL);

/// Streaming digest over a micro-op sequence.  Hashes a canonical
/// fixed-width serialization of exactly the fields an op semantically
/// carries (memory fields only for loads/stores, branch fields only for
/// branches), so the digest of a stream is identical whether it came from
/// the synthetic generator, a RITL text log or a pack — the round-trip
/// equality contract of record, ingest and cat.
class TraceDigest {
 public:
  void add(const MicroOp& op);
  [[nodiscard]] std::uint64_t value() const { return state_; }
  [[nodiscard]] std::uint64_t ops() const { return ops_; }

 private:
  void byte(std::uint8_t value) {
    state_ ^= value;
    state_ *= 1099511628211ULL;
  }
  void word(std::uint64_t value) {
    for (int shift = 0; shift < 64; shift += 8) {
      byte(static_cast<std::uint8_t>(value >> shift));
    }
  }

  std::uint64_t state_ = 14695981039346656037ULL;
  std::uint64_t ops_ = 0;
};

/// 16 lowercase hex digits, the digest rendering used in pack names
/// ("trace:<stem>@<digest>") and tool output.
[[nodiscard]] std::string format_digest(std::uint64_t digest);

/// Decoded header fields (see layout above).
struct PackHeader {
  std::uint16_t format_version = kPackFormatVersion;
  std::uint16_t op_schema = kPackOpSchemaVersion;
  std::uint64_t total_ops = 0;
  std::uint64_t content_digest = 0;
  std::uint64_t index_offset = 0;
  std::uint32_t block_count = 0;
  std::uint32_t block_ops = kPackDefaultBlockOps;
  std::uint32_t flags = 0;

  /// Serializes to the fixed 64-byte layout (checksum computed here).
  void encode(std::uint8_t out[kPackHeaderSize]) const;

  /// Validates magic, versions, flags and checksum.  Returns false with
  /// \p error set (never aborts) on any mismatch.
  [[nodiscard]] static bool decode(const std::uint8_t* data, std::size_t size,
                                   PackHeader& out, std::string* error);
};

/// One index-footer entry.
struct PackBlockInfo {
  std::uint64_t offset = 0;    ///< file offset of the compressed block
  std::uint64_t first_op = 0;  ///< stream index of the block's first op
  std::uint32_t comp_size = 0;
  std::uint32_t raw_size = 0;
  std::uint32_t op_count = 0;
  std::uint64_t checksum = 0;  ///< fnv1a64 of the compressed bytes
};

}  // namespace ringclu
