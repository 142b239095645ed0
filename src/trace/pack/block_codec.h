#pragma once

/// \file block_codec.h
/// The two per-block transforms of the RCLP pack format: a varint/delta
/// micro-op record encoding (one record per op: a flags byte says which
/// register fields follow; the PC is a delta from the previous op's PC and
/// a memory address a delta from the previous memory op's address; both
/// baselines restart at zero in every block, so blocks are
/// self-contained) and a dependency-free LZ-style byte compressor.  Both
/// decoders are fully bounds-checked and never abort: malformed input
/// returns false with \p error set — adversarial bytes must diagnose, not
/// corrupt (fuzz-pinned).
///
/// Record layout (one per op, all varints LEB128, deltas zig-zag):
///   u8 flags (1=dst, 2=src0, 4=src1, 8=taken) | u8 op class |
///   u8 branch kind | varint pc delta | [u8 dst] [u8 src0] [u8 src1] |
///   mem ops: varint addr delta, u8 size | branches: varint target
///
/// Compressed stream: a sequence of varint-led commands until exactly
/// raw_size output bytes are produced.
///   even command v: literal run of (v>>1)+1 bytes, which follow verbatim
///   odd  command v: match of length (v>>1)+kPackMinMatch at varint
///                   distance d in [1, bytes produced so far]

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "isa/micro_op.h"

namespace ringclu {

inline constexpr std::size_t kPackMinMatch = 4;

/// Encodes \p ops as one self-contained block (delta baselines start at
/// zero), appending to \p out.
void encode_ops_block(std::span<const MicroOp> ops,
                      std::vector<std::uint8_t>& out);

/// Decodes exactly \p op_count records from \p raw into \p out (appended).
/// False with \p error set on truncation, oversized varints, trailing
/// garbage, or out-of-range class/kind/register bytes.
[[nodiscard]] bool decode_ops_block(std::span<const std::uint8_t> raw,
                                    std::uint32_t op_count,
                                    std::vector<MicroOp>& out,
                                    std::string* error);

/// Compresses \p raw (deterministic greedy LZ), appending to \p out.
void pack_compress(std::span<const std::uint8_t> raw,
                   std::vector<std::uint8_t>& out);

/// Decompresses \p comp to exactly \p raw_size bytes (appended to \p out).
/// False with \p error set on any malformed command, bad distance, or
/// output-size mismatch.
[[nodiscard]] bool pack_decompress(std::span<const std::uint8_t> comp,
                                   std::size_t raw_size,
                                   std::vector<std::uint8_t>& out,
                                   std::string* error);

}  // namespace ringclu
