#include "trace/pack/block_codec.h"

#include <cstddef>

#include "isa/reg.h"

namespace ringclu {
namespace {

constexpr std::uint64_t zigzag(std::int64_t value) {
  return (static_cast<std::uint64_t>(value) << 1) ^
         static_cast<std::uint64_t>(value >> 63);
}

constexpr std::int64_t unzigzag(std::uint64_t value) {
  return static_cast<std::int64_t>(value >> 1) ^
         -static_cast<std::int64_t>(value & 1);
}

// Flags byte layout: which optional fields follow in the record.
constexpr std::uint8_t kHasDst = 1u << 0;
constexpr std::uint8_t kHasSrc0 = 1u << 1;
constexpr std::uint8_t kHasSrc1 = 1u << 2;
constexpr std::uint8_t kTaken = 1u << 3;
constexpr std::uint8_t kKnownFlags = kHasDst | kHasSrc0 | kHasSrc1 | kTaken;

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(value));
}

/// Bounds-checked byte cursor shared by both decoders: every failure is
/// sticky and carries a message, so callers surface one diagnostic.
class ByteCursor {
 public:
  explicit ByteCursor(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] bool at_end() const { return pos_ >= data_.size(); }

  void fail(const char* message) {
    if (ok_) {
      ok_ = false;
      error_ = message;
    }
  }

  [[nodiscard]] std::uint8_t u8() {
    if (!ok_) return 0;
    if (pos_ >= data_.size()) {
      fail("truncated record");
      return 0;
    }
    return data_[pos_++];
  }

  [[nodiscard]] std::uint64_t varint() {
    std::uint64_t value = 0;
    int shift = 0;
    for (;;) {
      const std::uint8_t byte = u8();
      if (!ok_) return 0;
      if (shift == 63 && (byte & 0x7e) != 0) {
        fail("oversized varint");
        return 0;
      }
      value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return value;
      shift += 7;
      if (shift >= 64) {
        fail("oversized varint");
        return 0;
      }
    }
  }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

bool set_error(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

[[nodiscard]] bool decode_reg(std::uint8_t flat, RegId& out) {
  if (flat >= kNumFlatArchRegs) return false;
  const RegClass cls =
      flat >= kArchRegsPerClass ? RegClass::Fp : RegClass::Int;
  out = RegId::make(cls, flat % kArchRegsPerClass);
  return true;
}

}  // namespace

void encode_ops_block(std::span<const MicroOp> ops,
                      std::vector<std::uint8_t>& out) {
  std::uint64_t last_pc = 0;
  std::uint64_t last_addr = 0;
  for (const MicroOp& op : ops) {
    std::uint8_t flags = 0;
    if (op.dst.valid()) flags |= kHasDst;
    if (op.src[0].valid()) flags |= kHasSrc0;
    if (op.src[1].valid()) flags |= kHasSrc1;
    if (op.taken) flags |= kTaken;
    out.push_back(flags);
    out.push_back(static_cast<std::uint8_t>(op.cls));
    out.push_back(static_cast<std::uint8_t>(op.branch_kind));
    put_varint(out, zigzag(static_cast<std::int64_t>(op.pc - last_pc)));
    last_pc = op.pc;
    if (op.dst.valid()) {
      out.push_back(static_cast<std::uint8_t>(op.dst.flat()));
    }
    if (op.src[0].valid()) {
      out.push_back(static_cast<std::uint8_t>(op.src[0].flat()));
    }
    if (op.src[1].valid()) {
      out.push_back(static_cast<std::uint8_t>(op.src[1].flat()));
    }
    if (op.is_mem()) {
      put_varint(out,
                 zigzag(static_cast<std::int64_t>(op.mem_addr - last_addr)));
      out.push_back(op.mem_size);
      last_addr = op.mem_addr;
    }
    if (op.is_branch()) {
      put_varint(out, op.target);
    }
  }
}

bool decode_ops_block(std::span<const std::uint8_t> raw,
                      std::uint32_t op_count, std::vector<MicroOp>& out,
                      std::string* error) {
  ByteCursor in(raw);
  std::uint64_t last_pc = 0;
  std::uint64_t last_addr = 0;
  for (std::uint32_t i = 0; i < op_count; ++i) {
    MicroOp op;
    const std::uint8_t flags = in.u8();
    const std::uint8_t cls = in.u8();
    const std::uint8_t branch_kind = in.u8();
    if (!in.ok()) return set_error(error, in.error());
    if ((flags & ~kKnownFlags) != 0) {
      return set_error(error, "bad record flags");
    }
    if (cls >= kNumOpClasses) {
      return set_error(error, "bad op class");
    }
    if (branch_kind > static_cast<std::uint8_t>(BranchKind::Return)) {
      return set_error(error, "bad branch kind");
    }
    op.cls = static_cast<OpClass>(cls);
    op.branch_kind = static_cast<BranchKind>(branch_kind);
    op.taken = (flags & kTaken) != 0;
    last_pc += static_cast<std::uint64_t>(unzigzag(in.varint()));
    op.pc = last_pc;
    if (flags & kHasDst) {
      if (!decode_reg(in.u8(), op.dst)) {
        return set_error(error, in.ok() ? "bad register byte" : in.error());
      }
    }
    if (flags & kHasSrc0) {
      if (!decode_reg(in.u8(), op.src[0])) {
        return set_error(error, in.ok() ? "bad register byte" : in.error());
      }
    }
    if (flags & kHasSrc1) {
      if (!decode_reg(in.u8(), op.src[1])) {
        return set_error(error, in.ok() ? "bad register byte" : in.error());
      }
    }
    if (op.is_mem()) {
      last_addr += static_cast<std::uint64_t>(unzigzag(in.varint()));
      op.mem_addr = last_addr;
      op.mem_size = in.u8();
    }
    if (op.is_branch()) {
      op.target = in.varint();
    }
    if (!in.ok()) return set_error(error, in.error());
    out.push_back(op);
  }
  if (!in.at_end()) {
    return set_error(error, "trailing bytes after last record");
  }
  return true;
}

namespace {

constexpr std::size_t kHashBits = 15;
constexpr std::size_t kWindow = 1u << 16;
constexpr std::size_t kNoPos = static_cast<std::size_t>(-1);

std::uint32_t hash4(const std::uint8_t* data) {
  const std::uint32_t word = static_cast<std::uint32_t>(data[0]) |
                             (static_cast<std::uint32_t>(data[1]) << 8) |
                             (static_cast<std::uint32_t>(data[2]) << 16) |
                             (static_cast<std::uint32_t>(data[3]) << 24);
  return (word * 2654435761u) >> (32 - kHashBits);
}

void emit_literals(std::span<const std::uint8_t> raw, std::size_t begin,
                   std::size_t end, std::vector<std::uint8_t>& out) {
  if (begin >= end) return;
  const std::size_t run = end - begin;
  put_varint(out, (static_cast<std::uint64_t>(run) - 1) << 1);
  out.insert(out.end(), raw.begin() + static_cast<std::ptrdiff_t>(begin),
             raw.begin() + static_cast<std::ptrdiff_t>(end));
}

}  // namespace

void pack_compress(std::span<const std::uint8_t> raw,
                   std::vector<std::uint8_t>& out) {
  const std::size_t size = raw.size();
  std::vector<std::size_t> head(1u << kHashBits, kNoPos);
  std::size_t literal_start = 0;
  std::size_t pos = 0;
  while (pos + kPackMinMatch <= size) {
    const std::uint32_t slot = hash4(raw.data() + pos);
    const std::size_t candidate = head[slot];
    head[slot] = pos;
    if (candidate != kNoPos && pos - candidate <= kWindow &&
        raw[candidate] == raw[pos] && raw[candidate + 1] == raw[pos + 1] &&
        raw[candidate + 2] == raw[pos + 2] &&
        raw[candidate + 3] == raw[pos + 3]) {
      std::size_t length = kPackMinMatch;
      while (pos + length < size &&
             raw[candidate + length] == raw[pos + length]) {
        ++length;
      }
      emit_literals(raw, literal_start, pos, out);
      put_varint(out, ((static_cast<std::uint64_t>(length) - kPackMinMatch)
                       << 1) |
                          1);
      put_varint(out, pos - candidate);
      // Index the skipped positions so later matches can reference them.
      const std::size_t stop =
          size >= kPackMinMatch ? size - kPackMinMatch : 0;
      for (std::size_t i = pos + 1; i < pos + length && i <= stop; ++i) {
        head[hash4(raw.data() + i)] = i;
      }
      pos += length;
      literal_start = pos;
    } else {
      ++pos;
    }
  }
  emit_literals(raw, literal_start, size, out);
}

bool pack_decompress(std::span<const std::uint8_t> comp, std::size_t raw_size,
                     std::vector<std::uint8_t>& out, std::string* error) {
  ByteCursor in(comp);
  const std::size_t base = out.size();
  std::size_t produced = 0;
  while (produced < raw_size) {
    const std::uint64_t command = in.varint();
    if (!in.ok()) return set_error(error, in.error());
    if ((command & 1) == 0) {
      const std::uint64_t run = (command >> 1) + 1;
      if (run > raw_size - produced) {
        return set_error(error, "literal run overflows block");
      }
      for (std::uint64_t i = 0; i < run; ++i) {
        out.push_back(in.u8());
      }
      if (!in.ok()) return set_error(error, in.error());
      produced += run;
    } else {
      const std::uint64_t length = (command >> 1) + kPackMinMatch;
      const std::uint64_t distance = in.varint();
      if (!in.ok()) return set_error(error, in.error());
      if (distance == 0 || distance > produced) {
        return set_error(error, "match distance out of range");
      }
      if (length > raw_size - produced) {
        return set_error(error, "match length overflows block");
      }
      // Byte-wise copy: overlapping matches (distance < length) are the
      // run-length idiom and must replicate already-copied bytes.
      std::size_t src = base + produced - distance;
      for (std::uint64_t i = 0; i < length; ++i) {
        out.push_back(out[src + i]);
      }
      produced += length;
    }
  }
  if (!in.at_end()) {
    return set_error(error, "trailing bytes after compressed stream");
  }
  return true;
}

}  // namespace ringclu
