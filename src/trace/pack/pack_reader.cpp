#include "trace/pack/pack_reader.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "core/checkpoint.h"
#include "trace/pack/block_codec.h"
#include "util/format.h"

namespace ringclu {
namespace {

std::uint32_t get_u32(const std::uint8_t* in) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(in[i]) << (8 * i);
  }
  return value;
}

std::uint64_t get_u64(const std::uint8_t* in) {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  }
  return value;
}

bool open_error(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
  return false;
}

/// Basename without the ".rclp" extension.
std::string pack_stem(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  std::string stem =
      slash == std::string::npos ? path : path.substr(slash + 1);
  if (stem.size() > kPackExtension.size() &&
      stem.compare(stem.size() - kPackExtension.size(),
                   kPackExtension.size(), kPackExtension) == 0) {
    stem.resize(stem.size() - kPackExtension.size());
  }
  return stem;
}

}  // namespace

std::unique_ptr<TracePackReader> TracePackReader::open(const std::string& path,
                                                       std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    open_error(error, str_format("cannot open '%s': %s", path.c_str(),
                                 std::strerror(errno)));
    return nullptr;
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    open_error(error, str_format("cannot stat '%s'", path.c_str()));
    return nullptr;
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size < kPackHeaderSize) {
    ::close(fd);
    open_error(error,
               str_format("'%s': truncated header", path.c_str()));
    return nullptr;
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) {
    open_error(error, str_format("cannot mmap '%s': %s", path.c_str(),
                                 std::strerror(errno)));
    return nullptr;
  }

  std::unique_ptr<TracePackReader> reader(new TracePackReader());
  reader->path_ = path;
  reader->data_ = static_cast<const std::uint8_t*>(map);
  reader->size_ = size;

  std::string message;
  if (!PackHeader::decode(reader->data_, size, reader->header_, &message)) {
    open_error(error, str_format("'%s': %s", path.c_str(), message.c_str()));
    return nullptr;  // destructor unmaps
  }
  const PackHeader& header = reader->header_;

  // Index footer bounds: entries + trailing checksum must sit inside the
  // file, after the header.  All arithmetic guards against overflow by
  // dividing instead of multiplying.
  if (header.index_offset < kPackHeaderSize || header.index_offset > size ||
      (size - header.index_offset) < 8 ||
      header.block_count >
          (size - header.index_offset - 8) / kPackIndexEntrySize) {
    open_error(error, str_format("'%s': index out of bounds", path.c_str()));
    return nullptr;
  }
  const std::uint8_t* footer = reader->data_ + header.index_offset;
  const std::size_t footer_bytes = header.block_count * kPackIndexEntrySize;
  if (get_u64(footer + footer_bytes) != fnv1a64(footer, footer_bytes)) {
    open_error(error,
               str_format("'%s': index checksum mismatch", path.c_str()));
    return nullptr;
  }

  reader->index_.reserve(header.block_count);
  std::uint64_t expected_first = 0;
  for (std::uint32_t i = 0; i < header.block_count; ++i) {
    const std::uint8_t* entry = footer + i * kPackIndexEntrySize;
    PackBlockInfo info;
    info.offset = get_u64(entry + 0);
    info.first_op = get_u64(entry + 8);
    info.comp_size = get_u32(entry + 16);
    info.raw_size = get_u32(entry + 20);
    info.op_count = get_u32(entry + 24);
    info.checksum = get_u64(entry + 32);
    const bool in_file = info.offset >= kPackHeaderSize &&
                         info.offset <= header.index_offset &&
                         info.comp_size <= header.index_offset - info.offset;
    const bool shape_ok =
        info.op_count > 0 && info.op_count <= header.block_ops &&
        (i + 1 == header.block_count || info.op_count == header.block_ops) &&
        info.first_op == expected_first;
    if (!in_file || !shape_ok) {
      open_error(error,
                 str_format("'%s': malformed index entry %u", path.c_str(),
                            static_cast<unsigned>(i)));
      return nullptr;
    }
    expected_first += info.op_count;
    reader->index_.push_back(info);
  }
  if (expected_first != header.total_ops) {
    open_error(error, str_format("'%s': index op count disagrees with header",
                                 path.c_str()));
    return nullptr;
  }

  reader->name_ = "trace:" + pack_stem(path) + "@" +
                  format_digest(header.content_digest);
  return reader;
}

TracePackReader::~TracePackReader() {
  if (data_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }
}

std::uint64_t TracePackReader::compressed_bytes() const {
  std::uint64_t total = 0;
  for (const PackBlockInfo& info : index_) total += info.comp_size;
  return total;
}

std::uint64_t TracePackReader::raw_bytes() const {
  std::uint64_t total = 0;
  for (const PackBlockInfo& info : index_) total += info.raw_size;
  return total;
}

void TracePackReader::fail(const std::string& message) {
  if (ok_) {
    ok_ = false;
    error_ = message;
  }
}

bool TracePackReader::load_block(std::size_t index) {
  if (index >= index_.size()) {
    fail(str_format("'%s': block index out of range", path_.c_str()));
    return false;
  }
  const PackBlockInfo& info = index_[index];
  const std::uint8_t* comp = data_ + info.offset;
  if (fnv1a64(comp, info.comp_size) != info.checksum) {
    fail(str_format("'%s': block %zu checksum mismatch", path_.c_str(),
                    index));
    return false;
  }
  raw_buf_.clear();
  std::string message;
  if (!pack_decompress({comp, info.comp_size}, info.raw_size, raw_buf_,
                       &message)) {
    fail(str_format("'%s': block %zu: %s", path_.c_str(), index,
                    message.c_str()));
    return false;
  }
  ops_buf_.clear();
  ops_buf_.reserve(info.op_count);
  if (!decode_ops_block(raw_buf_, info.op_count, ops_buf_, &message)) {
    ops_buf_.clear();
    fail(str_format("'%s': block %zu: %s", path_.c_str(), index,
                    message.c_str()));
    return false;
  }
  cur_block_ = index;
  buf_pos_ = 0;
  return true;
}

bool TracePackReader::produce(MicroOp& out) {
  if (!ok_) return false;
  if (consumed_ >= header_.total_ops) return false;
  if (cur_block_ == kNoBlock || buf_pos_ >= ops_buf_.size()) {
    const std::size_t next = cur_block_ == kNoBlock ? 0 : cur_block_ + 1;
    if (!load_block(next)) return false;
  }
  out = ops_buf_[buf_pos_++];
  ++consumed_;
  return true;
}

void TracePackReader::do_reset() {
  cur_block_ = kNoBlock;
  ops_buf_.clear();
  buf_pos_ = 0;
  consumed_ = 0;
}

void TracePackReader::save_pos(CheckpointWriter& out) const {
  out.u64(position());
}

void TracePackReader::restore_pos(CheckpointReader& in) {
  const std::uint64_t target = in.u64();
  if (!in.ok()) return;
  if (!ok_) {
    in.fail("trace pack is in an error state");
    return;
  }
  if (target > header_.total_ops) {
    in.fail("checkpointed position beyond trace pack");
    return;
  }
  reset();
  if (target == header_.total_ops) {
    // Positioned exactly at end of stream: nothing to decode.
    consumed_ = target;
    set_position(target);
    return;
  }
  // The containing block via the index: the last entry whose first_op is
  // <= target.  Only that one block is decoded — the O(1)-in-stream-length
  // resume this override exists for.
  const auto it = std::upper_bound(
      index_.begin(), index_.end(), target,
      [](std::uint64_t value, const PackBlockInfo& info) {
        return value < info.first_op;
      });
  const std::size_t block = static_cast<std::size_t>(it - index_.begin()) - 1;
  if (!load_block(block)) {
    in.fail(error_);
    return;
  }
  buf_pos_ = static_cast<std::size_t>(target - index_[block].first_op);
  consumed_ = target;
  set_position(target);
}

}  // namespace ringclu
