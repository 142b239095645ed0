#include "core/checkpoint.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "core/sim_result.h"
#include "util/assert.h"
#include "util/format.h"
#include "util/rng.h"

namespace ringclu {
namespace {

constexpr std::size_t kMaxStringBytes = 1u << 20;   // 1 MiB
constexpr std::size_t kMaxVectorItems = 1u << 26;   // 64 Mi entries

}  // namespace

void CheckpointWriter::f64(double value) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value));
  std::memcpy(&bits, &value, sizeof(bits));
  u64(bits);
}

void CheckpointWriter::str(std::string_view text) {
  RINGCLU_EXPECTS(text.size() <= kMaxStringBytes);
  u32(static_cast<std::uint32_t>(text.size()));
  buffer_.append(text.data(), text.size());
}

void CheckpointWriter::vec_u8(const std::vector<std::uint8_t>& values) {
  items(values, kMaxVectorItems, 1, [this](std::uint8_t v) { u8(v); });
}
void CheckpointWriter::vec_u64(const std::vector<std::uint64_t>& values) {
  items(values, kMaxVectorItems, 8, [this](std::uint64_t v) { u64(v); });
}
void CheckpointWriter::vec_i64(const std::vector<std::int64_t>& values) {
  items(values, kMaxVectorItems, 8, [this](std::int64_t v) { i64(v); });
}
void CheckpointWriter::vec_int(const std::vector<int>& values) {
  items(values, kMaxVectorItems, 8, [this](int v) { i64(v); });
}

void CheckpointWriter::begin_section(std::uint32_t tag) {
  u32(tag);
  open_sections_.push_back(buffer_.size());
  u64(0);  // length placeholder, back-patched by end_section
}

void CheckpointWriter::end_section() {
  RINGCLU_EXPECTS(!open_sections_.empty());
  const std::size_t length_at = open_sections_.back();
  open_sections_.pop_back();
  const std::uint64_t payload = buffer_.size() - (length_at + 8);
  for (int i = 0; i < 8; ++i) {
    buffer_[length_at + i] = static_cast<char>((payload >> (8 * i)) & 0xFF);
  }
}

bool CheckpointWriter::write_file(const std::string& path,
                                  std::string* error) const {
  RINGCLU_EXPECTS(open_sections_.empty());
  // Unique temp name per writer instance so concurrent workers in the same
  // directory never clobber each other's partial file.
  const std::uintptr_t self = reinterpret_cast<std::uintptr_t>(this);
  const std::string tmp =
      str_format("%s.tmp.%llx", path.c_str(),
                 static_cast<unsigned long long>(fnv1a(path) ^ self));
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) {
    if (error) *error = str_format("cannot open '%s': %s", tmp.c_str(),
                                   std::strerror(errno));
    return false;
  }
  const std::size_t written =
      std::fwrite(buffer_.data(), 1, buffer_.size(), file);
  const bool flushed = std::fclose(file) == 0;
  if (written != buffer_.size() || !flushed) {
    if (error) *error = str_format("short write to '%s'", tmp.c_str());
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    if (error) *error = str_format("cannot rename '%s' to '%s': %s",
                                   tmp.c_str(), path.c_str(),
                                   std::strerror(errno));
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<CheckpointReader> CheckpointReader::from_file(
    const std::string& path, std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (error) *error = str_format("cannot open '%s': %s", path.c_str(),
                                   std::strerror(errno));
    return std::nullopt;
  }
  std::string bytes;
  char chunk[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    bytes.append(chunk, got);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    if (error) *error = str_format("read error on '%s'", path.c_str());
    return std::nullopt;
  }
  return CheckpointReader(std::move(bytes));
}

bool CheckpointReader::need(std::size_t count) {
  if (!ok_) return false;
  if (bytes_.size() - pos_ < count) {
    fail("truncated checkpoint stream");
    return false;
  }
  if (!sections_.empty() && pos_ + count > sections_.back().second) {
    fail("read crosses section boundary");
    return false;
  }
  return true;
}

std::uint8_t CheckpointReader::u8() {
  if (!need(1)) return 0;
  return static_cast<std::uint8_t>(bytes_[pos_++]);
}

std::uint16_t CheckpointReader::u16() {
  if (!need(2)) return 0;
  std::uint16_t value = 0;
  for (int i = 0; i < 2; ++i) {
    value |= static_cast<std::uint16_t>(
        static_cast<std::uint8_t>(bytes_[pos_++]) << (8 * i));
  }
  return value;
}

std::uint32_t CheckpointReader::u32() {
  if (!need(4)) return 0;
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    const auto byte = static_cast<std::uint8_t>(bytes_[pos_++]);
    value |= static_cast<std::uint32_t>(byte) << (8 * i);
  }
  return value;
}

std::uint64_t CheckpointReader::u64() {
  if (!need(8)) return 0;
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    const auto byte = static_cast<std::uint8_t>(bytes_[pos_++]);
    value |= static_cast<std::uint64_t>(byte) << (8 * i);
  }
  return value;
}

double CheckpointReader::f64() {
  const std::uint64_t bits = u64();
  double value = 0.0;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

std::string CheckpointReader::str() {
  const std::uint32_t size = u32();
  if (size > kMaxStringBytes) {
    fail("string length out of range");
    return {};
  }
  if (!need(size)) return {};
  std::string out = bytes_.substr(pos_, size);
  pos_ += size;
  return out;
}

void CheckpointReader::vec_u8(std::vector<std::uint8_t>& out) {
  items(out, kMaxVectorItems, 1, [this](std::uint8_t& v) { u8(v); });
}
void CheckpointReader::vec_u64(std::vector<std::uint64_t>& out) {
  items(out, kMaxVectorItems, 8, [this](std::uint64_t& v) { u64(v); });
}
void CheckpointReader::vec_i64(std::vector<std::int64_t>& out) {
  items(out, kMaxVectorItems, 8, [this](std::int64_t& v) { i64(v); });
}
void CheckpointReader::vec_int(std::vector<int>& out) {
  items(out, kMaxVectorItems, 8, [this](int& v) { i64(v); });
}

bool CheckpointReader::count_fits(std::uint64_t n, std::uint64_t max,
                                  std::size_t min_bytes_per_item) {
  if (!ok_) return false;
  if (n > max) {
    fail(str_format("record count %llu exceeds its limit %llu",
                    static_cast<unsigned long long>(n),
                    static_cast<unsigned long long>(max)));
    return false;
  }
  const std::size_t end =
      sections_.empty() ? bytes_.size() : sections_.back().second;
  if (min_bytes_per_item != 0 && n > (end - pos_) / min_bytes_per_item) {
    fail(str_format("record count %llu cannot fit in the %zu bytes left "
                    "in its section",
                    static_cast<unsigned long long>(n), end - pos_));
    return false;
  }
  return true;
}

bool CheckpointReader::begin_section(std::uint32_t tag) {
  const std::uint32_t found = u32();
  if (!ok_) return false;
  if (found != tag) {
    fail(str_format("section tag mismatch: want %08x, found %08x", tag, found));
    return false;
  }
  const std::uint64_t length = u64();
  if (!ok_) return false;
  if (bytes_.size() - pos_ < length ||
      (!sections_.empty() && pos_ + length > sections_.back().second)) {
    fail("section length exceeds stream");
    return false;
  }
  sections_.emplace_back(tag, pos_ + length);
  return true;
}

bool CheckpointReader::end_section() {
  if (!ok_) return false;
  if (sections_.empty()) {
    fail("end_section without begin_section");
    return false;
  }
  const auto [tag, end] = sections_.back();
  sections_.pop_back();
  if (pos_ != end) {
    fail(str_format("section %08x not fully consumed", tag));
    return false;
  }
  return true;
}

void CheckpointReader::fail(std::string message) {
  if (!ok_) return;  // keep the first error
  ok_ = false;
  error_ = std::move(message);
}

std::string warmup_checkpoint_name(std::string_view config_fingerprint,
                                   std::string_view workload,
                                   std::uint64_t warmup_instrs,
                                   std::uint64_t seed) {
  const std::string identity = str_format(
      "%.*s|%.*s|w%llu|s%llu|schema%d|fmt%u",
      static_cast<int>(config_fingerprint.size()), config_fingerprint.data(),
      static_cast<int>(workload.size()), workload.data(),
      static_cast<unsigned long long>(warmup_instrs),
      static_cast<unsigned long long>(seed), kSimSchemaVersion,
      kCheckpointFormatVersion);
  return str_format("warm_%016llx.ckpt",
                    static_cast<unsigned long long>(fnv1a(identity)));
}

std::string snapshot_checkpoint_name(std::string_view run_key) {
  const std::string identity =
      str_format("%.*s|fmt%u", static_cast<int>(run_key.size()),
                 run_key.data(), kCheckpointFormatVersion);
  return str_format("snap_%016llx.ckpt",
                    static_cast<unsigned long long>(fnv1a(identity)));
}

}  // namespace ringclu
