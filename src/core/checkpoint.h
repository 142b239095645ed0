#pragma once

/// \file checkpoint.h
/// Versioned binary checkpoint format for full simulation state.
///
/// A checkpoint is a flat byte stream: a fixed header (magic, format
/// version, simulator schema version, configuration fingerprint, workload
/// identity, trace position) followed by tagged, length-prefixed
/// per-component sections.  Every stateful component lists its fields
/// once, in
///   template <class Io> void transfer(Io& io);
/// which a CheckpointWriter runs to save and a CheckpointReader runs to
/// load: the same calls (io.u64(field), io.count(n, max, bytes),
/// io.section(tag, fn), ...) write a field or read it back in place.
/// Steps that apply to one direction only sit under
/// `if constexpr (Io::kLoading)`; state derived from the loaded fields is
/// rebuilt by the component's rebuild_derived().  Loading overwrites every
/// member, so restoring a checkpoint into any Processor of the same
/// configuration (same workload) is bit-identical to having simulated the
/// saved prefix cold — the contract the checkpoint round-trip tests pin.
///
/// Completeness is checked by equality, not by a member list: every
/// checkpointed type has a defaulted operator==, and the CheckpointEquality
/// tests load one snapshot into a fresh Processor and back into the one
/// that saved it, then require the two to compare equal.  A member that
/// transfer() skips keeps its live value in one and its constructor value
/// in the other.  A member that is not simulation state (a pointer into
/// the owner, a per-call cache) is wrapped in NotState.
///
/// Invalidation rules: a checkpoint is rejected (restore_checkpoint
/// returns false; the caller falls back to a cold run) when any of magic,
/// kCheckpointFormatVersion, kSimSchemaVersion, the configuration
/// fingerprint, the workload name or the seed disagrees, or when the byte
/// stream is truncated or structurally malformed.  Readers never abort on
/// malformed input: every primitive is bounds-checked, a record count is
/// checked against its limit and the bytes left in its section before
/// anything is allocated for it, and failure is sticky (ok() turns false,
/// subsequent reads return zeros).
///
/// Integers are fixed-width little-endian; file writes are atomic
/// (temp file + rename) so concurrent sweep workers racing to publish the
/// same warmup checkpoint are safe — the simulator is deterministic, so
/// both writers produce identical bytes and either rename wins.

#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/assert.h"

namespace ringclu {

class Processor;
class TraceSource;

/// "RCLUCKPT", little-endian.
inline constexpr std::uint64_t kCheckpointMagic = 0x54504B43554C4352ULL;

/// Version of the checkpoint byte format itself.  Bump on any layout
/// change; old files are then rejected (never misread).  kSimSchemaVersion
/// is embedded separately: it invalidates checkpoints whenever simulator
/// semantics change, even when the layout did not.
inline constexpr std::uint32_t kCheckpointFormatVersion = 1;

/// A member that is not simulation state: it compares equal to any other,
/// so a defaulted operator== of its owner skips it, and checkpoints leave
/// it alone.  Derives from T, so the member is used as a T.
template <class T>
struct NotState : T {
  friend bool operator==(const NotState&, const NotState&) { return true; }
};

/// A field type the integer primitives convert to and from their width.
template <class T>
concept CheckpointScalar = std::integral<T> || std::is_enum_v<T>;

/// Builds a checkpoint byte stream.
class CheckpointWriter {
 public:
  static constexpr bool kLoading = false;

  // Each primitive writes the low bytes of its integer or enum argument.
  template <CheckpointScalar T> void u8(T value) { put(value, 1); }
  template <CheckpointScalar T> void u16(T value) { put(value, 2); }
  template <CheckpointScalar T> void u32(T value) { put(value, 4); }
  template <CheckpointScalar T> void u64(T value) { put(value, 8); }
  template <CheckpointScalar T> void i64(T value) { put(value, 8); }
  void f64(double value);
  void boolean(bool value) { u8(value ? 1 : 0); }
  void str(std::string_view text);

  void vec_u8(const std::vector<std::uint8_t>& values);
  void vec_u64(const std::vector<std::uint64_t>& values);
  void vec_i64(const std::vector<std::int64_t>& values);
  void vec_int(const std::vector<int>& values);

  // Reader-side checks: the writer only writes what they read.
  template <CheckpointScalar T>
  bool count(T n, std::uint64_t /*max*/, std::size_t /*min_bytes*/) {
    u64(n);
    return true;
  }
  bool expect(std::uint64_t n, const char* /*what*/) {
    u64(n);
    return true;
  }
  bool check(bool /*holds*/, const char* /*what*/) { return true; }

  /// Writes the size of \p list, then \p fn of each item; every item must
  /// take at least \p min_bytes (the reader's count check relies on it).
  template <class Container, class Fn>
  void items(Container& list, std::uint64_t /*max*/, std::size_t min_bytes,
             Fn&& fn) {
    u64(list.size());
    for (auto& item : list) {
      const std::size_t before = buffer_.size();
      fn(item);
      RINGCLU_ASSERT(buffer_.size() - before >= min_bytes);
    }
  }
  /// items() over records that have their own transfer().
  template <class Container>
  void items(Container& list, std::uint64_t max, std::size_t min_bytes) {
    items(list, max, min_bytes, [this](auto& item) { item.transfer(*this); });
  }

  /// Opens a tagged, length-prefixed section.  Sections nest.
  void begin_section(std::uint32_t tag);
  void end_section();
  /// \p fn's fields as one section.
  template <class Fn>
  void section(std::uint32_t tag, Fn&& fn) {
    begin_section(tag);
    fn();
    end_section();
  }

  /// Saves \p component through its transfer(), which a writer only reads.
  template <class T>
  void save(const T& component) {
    const_cast<T&>(component).transfer(*this);
  }

  [[nodiscard]] const std::string& bytes() const { return buffer_; }

  /// Writes the buffer to \p path atomically (unique temp file in the same
  /// directory, then rename).  Returns false with \p error set on I/O
  /// failure.  \pre every section is closed.
  [[nodiscard]] bool write_file(const std::string& path,
                                std::string* error) const;

 private:
  template <CheckpointScalar T>
  void put(T value, int bytes) {
    std::uint64_t bits = 0;
    if constexpr (std::is_enum_v<T>) {
      bits = static_cast<std::uint64_t>(
          static_cast<std::underlying_type_t<T>>(value));
    } else {
      bits = static_cast<std::uint64_t>(value);
    }
    for (int i = 0; i < bytes; ++i) {
      buffer_.push_back(static_cast<char>((bits >> (8 * i)) & 0xFF));
    }
  }

  std::string buffer_;
  std::vector<std::size_t> open_sections_;  ///< offsets of length fields
};

/// Consumes a checkpoint byte stream.  All failures are sticky and
/// non-fatal: after the first malformed read, ok() is false, error()
/// explains, and every subsequent read returns a zero value.
class CheckpointReader {
 public:
  static constexpr bool kLoading = true;

  explicit CheckpointReader(std::string bytes) : bytes_(std::move(bytes)) {}

  /// Reads a whole file.  nullopt with \p error set when unreadable.
  [[nodiscard]] static std::optional<CheckpointReader> from_file(
      const std::string& path, std::string* error);

  [[nodiscard]] std::uint8_t u8();
  [[nodiscard]] std::uint16_t u16();
  [[nodiscard]] std::uint32_t u32();
  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64();
  [[nodiscard]] bool boolean() { return u8() != 0; }
  [[nodiscard]] std::string str();

  // Field forms: read into \p field, converting to its type.
  template <CheckpointScalar T> void u8(T& field) { field = T(u8()); }
  template <CheckpointScalar T> void u16(T& field) { field = T(u16()); }
  template <CheckpointScalar T> void u32(T& field) { field = T(u32()); }
  template <CheckpointScalar T> void u64(T& field) { field = T(u64()); }
  template <CheckpointScalar T> void i64(T& field) { field = T(i64()); }
  void boolean(bool& field) { field = boolean(); }
  void str(std::string& field) { field = str(); }

  void vec_u8(std::vector<std::uint8_t>& out);
  void vec_u64(std::vector<std::uint64_t>& out);
  void vec_i64(std::vector<std::int64_t>& out);
  void vec_int(std::vector<int>& out);

  /// Reads a record count into \p n.  Fails, leaving n = 0, when it
  /// exceeds \p max or when that many records of at least
  /// \p min_bytes_per_item each cannot fit in the bytes left in the
  /// current section — before the caller reserves or pushes anything.
  template <CheckpointScalar T>
  bool count(T& n, std::uint64_t max, std::size_t min_bytes_per_item) {
    const std::uint64_t value = u64();
    n = count_fits(value, max, min_bytes_per_item) ? T(value) : T{};
    return ok();
  }
  /// Reads a count that must equal \p n (a geometry the configuration
  /// fixed); fails with \p what otherwise.
  bool expect(std::uint64_t n, const char* what) {
    if (u64() != n) fail(what);
    return ok_;
  }
  /// Fails with \p what unless \p holds.
  bool check(bool holds, const char* what) {
    if (!holds) fail(what);
    return ok_;
  }

  /// Reads a counted list into \p list, \p fn filling each item (see
  /// count() for \p max and \p min_bytes).
  template <class Container, class Fn>
  void items(Container& list, std::uint64_t max, std::size_t min_bytes,
             Fn&& fn) {
    std::uint64_t n = 0;
    list.clear();
    if (!count(n, max, min_bytes)) return;
    list.resize(n);
    for (auto& item : list) fn(item);
  }
  template <class Container>
  void items(Container& list, std::uint64_t max, std::size_t min_bytes) {
    items(list, max, min_bytes, [this](auto& item) { item.transfer(*this); });
  }

  /// Enters the next section, which must carry \p tag; false (sticky
  /// failure) otherwise.
  bool begin_section(std::uint32_t tag);
  /// Leaves the current section, verifying its declared length was
  /// consumed exactly.
  bool end_section();
  /// Reads \p fn's fields from the section tagged \p tag.
  template <class Fn>
  void section(std::uint32_t tag, Fn&& fn) {
    if (!begin_section(tag)) return;
    fn();
    end_section();
  }

  /// Fails validation explicitly (component found impossible state).
  void fail(std::string message);

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  [[nodiscard]] bool need(std::size_t count);
  [[nodiscard]] bool count_fits(std::uint64_t n, std::uint64_t max,
                                std::size_t min_bytes_per_item);

  std::string bytes_;
  std::size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
  std::vector<std::pair<std::uint32_t, std::size_t>> sections_;  // tag, end
};

/// Four-character section tags used by Processor::transfer.
[[nodiscard]] constexpr std::uint32_t checkpoint_tag(char a, char b, char c,
                                                     char d) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(a)) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(b)) << 8) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(c)) << 16) |
         (static_cast<std::uint32_t>(static_cast<unsigned char>(d)) << 24);
}

/// Header metadata identifying what a checkpoint contains.
struct CheckpointMeta {
  std::uint32_t format_version = kCheckpointFormatVersion;
  std::int32_t sim_schema = 0;
  std::string config_fingerprint;  ///< ArchConfig::fingerprint()
  std::string workload;            ///< TraceSource::name()
  std::uint64_t seed = 0;
  std::uint64_t committed = 0;  ///< committed instructions at save time
  std::uint64_t trace_position = 0;
  /// Host wall-clock seconds the saved prefix cost to simulate; restored
  /// runs report the difference to restore time as amortized savings.
  double prefix_wall_seconds = 0.0;
};

/// Expected identity a checkpoint must match to be restored.
struct CheckpointExpectation {
  std::string config_fingerprint;
  std::string workload;
  std::uint64_t seed = 0;
};

/// Serializes processor + trace position to \p path (atomic).  Returns
/// false with \p error set on I/O failure.
[[nodiscard]] bool save_checkpoint(const std::string& path,
                                   const Processor& processor,
                                   const TraceSource& trace,
                                   const CheckpointMeta& meta,
                                   std::string* error);

/// Restores \p processor and \p trace from \p path after validating the
/// header against \p expect.  On any failure returns false with \p error
/// set; the processor is then in an unspecified state and must be
/// discarded (reconstruct and run cold).  \p meta (optional) receives the
/// header of a successfully restored checkpoint.
[[nodiscard]] bool restore_checkpoint(const std::string& path,
                                      Processor& processor, TraceSource& trace,
                                      const CheckpointExpectation& expect,
                                      CheckpointMeta* meta,
                                      std::string* error);

/// Reads only the header of \p path (inspection / tooling).
[[nodiscard]] std::optional<CheckpointMeta> read_checkpoint_meta(
    const std::string& path, std::string* error);

/// File name (no directory) of the shared warmup checkpoint for a
/// (config fingerprint, workload, warmup, seed) identity:
/// "warm_<16-hex-digest>.ckpt".  The digest covers both version constants,
/// so format or schema bumps change the name and stale files are simply
/// never opened.
[[nodiscard]] std::string warmup_checkpoint_name(
    std::string_view config_fingerprint, std::string_view workload,
    std::uint64_t warmup_instrs, std::uint64_t seed);

/// File name of the crash-resume snapshot for a fully keyed run
/// ("snap_<16-hex-digest>.ckpt"); \p run_key is the sim_cache_key.
[[nodiscard]] std::string snapshot_checkpoint_name(std::string_view run_key);

}  // namespace ringclu
