#include "harness/result_store.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "util/assert.h"
#include "util/format.h"

namespace ringclu {

std::string serialize_result(const SimResult& result) {
  const SimCounters& c = result.counters;
  std::string line = result.config_name + "\t" + result.benchmark;
  for (const CounterField& field : kCounterFields) {
    line += '\t';
    line += std::to_string(c.*field.member);
  }
  std::string clusters;
  for (std::size_t i = 0; i < c.dispatched_per_cluster.size(); ++i) {
    if (i != 0) clusters += ",";
    clusters += std::to_string(c.dispatched_per_cluster[i]);
  }
  line += "\t" + clusters;
  return line;
}

namespace {

/// Splits on tabs, keeping empty fields (unlike split(), which drops them)
/// so a damaged line cannot silently shift later fields into earlier slots.
std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t end = line.find('\t', start);
    if (end == std::string::npos) {
      out.emplace_back(line.substr(start));
      return out;
    }
    out.emplace_back(line.substr(start, end - start));
    start = end + 1;
  }
}

/// Parses a non-negative decimal integer; rejects empty/garbage/overflow.
bool parse_u64(const std::string& token, std::uint64_t& out) {
  if (token.empty()) return false;
  std::uint64_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (~0ull - digit) / 10) return false;
    value = value * 10 + digit;
  }
  out = value;
  return true;
}

}  // namespace

std::optional<SimResult> try_deserialize_result(const std::string& line) {
  const std::vector<std::string> tokens = split_tabs(line);
  // config, benchmark, the counters, dispatched-per-cluster list.
  if (tokens.size() != 2 + std::size(kCounterFields) + 1) return std::nullopt;

  SimResult result;
  result.config_name = tokens[0];
  result.benchmark = tokens[1];
  SimCounters& c = result.counters;
  std::size_t cursor = 2;
  for (const CounterField& field : kCounterFields) {
    if (!parse_u64(tokens[cursor++], c.*field.member)) return std::nullopt;
  }
  if (!tokens.back().empty()) {
    for (const std::string& part : split(tokens.back(), ',')) {
      std::uint64_t count = 0;
      if (!parse_u64(part, count)) return std::nullopt;
      c.dispatched_per_cluster.push_back(count);
    }
  }
  return result;
}

SimResult deserialize_result(const std::string& line) {
  std::optional<SimResult> result = try_deserialize_result(line);
  RINGCLU_EXPECTS(result.has_value());
  return *std::move(result);
}

void append_line_atomic(const std::string& path, std::string_view line) {
  const std::filesystem::path fs_path(path);
  if (fs_path.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(fs_path.parent_path(), ec);
  }
  // One buffer, one write(2).  With O_APPEND the kernel seeks and writes
  // atomically with respect to other appenders, so lines from concurrent
  // processes can interleave but never intersperse.  The advisory lock
  // covers the (rare) short-write retry loop below.
  std::string buffer;
  buffer.reserve(line.size() + 1);
  buffer.append(line);
  buffer.push_back('\n');

  const int fd =
      ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    // An unwritable cache must not lose completed simulation work (the
    // historical buffered append failed silently too): warn once, keep
    // the in-memory result, and carry on.
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      std::fprintf(stderr,
                   "[ringclu] warning: cannot append to %s (%s); results "
                   "will not be persisted\n",
                   path.c_str(), std::strerror(errno));
    }
    return;
  }
  while (::flock(fd, LOCK_EX) != 0 && errno == EINTR) {
  }
  // The lock is held, so the end offset is stable until we release it —
  // remember it so a failed write can be rolled back completely instead
  // of leaving an unterminated fragment that would merge with (and
  // corrupt) the next writer's line.
  const ::off_t start = ::lseek(fd, 0, SEEK_END);
  const char* data = buffer.data();
  std::size_t remaining = buffer.size();
  while (remaining > 0) {
    const ::ssize_t written = ::write(fd, data, remaining);
    if (written < 0) {
      if (errno == EINTR) continue;
      break;  // Disk full etc.: rolled back below, re-simulated next run.
    }
    data += written;
    remaining -= static_cast<std::size_t>(written);
  }
  if (remaining != 0 && start >= 0) {
    [[maybe_unused]] const int rc = ::ftruncate(fd, start);
  }
  ::flock(fd, LOCK_UN);
  ::close(fd);
}

namespace {

/// Key -> cached result map shared by every backend.  Lookup, insert,
/// and size only — no backend ever iterates it (persistence appends
/// each result to the TSV at put() time, in call order), so the
/// unordered layout cannot leak address- or hash-dependent ordering.
// ringclu-lint: allow(det-unordered-decl: lookup/insert/size; not iterated)
using ResultMap = std::unordered_map<std::string, SimResult>;

/// Loads "key \t serialized-result" lines into \p entries (first key wins),
/// counting corrupt lines.  Missing file is an empty store, not an error.
void load_tsv_file(const std::string& path, ResultMap& entries,
                   std::size_t& corrupt) {
  std::ifstream in(path);
  if (!in) return;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t sep = line.find('\t');
    if (sep == std::string::npos) {
      if (!line.empty()) ++corrupt;
      continue;
    }
    std::optional<SimResult> result =
        try_deserialize_result(line.substr(sep + 1));
    if (!result) {
      ++corrupt;
      continue;
    }
    entries.emplace(line.substr(0, sep), *std::move(result));
  }
}

void warn_corrupt(std::size_t corrupt, const std::string& path) {
  if (corrupt != 0) {
    std::fprintf(stderr,
                 "[ringclu] warning: skipped %zu corrupt cache line(s) in %s\n",
                 corrupt, path.c_str());
  }
}

/// The historical single-file append-only TSV cache.
class TsvFileStore final : public ResultStore {
 public:
  TsvFileStore(std::string path, bool verbose) : path_(std::move(path)) {
    std::size_t corrupt = 0;
    load_tsv_file(path_, entries_, corrupt);
    if (verbose) warn_corrupt(corrupt, path_);
  }

  std::optional<SimResult> get(const std::string& key) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    return it->second;
  }

  void put(const std::string& key, const SimResult& result) override {
    append_line_atomic(path_, key + "\t" + serialize_result(result));
    const std::lock_guard<std::mutex> lock(mutex_);
    entries_.emplace(key, result);
  }

  std::size_t size() const override {
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }

  bool persistent() const override { return true; }

  std::string describe() const override { return "tsv at " + path_; }

 private:
  std::string path_;
  mutable std::mutex mutex_;
  ResultMap entries_;
};

/// 64-bit FNV-1a; stable across platforms so shard placement is portable.
std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// TSV store split over kNumShards files under one directory.  The shard
/// for a key is fixed by hash, so concurrent writers working on different
/// parts of a matrix mostly append to different files (and different
/// advisory locks).  Shards load lazily: a reader that only ever touches
/// two shards never parses the other fourteen.
class ShardedTsvStore final : public ResultStore {
 public:
  static constexpr std::size_t kNumShards = 16;

  ShardedTsvStore(std::string directory, bool verbose)
      : directory_(std::move(directory)), verbose_(verbose) {
    for (std::size_t i = 0; i < kNumShards; ++i) {
      shards_[i].path = (std::filesystem::path(directory_) /
                         str_format("shard-%02zu.tsv", i))
                            .string();
    }
  }

  std::optional<SimResult> get(const std::string& key) override {
    Shard& shard = shard_for(key);
    const std::lock_guard<std::mutex> lock(shard.mutex);
    ensure_loaded(shard);
    const auto it = shard.entries.find(key);
    if (it == shard.entries.end()) return std::nullopt;
    return it->second;
  }

  void put(const std::string& key, const SimResult& result) override {
    Shard& shard = shard_for(key);
    // Append before locking the shard map: the file append has its own
    // cross-process lock and the in-memory emplace below is first-wins
    // either way.
    append_line_atomic(shard.path, key + "\t" + serialize_result(result));
    const std::lock_guard<std::mutex> lock(shard.mutex);
    ensure_loaded(shard);
    shard.entries.emplace(key, result);
  }

  std::size_t size() const override {
    std::size_t total = 0;
    for (const Shard& shard : shards_) {
      const std::lock_guard<std::mutex> lock(shard.mutex);
      ensure_loaded(shard);
      total += shard.entries.size();
    }
    return total;
  }

  bool persistent() const override { return true; }

  std::string describe() const override {
    return str_format("sharded(%zu) at %s", kNumShards, directory_.c_str());
  }

 private:
  struct Shard {
    std::string path;
    mutable std::mutex mutex;
    // Lazily loaded under \c mutex, including from const readers (size()).
    mutable bool loaded = false;
    mutable ResultMap entries;
  };

  Shard& shard_for(const std::string& key) {
    return shards_[fnv1a(key) % kNumShards];
  }

  void ensure_loaded(const Shard& shard) const {
    if (shard.loaded) return;
    std::size_t corrupt = 0;
    load_tsv_file(shard.path, shard.entries, corrupt);
    if (verbose_) warn_corrupt(corrupt, shard.path);
    shard.loaded = true;
  }

  std::string directory_;
  bool verbose_;
  std::array<Shard, kNumShards> shards_;
};

/// Process-local store for tests and cache-free benchmarking.
class MemoryStore final : public ResultStore {
 public:
  std::optional<SimResult> get(const std::string& key) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    return it->second;
  }

  void put(const std::string& key, const SimResult& result) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    entries_.emplace(key, result);
  }

  std::size_t size() const override {
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }

  bool persistent() const override { return false; }

  std::string describe() const override { return "memory"; }

 private:
  mutable std::mutex mutex_;
  ResultMap entries_;
};

}  // namespace

std::optional<StoreBackend> parse_store_backend(std::string_view name) {
  if (name == "tsv") return StoreBackend::Tsv;
  if (name == "sharded") return StoreBackend::Sharded;
  if (name == "memory") return StoreBackend::Memory;
  return std::nullopt;
}

std::string_view store_backend_name(StoreBackend backend) {
  switch (backend) {
    case StoreBackend::Tsv: return "tsv";
    case StoreBackend::Sharded: return "sharded";
    case StoreBackend::Memory: return "memory";
  }
  RINGCLU_UNREACHABLE("bad StoreBackend");
}

std::string default_cache_path(StoreBackend backend) {
  switch (backend) {
    case StoreBackend::Tsv: return "bench_cache/results.tsv";
    case StoreBackend::Sharded: return "bench_cache/shards";
    case StoreBackend::Memory: return "";
  }
  RINGCLU_UNREACHABLE("bad StoreBackend");
}

std::unique_ptr<ResultStore> make_result_store(StoreBackend backend,
                                               const std::string& path,
                                               bool verbose) {
  switch (backend) {
    case StoreBackend::Tsv:
      return std::make_unique<TsvFileStore>(path, verbose);
    case StoreBackend::Sharded:
      return std::make_unique<ShardedTsvStore>(path, verbose);
    case StoreBackend::Memory:
      return std::make_unique<MemoryStore>();
  }
  RINGCLU_UNREACHABLE("bad StoreBackend");
}

}  // namespace ringclu
