#include "harness/result_store.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

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

/// Both backends: a key -> result map, which the tsv backend also loads
/// from and appends to its file.  The map is looked up, inserted into and
/// sized only — never iterated (persistence appends each result to the
/// TSV at put() time, in call order), so the unordered layout cannot leak
/// address- or hash-dependent ordering.
class MapStore final : public ResultStore {
 public:
  /// \p path is the TSV file when \p persistent, else unused.  A missing
  /// file is an empty store; corrupt lines are skipped (and counted on
  /// stderr when \p verbose).
  MapStore(std::string path, bool persistent, bool verbose)
      : path_(std::move(path)), persistent_(persistent) {
    if (!persistent_) return;
    std::ifstream in(path_);
    std::size_t corrupt = 0;
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t sep = line.find('\t');
      std::optional<SimResult> result;
      if (sep != std::string::npos) {
        result = try_deserialize_result(line.substr(sep + 1));
      }
      if (!result) {
        if (!line.empty()) ++corrupt;
        continue;
      }
      entries_.emplace(line.substr(0, sep), *std::move(result));
    }
    if (verbose && corrupt != 0) {
      std::fprintf(stderr,
                   "[ringclu] warning: skipped %zu corrupt cache line(s) in "
                   "%s\n",
                   corrupt, path_.c_str());
    }
  }

  std::optional<SimResult> get(const std::string& key) override {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    return it->second;
  }

  void put(const std::string& key, const SimResult& result) override {
    if (persistent_) {
      append_line_atomic(path_, key + "\t" + serialize_result(result));
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    entries_.emplace(key, result);
  }

  std::size_t size() const override {
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }

  bool persistent() const override { return persistent_; }

  std::string describe() const override {
    return persistent_ ? "tsv at " + path_ : "memory";
  }

 private:
  std::string path_;
  bool persistent_;
  mutable std::mutex mutex_;
  // ringclu-lint: allow(det-unordered-decl: lookup/insert/size; not iterated)
  std::unordered_map<std::string, SimResult> entries_;
};

}  // namespace

std::optional<StoreBackend> parse_store_backend(std::string_view name) {
  if (name == "tsv") return StoreBackend::Tsv;
  if (name == "memory") return StoreBackend::Memory;
  return std::nullopt;
}

std::string_view store_backend_name(StoreBackend backend) {
  return backend == StoreBackend::Tsv ? "tsv" : "memory";
}

std::unique_ptr<ResultStore> make_result_store(StoreBackend backend,
                                               const std::string& path,
                                               bool verbose) {
  return std::make_unique<MapStore>(path, backend == StoreBackend::Tsv,
                                    verbose);
}

}  // namespace ringclu
