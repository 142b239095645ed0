/// \file ringclu_trace.cpp
/// Trace-pipeline tool: everything that turns instruction streams into
/// RCLP trace packs and back (DESIGN.md §14).
///
///   ringclu_trace record <benchmark> <out.rclp> [ops=N] [seed=S]
///       [block_ops=N]                      record a synth benchmark
///   ringclu_trace ingest <in.txt|-> <out.rclp> [block_ops=N] [skip_bad=1]
///       text instruction log (RITL, see src/trace/ingest/text_log.h and
///       tools/capture_trace.py) -> pack
///   ringclu_trace cat <in.rclp> [limit=N]
///       pack -> RITL text (ingest accepts it back; piping cat into
///       ingest with a new block_ops= re-blocks a pack)
///   ringclu_trace stats <in.rclp>          ops, digest, mix, compression
///   ringclu_trace validate <in.rclp>       deep check: every block
///       decoded, checksums + op counts + content digest recomputed
///
/// Exit status: 0 success, 1 validation/content failure, 2 usage or I/O.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "trace/ingest/text_log.h"
#include "trace/pack/pack_format.h"
#include "trace/pack/pack_reader.h"
#include "trace/pack/pack_writer.h"
#include "trace/synth/suite.h"
#include "trace/trace_source.h"
#include "util/config.h"
#include "util/format.h"

namespace {

using namespace ringclu;

/// Strict key=value integer (missing -> fallback, malformed -> exit 2).
std::uint64_t cli_uint(const Config& options, const char* key,
                       std::uint64_t fallback) {
  const std::optional<std::string> raw = options.get(key);
  if (!raw) return fallback;
  const std::optional<std::uint64_t> parsed = parse_uint(*raw);
  if (!parsed) {
    std::fprintf(stderr, "bad %s=%s (want a non-negative integer)\n", key,
                 raw->c_str());
    std::exit(2);
  }
  return *parsed;
}

Config parse_overrides(int argc, char** argv, int first) {
  Config options;
  for (int i = first; i < argc; ++i) {
    if (!options.parse_token(argv[i])) {
      std::fprintf(stderr, "bad override (want key=value): %s\n", argv[i]);
      std::exit(2);
    }
  }
  return options;
}

/// Opens a trace pack; exits 2 with a diagnostic on unreadable or
/// corrupt input (a file that is not a pack fails on its magic).
std::unique_ptr<TracePackReader> open_pack(const std::string& path) {
  std::string error;
  std::unique_ptr<TracePackReader> pack = TracePackReader::open(path, &error);
  if (pack == nullptr) {
    std::fprintf(stderr, "%s\n", error.c_str());
    std::exit(2);
  }
  return pack;
}

int run_record(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: ringclu_trace record <benchmark> <out.rclp> "
                 "[ops=N] [seed=S] [block_ops=N]\n");
    return 2;
  }
  const std::string benchmark = argv[2];
  const std::string out_path = argv[3];
  if (!is_benchmark_name(benchmark)) {
    std::fprintf(stderr, "unknown benchmark '%s'; valid benchmarks: %s\n",
                 benchmark.c_str(), known_benchmark_names().c_str());
    return 2;
  }
  const Config options = parse_overrides(argc, argv, 4);
  const std::uint64_t ops = cli_uint(options, "ops", 500000);
  const std::uint64_t seed = cli_uint(options, "seed", 42);
  const std::uint32_t block_ops = static_cast<std::uint32_t>(
      cli_uint(options, "block_ops", kPackDefaultBlockOps));

  const std::unique_ptr<TraceSource> source =
      make_benchmark_trace(benchmark, seed);
  TracePackWriter writer(out_path, block_ops);
  MicroOp op;
  for (std::uint64_t i = 0; i < ops && source->next(op); ++i) {
    writer.append(op);
  }
  std::string error;
  if (!writer.close(&error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  std::printf("recorded %llu ops of %s (seed %llu) to %s, digest %s\n",
              static_cast<unsigned long long>(writer.ops_written()),
              benchmark.c_str(), static_cast<unsigned long long>(seed),
              out_path.c_str(),
              format_digest(writer.content_digest()).c_str());
  return 0;
}

int run_ingest(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: ringclu_trace ingest <in.txt|-> <out.rclp> "
                 "[block_ops=N]\n");
    return 2;
  }
  const std::string in_path = argv[2];
  const std::string out_path = argv[3];
  const Config options = parse_overrides(argc, argv, 4);
  const std::uint32_t block_ops = static_cast<std::uint32_t>(
      cli_uint(options, "block_ops", kPackDefaultBlockOps));
  // skip_bad=1: warn-and-continue past unparseable lines (messy captures)
  // instead of failing on the first one.
  const bool skip_bad = cli_uint(options, "skip_bad", 0) != 0;
  std::uint64_t skipped = 0;

  std::ifstream file;
  std::istream* in = &std::cin;
  if (in_path != "-") {
    file.open(in_path);
    if (!file) {
      std::fprintf(stderr, "cannot read '%s'\n", in_path.c_str());
      return 2;
    }
    in = &file;
  }

  TracePackWriter writer(out_path, block_ops);
  TextLogParser parser;
  std::string line;
  MicroOp op;
  while (std::getline(*in, line)) {
    switch (parser.parse(line, op)) {
      case TextLogParser::Line::Op:
        writer.append(op);
        break;
      case TextLogParser::Line::Skip:
        break;
      case TextLogParser::Line::Error:
        std::fprintf(stderr, "%s: %s\n", in_path.c_str(),
                     parser.error().c_str());
        if (!skip_bad) return 1;
        ++skipped;
        break;
    }
  }
  std::string error;
  if (!writer.close(&error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 2;
  }
  if (skipped != 0) {
    std::fprintf(stderr, "skipped %llu unparseable line(s)\n",
                 static_cast<unsigned long long>(skipped));
  }
  std::printf("ingested %llu ops from %s to %s, digest %s\n",
              static_cast<unsigned long long>(writer.ops_written()),
              in_path.c_str(), out_path.c_str(),
              format_digest(writer.content_digest()).c_str());
  return 0;
}

int run_cat(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: ringclu_trace cat <in.rclp> [limit=N]\n");
    return 2;
  }
  const Config options = parse_overrides(argc, argv, 3);
  const std::uint64_t limit =
      cli_uint(options, "limit", static_cast<std::uint64_t>(-1));
  const std::unique_ptr<TracePackReader> pack = open_pack(argv[2]);
  MicroOp op;
  for (std::uint64_t i = 0; i < limit && pack->next(op); ++i) {
    std::printf("%s\n", format_text_log_line(op).c_str());
  }
  if (!pack->ok()) {
    std::fprintf(stderr, "%s\n", pack->error().c_str());
    return 1;
  }
  return 0;
}

int run_stats(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: ringclu_trace stats <in.rclp>\n");
    return 2;
  }
  const std::string path = argv[2];
  const std::unique_ptr<TracePackReader> pack = open_pack(path);

  std::uint64_t by_class[kNumOpClasses] = {};
  TraceDigest digest;
  MicroOp op;
  while (pack->next(op)) {
    ++by_class[static_cast<std::size_t>(op.cls)];
    digest.add(op);
  }
  if (!pack->ok()) {
    std::fprintf(stderr, "%s\n", pack->error().c_str());
    return 1;
  }

  std::printf("%s\n", path.c_str());
  std::printf("  ops:    %llu\n",
              static_cast<unsigned long long>(digest.ops()));
  std::printf("  digest: %s\n", format_digest(digest.value()).c_str());
  const std::uint64_t comp = pack->compressed_bytes();
  const std::uint64_t raw = pack->raw_bytes();
  std::printf("  blocks: %u x %u ops\n",
              static_cast<unsigned>(pack->block_count()),
              static_cast<unsigned>(pack->block_ops()));
  std::printf("  bytes:  %llu compressed / %llu encoded (%.2fx), "
              "%.2f bits/op\n",
              static_cast<unsigned long long>(comp),
              static_cast<unsigned long long>(raw),
              comp == 0 ? 0.0
                        : static_cast<double>(raw) / static_cast<double>(comp),
              digest.ops() == 0 ? 0.0
                                : 8.0 * static_cast<double>(comp) /
                                      static_cast<double>(digest.ops()));
  std::printf("  mix:   ");
  for (int cls = 0; cls < kNumOpClasses; ++cls) {
    if (by_class[cls] == 0) continue;
    const std::string_view name = op_name(static_cast<OpClass>(cls));
    std::printf(" %.*s=%.1f%%", static_cast<int>(name.size()), name.data(),
                digest.ops() == 0
                    ? 0.0
                    : 100.0 * static_cast<double>(by_class[cls]) /
                          static_cast<double>(digest.ops()));
  }
  std::printf("\n");
  return 0;
}

int run_validate(int argc, char** argv) {
  if (argc < 3) {
    std::fprintf(stderr, "usage: ringclu_trace validate <in.rclp>\n");
    return 2;
  }
  const std::string path = argv[2];
  std::string error;
  const std::unique_ptr<TracePackReader> pack =
      TracePackReader::open(path, &error);
  if (pack == nullptr) {
    std::fprintf(stderr, "invalid: %s\n", error.c_str());
    return 1;
  }
  // Deep pass: stream every op (verifying each block's checksum and
  // decode) and recompute the content digest against the header.
  TraceDigest digest;
  MicroOp op;
  while (pack->next(op)) digest.add(op);
  if (!pack->ok()) {
    std::fprintf(stderr, "invalid: %s\n", pack->error().c_str());
    return 1;
  }
  if (digest.ops() != pack->total_ops()) {
    std::fprintf(stderr,
                 "invalid: decoded %llu ops, header declares %llu\n",
                 static_cast<unsigned long long>(digest.ops()),
                 static_cast<unsigned long long>(pack->total_ops()));
    return 1;
  }
  if (digest.value() != pack->content_digest()) {
    std::fprintf(stderr,
                 "invalid: content digest %s, header declares %s\n",
                 format_digest(digest.value()).c_str(),
                 format_digest(pack->content_digest()).c_str());
    return 1;
  }
  std::printf("ok: %s (%llu ops in %u blocks, digest %s)\n", path.c_str(),
              static_cast<unsigned long long>(pack->total_ops()),
              static_cast<unsigned>(pack->block_count()),
              format_digest(pack->content_digest()).c_str());
  return 0;
}

int usage() {
  std::fprintf(
      stderr,
      "usage: ringclu_trace record <benchmark> <out.rclp> [ops=N] [seed=S] "
      "[block_ops=N]\n"
      "       ringclu_trace ingest <in.txt|-> <out.rclp> [block_ops=N] [skip_bad=1]\n"
      "       ringclu_trace cat <in.rclp> [limit=N]\n"
      "       ringclu_trace stats <in.rclp>\n"
      "       ringclu_trace validate <in.rclp>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "record") return run_record(argc, argv);
  if (command == "ingest") return run_ingest(argc, argv);
  if (command == "cat") return run_cat(argc, argv);
  if (command == "stats") return run_stats(argc, argv);
  if (command == "validate") return run_validate(argc, argv);
  return usage();
}
