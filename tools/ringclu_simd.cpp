/// \file ringclu_simd.cpp
/// The simulation daemon: a crash-safe HTTP/1.1 + JSON service over the
/// asynchronous SimService (DESIGN.md §13).
///
///   ringclu_simd [--port=N] [--address=A] [--journal=PATH]
///       [--port-file=PATH] [key=value ...]
///
/// API (all JSON):
///   POST /v1/jobs                submit a single run or a sweep
///   GET  /v1/jobs/{id}           status / progress (?wait_ms=N long-polls
///                                until the job is terminal, N <= 30000)
///   GET  /v1/jobs/{id}/result    finished results (?task=N for one task)
///   GET  /v1/jobs/{id}/metrics   chunked interval-metric stream (JSONL)
///   GET  /v1/server/metrics      live server gauges
///   POST /v1/shutdown            graceful drain, then exit
///
/// Configuration comes from the usual RINGCLU_* environment (store
/// backend/path, threads, checkpoint dir, ...) plus the
/// daemon-specific knobs, each overridable on the command line:
///   RINGCLU_SERVE_PORT      TCP port        (--port,    default 0 = pick)
///   RINGCLU_SERVE_ADDRESS   bind address    (--address, default 127.0.0.1)
///   RINGCLU_SERVE_JOURNAL   job journal     (--journal, default
///                           serve/journal.jsonl; "" disables)
///
/// Each accepted job's tasks go straight into the SimService's one
/// fair-share queue: priority class, then client in rotation, then
/// submission order decide which task a free worker takes next.
///
/// key=value overrides (same grammar as ringclu_sim --sweep): instrs,
/// warmup, seed, threads, backend, cache, force.  Their order does not
/// matter: backend= never moves cache=, and instrs=N implies
/// warmup=N/10 only when no warmup= is given.
///
/// On startup the daemon replays its journal: jobs accepted before a
/// crash but never finished are re-submitted (completed tasks resolve as
/// result-store hits, so nothing already simulated runs again), and
/// finished jobs stay fetchable.  SIGINT/SIGTERM drain gracefully;
/// kill -9 is exactly the crash the journal recovers from.

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>

#include "harness/runner.h"
#include "server/http.h"
#include "server/server.h"
#include "util/config.h"
#include "util/env.h"
#include "util/format.h"

namespace {

using namespace ringclu;

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int signum) { g_signal = signum; }

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "ringclu_simd: %s\n", message.c_str());
  std::fprintf(stderr,
               "usage: ringclu_simd [--port=N] [--address=A] "
               "[--journal=PATH] [--port-file=PATH] [key=value ...]\n");
  std::exit(2);
}

std::uint64_t cli_uint(const std::string& key, const std::string& value) {
  const std::optional<std::uint64_t> parsed = parse_uint(value);
  if (!parsed) usage_error(key + "=" + value + ": not a valid count");
  return *parsed;
}

bool cli_bool(const std::string& key, const std::string& value) {
  const std::optional<bool> parsed = parse_bool(value);
  if (!parsed) usage_error(key + "=" + value + ": not a valid boolean");
  return *parsed;
}

}  // namespace

int main(int argc, char** argv) {
  SimServerOptions options;
  options.runner = RunnerOptions::from_env();
  options.runner.verbose = false;  // progress belongs to clients, not stderr

  HttpServerOptions http_options;
  http_options.port =
      static_cast<int>(env_uint_or("RINGCLU_SERVE_PORT", 0));
  if (const std::optional<std::string> address =
          env_string("RINGCLU_SERVE_ADDRESS");
      address.has_value()) {
    http_options.address = *address;
  }
  options.journal_path =
      env_string("RINGCLU_SERVE_JOURNAL").value_or("serve/journal.jsonl");
  std::string port_file;
  bool warmup_given = false;  // instrs=N sets warmup=N/10 only without it

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (eq == std::string_view::npos) {
      usage_error("unknown argument: " + std::string(arg));
    }
    const std::string key(arg.substr(0, eq));
    const std::string value(arg.substr(eq + 1));
    if (key == "--port") {
      http_options.port = static_cast<int>(cli_uint(key, value));
    } else if (key == "--address") {
      http_options.address = value;
    } else if (key == "--journal") {
      options.journal_path = value;
    } else if (key == "--port-file") {
      port_file = value;
    } else if (key == "instrs") {
      options.runner.instrs = cli_uint(key, value);
      if (!warmup_given) options.runner.warmup = options.runner.instrs / 10;
    } else if (key == "warmup") {
      options.runner.warmup = cli_uint(key, value);
      warmup_given = true;
    } else if (key == "seed") {
      options.runner.seed = cli_uint(key, value);
    } else if (key == "threads") {
      options.runner.threads = static_cast<int>(cli_uint(key, value));
    } else if (key == "backend") {
      const std::optional<StoreBackend> backend =
          parse_store_backend(value);
      if (!backend) {
        usage_error("backend=" + value +
                    ": unknown backend (valid: tsv, memory)");
      }
      options.runner.cache_backend = *backend;
    } else if (key == "cache") {
      options.runner.cache_path = value;
    } else if (key == "force") {
      options.runner.force = cli_bool(key, value);
    } else {
      usage_error("unknown argument: " + std::string(arg));
    }
  }

  SimServer server(std::move(options));
  if (server.journal_corrupt_lines() > 0 || server.replayed_jobs() > 0) {
    std::fprintf(stderr,
                 "ringclu_simd: journal replay: %zu job(s) re-submitted, "
                 "%zu corrupt line(s) skipped\n",
                 server.replayed_jobs(), server.journal_corrupt_lines());
  }

  HttpServer http(http_options,
                  [&server](const HttpRequest& request) {
                    return server.handle(request);
                  });
  std::string error;
  if (!http.start(&error)) {
    std::fprintf(stderr, "ringclu_simd: %s\n", error.c_str());
    return 1;
  }
  if (!port_file.empty()) {
    std::ofstream out(port_file, std::ios::trunc);
    out << http.port() << "\n";
  }
  std::printf("ringclu_simd listening on %s:%d\n",
              http_options.address.c_str(), http.port());
  std::fflush(stdout);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  // Serve until a shutdown request (HTTP or signal) AND the accepted
  // work has drained; kill -9 is the crash path the journal covers.
  while (!server.wait_drained_ms(200)) {
    if (g_signal != 0) server.request_shutdown();
  }
  http.stop();
  const SimServiceStats stats = server.service().stats();
  std::fprintf(stderr,
               "ringclu_simd: drained; %zu job(s), %zu simulation(s), "
               "%zu store hit(s), %zu coalesced\n",
               server.jobs_total(), stats.simulations, stats.store_hits,
               stats.coalesced);
  return 0;
}
