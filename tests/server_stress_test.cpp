// Multi-client concurrency stress for the ringclu_simd job engine: many
// client threads submitting overlapping work through SimServer::handle()
// while readers poll status and stream metrics.  Runs under
// ThreadSanitizer in CI (ctest -L service); budgets are tiny so the
// whole suite stays seconds-scale on one CPU.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "server/server.h"
#include "util/json.h"

namespace ringclu {
namespace {

using namespace std::chrono_literals;

HttpRequest http_get(std::string target) {
  HttpRequest request;
  request.method = "GET";
  request.target = std::move(target);
  return request;
}

HttpRequest http_post(std::string target, std::string body) {
  HttpRequest request;
  request.method = "POST";
  request.target = std::move(target);
  request.body = std::move(body);
  return request;
}

SimServerOptions stress_options() {
  SimServerOptions options;
  options.runner.instrs = 2000;
  options.runner.warmup = 200;
  options.runner.threads = 2;
  options.runner.verbose = false;
  options.runner.cache_backend = StoreBackend::Memory;
  options.runner.cache_path = "";
  return options;
}

std::string wait_terminal(SimServer& server, const std::string& id) {
  for (int i = 0; i < 6000; ++i) {
    const HttpResponse response = server.handle(http_get("/v1/jobs/" + id));
    if (response.status != 200) return "status " + response.body;
    const std::string state =
        json_parse(response.body)->find("state")->string;
    if (state == "completed" || state == "failed") {
      return state;
    }
    std::this_thread::sleep_for(5ms);
  }
  return "timeout";
}

// Several client identities hammer POST /v1/jobs concurrently with a mix
// of priorities and duplicate work, then every job must complete and the
// service accounting must cover every task exactly once.
TEST(ServerStress, ManyClientsMixedPrioritiesAllComplete) {
  constexpr int kClients = 4;
  constexpr int kJobsPerClient = 5;
  SimServer server(stress_options());

  std::vector<std::vector<std::string>> ids(kClients);
  std::atomic<int> rejected{0};
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&server, &ids, &rejected, c] {
        const char* priorities[] = {"high", "normal", "low"};
        const char* benchmarks[] = {"gzip", "swim"};
        for (int j = 0; j < kJobsPerClient; ++j) {
          // Half the jobs are identical across clients (coalescing /
          // store-hit pressure), half are distinct seeds.
          const std::string body =
              std::string("{\"config\":\"Ring_4clus_1bus_2IW\","
                          "\"benchmark\":\"") +
              benchmarks[j % 2] + "\",\"run\":{\"seed\":" +
              std::to_string(j % 2 == 0 ? 42 : 100 + c) +
              "},\"client\":\"c" + std::to_string(c) +
              "\",\"priority\":\"" + priorities[(c + j) % 3] + "\"}";
          const HttpResponse response =
              server.handle(http_post("/v1/jobs", body));
          if (response.status != 202) {
            ++rejected;
            continue;
          }
          ids[c].push_back(json_parse(response.body)->find("id")->string);
        }
      });
    }
    for (std::thread& thread : clients) thread.join();
  }
  EXPECT_EQ(rejected.load(), 0);

  std::size_t completed = 0;
  for (const std::vector<std::string>& client_ids : ids) {
    for (const std::string& id : client_ids) {
      EXPECT_EQ(wait_terminal(server, id), "completed") << id;
      ++completed;
    }
  }
  EXPECT_EQ(completed,
            static_cast<std::size_t>(kClients * kJobsPerClient));
  EXPECT_EQ(server.jobs_total(), completed);

  // Every submission resolved exactly one way.
  const SimServiceStats stats = server.service().stats();
  EXPECT_EQ(stats.simulations + stats.store_hits + stats.coalesced,
            completed);
  // The duplicate half cannot all have simulated independently.
  EXPECT_LT(stats.simulations, completed);
}

// Concurrent readers of one metrics stream each observe the identical,
// complete series (interval lines then the final result line).
TEST(ServerStress, ConcurrentMetricsReadersSeeIdenticalSeries) {
  SimServer server(stress_options());
  const HttpResponse accepted = server.handle(http_post(
      "/v1/jobs", R"({"config":"Ring_4clus_1bus_2IW","benchmark":"gzip",)"
                  R"("interval":250})"));
  ASSERT_EQ(accepted.status, 202);
  const std::string id = json_parse(accepted.body)->find("id")->string;

  constexpr int kReaders = 3;
  std::vector<std::string> feeds(kReaders);
  {
    std::vector<std::thread> readers;
    readers.reserve(kReaders);
    for (int r = 0; r < kReaders; ++r) {
      readers.emplace_back([&server, &feeds, &id, r] {
        const HttpResponse stream =
            server.handle(http_get("/v1/jobs/" + id + "/metrics"));
        ASSERT_EQ(stream.status, 200);
        stream.streamer([&feeds, r](std::string_view chunk) {
          feeds[r].append(chunk);
          return true;
        });
      });
    }
    for (std::thread& thread : readers) thread.join();
  }
  EXPECT_EQ(wait_terminal(server, id), "completed");
  EXPECT_NE(feeds[0].find("\"type\":\"interval\""), std::string::npos);
  EXPECT_NE(feeds[0].find("\"type\":\"result\""), std::string::npos);
  for (int r = 1; r < kReaders; ++r) EXPECT_EQ(feeds[r], feeds[0]);
}

// Shutdown racing in-flight submissions: accepted jobs drain to terminal
// states, late submissions get clean 503s, and the drain wait completes.
TEST(ServerStress, ShutdownRacesSubmissionsCleanly) {
  SimServer server(stress_options());
  std::atomic<int> accepted{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> submitters;
  submitters.reserve(3);
  for (int t = 0; t < 3; ++t) {
    submitters.emplace_back([&server, &accepted, &rejected, t] {
      for (int j = 0; j < 4; ++j) {
        const std::string body =
            std::string("{\"config\":\"Ring_4clus_1bus_2IW\","
                        "\"benchmark\":\"gzip\",\"run\":{\"seed\":") +
            std::to_string(200 + t * 10 + j) + "},\"client\":\"t" +
            std::to_string(t) + "\"}";
        const HttpResponse response =
            server.handle(http_post("/v1/jobs", body));
        if (response.status == 202) {
          ++accepted;
        } else {
          EXPECT_EQ(response.status, 503);
          ++rejected;
        }
        std::this_thread::sleep_for(1ms);
      }
    });
  }
  std::this_thread::sleep_for(5ms);
  EXPECT_EQ(server.handle(http_post("/v1/shutdown", "")).status, 200);
  for (std::thread& thread : submitters) thread.join();

  while (!server.wait_drained_ms(100)) {
  }
  EXPECT_EQ(accepted.load() + rejected.load(), 12);
  EXPECT_EQ(server.jobs_total(), static_cast<std::size_t>(accepted.load()));
  EXPECT_EQ(server.handle(http_post("/v1/jobs", "{}")).status, 503);
}

}  // namespace
}  // namespace ringclu
