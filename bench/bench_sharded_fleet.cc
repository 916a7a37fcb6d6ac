// Sharded fleet serving: scatter-gather partial-share lookups where each
// node owns 1/K of the row space, so per-request compute per node scales
// with fleet size.
//
//   build/bench/bench_sharded_fleet [client_threads] [lookups_per_client]
//                                   [--json=path]
//                                   [--connect=h:p,h:p;h:p,h:p]
//                                   [--kill-pid=pid]
//
// Local mode stands up loopback PirServerNode fleets (each node over its
// own identically-configured PrivateEmbeddingService) behind a
// ShardedRouter:
//
//   sharded_k{1,2,4}  steady-state QPS at K shards (one replica each).
//                     Per-node rows-scanned-per-request must scale ~1/K
//                     (checked from node stats), and on a multi-core host
//                     K=2 must beat K=1 QPS — the per-request scan
//                     parallelizes across the fleet.
//   killone_k2r2      2 shards x 2 replicas; one shard OWNER is
//                     Abort()ed mid-run. Every request must still
//                     complete via that shard's sibling replica, and the
//                     per-shard failover counters land in the JSON.
//
// --connect mode drives externally-started pir_node processes
// (scripts/run_sharded_smoke.sh): shards are ';'-separated, replicas of a
// shard ','-separated. With --kill-pid the bench SIGKILLs that node itself
// once a quarter of the routed lookups have completed.
//
// Every sharded result is compared against an in-process reference lookup
// with the same client state: ANY byte difference fails the bench
// (exit 1) — merging K partial shares in shard order must be bit-identical
// to the single-node full scan.
//
// The bench also measures the planning-only construction win: the router
// processes here build table-less service twins (ServiceConfig::
// planning_only), and the full-vs-planning build-time delta is printed
// and written to the JSON.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "bench/replicated_world.h"
#include "src/common/timer.h"
#include "src/core/service.h"
#include "src/net/server_node.h"
#include "src/net/sharded_router.h"

using namespace gpudpf;

namespace {

using LookupResult = PrivateEmbeddingService::LookupResult;

bool SameResults(const LookupResult& a, const LookupResult& b) {
    return a.retrieved == b.retrieved && a.embeddings == b.embeddings &&
           a.upload_bytes == b.upload_bytes &&
           a.download_bytes == b.download_bytes;
}

struct ShardedRun {
    double qps = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    std::size_t failures = 0;    // requests that completed with an error
    std::size_t mismatches = 0;  // results that differed from the reference
    net::ShardedRouter::Stats router_stats;
    std::vector<std::uint64_t> per_shard_failovers;
    // Mean rows scanned per node per completed request, from node stats
    // (local mode only; empty healthy/rows fields under --connect).
    double rows_per_request = 0.0;
};

ShardedRun RunSharded(
    const bench::ReplicatedWorld& world,
    const std::vector<std::vector<net::ShardedRouter::Endpoint>>& shards,
    std::size_t client_threads, std::size_t lookups_per_client,
    const std::vector<std::vector<LookupResult>>& ref,
    const std::vector<net::PirServerNode*>& nodes,
    const std::function<void()>& kill, double kill_after_frac) {
    // Planning-only: the router reconstructs from wire shares and never
    // scans a table, so its service twin skips the physical table build.
    auto planning = world.MakePlanningService();
    std::vector<std::unique_ptr<PrivateEmbeddingService::Client>> clients;
    for (std::size_t c = 0; c < client_threads; ++c) {
        clients.push_back(planning->MakeClient());
    }
    net::ShardedRouter::Options options;
    options.health_period_ms = 50;
    net::ShardedRouter router(planning.get(), shards, options);

    ShardedRun run;
    std::atomic<std::size_t> done{0};
    std::atomic<std::size_t> failures{0};
    std::atomic<std::size_t> mismatches{0};
    std::vector<std::vector<double>> latency_ms(client_threads);

    Timer wall;
    {
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < client_threads; ++c) {
            threads.emplace_back([&, c] {
                for (std::size_t l = 0; l < lookups_per_client; ++l) {
                    Timer request_timer;
                    try {
                        const auto outcome = router.Lookup(
                            clients[c].get(), bench::ReplicatedWantedFor(c, l));
                        latency_ms[c].push_back(request_timer.ElapsedMillis());
                        if (!SameResults(outcome.result, ref[c][l])) {
                            ++mismatches;
                            std::fprintf(stderr,
                                         "MISMATCH: client %zu lookup %zu\n",
                                         c, l);
                        }
                    } catch (const std::exception& e) {
                        ++failures;
                        std::fprintf(stderr,
                                     "FAILED: client %zu lookup %zu: %s\n", c,
                                     l, e.what());
                    }
                    ++done;
                }
            });
        }
        if (kill) {
            // Counted in completed lookups, not wall time, so the kill
            // lands mid-load however fast the load runs.
            const std::size_t trigger = static_cast<std::size_t>(
                kill_after_frac * client_threads * lookups_per_client);
            while (done.load() < trigger) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
            kill();
        }
        for (auto& t : threads) t.join();
    }
    const double sec = wall.ElapsedSeconds();

    std::vector<double> all_ms;
    for (auto& v : latency_ms) {
        all_ms.insert(all_ms.end(), v.begin(), v.end());
    }
    std::sort(all_ms.begin(), all_ms.end());
    run.qps = static_cast<double>(client_threads * lookups_per_client) / sec;
    run.p50_ms = bench::PercentileSorted(all_ms, 0.50);
    run.p99_ms = bench::PercentileSorted(all_ms, 0.99);
    run.failures = failures.load();
    run.mismatches = mismatches.load();
    run.router_stats = router.stats();
    run.per_shard_failovers = router.per_shard_failovers();

    double rows_sum = 0.0;
    std::size_t rows_nodes = 0;
    for (net::PirServerNode* node : nodes) {
        const auto stats = node->stats();
        if (stats.completed == 0) continue;
        rows_sum += static_cast<double>(stats.rows_scanned) /
                    static_cast<double>(stats.completed);
        ++rows_nodes;
    }
    if (rows_nodes > 0) run.rows_per_request = rows_sum / rows_nodes;
    return run;
}

bench::JsonResult ShardRow(const std::string& name, const ShardedRun& run,
                           std::size_t shards) {
    bench::JsonResult row;
    row.name = name;
    row.qps = run.qps;
    row.has_latency = true;
    row.p50_ms = run.p50_ms;
    row.p99_ms = run.p99_ms;
    row.has_shard = true;
    row.shards = static_cast<double>(shards);
    row.rows_per_request = run.rows_per_request;
    for (const std::uint64_t f : run.per_shard_failovers) {
        row.shard_failovers.push_back(static_cast<double>(f));
    }
    return row;
}

void PrintRun(const char* name, const ShardedRun& run) {
    std::printf("%-14s %10.1f q/s   p50 %6.2f ms   p99 %6.2f ms   "
                "rows/req/node %10.1f   shard failovers [",
                name, run.qps, run.p50_ms, run.p99_ms, run.rows_per_request);
    for (std::size_t k = 0; k < run.per_shard_failovers.size(); ++k) {
        std::printf("%s%llu", k == 0 ? "" : " ",
                    static_cast<unsigned long long>(
                        run.per_shard_failovers[k]));
    }
    std::printf("]\n");
}

// "--connect=h:p,h:p;h:p" — shards separated by ';', replicas of a shard
// by ','.
std::vector<std::vector<net::ShardedRouter::Endpoint>> ParseConnect(
    const char* arg) {
    std::vector<std::vector<net::ShardedRouter::Endpoint>> shards;
    const std::string list = arg;
    std::size_t shard_start = 0;
    while (shard_start <= list.size()) {
        std::size_t semi = list.find(';', shard_start);
        if (semi == std::string::npos) semi = list.size();
        const std::string group = list.substr(shard_start, semi - shard_start);
        std::vector<net::ShardedRouter::Endpoint> replicas;
        std::size_t start = 0;
        while (start <= group.size()) {
            std::size_t comma = group.find(',', start);
            if (comma == std::string::npos) comma = group.size();
            const std::string item = group.substr(start, comma - start);
            const std::size_t colon = item.rfind(':');
            if (colon != std::string::npos) {
                replicas.push_back(
                    {item.substr(0, colon),
                     static_cast<std::uint16_t>(
                         std::atoi(item.c_str() + colon + 1))});
            }
            start = comma + 1;
        }
        if (!replicas.empty()) shards.push_back(std::move(replicas));
        shard_start = semi + 1;
    }
    return shards;
}

}  // namespace

int main(int argc, char** argv) {
    const char* json_path = bench::JsonPathFromArgs(argc, argv);
    const char* connect = nullptr;
    long long kill_pid = 0;
    std::vector<const char*> positional;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--connect=", 10) == 0) {
            connect = argv[i] + 10;
        } else if (std::strncmp(argv[i], "--kill-pid=", 11) == 0) {
            kill_pid = std::atoll(argv[i] + 11);
        } else if (std::strncmp(argv[i], "--json=", 7) != 0) {
            positional.push_back(argv[i]);
        }
    }
    const long long threads_arg =
        positional.size() > 0 ? std::atoll(positional[0]) : 4;
    const long long lookups_arg =
        positional.size() > 1 ? std::atoll(positional[1]) : 25;
    if (threads_arg < 1 || threads_arg > 256 || lookups_arg < 1 ||
        lookups_arg > 100'000) {
        std::fprintf(stderr,
                     "usage: %s [client_threads 1..256] "
                     "[lookups_per_client 1..100000] [--json=path] "
                     "[--connect=h:p,h:p;h:p,...] [--kill-pid=pid]\n",
                     argv[0]);
        return 2;
    }
    const std::size_t client_threads = static_cast<std::size_t>(threads_arg);
    const std::size_t lookups_per_client =
        static_cast<std::size_t>(lookups_arg);
    const unsigned cores = std::thread::hardware_concurrency();

    std::printf("== sharded fleet: scatter-gather scaling and failover ==\n");
    std::printf("vocab=%llu, %zu client threads, %zu lookups/client, "
                "host cores=%u\n",
                static_cast<unsigned long long>(bench::kReplicatedVocab),
                client_threads, lookups_per_client, cores);

    bench::ReplicatedWorld world;

    // The planning-only construction win a router process gets: same
    // geometry and client machinery, no physical table fill.
    Timer full_build_timer;
    auto ref_service = world.MakeService();
    const double full_build_ms = full_build_timer.ElapsedMillis();
    Timer planning_build_timer;
    { auto planning_probe = world.MakePlanningService(); }
    const double planning_build_ms = planning_build_timer.ElapsedMillis();
    std::printf("service build: full %.2f ms, planning-only %.2f ms "
                "(%.1fx cheaper)\n",
                full_build_ms, planning_build_ms,
                planning_build_ms > 0.0 ? full_build_ms / planning_build_ms
                                        : 0.0);

    // In-process reference: clients created in the same order as every
    // sharded run's, each stream serialized. Sharded merges must match
    // these byte for byte.
    std::vector<std::unique_ptr<PrivateEmbeddingService::Client>> ref_clients;
    for (std::size_t c = 0; c < client_threads; ++c) {
        ref_clients.push_back(ref_service->MakeClient());
    }
    std::vector<std::vector<LookupResult>> ref(client_threads);
    Timer ref_timer;
    for (std::size_t c = 0; c < client_threads; ++c) {
        for (std::size_t l = 0; l < lookups_per_client; ++l) {
            ref[c].push_back(
                ref_clients[c]->Lookup(bench::ReplicatedWantedFor(c, l)));
        }
    }
    std::printf("in-process serialized reference: %.1f q/s\n\n",
                client_threads * lookups_per_client /
                    ref_timer.ElapsedSeconds());

    std::vector<bench::JsonResult> json;
    {
        bench::JsonResult build_row;
        build_row.name = "service_build";
        build_row.has_build = true;
        build_row.build_full_ms = full_build_ms;
        build_row.build_planning_ms = planning_build_ms;
        json.push_back(build_row);
    }
    std::size_t failures = 0;
    std::size_t mismatches = 0;
    bool scaling_ok = true;
    bool rows_ok = true;
    bool killone_ok = true;

    if (connect != nullptr) {
        // Externally-started nodes (the CI smoke script); one steady run.
        const auto shards = ParseConnect(connect);
        if (shards.empty()) {
            std::fprintf(stderr, "bad --connect list: %s\n", connect);
            return 2;
        }
        const ShardedRun run =
            RunSharded(world, shards, client_threads, lookups_per_client,
                       ref, {}, bench::KillPid(kill_pid),
                       bench::kKillPidAfterFrac);
        PrintRun("connect", run);
        failures += run.failures;
        mismatches += run.mismatches;
        json.push_back(ShardRow("connect_k" + std::to_string(shards.size()),
                                run, shards.size()));
    } else {
        // Per-node work and QPS at K = 1, 2, 4 shards (one replica each).
        double k1_qps = 0.0, k2_qps = 0.0, k1_rows = 0.0;
        for (const std::size_t shard_count : {1u, 2u, 4u}) {
            std::vector<std::unique_ptr<PrivateEmbeddingService>> services;
            std::vector<std::unique_ptr<net::PirServerNode>> nodes;
            std::vector<std::vector<net::ShardedRouter::Endpoint>> shards;
            std::vector<net::PirServerNode*> node_ptrs;
            for (std::size_t k = 0; k < shard_count; ++k) {
                services.push_back(world.MakeService());
                nodes.push_back(std::make_unique<net::PirServerNode>(
                    services.back().get(), net::PirServerNode::Options{}));
                shards.push_back({{"127.0.0.1", nodes.back()->port()}});
                node_ptrs.push_back(nodes.back().get());
            }
            const ShardedRun run =
                RunSharded(world, shards, client_threads, lookups_per_client,
                           ref, node_ptrs, nullptr, 0.0);
            const std::string name =
                "sharded_k" + std::to_string(shard_count);
            PrintRun(name.c_str(), run);
            failures += run.failures;
            mismatches += run.mismatches;
            json.push_back(ShardRow(name, run, shard_count));
            if (shard_count == 1) {
                k1_qps = run.qps;
                k1_rows = run.rows_per_request;
            }
            if (shard_count == 2) k2_qps = run.qps;
            // Per-node work must scale ~1/K: each node scans only its
            // window of every bin. 15% slack absorbs ceil-partition
            // rounding and the rejected/completed bookkeeping edges.
            if (shard_count > 1 && k1_rows > 0.0) {
                const double expect = k1_rows / shard_count;
                if (run.rows_per_request > expect * 1.15 ||
                    run.rows_per_request < expect * 0.85) {
                    rows_ok = false;
                    std::fprintf(stderr,
                                 "FAIL: K=%zu rows/req/node %.1f, expected "
                                 "~%.1f (1/K of K=1's %.1f)\n",
                                 shard_count, run.rows_per_request, expect,
                                 k1_rows);
                }
            }
        }
        // On a multi-core host the K=2 scatter must beat the single-node
        // fleet: the same scan runs on two engines concurrently. A single
        // core cannot overlap the shards, so there it is only diagnostic.
        if (k2_qps <= k1_qps) {
            if (cores > 1) {
                scaling_ok = false;
                std::fprintf(stderr,
                             "FAIL: K=2 QPS %.1f did not beat K=1 QPS %.1f "
                             "on a %u-core host\n",
                             k2_qps, k1_qps, cores);
            } else {
                std::printf("note: K=2 QPS %.1f <= K=1 QPS %.1f; single-core "
                            "host cannot overlap shards\n",
                            k2_qps, k1_qps);
            }
        }

        // Kill-one-shard-owner failover: 2 shards x 2 replicas, the
        // serving replica of one shard hard-killed mid-run. Every request
        // must still complete via that shard's sibling, and at least one
        // per-shard failover must have been recorded.
        {
            std::vector<std::unique_ptr<PrivateEmbeddingService>> services;
            std::vector<std::unique_ptr<net::PirServerNode>> nodes;
            std::vector<std::vector<net::ShardedRouter::Endpoint>> shards(2);
            std::vector<net::PirServerNode*> node_ptrs;
            for (std::size_t k = 0; k < 2; ++k) {
                for (std::size_t r = 0; r < 2; ++r) {
                    services.push_back(world.MakeService());
                    nodes.push_back(std::make_unique<net::PirServerNode>(
                        services.back().get(),
                        net::PirServerNode::Options{}));
                    shards[k].push_back({"127.0.0.1", nodes.back()->port()});
                    node_ptrs.push_back(nodes.back().get());
                }
            }
            // Kill shard 1's first replica (nodes[2]).
            const ShardedRun run =
                RunSharded(world, shards, client_threads, lookups_per_client,
                           ref, node_ptrs,
                           [&nodes] { nodes[2]->Abort(); }, 0.3);
            PrintRun("killone_k2r2", run);
            failures += run.failures;
            mismatches += run.mismatches;
            json.push_back(ShardRow("killone_k2r2", run, 2));
            std::uint64_t total_failovers = 0;
            for (const std::uint64_t f : run.per_shard_failovers) {
                total_failovers += f;
            }
            if (total_failovers == 0) {
                killone_ok = false;
                std::fprintf(stderr,
                             "killone: no per-shard failover was recorded — "
                             "the kill landed after the load finished?\n");
            }
        }
    }

    std::printf("\nsharded results bit-identical to in-process: %s\n",
                mismatches == 0 ? "YES" : "NO");
    std::printf("all requests completed: %s\n",
                failures == 0 ? "YES" : "NO");
    if (json_path != nullptr &&
        !bench::WriteBenchJson(json_path, "bench_sharded_fleet", json)) {
        return 2;
    }
    return mismatches == 0 && failures == 0 && scaling_ok && rows_ok &&
                   killone_ok
               ? 0
               : 1;
}
