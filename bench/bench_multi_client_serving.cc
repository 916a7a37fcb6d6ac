// Serialized per-client Lookup vs the pooled streaming serving front-end.
//
//   build/bench/bench_multi_client_serving [max_clients] [lookups_per_client]
//                                          [--json=path]
//
// Stands up one PrivateEmbeddingService (hot + full table) and issues the
// same per-client lookup sequences three ways at growing client counts:
//
//   serialized  one request at a time through the synchronous
//               Client::Lookup wrapper — every request pays its own
//               batcher linger and its own answer-pool submission.
//   pooled      every client submits a RequestHandle from its own thread
//               with the fixed batching window; the front-end batches all
//               in-flight requests' full- and hot-table jobs into single
//               cross-table engine submissions and streams each request's
//               hot-table partial as soon as its job group completes.
//   adaptive    the same, with the batching window sized from the
//               observed arrival rate and queue depth (adaptive_linger)
//               instead of the fixed knob.
//
// All modes run against freshly-built services with identical seeds, so
// the results must be bit-identical — the bench fails (exit 1) if not.
// Each streamed request carries a (generous) deadline; the JSON gains
// submission-to-first-partial percentiles and the deadline-miss rate next
// to the existing QPS and p50/p95/p99 columns, so CI can flag
// first-partial latency regressions alongside throughput. At >= 8 clients
// the bench also fails if time-to-first-partial is not strictly below the
// full-result latency (streaming must actually deliver early).
//
// A cancel-heavy mode then A/Bs the JobContext kill switch: 30% of the
// stream is cancelled right after its first partial, once with
// skip_abandoned_work on (the engine skips the dead requests' remaining
// shard tasks) and once with it off (the pre-context behavior: abandoned
// jobs run to completion). Both report surviving-request throughput —
// the reclaimed-throughput delta is the win — plus the skip counters;
// survivors must stay bit-identical to the serialized reference in both.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "src/common/rng.h"
#include "src/common/timer.h"
#include "src/core/service.h"
#include "src/core/serving.h"
#include "src/ml/embedding.h"
#include "src/workloads/dataset.h"

using namespace gpudpf;

namespace {

constexpr std::uint64_t kVocab = 2'048;
constexpr std::size_t kWantedPerLookup = 5;
// Generous per-request deadline: the miss-rate column exercises the
// deadline machinery without expiring requests on slow CI runners (an
// expired request would forfeit the bit-identity check).
constexpr std::uint64_t kDeadlineUs = 10'000'000;

ServiceConfig MakeConfig(bool adaptive) {
    ServiceConfig config;
    config.codesign.hot_size = 256;
    config.codesign.q_hot = 16;
    config.codesign.q_full = 8;
    config.server_shards = 1;
    config.server_threads = 0;
    config.max_inflight_requests = 256;
    // The dynamic-batching window: how long the batcher waits for more
    // requests to pool. Serialized callers pay it per request; concurrent
    // submitters share it per batch. Adaptive mode treats it as the cap
    // and shrinks the window when arrivals are fast or the queue is deep.
    config.batcher_linger_us = 200;
    config.adaptive_linger = adaptive;
    config.linger_ewma_half_life_us = 1'000;
    return config;
}

std::vector<std::uint64_t> WantedFor(std::size_t client, std::size_t lookup) {
    std::vector<std::uint64_t> wanted(kWantedPerLookup);
    for (std::size_t i = 0; i < kWantedPerLookup; ++i) {
        wanted[i] = (client * 131 + lookup * 17 + i * 263) % kVocab;
    }
    return wanted;
}

using LookupResult = PrivateEmbeddingService::LookupResult;

bool SameResults(const LookupResult& a, const LookupResult& b) {
    return a.retrieved == b.retrieved && a.embeddings == b.embeddings &&
           a.upload_bytes == b.upload_bytes &&
           a.download_bytes == b.download_bytes;
}

// Per-request latency percentiles of one mode at one client count.
struct LatencyStats {
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
};

LatencyStats Percentiles(std::vector<double>& latencies_ms) {
    std::sort(latencies_ms.begin(), latencies_ms.end());
    return {bench::PercentileSorted(latencies_ms, 0.50),
            bench::PercentileSorted(latencies_ms, 0.95),
            bench::PercentileSorted(latencies_ms, 0.99)};
}

struct World {
    World() {
        RecWorkloadSpec spec;
        spec.name = "multi-client-bench";
        spec.vocab = kVocab;
        spec.num_train = 4'000;
        spec.num_test = 200;
        spec.min_history = 4;
        spec.max_history = 10;
        spec.num_clusters = 12;
        spec.seed = 5;
        const RecDataset dataset = GenerateRecDataset(spec);
        stats = ComputeRecStats(dataset, 4);
        emb = std::make_unique<EmbeddingTable>(kVocab, spec.dim);
        Rng rng(9);
        emb->InitRandom(rng, 0.1f);
    }

    std::unique_ptr<PrivateEmbeddingService> MakeService(
        const ServiceConfig& config) const {
        auto service =
            std::make_unique<PrivateEmbeddingService>(*emb, stats, config);
        // Untimed warm-up through a throwaway client (symmetric in all
        // modes, so the measured clients' seeds line up).
        service->MakeClient()->Lookup({1, 2, 3});
        return service;
    }

    std::unique_ptr<PrivateEmbeddingService> MakeService(bool adaptive) const {
        return MakeService(MakeConfig(adaptive));
    }

    AccessStats stats;
    std::unique_ptr<EmbeddingTable> emb;
};

// One streamed request's probes. First-partial arrival is stamped by the
// on_partial callback on a pool worker; completion time by on_complete on
// the batcher thread — i.e. when the request actually finished, not when
// the consuming thread got around to Result() behind its predecessors.
struct RequestProbe {
    Timer timer;
    std::atomic<bool> got_first{false};
    double first_partial_ms = 0.0;
    std::atomic<bool> done{false};
    double complete_ms = 0.0;
    RequestStatus final_status = RequestStatus::kInFlight;
};

// One pooled mode (fixed or adaptive window) at one client count.
struct PooledRun {
    double qps = 0.0;
    LatencyStats latency;
    double first_partial_p50_ms = 0.0;
    double first_partial_p99_ms = 0.0;
    double deadline_miss_rate = 0.0;
    // Requests that finished kFailed/kCancelled (never expected): the
    // bench fails if any occur, instead of miscounting them as misses.
    std::size_t server_failures = 0;
    // results[c][l]; have[c][l] is false for deadline-expired requests.
    std::vector<std::vector<LookupResult>> results;
    std::vector<std::vector<bool>> have;
};

PooledRun RunPooled(const World& world, bool adaptive, std::size_t clients,
                    std::size_t lookups_per_client) {
    auto service = world.MakeService(adaptive);
    std::vector<std::unique_ptr<PrivateEmbeddingService::Client>> pc;
    for (std::size_t c = 0; c < clients; ++c) {
        pc.push_back(service->MakeClient());
    }
    PooledRun run;
    run.results.assign(clients, {});
    run.have.assign(clients, {});
    std::vector<double> full_lat_ms;
    std::size_t failures = 0;
    std::mutex agg_mu;
    // Probes outlive the client threads: on_complete fires on the batcher
    // thread possibly after Result() has already unblocked the consumer,
    // so they are only read below, after Shutdown() has joined the
    // batcher (which guarantees every callback has returned).
    std::vector<std::vector<RequestProbe>> probes(clients);
    for (auto& p : probes) {
        p = std::vector<RequestProbe>(lookups_per_client);
    }
    Timer wall;
    {
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < clients; ++c) {
            threads.emplace_back([&, c] {
                // Submit every lookup, then consume results in submission
                // order (the order the single batcher completes them).
                std::vector<ServingFrontEnd::RequestHandle> handles;
                for (std::size_t l = 0; l < lookups_per_client; ++l) {
                    RequestProbe* probe = &probes[c][l];
                    ServingFrontEnd::SubmitOptions options;
                    options.deadline_us = kDeadlineUs;
                    options.on_partial =
                        [probe](const PrivateEmbeddingService::TablePartial&) {
                            if (!probe->got_first.exchange(true)) {
                                probe->first_partial_ms =
                                    probe->timer.ElapsedMillis();
                            }
                        };
                    options.on_complete = [probe](RequestStatus status) {
                        probe->complete_ms = probe->timer.ElapsedMillis();
                        probe->final_status = status;
                        probe->done.store(true);
                    };
                    probe->timer.Reset();
                    handles.push_back(service->front_end().SubmitRequestOrWait(
                        {pc[c].get(), WantedFor(c, l)}, std::move(options)));
                    if (!handles.back().ok()) {
                        std::fprintf(stderr,
                                     "submission rejected: client %zu "
                                     "lookup %zu\n",
                                     c, l);
                        std::abort();
                    }
                }
                std::vector<double> local_full;
                std::size_t local_failures = 0;
                for (std::size_t l = 0; l < handles.size(); ++l) {
                    bool got = true;
                    try {
                        run.results[c].push_back(handles[l].Result());
                    } catch (const std::exception& e) {
                        run.results[c].emplace_back();
                        got = false;
                        if (handles[l].status() !=
                            RequestStatus::kDeadlineExpired) {
                            // kFailed/kCancelled is a serving bug, not a
                            // miss — fail the bench. (Expiries are counted
                            // from the probes after shutdown.)
                            ++local_failures;
                            std::fprintf(stderr,
                                         "FAILED: client %zu lookup %zu: "
                                         "%s\n",
                                         c, l, e.what());
                        }
                    }
                    run.have[c].push_back(got);
                    if (got) {
                        // Submission-to-result as the consumer saw it
                        // (consume order matches completion order here).
                        local_full.push_back(
                            probes[c][l].timer.ElapsedMillis());
                    }
                }
                std::lock_guard<std::mutex> lock(agg_mu);
                full_lat_ms.insert(full_lat_ms.end(), local_full.begin(),
                                   local_full.end());
                failures += local_failures;
            });
        }
        for (auto& t : threads) t.join();
    }
    const double sec = wall.ElapsedSeconds();
    // Join the batcher before reading the probes: every on_partial /
    // on_complete callback has returned once Shutdown() does.
    service->front_end().Shutdown();
    std::vector<double> first_ms;
    std::size_t misses = 0;
    for (std::size_t c = 0; c < clients; ++c) {
        for (std::size_t l = 0; l < lookups_per_client; ++l) {
            const RequestProbe& probe = probes[c][l];
            if (probe.got_first.load()) {
                first_ms.push_back(probe.first_partial_ms);
            }
            // A miss is a server-side expiry or a completion past the
            // deadline (stamped by on_complete on the batcher thread).
            // kFailed/kCancelled is a bench failure, not a miss.
            if (probe.done.load() &&
                (probe.final_status == RequestStatus::kDeadlineExpired ||
                 (probe.final_status == RequestStatus::kComplete &&
                  probe.complete_ms > kDeadlineUs / 1e3))) {
                ++misses;
            }
        }
    }
    const std::size_t total = clients * lookups_per_client;
    run.qps = total / sec;
    run.latency = Percentiles(full_lat_ms);
    std::sort(first_ms.begin(), first_ms.end());
    run.first_partial_p50_ms = bench::PercentileSorted(first_ms, 0.50);
    run.first_partial_p99_ms = bench::PercentileSorted(first_ms, 0.99);
    run.deadline_miss_rate = static_cast<double>(misses) / total;
    run.server_failures = failures;
    return run;
}

// Every 10-request stride of the global (client, lookup) stream cancels
// three: a deterministic ~30% cancel rate, spread across clients. The
// exact per-run rate is reported, not assumed.
bool IsCancelVictim(std::size_t client, std::size_t lookup,
                    std::size_t lookups_per_client) {
    return (client * lookups_per_client + lookup) % 10 < 3;
}

// One cancel-heavy run: victims are cancelled right after their first
// partial; survivors are consumed normally and checked for bit-identity
// by the caller.
struct CancelRun {
    double survivor_qps = 0.0;
    std::size_t victims = 0;
    std::size_t cancels_won = 0;  // Cancel() == true (mid-batch or queued)
    std::uint64_t jobs_skipped = 0;
    std::uint64_t shards_skipped = 0;
    std::size_t server_failures = 0;
    // Survivor results; have[c][l] is false for victims and failures.
    std::vector<std::vector<LookupResult>> results;
    std::vector<std::vector<bool>> have;
};

CancelRun RunCancelHeavy(const World& world, bool skip_abandoned,
                         std::size_t clients,
                         std::size_t lookups_per_client) {
    ServiceConfig config = MakeConfig(false);
    config.skip_abandoned_work = skip_abandoned;
    auto service = world.MakeService(config);
    std::vector<std::unique_ptr<PrivateEmbeddingService::Client>> pc;
    for (std::size_t c = 0; c < clients; ++c) {
        pc.push_back(service->MakeClient());
    }
    CancelRun run;
    run.results.assign(clients, {});
    run.have.assign(clients, {});
    std::atomic<std::size_t> cancels_won{0};
    std::atomic<std::size_t> failures{0};
    Timer wall;
    {
        std::vector<std::thread> threads;
        for (std::size_t c = 0; c < clients; ++c) {
            threads.emplace_back([&, c] {
                // Submit the whole stream, then consume in submission
                // order, cancelling each victim after its first partial
                // (the batch is then mid-flight, so the cancel exercises
                // the engine's skip path rather than the queued unwind).
                std::vector<ServingFrontEnd::RequestHandle> handles;
                for (std::size_t l = 0; l < lookups_per_client; ++l) {
                    handles.push_back(service->front_end().SubmitRequestOrWait(
                        {pc[c].get(), WantedFor(c, l)}));
                    if (!handles.back().ok()) {
                        std::fprintf(stderr,
                                     "cancel-heavy submission rejected: "
                                     "client %zu lookup %zu\n",
                                     c, l);
                        std::abort();
                    }
                }
                for (std::size_t l = 0; l < handles.size(); ++l) {
                    if (IsCancelVictim(c, l, lookups_per_client)) {
                        PrivateEmbeddingService::TablePartial partial;
                        handles[l].WaitPartial(&partial);
                        if (handles[l].Cancel()) ++cancels_won;
                        handles[l].Wait();
                        run.results[c].emplace_back();
                        run.have[c].push_back(false);
                        continue;
                    }
                    try {
                        run.results[c].push_back(handles[l].Result());
                        run.have[c].push_back(true);
                    } catch (const std::exception& e) {
                        ++failures;
                        run.results[c].emplace_back();
                        run.have[c].push_back(false);
                        std::fprintf(stderr,
                                     "cancel-heavy FAILED: client %zu "
                                     "lookup %zu: %s\n",
                                     c, l, e.what());
                    }
                }
            });
        }
        for (auto& t : threads) t.join();
    }
    const double sec = wall.ElapsedSeconds();
    service->front_end().Shutdown();
    const ServingFrontEnd::Counters counters =
        service->front_end().counters();
    for (std::size_t c = 0; c < clients; ++c) {
        for (std::size_t l = 0; l < lookups_per_client; ++l) {
            if (IsCancelVictim(c, l, lookups_per_client)) ++run.victims;
        }
    }
    const std::size_t survivors =
        clients * lookups_per_client - run.victims;
    run.survivor_qps = survivors / sec;
    run.cancels_won = cancels_won.load();
    run.jobs_skipped = counters.jobs_skipped;
    run.shards_skipped = counters.shards_skipped;
    run.server_failures = failures.load();
    return run;
}

}  // namespace

int main(int argc, char** argv) {
    const char* json_path = bench::JsonPathFromArgs(argc, argv);
    const std::vector<const char*> positional =
        bench::PositionalArgs(argc, argv);
    const long long max_clients_arg =
        positional.size() > 0 ? std::atoll(positional[0]) : 8;
    const long long lookups_arg =
        positional.size() > 1 ? std::atoll(positional[1]) : 6;
    if (max_clients_arg < 1 || max_clients_arg > 1'024 || lookups_arg < 1 ||
        lookups_arg > 100'000) {
        std::fprintf(stderr,
                     "usage: %s [max_clients 1..1024] "
                     "[lookups_per_client 1..100000] [--json=path]\n",
                     argv[0]);
        return 2;
    }
    const std::size_t max_clients = static_cast<std::size_t>(max_clients_arg);
    const std::size_t lookups_per_client =
        static_cast<std::size_t>(lookups_arg);

    const ServiceConfig config = MakeConfig(false);
    std::printf("== multi-client streaming serving throughput ==\n");
    std::printf(
        "vocab=%llu, hot=%llu, q_full=%llu, q_hot=%llu, linger cap=%llu us, "
        "deadline=%llu us, %zu lookups/client, host cores=%u\n",
        static_cast<unsigned long long>(kVocab),
        static_cast<unsigned long long>(config.codesign.hot_size),
        static_cast<unsigned long long>(config.codesign.q_full),
        static_cast<unsigned long long>(config.codesign.q_hot),
        static_cast<unsigned long long>(config.batcher_linger_us),
        static_cast<unsigned long long>(kDeadlineUs), lookups_per_client,
        std::thread::hardware_concurrency());

    World world;
    std::vector<bench::JsonResult> json;
    bool all_identical = true;
    bool streaming_beats_full = true;
    std::size_t skipped_expired = 0;
    std::size_t server_failures = 0;

    std::printf("\n%-8s %12s %12s %12s %8s %16s %16s %9s\n", "clients",
                "serial q/s", "pooled q/s", "adapt q/s", "speedup",
                "pooled 1st-part", "adapt 1st-part", "miss%");
    for (std::size_t clients = 1; clients <= max_clients; clients *= 2) {
        const std::size_t total = clients * lookups_per_client;

        // Serialized: one synchronous Lookup at a time, client by client.
        auto serial_service = world.MakeService(false);
        std::vector<std::unique_ptr<PrivateEmbeddingService::Client>> sc;
        for (std::size_t c = 0; c < clients; ++c) {
            sc.push_back(serial_service->MakeClient());
        }
        std::vector<std::vector<LookupResult>> serial(clients);
        std::vector<double> serial_lat_ms;
        serial_lat_ms.reserve(total);
        Timer serial_timer;
        for (std::size_t c = 0; c < clients; ++c) {
            for (std::size_t l = 0; l < lookups_per_client; ++l) {
                Timer request_timer;
                serial[c].push_back(sc[c]->Lookup(WantedFor(c, l)));
                serial_lat_ms.push_back(request_timer.ElapsedMillis());
            }
        }
        const double serial_sec = serial_timer.ElapsedSeconds();
        const double serial_qps = total / serial_sec;
        const LatencyStats serial_lat = Percentiles(serial_lat_ms);

        // Pooled fixed-window and adaptive-window streaming runs.
        const PooledRun pooled =
            RunPooled(world, /*adaptive=*/false, clients, lookups_per_client);
        const PooledRun adaptive =
            RunPooled(world, /*adaptive=*/true, clients, lookups_per_client);
        server_failures += pooled.server_failures + adaptive.server_failures;

        for (std::size_t c = 0; c < clients; ++c) {
            for (std::size_t l = 0; l < lookups_per_client; ++l) {
                for (const PooledRun* run : {&pooled, &adaptive}) {
                    if (!run->have[c][l]) {
                        ++skipped_expired;
                        continue;
                    }
                    if (!SameResults(serial[c][l], run->results[c][l])) {
                        all_identical = false;
                        std::fprintf(stderr,
                                     "MISMATCH: client %zu lookup %zu (%s)\n",
                                     c, l,
                                     run == &pooled ? "pooled" : "adaptive");
                    }
                }
            }
        }
        // Cancel-heavy A/B: identical 30%-cancelled streams with and
        // without the engine-level skip; survivors must stay bit-identical
        // to the serialized reference either way.
        const CancelRun cancel_skip =
            RunCancelHeavy(world, /*skip_abandoned=*/true, clients,
                           lookups_per_client);
        const CancelRun cancel_noskip =
            RunCancelHeavy(world, /*skip_abandoned=*/false, clients,
                           lookups_per_client);
        server_failures +=
            cancel_skip.server_failures + cancel_noskip.server_failures;
        for (std::size_t c = 0; c < clients; ++c) {
            for (std::size_t l = 0; l < lookups_per_client; ++l) {
                for (const CancelRun* run : {&cancel_skip, &cancel_noskip}) {
                    if (!run->have[c][l]) continue;
                    if (!SameResults(serial[c][l], run->results[c][l])) {
                        all_identical = false;
                        std::fprintf(
                            stderr,
                            "MISMATCH: client %zu lookup %zu (cancel/%s)\n",
                            c, l,
                            run == &cancel_skip ? "skip" : "noskip");
                    }
                }
            }
        }

        // Streaming must deliver the first partial before the full result
        // once enough clients pool (at low counts both are one batch).
        if (clients >= 8 &&
            pooled.first_partial_p50_ms >= pooled.latency.p50_ms) {
            streaming_beats_full = false;
        }

        std::printf(
            "%-8zu %12.1f %12.1f %12.1f %7.2fx %9.1f/%4.1f ms %9.1f/%4.1f ms "
            "%8.2f%%\n",
            clients, serial_qps, pooled.qps, adaptive.qps,
            pooled.qps / serial_qps, pooled.first_partial_p50_ms,
            pooled.latency.p50_ms, adaptive.first_partial_p50_ms,
            adaptive.latency.p50_ms, 100.0 * pooled.deadline_miss_rate);
        std::printf(
            "         cancel %.0f%%: survivors %.1f q/s with skip "
            "(%llu jobs / %llu shards reclaimed, %zu/%zu cancels won) vs "
            "%.1f q/s without (%.2fx)\n",
            100.0 * cancel_skip.victims / total, cancel_skip.survivor_qps,
            static_cast<unsigned long long>(cancel_skip.jobs_skipped),
            static_cast<unsigned long long>(cancel_skip.shards_skipped),
            cancel_skip.cancels_won, cancel_skip.victims,
            cancel_noskip.survivor_qps,
            cancel_noskip.survivor_qps > 0.0
                ? cancel_skip.survivor_qps / cancel_noskip.survivor_qps
                : 0.0);
        bench::JsonResult serial_row =
            bench::QpsRow("serialized_c" + std::to_string(clients), serial_qps);
        serial_row.has_latency = true;
        serial_row.p50_ms = serial_lat.p50_ms;
        serial_row.p95_ms = serial_lat.p95_ms;
        serial_row.p99_ms = serial_lat.p99_ms;
        json.push_back(serial_row);
        for (const PooledRun* run : {&pooled, &adaptive}) {
            bench::JsonResult row;
            row.name = (run == &pooled ? "pooled_c" : "adaptive_c") +
                       std::to_string(clients);
            row.qps = run->qps;
            row.has_latency = true;
            row.p50_ms = run->latency.p50_ms;
            row.p95_ms = run->latency.p95_ms;
            row.p99_ms = run->latency.p99_ms;
            row.has_streaming = true;
            row.first_partial_p50_ms = run->first_partial_p50_ms;
            row.first_partial_p99_ms = run->first_partial_p99_ms;
            row.deadline_miss_rate = run->deadline_miss_rate;
            json.push_back(row);
        }
        for (const CancelRun* run : {&cancel_skip, &cancel_noskip}) {
            bench::JsonResult row;
            row.name =
                (run == &cancel_skip ? "cancel_skip_c" : "cancel_noskip_c") +
                std::to_string(clients);
            // Surviving-request throughput: the skip-vs-noskip delta is
            // the throughput the kill switch reclaims from dead work.
            row.qps = run->survivor_qps;
            row.has_skip = true;
            row.cancel_rate = static_cast<double>(run->victims) / total;
            row.jobs_skipped = static_cast<double>(run->jobs_skipped);
            row.shards_skipped = static_cast<double>(run->shards_skipped);
            json.push_back(row);
        }
    }

    std::printf("\npooled/adaptive results bit-identical to serialized: %s\n",
                all_identical ? "YES" : "NO");
    std::printf("first partial before full result at >=8 clients: %s\n",
                streaming_beats_full ? "YES" : "NO");
    if (skipped_expired > 0) {
        std::printf("note: %zu request(s) expired and were skipped\n",
                    skipped_expired);
    }
    if (server_failures > 0) {
        std::printf("%zu request(s) FAILED (not deadline expiry)\n",
                    server_failures);
    }
    if (json_path != nullptr &&
        !bench::WriteBenchJson(json_path, "bench_multi_client_serving",
                               json)) {
        return 2;
    }
    return all_identical && streaming_beats_full && server_failures == 0 ? 0
                                                                         : 1;
}
