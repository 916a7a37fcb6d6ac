#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "host.h"
#include "src/common/thread_pool.h"
#include "src/core/serving.h"
#include "src/core/service.h"
#include "src/dpf/dpf.h"
#include "src/kernels/accumulate.h"
#include "src/ml/embedding.h"
#include "src/net/replica_router.h"
#include "src/net/server_node.h"
#include "src/net/sharded_router.h"
#include "src/net/wire.h"
#include "src/pir/shard_merge.h"
#include "src/workloads/dataset.h"

namespace perfbench {
namespace {

using gpudpf::AccessStats;
using gpudpf::AnswerEngine;
using gpudpf::EmbeddingTable;
using gpudpf::PirResponse;
using gpudpf::PirTable;
using gpudpf::RequestStatus;
using gpudpf::Rng;
using gpudpf::ServiceConfig;
using gpudpf::ServingFrontEnd;
namespace net = gpudpf::net;
using Service = gpudpf::PrivateEmbeddingService;
using Client = Service::Client;
using LookupResult = Service::LookupResult;

// p95 must have ten samples beyond it (PercentileSupported), so every
// timed window runs until it holds at least this many lookups.
constexpr std::size_t kMinSamples = 210;
// Slices per timed window whose medians are reported (each still holds at
// least kMinSamples lookups).
constexpr std::size_t kMaxSlices = 40;
// World builds per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 7;
// Unloaded replay of the traced run: lookup cap, time cap, and the leaf
// budget of the single-threaded DPF-eval / accumulate split.
constexpr std::size_t kReplayLookups = 64;
constexpr double kReplaySeconds = 3.0;
constexpr double kSplitRows = double(1u << 20);
// Rows per DPF-eval / accumulate segment of the split, as the kernels use.
constexpr std::uint64_t kSegmentRows = 1u << 12;

double Ms(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

double Median(const std::vector<double>& v) { return Percentile(v, 50); }

double Mean(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    double s = 0.0;
    for (const double x : v) s += x;
    return s / static_cast<double>(v.size());
}

void SleepUntilNs(std::int64_t t) {
    const std::int64_t now = NowNs();
    if (t > now) std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
}

// First few lookup errors go to stderr; the rest are only counted.
void ReportError(const std::string& what) {
    static std::atomic<int> reported{0};
    if (reported.fetch_add(1) < 5) {
        std::fprintf(stderr, "perfbench: lookup failed: %s\n", what.c_str());
    }
}

// --- workloads ---------------------------------------------------------------

struct Spec {
    std::string name;
    ServiceConfig config;
    // Closed-loop client threads, or (pooled) requests the single load
    // thread keeps in flight, one device client each.
    std::size_t clients = 2;
    bool pooled = false;
    // Loopback PirServerNodes of a sharded fleet; 0 = in-process service.
    std::size_t fleet_nodes = 0;
    double warmup_s = 2.0;
};

Spec MakeSpec(const std::string& name, std::uint64_t seed) {
    Spec s;
    s.name = name;
    ServiceConfig& c = s.config;
    c.client_seed = 1 + seed * 7919;
    if (name == "rec_scan") {
        c.codesign.hot_size = 4096;
        c.codesign.q_hot = 4;
        c.codesign.q_full = 4;
        c.server_threads = 2;
        c.server_shards = 2;
        // No linger: a batch takes whatever is queued when the previous one
        // ends, so the two clients settle into alternating one-request
        // batches instead of drifting in and out of shared ones, which made
        // p95 swing between runs.
        c.batcher_linger_us = 0;
        s.clients = 2;
    } else if (name == "ml_pooled") {
        c.codesign.colocate_c = 2;
        c.codesign.hot_size = 2048;
        c.codesign.q_hot = 32;
        c.codesign.q_full = 32;
        c.server_threads = 2;
        s.clients = 8;
        s.pooled = true;
    } else if (name == "lm_fleet") {
        c.codesign.colocate_c = 4;
        c.codesign.hot_size = 1024;
        c.codesign.q_hot = 16;
        c.codesign.q_full = 4;
        c.server_threads = 1;
        s.clients = 2;
        s.fleet_nodes = 2;
    } else {
        throw std::invalid_argument("unknown workload: " + name);
    }
    return s;
}

// The program's inputs, generated from the seed and not timed: the
// embedding weights, the training-split access statistics the co-design
// layout is built from, and the test-split lookups in seeded order.
struct Inputs {
    std::unique_ptr<EmbeddingTable> emb;
    AccessStats stats;
    std::vector<std::vector<std::uint64_t>> requests;
};

Inputs MakeInputs(const std::string& name, std::uint64_t seed) {
    Inputs in;
    const std::uint64_t mix = seed * 0x9E3779B97F4A7C15ull;
    std::uint64_t vocab = 0;
    int dim = 0;
    if (name == "lm_fleet") {
        gpudpf::LmWorkloadSpec spec = gpudpf::WikiText2LikeSpec();
        spec.vocab = 8192;
        spec.seed ^= mix;
        const gpudpf::LmDataset data = gpudpf::GenerateLmDataset(spec);
        in.stats = gpudpf::ComputeLmStats(data, 4);
        for (const auto& s : data.test) in.requests.push_back(s.context);
        vocab = spec.vocab;
        dim = spec.dim;
    } else {
        gpudpf::RecWorkloadSpec spec = name == "rec_scan"
                                           ? gpudpf::TaobaoLikeSpec()
                                           : gpudpf::MovieLensLikeSpec();
        spec.seed ^= mix;
        const gpudpf::RecDataset data = gpudpf::GenerateRecDataset(spec);
        in.stats = gpudpf::ComputeRecStats(data, 4);
        for (const auto& s : data.test) {
            if (!s.history.empty()) in.requests.push_back(s.history);
        }
        vocab = spec.vocab;
        dim = spec.dim;
    }
    in.emb = std::make_unique<EmbeddingTable>(vocab, dim);
    Rng init(mix ^ 0xE5B3D);
    in.emb->InitRandom(init, 0.1f);
    Rng order(mix + 1);
    order.Shuffle(in.requests);
    return in;
}

// Core plan for a 4-core host: client and load threads on the first two
// usable CPUs, server stacks confined to the other two (one per fleet
// node). Smaller hosts fold the plan onto the CPUs they have.
struct Cores {
    std::vector<int> clients;
    std::vector<std::vector<int>> client;
    std::vector<int> server;
    std::vector<std::vector<int>> node;
};

Cores PlanCores() {
    const std::vector<int> cpus = UsableCpus();
    auto at = [&](std::size_t i) { return cpus[i % cpus.size()]; };
    Cores c;
    c.clients = {at(0), at(1)};
    c.client = {{at(0)}, {at(1)}};
    c.server = {at(2), at(3)};
    c.node = {{at(2)}, {at(3)}};
    return c;
}

// --- world -------------------------------------------------------------------

// Everything setup builds. Members are destroyed bottom-up: clients and
// router before the nodes, nodes before the services they serve.
struct World {
    std::unique_ptr<Service> service;
    std::vector<std::unique_ptr<Service>> node_services;
    std::vector<std::unique_ptr<net::PirServerNode>> nodes;
    std::unique_ptr<Service> planning;
    std::unique_ptr<net::ShardedRouter> router;
    std::vector<std::unique_ptr<Client>> clients;

    Service& client_service() { return planning ? *planning : *service; }
};

// Builds a server stack from a thread pinned to its cores, so the answer
// pool, batcher, accept and connection threads all inherit that mask.
std::unique_ptr<World> BuildWorld(const Spec& spec, const Inputs& in,
                                  const Cores& cores) {
    auto w = std::make_unique<World>();
    if (spec.fleet_nodes == 0) {
        RunPinned(cores.server, [&] {
            w->service =
                std::make_unique<Service>(*in.emb, in.stats, spec.config);
        });
    } else {
        std::vector<std::vector<net::ShardedRouter::Endpoint>> shards;
        for (std::size_t k = 0; k < spec.fleet_nodes; ++k) {
            RunPinned(cores.node[k % cores.node.size()], [&] {
                auto svc =
                    std::make_unique<Service>(*in.emb, in.stats, spec.config);
                auto node = std::make_unique<net::PirServerNode>(
                    svc.get(), net::PirServerNode::Options{});
                net::ShardedRouter::Endpoint endpoint;
                endpoint.port = node->port();
                shards.push_back({endpoint});
                w->node_services.push_back(std::move(svc));
                w->nodes.push_back(std::move(node));
            });
        }
        ServiceConfig planning = spec.config;
        planning.planning_only = true;
        w->planning = std::make_unique<Service>(*in.emb, in.stats, planning);
        net::ShardedRouter::Options options;
        options.health_thread = false;
        w->router = std::make_unique<net::ShardedRouter>(
            w->planning.get(), std::move(shards), options);
    }
    for (std::size_t c = 0; c < spec.clients; ++c) {
        w->clients.push_back(w->client_service().MakeClient());
    }
    return w;
}

// Bit-exact check of one lookup: every retrieved slot is the embedding row
// of its wanted index, every dropped slot is zero, and the communication
// equals the planner's fixed per-inference cost.
struct Checker {
    const EmbeddingTable* emb = nullptr;
    std::size_t upload = 0;
    std::size_t download = 0;

    bool operator()(const LookupResult& r,
                    const std::vector<std::uint64_t>& wanted) const {
        if (r.retrieved.size() != wanted.size() ||
            r.embeddings.size() != wanted.size() || r.upload_bytes != upload ||
            r.download_bytes != download) {
            return false;
        }
        const std::size_t dim = static_cast<std::size_t>(emb->dim());
        for (std::size_t i = 0; i < wanted.size(); ++i) {
            const std::vector<float>& e = r.embeddings[i];
            if (e.size() != dim) return false;
            if (r.retrieved[i]) {
                if (std::memcmp(e.data(), emb->Row(wanted[i]),
                                dim * sizeof(float)) != 0) {
                    return false;
                }
            } else {
                for (const float f : e) {
                    std::uint32_t bits = 0;
                    std::memcpy(&bits, &f, sizeof(bits));
                    if (bits != 0) return false;
                }
            }
        }
        return true;
    }
};

Checker MakeChecker(const Service& svc, const EmbeddingTable& emb) {
    Checker c;
    c.emb = &emb;
    c.upload = svc.planner().UploadBytesPerServer();
    c.download = svc.planner().DownloadBytes(
        static_cast<std::size_t>(emb.dim()) * sizeof(float));
    return c;
}

bool SameResult(const LookupResult& a, const LookupResult& b) {
    return a.retrieved == b.retrieved && a.embeddings == b.embeddings &&
           a.upload_bytes == b.upload_bytes &&
           a.download_bytes == b.download_bytes;
}

std::uint32_t CountRetrieved(const LookupResult& r) {
    return static_cast<std::uint32_t>(
        std::count(r.retrieved.begin(), r.retrieved.end(), true));
}

// --- closed-loop load ------------------------------------------------------

struct Sample {
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t wanted = 0;
    std::uint32_t retrieved = 0;
    bool ok = false;
};

// Serving-layer times of one traced in-process lookup, from the SubmitRaw
// callbacks, relative to submission.
struct ServingSample {
    std::int64_t end_ns = 0;
    double first_partial_ms = 0.0;
    double complete_ms = 0.0;
};

// Per-thread record; no locks on the measured path.
struct ThreadLog {
    std::vector<Sample> samples;
    std::vector<Span> spans;
    std::vector<ServingSample> serving;
};

struct Window {
    std::int64_t t0 = 0;
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> done{0};

    void Note(ThreadLog& log, const Sample& s) {
        log.samples.push_back(s);
        if (s.end_ns >= t0) done.fetch_add(1, std::memory_order_relaxed);
    }
};

struct LoadStats {
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
    double cpu_s = 0.0;
    double steal = 0.0;
    // (completion ns, latency ms) of the window's completed lookups.
    std::vector<std::pair<std::int64_t, double>> completions;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    double wanted = 0.0;
    double retrieved = 0.0;
    std::vector<ThreadLog> logs;

    double elapsed_s() const { return static_cast<double>(t1 - t0) * 1e-9; }
    bool InWindow(std::int64_t end_ns) const {
        return end_ns >= t0 && end_ns < t1;
    }
    std::uint64_t completed() const { return attempted - failed; }
    std::vector<SliceStats> slices() const {
        return SliceWindow(completions, t0, t1, kMinSamples, kMaxSlices);
    }
    // Medians over the window's slices (see SliceWindow).
    double lookups_per_s() const {
        return MedianOf(slices(), &SliceStats::per_s);
    }
    double p50_ms() const { return MedianOf(slices(), &SliceStats::p50); }
    double p95_ms() const { return MedianOf(slices(), &SliceStats::p95); }
};

using Body = std::function<void(std::size_t, Window&, ThreadLog&)>;

// Runs one body per thread (pinned to thread_cores[t]) through a warm-up
// and then a timed window of `seconds`, extended until it holds
// kMinSamples lookups (at most 3x). A lookup counts when it completes
// inside the window.
LoadStats RunLoad(const std::vector<std::vector<int>>& thread_cores,
                  double warmup_s, double seconds, const Body& body) {
    Window w;
    const std::int64_t seconds_ns = static_cast<std::int64_t>(seconds * 1e9);
    w.t0 = NowNs() + static_cast<std::int64_t>(warmup_s * 1e9);
    const std::size_t n = thread_cores.size();
    LoadStats out;
    out.logs.resize(n);
    std::vector<std::exception_ptr> errors(n);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < n; ++t) {
        threads.emplace_back([&, t] {
            PinCurrentThread(thread_cores[t]);
            try {
                body(t, w, out.logs[t]);
            } catch (...) {
                errors[t] = std::current_exception();
            }
        });
    }
    SleepUntilNs(w.t0);
    const double cpu0 = ProcessCpuSeconds();
    const CpuJiffies j0 = ReadCpuJiffies();
    SleepUntilNs(w.t0 + seconds_ns);
    while (w.done.load() < kMinSamples && NowNs() < w.t0 + 3 * seconds_ns) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    out.t1 = NowNs();
    out.cpu_s = ProcessCpuSeconds() - cpu0;
    out.steal = StealFraction(j0, ReadCpuJiffies());
    w.stop.store(true);
    for (auto& t : threads) t.join();
    for (const auto& e : errors) {
        if (e) std::rethrow_exception(e);
    }
    out.t0 = w.t0;
    for (const ThreadLog& log : out.logs) {
        for (const Sample& s : log.samples) {
            if (!out.InWindow(s.end_ns)) continue;
            ++out.attempted;
            if (!s.ok) {
                ++out.failed;
                continue;
            }
            out.completions.push_back({s.end_ns, Ms(s.end_ns - s.start_ns)});
            out.wanted += s.wanted;
            out.retrieved += s.retrieved;
        }
    }
    return out;
}

// --- traced in-process path: Prepare -> SubmitRaw -> reconstruct -----------

// One raw request in flight; the front-end's callbacks fill it from pool
// and batcher threads.
struct RawCall {
    Service::PreparedLookup prep;
    std::uint64_t request = 0;
    int root = -1;
    std::int64_t submit_ns = 0;
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    RequestStatus status = RequestStatus::kFailed;
    std::int64_t first_partial_ns = 0;
    std::int64_t complete_ns = 0;
    gpudpf::RawTablePartial full;
    gpudpf::RawTablePartial hot;
};

std::shared_ptr<RawCall> StartRaw(Service& svc, Client* client,
                                  const std::vector<std::uint64_t>& wanted,
                                  ThreadLog& log, std::uint64_t request) {
    auto call = std::make_shared<RawCall>();
    call->request = request;
    call->root = static_cast<int>(log.spans.size());
    const std::int64_t start = NowNs();
    log.spans.push_back({"lookup", start, start, -1, request});
    call->prep = client->Prepare(wanted);
    call->submit_ns = NowNs();
    log.spans.push_back(
        {"client.prepare", start, call->submit_ns, call->root, request});

    gpudpf::RawLookup raw;
    raw.full_server0 = std::move(call->prep.full_server0);
    raw.full_server1 = std::move(call->prep.full_server1);
    raw.hot_server0 = std::move(call->prep.hot_server0);
    raw.hot_server1 = std::move(call->prep.hot_server1);
    raw.has_hot = !raw.hot_server0.jobs.empty();
    ServingFrontEnd::RawSubmitOptions options;
    options.on_raw_partial = [call](gpudpf::RawTablePartial&& part) {
        std::lock_guard<std::mutex> lock(call->mu);
        if (call->first_partial_ns == 0) call->first_partial_ns = NowNs();
        (part.hot ? call->hot : call->full) = std::move(part);
    };
    options.on_complete = [call](RequestStatus status) {
        {
            std::lock_guard<std::mutex> lock(call->mu);
            call->status = status;
            call->complete_ns = NowNs();
            call->done = true;
        }
        call->cv.notify_all();
    };
    const auto handle =
        svc.front_end().SubmitRaw(std::move(raw), std::move(options));
    if (!handle.ok()) {
        // on_complete never fires for a rejected submission.
        std::lock_guard<std::mutex> lock(call->mu);
        call->complete_ns = NowNs();
        call->done = true;
    }
    return call;
}

LookupResult FinishRaw(Service& svc, Client* client, RawCall& call,
                       ThreadLog& log) {
    {
        std::unique_lock<std::mutex> lock(call.mu);
        call.cv.wait(lock, [&] { return call.done; });
    }
    log.spans.push_back(
        {"serving.raw", call.submit_ns, call.complete_ns, call.root,
         call.request});
    if (call.status != RequestStatus::kComplete) {
        log.spans[static_cast<std::size_t>(call.root)].end_ns = NowNs();
        throw std::runtime_error(std::string("raw request ended ") +
                                 gpudpf::RequestStatusName(call.status));
    }
    const std::int64_t r0 = NowNs();
    const auto full = client->ReconstructTablePartial(
        call.prep, false, call.full.server0, call.full.server1);
    Service::TablePartial hot;
    const bool has_hot = svc.hot_pbr() != nullptr;
    if (has_hot) {
        hot = client->ReconstructTablePartial(call.prep, true,
                                              call.hot.server0,
                                              call.hot.server1);
    }
    LookupResult result =
        svc.FinalizeLookupResult(call.prep, full, has_hot ? &hot : nullptr);
    const std::int64_t r1 = NowNs();
    log.spans.push_back({"client.reconstruct", r0, r1, call.root, call.request});
    log.spans[static_cast<std::size_t>(call.root)].end_ns = r1;
    log.serving.push_back({r1, Ms(call.first_partial_ns - call.submit_ns),
                           Ms(call.complete_ns - call.submit_ns)});
    return result;
}

LookupResult TracedRouterLookup(World& w, Client* client,
                                const std::vector<std::uint64_t>& wanted,
                                ThreadLog& log, std::uint64_t request) {
    const int root = static_cast<int>(log.spans.size());
    const std::int64_t start = NowNs();
    log.spans.push_back({"lookup", start, start, -1, request});
    try {
        LookupResult r = w.router->Lookup(client, wanted).result;
        const std::int64_t end = NowNs();
        log.spans.push_back({"net.router_lookup", start, end, root, request});
        log.spans[static_cast<std::size_t>(root)].end_ns = NowNs();
        return r;
    } catch (...) {
        log.spans[static_cast<std::size_t>(root)].end_ns = NowNs();
        throw;
    }
}

// One device per thread, each sending its next lookup when the previous
// returns (rec_scan, lm_fleet).
Body ClosedLoop(World& w, const Inputs& in, const Checker& check,
                bool traced) {
    return [&w, &in, &check, traced](std::size_t tid, Window& win,
                                     ThreadLog& log) {
        Client* client = w.clients[tid].get();
        const std::size_t n = in.requests.size();
        const std::size_t stride = w.clients.size();
        std::uint64_t request = static_cast<std::uint64_t>(tid) << 40;
        for (std::size_t i = tid; !win.stop.load(std::memory_order_relaxed);
             i += stride) {
            const std::vector<std::uint64_t>& wanted = in.requests[i % n];
            Sample s;
            s.wanted = static_cast<std::uint32_t>(wanted.size());
            s.start_ns = NowNs();
            LookupResult r;
            bool ok = true;
            try {
                if (traced && w.router) {
                    r = TracedRouterLookup(w, client, wanted, log, ++request);
                } else if (traced) {
                    auto call = StartRaw(*w.service, client, wanted, log,
                                         ++request);
                    r = FinishRaw(*w.service, client, *call, log);
                } else if (w.router) {
                    r = w.router->Lookup(client, wanted).result;
                } else {
                    r = client->Lookup(wanted);
                }
            } catch (const std::exception& e) {
                ok = false;
                ReportError(e.what());
            }
            s.end_ns = NowNs();
            if (ok && !check(r, wanted)) {
                ok = false;
                ReportError("result differs from the embedding table");
            }
            s.ok = ok;
            s.retrieved = ok ? CountRetrieved(r) : 0;
            win.Note(log, s);
        }
    };
}

// One load thread keeping `clients` requests in flight through the
// front-end: wait on the oldest, resubmit (ml_pooled).
Body PooledLoop(World& w, const Inputs& in, const Checker& check,
                  bool traced) {
    return [&w, &in, &check, traced](std::size_t, Window& win,
                                     ThreadLog& log) {
        Service& svc = *w.service;
        struct Slot {
            std::size_t client = 0;
            std::size_t req = 0;
            std::int64_t start_ns = 0;
            ServingFrontEnd::RequestHandle handle;
            std::shared_ptr<RawCall> call;
        };
        std::deque<Slot> inflight;
        std::size_t next = 0;
        std::uint64_t request = 0;
        auto submit = [&](std::size_t c) {
            Slot s;
            s.client = c;
            s.req = next++ % in.requests.size();
            s.start_ns = NowNs();
            Client* client = w.clients[c].get();
            if (traced) {
                s.call = StartRaw(svc, client, in.requests[s.req], log,
                                  ++request);
            } else {
                s.handle =
                    svc.front_end().SubmitRequest({client, in.requests[s.req]});
            }
            inflight.push_back(std::move(s));
        };
        for (std::size_t c = 0; c < w.clients.size(); ++c) submit(c);
        while (!inflight.empty()) {
            Slot s = std::move(inflight.front());
            inflight.pop_front();
            const std::vector<std::uint64_t>& wanted = in.requests[s.req];
            Sample smp;
            smp.start_ns = s.start_ns;
            smp.wanted = static_cast<std::uint32_t>(wanted.size());
            LookupResult r;
            bool ok = true;
            try {
                if (traced) {
                    r = FinishRaw(svc, w.clients[s.client].get(), *s.call, log);
                } else if (!s.handle.ok()) {
                    throw std::runtime_error(
                        std::string("admission: ") +
                        gpudpf::AdmissionStatusName(s.handle.admission()));
                } else {
                    r = s.handle.Result();
                }
            } catch (const std::exception& e) {
                ok = false;
                ReportError(e.what());
            }
            smp.end_ns = NowNs();
            if (ok && !check(r, wanted)) {
                ok = false;
                ReportError("result differs from the embedding table");
            }
            smp.ok = ok;
            smp.retrieved = ok ? CountRetrieved(r) : 0;
            win.Note(log, smp);
            if (!win.stop.load(std::memory_order_relaxed)) submit(s.client);
        }
    };
}

LoadStats RunWorkloadLoad(const Spec& spec, World& w, const Inputs& in,
                          const Checker& check, const Cores& cores,
                          double seconds, bool traced) {
    if (spec.pooled) {
        return RunLoad({cores.clients}, spec.warmup_s, seconds,
                       PooledLoop(w, in, check, traced));
    }
    std::vector<std::vector<int>> thread_cores;
    for (std::size_t t = 0; t < spec.clients; ++t) {
        thread_cores.push_back(cores.client[t % cores.client.size()]);
    }
    return RunLoad(thread_cores, spec.warmup_s, seconds,
                   ClosedLoop(w, in, check, traced));
}

// --- layer counters ----------------------------------------------------------

struct Counters {
    ServingFrontEnd::Counters front;   // in-process front-end
    ServingFrontEnd::Counters nodes;   // summed over fleet node front-ends
    net::PirServerNode::Stats node;    // summed over fleet nodes
    net::ShardedRouter::Stats router;
};

Counters ReadCounters(World& w) {
    Counters c;
    if (w.service) c.front = w.service->front_end().counters();
    for (const auto& svc : w.node_services) {
        const auto f = svc->front_end().counters();
        c.nodes.batches += f.batches;
        c.nodes.completed += f.completed;
    }
    for (const auto& node : w.nodes) {
        const auto s = node->stats();
        c.node.completed += s.completed;
        c.node.rejected += s.rejected;
        c.node.bad_frames += s.bad_frames;
        c.node.rows_scanned += s.rows_scanned;
    }
    if (w.router) c.router = w.router->stats();
    return c;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// --- unloaded replay -------------------------------------------------------

// A physical table with the service's geometry and row contents (owner
// embedding plus co-located partners), built by the benchmark so each
// layer can be timed on its own.
std::unique_ptr<PirTable> BuildShadowTable(const Service& svc,
                                           const EmbeddingTable& emb,
                                           bool hot) {
    const gpudpf::EmbeddingLayout& layout = svc.layout();
    const std::size_t base = static_cast<std::size_t>(emb.dim()) * sizeof(float);
    const std::size_t row_bytes = layout.RowBytes(base);
    const std::uint64_t rows = hot ? layout.hot_size() : emb.vocab();
    auto table = std::make_unique<PirTable>(rows, row_bytes,
                                            svc.config().table_layout);
    std::vector<std::uint8_t> row(row_bytes);
    for (std::uint64_t r = 0; r < rows; ++r) {
        std::fill(row.begin(), row.end(), 0);
        const std::uint64_t owner = hot ? layout.HotContent(r) : r;
        std::memcpy(row.data(), emb.Row(owner), base);
        const auto& partners = layout.Partners(owner);
        for (std::size_t j = 0; j < partners.size(); ++j) {
            std::memcpy(row.data() + (j + 1) * base, emb.Row(partners[j]),
                        base);
        }
        table->SetEntry(r, row.data(), row.size());
    }
    return table;
}

struct Replay {
    std::vector<double> prepare_ms;
    std::vector<double> engine_ms;        // all engine work of a lookup
    std::vector<double> slowest_shard_ms; // fleet: the slowest node's share
    std::vector<double> reconstruct_ms;
    std::vector<double> router_ms;        // fleet: unloaded ShardedRouter::Lookup
    std::vector<double> encode_us;
    std::vector<double> decode_us;
    std::vector<double> merge_us;
    std::vector<double> net_bytes;
    std::vector<double> gen_ms;
    std::vector<double> pir_ms;
    std::vector<double> network_ms;
    double lookups = 0, keys = 0, real_bins = 0, bins = 0, dropped = 0;
    double rows = 0, table_bytes = 0;
    // Single-threaded split: rows whose DPF leaves were evaluated and
    // accumulated, and the time each half took.
    double split_rows = 0, eval_ns = 0, accumulate_ns = 0;
    bool correct = true;
};

// Times DPF leaf evaluation and the u128 accumulate of every job
// separately, segment by segment as the kernels walk them, on the
// calling thread.
void SplitEvalAccumulate(const std::vector<AnswerEngine::TableJob>& jobs,
                         Replay& out) {
    std::vector<gpudpf::u128> shares(kSegmentRows);
    gpudpf::Dpf::RangeScratch frontier;
    for (const AnswerEngine::TableJob& tj : jobs) {
        const PirTable& table = *tj.table;
        const gpudpf::Dpf dpf(tj.job.key->params);
        std::vector<gpudpf::u128> resp(table.words_per_entry(), 0);
        const std::uint64_t tile = table.rows_per_tile();
        std::uint64_t cur = 0;
        while (cur < tj.job.num_rows) {
            std::uint64_t end = std::min(tj.job.num_rows, cur + kSegmentRows);
            if (tile > 0) {
                const std::uint64_t abs = tj.job.row_begin + cur;
                end = std::min(end, (abs / tile + 1) * tile - tj.job.row_begin);
            }
            const std::int64_t a = NowNs();
            dpf.EvalRangeBatched(*tj.job.key, cur, end, shares.data(),
                                 &frontier);
            const std::int64_t b = NowNs();
            gpudpf::AccumulateSegment(table.Entry(tj.job.row_begin + cur),
                                      table.words_per_entry(), shares.data(),
                                      end - cur, resp.data());
            const std::int64_t c = NowNs();
            out.eval_ns += static_cast<double>(b - a);
            out.accumulate_ns += static_cast<double>(c - b);
            out.split_rows += static_cast<double>(end - cur);
            cur = end;
        }
    }
}

Replay RunReplay(World& w, const Inputs& in,
                 const Checker& check, const Cores& cores) {
    Replay out;
    const bool fleet = w.router != nullptr;
    // The engine under test: the in-process service's pool shape, or one
    // fleet node's (one worker, unsharded), confined like the real one.
    const Service& shape = fleet ? *w.node_services.at(0) : *w.service;
    std::unique_ptr<PirTable> full_table;
    std::unique_ptr<PirTable> hot_table;
    std::unique_ptr<gpudpf::ThreadPool> pool;
    const std::vector<int>& engine_cores = fleet ? cores.node[0] : cores.server;
    RunPinned(engine_cores, [&] {
        full_table = BuildShadowTable(shape, *in.emb, false);
        if (shape.hot_pbr() != nullptr) {
            hot_table = BuildShadowTable(shape, *in.emb, true);
        }
        pool = std::make_unique<gpudpf::ThreadPool>(
            shape.config().server_threads);
    });
    gpudpf::ShardingOptions sharding = shape.server_sharding();
    sharding.pool = pool.get();
    const AnswerEngine engine(sharding);

    Service& svc = w.client_service();
    std::unique_ptr<Client> client = svc.MakeClient();
    const std::size_t shard_count = fleet ? w.nodes.size() : 1;
    const std::uint64_t full_bin = svc.full_pbr().bin_size();
    const std::uint64_t hot_bin =
        svc.hot_pbr() != nullptr ? svc.hot_pbr()->bin_size() : 0;
    const std::int64_t deadline =
        NowNs() + static_cast<std::int64_t>(kReplaySeconds * 1e9);

    for (std::size_t i = 0; i < kReplayLookups; ++i) {
        if (i >= 4 && NowNs() > deadline) break;
        const std::vector<std::uint64_t>& wanted =
            in.requests[(i * 7919 + 17) % in.requests.size()];

        std::int64_t a = NowNs();
        Service::PreparedLookup prep = client->Prepare(wanted, fleet);
        out.prepare_ms.push_back(Ms(NowNs() - a));
        const auto& plan = prep.plan;
        out.keys += static_cast<double>(
            prep.full_server0.keys.size() + prep.full_server1.keys.size() +
            prep.hot_server0.keys.size() + prep.hot_server1.keys.size());
        out.real_bins += static_cast<double>(plan.full_plan.num_real() +
                                             plan.hot_plan.num_real());
        out.bins += static_cast<double>(plan.full_plan.queries.size() +
                                        plan.hot_plan.queries.size());
        out.dropped += static_cast<double>(plan.num_dropped);

        // Both logical servers' jobs for both tables, in that order.
        std::vector<AnswerEngine::TableJob> jobs;
        auto bind = [&](const gpudpf::PbrSession::BinJobs& bj,
                        const PirTable* table) {
            const auto bound = gpudpf::PbrSession::BindJobs(bj, table, {});
            jobs.insert(jobs.end(), bound.begin(), bound.end());
        };
        bind(prep.full_server0, full_table.get());
        bind(prep.full_server1, full_table.get());
        const std::size_t nf = prep.full_server0.jobs.size();
        const std::size_t nh = prep.hot_server0.jobs.size();
        if (nh > 0) {
            bind(prep.hot_server0, hot_table.get());
            bind(prep.hot_server1, hot_table.get());
        }
        for (const auto& tj : jobs) {
            out.rows += static_cast<double>(tj.job.num_rows);
            out.table_bytes += static_cast<double>(tj.job.num_rows) *
                               static_cast<double>(tj.table->entry_bytes());
        }
        auto slice = [](const std::vector<PirResponse>& v, std::size_t from,
                        std::size_t count) {
            return std::vector<PirResponse>(v.begin() + from,
                                            v.begin() + from + count);
        };

        std::vector<PirResponse> answers;
        if (!fleet) {
            a = NowNs();
            answers = engine.AnswerBatch(jobs);
            out.engine_ms.push_back(Ms(NowNs() - a));
        } else {
            // Each node answers the same jobs over its row window; the
            // frames a node exchanges are encoded and decoded here too.
            std::vector<std::vector<PirResponse>> parts(shard_count);
            double total_ms = 0.0;
            double slowest_ms = 0.0;
            double encode_ns = 0.0;
            double decode_ns = 0.0;
            double bytes = 0.0;
            net::LookupRequestFrame frame;
            frame.request_id = i + 1;
            frame.has_hot = nh > 0;
            frame.has_range = true;
            frame.full_keys0 = prep.wire_full_keys0;
            frame.full_keys1 = prep.wire_full_keys1;
            frame.hot_keys0 = prep.wire_hot_keys0;
            frame.hot_keys1 = prep.wire_hot_keys1;
            for (std::size_t k = 0; k < shard_count; ++k) {
                const gpudpf::ShardRange fr =
                    gpudpf::ShardRangeOf(full_bin, shard_count, k);
                const gpudpf::ShardRange hr =
                    gpudpf::ShardRangeOf(hot_bin, shard_count, k);
                frame.full_row_begin = fr.begin;
                frame.full_row_end = fr.end;
                frame.hot_row_begin = hr.begin;
                frame.hot_row_end = hr.end;
                a = NowNs();
                const auto req_bytes = net::EncodeLookupRequest(frame);
                std::int64_t b = NowNs();
                net::LookupRequestFrame decoded;
                const bool req_ok = net::DecodeLookupRequest(
                    req_bytes.data(), req_bytes.size(), &decoded);
                std::int64_t c = NowNs();
                encode_ns += static_cast<double>(b - a);
                decode_ns += static_cast<double>(c - b);
                bytes += static_cast<double>(req_bytes.size() +
                                             net::kHeaderBytes);
                out.correct &= req_ok;

                std::vector<AnswerEngine::TableJob> window = jobs;
                for (std::size_t j = 0; j < window.size(); ++j) {
                    const bool hot = j >= 2 * nf;
                    window[j].job.eval_begin = hot ? hr.begin : fr.begin;
                    window[j].job.eval_end = hot ? hr.end : fr.end;
                }
                a = NowNs();
                parts[k] = engine.AnswerBatch(window);
                const double ms = Ms(NowNs() - a);
                total_ms += ms;
                slowest_ms = std::max(slowest_ms, ms);

                for (const bool hot : {false, true}) {
                    if (hot && nh == 0) continue;
                    net::ShardPartialFrame part;
                    part.request_id = frame.request_id;
                    part.shard_index = static_cast<std::uint32_t>(k);
                    part.hot = hot;
                    const std::size_t from = hot ? 2 * nf : 0;
                    const std::size_t count = hot ? nh : nf;
                    part.server0 = slice(parts[k], from, count);
                    part.server1 = slice(parts[k], from + count, count);
                    a = NowNs();
                    const auto part_bytes = net::EncodeShardPartial(part);
                    b = NowNs();
                    net::ShardPartialFrame back;
                    const bool part_ok = net::DecodeShardPartial(
                        part_bytes.data(), part_bytes.size(), &back);
                    c = NowNs();
                    encode_ns += static_cast<double>(b - a);
                    decode_ns += static_cast<double>(c - b);
                    bytes += static_cast<double>(part_bytes.size() +
                                                 net::kHeaderBytes);
                    out.correct &= part_ok && back.server0 == part.server0 &&
                                   back.server1 == part.server1;
                }
                net::LookupCompleteFrame done;
                done.request_id = frame.request_id;
                bytes += static_cast<double>(
                    net::EncodeLookupComplete(done).size() +
                    net::kHeaderBytes);
            }
            out.engine_ms.push_back(total_ms);
            out.slowest_shard_ms.push_back(slowest_ms);
            out.encode_us.push_back(encode_ns * 1e-3);
            out.decode_us.push_back(decode_ns * 1e-3);
            out.net_bytes.push_back(bytes);

            a = NowNs();
            answers.resize(jobs.size());
            std::vector<PirResponse> per_shard(shard_count);
            for (std::size_t j = 0; j < jobs.size(); ++j) {
                for (std::size_t k = 0; k < shard_count; ++k) {
                    per_shard[k] = parts[k][j];
                }
                answers[j] = gpudpf::MergeShardShares(per_shard);
            }
            out.merge_us.push_back(static_cast<double>(NowNs() - a) * 1e-3);
        }

        a = NowNs();
        const auto full = client->ReconstructTablePartial(
            prep, false, slice(answers, 0, nf), slice(answers, nf, nf));
        Service::TablePartial hot;
        if (nh > 0) {
            hot = client->ReconstructTablePartial(
                prep, true, slice(answers, 2 * nf, nh),
                slice(answers, 2 * nf + nh, nh));
        }
        const LookupResult result =
            svc.FinalizeLookupResult(prep, full, nh > 0 ? &hot : nullptr);
        out.reconstruct_ms.push_back(Ms(NowNs() - a));
        out.correct &= check(result, wanted);
        out.gen_ms.push_back(result.latency.gen_sec * 1e3);
        out.pir_ms.push_back(result.latency.pir_sec * 1e3);
        out.network_ms.push_back(result.latency.network_sec * 1e3);

        if (fleet) {
            a = NowNs();
            const LookupResult routed = w.router->Lookup(client.get(), wanted).result;
            out.router_ms.push_back(Ms(NowNs() - a));
            out.correct &= check(routed, wanted);
        }
        if (out.split_rows < kSplitRows) SplitEvalAccumulate(jobs, out);
        out.lookups += 1;
    }
    return out;
}

// The traced path must be byte-identical to Client::Lookup for the same
// client stream: a twin service (same config, so same client seeds) runs
// Lookup while this service runs Prepare -> SubmitRaw -> reconstruct.
bool TwinCheck(const Spec& spec, World& w, const Inputs& in,
               const Cores& cores, std::size_t lookups) {
    std::unique_ptr<Service> twin;
    RunPinned(cores.server, [&] {
        twin = std::make_unique<Service>(*in.emb, in.stats, spec.config);
    });
    // Align creation order: the k-th client of both services shares a seed.
    std::unique_ptr<Client> traced = w.service->MakeClient();
    std::unique_ptr<Client> reference;
    for (std::size_t k = 0; k <= w.clients.size(); ++k) {
        reference = twin->MakeClient();
    }
    ThreadLog log;
    bool same = true;
    for (std::size_t i = 0; i < lookups; ++i) {
        const auto& wanted = in.requests[(i * 31 + 5) % in.requests.size()];
        auto call = StartRaw(*w.service, traced.get(), wanted, log, i);
        const LookupResult got = FinishRaw(*w.service, traced.get(), *call,
                                           log);
        same &= SameResult(got, reference->Lookup(wanted));
    }
    return same;
}

// --- reporting ---------------------------------------------------------------

void Add(std::vector<Metric>& m, const char* name, double value,
         const char* unit) {
    m.push_back({name, value, unit});
}

struct SpanTotals {
    double lookups = 0;
    double waiting_ms = 0;
    double prepare_ms = 0;
    double serving_ms = 0;
    double reconstruct_ms = 0;
    double router_ms = 0;
};

// Self time per layer, summed over lookups whose root span ended inside
// the timed window, and written out with every span.
SpanTotals SummarizeSpans(const LoadStats& load, const std::string& path) {
    SpanTotals t;
    std::FILE* f = path.empty() ? nullptr : std::fopen(path.c_str(), "w");
    for (std::size_t th = 0; th < load.logs.size(); ++th) {
        const std::vector<Span>& spans = load.logs[th].spans;
        const std::vector<std::int64_t> self = SelfTimesNs(spans);
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span& s = spans[i];
            if (f != nullptr) {
                std::fprintf(f,
                             "{\"thread\": %zu, \"name\": \"%s\", \"start_ns\": "
                             "%lld, \"end_ns\": %lld, \"parent\": %d, "
                             "\"request\": %llu, \"self_ns\": %lld}\n",
                             th, s.name, static_cast<long long>(s.start_ns),
                             static_cast<long long>(s.end_ns), s.parent,
                             static_cast<unsigned long long>(s.request),
                             static_cast<long long>(self[i]));
            }
            const Span& root =
                s.parent < 0 ? s : spans[static_cast<std::size_t>(s.parent)];
            if (!load.InWindow(root.end_ns)) continue;
            const double ms = Ms(self[i]);
            const std::string name = s.name;
            if (s.parent < 0) {
                t.lookups += 1;
                t.waiting_ms += ms;
            } else if (name == "client.prepare") {
                t.prepare_ms += ms;
            } else if (name == "serving.raw") {
                t.serving_ms += ms;
            } else if (name == "client.reconstruct") {
                t.reconstruct_ms += ms;
            } else if (name == "net.router_lookup") {
                t.router_ms += ms;
            }
        }
    }
    if (f != nullptr) std::fclose(f);
    return t;
}

void PrintLoad(const char* label, const LoadStats& l) {
    std::printf(
        "%-9s %8.2f lookups/s  p50 %8.3f ms  p95 %8.3f ms  samples %zu  "
        "cpu %.3f ms/lookup  steal %.4f\n",
        label, l.lookups_per_s(), l.p50_ms(), l.p95_ms(), l.completions.size(),
        1e3 * Ratio(l.cpu_s, static_cast<double>(l.completed())), l.steal);
    std::printf("  slices (lookups/s, p50 ms, p95 ms):");
    for (const SliceStats& s : l.slices()) {
        std::printf(" [%.1f %.2f %.2f]", s.per_s, s.p50, s.p95);
    }
    std::printf("\n");
}

}  // namespace

RunReport RunWorkload(const RunOptions& options) {
    const Spec spec = MakeSpec(options.workload, options.seed);
    const Cores cores = PlanCores();
    PinCurrentThread(cores.clients);

    const Inputs in = MakeInputs(spec.name, options.seed);
    std::vector<double> setup_s;
    std::unique_ptr<World> w;
    for (int r = 0; r < (options.trace ? 1 : kSetupRepeats); ++r) {
        w.reset();
        const std::int64_t a = NowNs();
        w = BuildWorld(spec, in, cores);
        setup_s.push_back(static_cast<double>(NowNs() - a) * 1e-9);
    }
    const Checker check = MakeChecker(w->client_service(), *in.emb);
    std::printf("workload %s seed %llu: %zu lookups in the input stream\n",
                spec.name.c_str(),
                static_cast<unsigned long long>(options.seed),
                in.requests.size());

    RunReport report;
    std::vector<Metric>& m = report.metrics;
    const double ref_before = ReferenceLoopMs();
    const LoadStats load =
        RunWorkloadLoad(spec, *w, in, check, cores, options.seconds, false);
    const double ref_after = ReferenceLoopMs();
    PrintLoad("untraced", load);

    if (!options.trace) {
        report.attempted = load.attempted;
        report.failed = load.failed;
        const double completed = static_cast<double>(load.completed());
        Add(m, "lookups_per_s", load.lookups_per_s(), "1/s");
        Add(m, "lat_p50_ms", load.p50_ms(), "ms");
        Add(m, "lat_p95_ms", load.p95_ms(), "ms");
        Add(m, "cpu_ms_per_lookup", 1e3 * Ratio(load.cpu_s, completed), "ms");
        Add(m, "retrieved_frac", Ratio(load.retrieved, load.wanted), "frac");
        Add(m, "comm_kb_per_lookup",
            static_cast<double>(check.upload + check.download) / 1024.0, "KiB");
        Add(m, "ok_frac",
            Ratio(completed, static_cast<double>(load.attempted)), "frac");
        Add(m, "setup_s", Median(setup_s), "s");
        Add(m, "peak_rss_mb", PeakRssMb(), "MiB");
        if (!PercentileSupported(load.completions.size(), 95)) {
            std::printf("warning: %zu samples do not support p95\n",
                        load.completions.size());
            report.correct = false;
        }
        std::printf(
            "diagnostics: samples %zu  fail_frac %.6f  steal_frac %.5f  "
            "ref_loop_ms %.3f/%.3f  setup_s [",
            load.completions.size(),
            Ratio(static_cast<double>(load.failed),
                  static_cast<double>(load.attempted)),
            load.steal, ref_before, ref_after);
        for (std::size_t i = 0; i < setup_s.size(); ++i) {
            std::printf("%s%.4f", i ? " " : "", setup_s[i]);
        }
        std::printf("]\n");
        report.correct &= load.failed == 0;
        return report;
    }

    // Traced run: the byte-identity check, a traced window of the same
    // length, then the unloaded per-layer replay.
    bool twin_ok = true;
    if (!w->router) {
        twin_ok = TwinCheck(spec, *w, in, cores, spec.pooled ? 8 : 3);
        std::printf("traced path vs Client::Lookup: %s\n",
                    twin_ok ? "byte-identical" : "MISMATCH");
    }
    const Counters before = ReadCounters(*w);
    const LoadStats traced =
        RunWorkloadLoad(spec, *w, in, check, cores, options.seconds, true);
    const Counters after = ReadCounters(*w);
    PrintLoad("traced", traced);
    const SpanTotals spans = SummarizeSpans(traced, options.span_file);
    const Replay replay = RunReplay(*w, in, check, cores);

    report.attempted = traced.attempted;
    report.failed = traced.failed;
    const double n = std::max(1.0, replay.lookups);
    const bool fleet = w->router != nullptr;

    std::vector<double> first_partial;
    std::vector<double> complete;
    for (const ThreadLog& log : traced.logs) {
        for (const ServingSample& s : log.serving) {
            if (!traced.InWindow(s.end_ns)) continue;
            first_partial.push_back(s.first_partial_ms);
            complete.push_back(s.complete_ms);
        }
    }
    const double front_batches =
        static_cast<double>(after.front.batches - before.front.batches);
    const double front_completed =
        static_cast<double>(after.front.completed - before.front.completed);
    const double node_completed =
        static_cast<double>(after.node.completed - before.node.completed);
    const double node_rows = Ratio(
        static_cast<double>(after.node.rows_scanned - before.node.rows_scanned),
        node_completed);
    const double prepare_ms = Median(replay.prepare_ms);
    const double reconstruct_ms = Median(replay.reconstruct_ms);
    const double engine_ms = Median(replay.engine_ms);
    const double router_ms = Median(replay.router_ms);
    const double rows = replay.rows / n;

    Add(m, "client.prepare_ms", prepare_ms, "ms");
    Add(m, "client.keys_per_lookup", replay.keys / n, "count");
    Add(m, "client.reconstruct_ms", reconstruct_ms, "ms");
    Add(m, "codesign.real_bin_frac", Ratio(replay.real_bins, replay.bins),
        "frac");
    Add(m, "codesign.dropped_per_lookup", replay.dropped / n, "count");
    Add(m, "serving.requests_per_batch", Ratio(front_completed, front_batches),
        "count");
    Add(m, "serving.first_partial_ms", Median(first_partial), "ms");
    Add(m, "serving.complete_ms", Median(complete), "ms");
    Add(m, "serving.rejected",
        static_cast<double>(
            after.front.rejected_queue_full + after.front.rejected_invalid -
            before.front.rejected_queue_full - before.front.rejected_invalid),
        "count");
    Add(m, "engine.answer_ms_per_lookup", engine_ms, "ms");
    Add(m, "engine.ns_per_row", Ratio(engine_ms * 1e6, rows), "ns");
    Add(m, "engine.rows_per_lookup", rows, "count");
    Add(m, "engine.table_bytes_per_lookup", replay.table_bytes / n, "B");
    Add(m, "dpf.eval_ns_per_leaf", Ratio(replay.eval_ns, replay.split_rows),
        "ns");
    Add(m, "kernels.accumulate_ns_per_row",
        Ratio(replay.accumulate_ns, replay.split_rows), "ns");
    Add(m, "net.router_lookup_ms", router_ms, "ms");
    Add(m, "net.wire_encode_us", Median(replay.encode_us), "us");
    Add(m, "net.wire_decode_us", Median(replay.decode_us), "us");
    Add(m, "net.merge_us", Median(replay.merge_us), "us");
    Add(m, "net.bytes_per_lookup", Median(replay.net_bytes), "B");
    const double net_overhead =
        fleet ? router_ms - prepare_ms - Median(replay.slowest_shard_ms) -
                    reconstruct_ms
              : 0.0;
    Add(m, "net.overhead_ms", net_overhead, "ms");
    Add(m, "net.failovers",
        static_cast<double>(after.router.failovers - before.router.failovers),
        "count");
    Add(m, "net.transport_errors",
        static_cast<double>(after.router.transport_errors -
                            before.router.transport_errors),
        "count");
    Add(m, "node.rows_per_request", node_rows, "count");
    Add(m, "node.requests_per_batch",
        Ratio(static_cast<double>(after.nodes.completed - before.nodes.completed),
              static_cast<double>(after.nodes.batches - before.nodes.batches)),
        "count");
    Add(m, "node.rejected",
        static_cast<double>(after.node.rejected - before.node.rejected),
        "count");
    Add(m, "node.bad_frames",
        static_cast<double>(after.node.bad_frames - before.node.bad_frames),
        "count");
    const double traced_lookups = std::max(1.0, spans.lookups);
    Add(m, "trace.self.client.prepare_ms", spans.prepare_ms / traced_lookups,
        "ms");
    Add(m, "trace.self.serving.raw_ms", spans.serving_ms / traced_lookups,
        "ms");
    Add(m, "trace.self.client.reconstruct_ms",
        spans.reconstruct_ms / traced_lookups, "ms");
    Add(m, "trace.self.net.router_lookup_ms", spans.router_ms / traced_lookups,
        "ms");
    Add(m, "trace.waiting_ms", spans.waiting_ms / traced_lookups, "ms");
    Add(m, "trace.untraced_lookups_per_s", load.lookups_per_s(), "1/s");
    Add(m, "trace.traced_lookups_per_s", traced.lookups_per_s(), "1/s");
    Add(m, "trace.overhead_pct",
        100.0 * Ratio(load.lookups_per_s() - traced.lookups_per_s(),
                      load.lookups_per_s()),
        "%");
    Add(m, "model.gen_ms", Mean(replay.gen_ms), "ms");
    Add(m, "model.pir_ms", Mean(replay.pir_ms), "ms");
    Add(m, "model.network_ms", Mean(replay.network_ms), "ms");

    // Node rows scale as 1/K: each of K nodes scans exactly its window.
    bool rows_ok = true;
    if (fleet) {
        rows_ok = node_rows * static_cast<double>(w->nodes.size()) == rows;
        std::printf("node rows/request %.0f x %zu nodes vs %.0f unsharded: %s\n",
                    node_rows, w->nodes.size(), rows, rows_ok ? "ok" : "MISMATCH");
    }
    std::printf("replay (unloaded, %zu lookups): %s\n",
                static_cast<std::size_t>(replay.lookups),
                replay.correct ? "bit-exact" : "MISMATCH");

    std::printf("\nper-layer self time under load (ms per lookup, %.0f lookups)\n",
                spans.lookups);
    std::printf("  client.prepare      %9.3f\n", spans.prepare_ms / traced_lookups);
    std::printf("  serving.raw         %9.3f\n", spans.serving_ms / traced_lookups);
    std::printf("  client.reconstruct  %9.3f\n", spans.reconstruct_ms / traced_lookups);
    std::printf("  net.router_lookup   %9.3f\n", spans.router_ms / traced_lookups);
    std::printf("  waiting (no layer)  %9.3f\n", spans.waiting_ms / traced_lookups);
    std::printf("tracing overhead: %.2f%% lookups/s (untraced %.2f, traced %.2f), "
                "p50 %.3f -> %.3f ms\n",
                100.0 * Ratio(load.lookups_per_s() - traced.lookups_per_s(),
                              load.lookups_per_s()),
                load.lookups_per_s(), traced.lookups_per_s(),
                load.p50_ms(), traced.p50_ms());
    const double pir_measured =
        fleet ? Median(replay.slowest_shard_ms) : engine_ms;
    std::printf("\nmeasured split (unloaded replay) beside the Fig. 12 model, ms\n");
    std::printf("  %-10s %12s %12s\n", "stage", "measured", "modeled");
    std::printf("  %-10s %12.3f %12.3f\n", "Gen", prepare_ms, Mean(replay.gen_ms));
    std::printf("  %-10s %12.3f %12.3f\n", "PIR", pir_measured, Mean(replay.pir_ms));
    std::printf("  %-10s %12.3f %12.3f\n", "network", net_overhead,
                Mean(replay.network_ms));
    std::printf("  %-10s %12.3f %12s\n", "reconstr.", reconstruct_ms, "-");
    std::printf("diagnostics: steal_frac %.5f/%.5f  ref_loop_ms %.3f/%.3f\n",
                load.steal, traced.steal, ref_before, ref_after);

    report.correct = traced.failed == 0 && load.failed == 0 && twin_ok &&
                     replay.correct && rows_ok;
    return report;
}

void RunRaggedBinProbe() {
    // The LM settings of examples/private_language_model.cc: 128 hot rows
    // in 12 bins of 11, so the last hot bin holds 7 rows.
    gpudpf::LmWorkloadSpec spec;
    spec.name = "wikitext-mini";
    spec.vocab = 1'024;
    spec.dim = 24;
    spec.num_train = 8'000;
    spec.num_test = 1'500;
    spec.context_len = 8;
    spec.num_clusters = 16;
    spec.seed = 21;
    const gpudpf::LmDataset data = gpudpf::GenerateLmDataset(spec);
    const AccessStats stats = gpudpf::ComputeLmStats(data, 4);
    EmbeddingTable emb(spec.vocab, spec.dim);
    Rng rng(7);
    emb.InitRandom(rng, 0.1f);
    ServiceConfig config;
    config.codesign.hot_size = spec.vocab / 8;
    config.codesign.colocate_c = 4;
    config.codesign.q_hot = 12;
    config.codesign.q_full = 4;
    config.server_threads = 1;

    const Cores cores = PlanCores();
    std::unique_ptr<Service> svc;
    std::unique_ptr<net::PirServerNode> node;
    RunPinned(cores.node[0], [&] {
        svc = std::make_unique<Service>(emb, stats, config);
        node = std::make_unique<net::PirServerNode>(
            svc.get(), net::PirServerNode::Options{});
    });
    ServiceConfig planning_config = config;
    planning_config.planning_only = true;
    Service planning(emb, stats, planning_config);
    net::ShardedRouter::Endpoint endpoint;
    endpoint.port = node->port();
    net::ShardedRouter::Options options;
    options.health_thread = false;
    options.request_timeout_ms = 5'000;
    {
        net::ShardedRouter router(&planning, {{endpoint}}, options);
        auto client = planning.MakeClient();
        try {
            router.Lookup(client.get(), data.test[0].context);
            std::printf(
                "ragged-bin probe: K=1 ShardedRouter lookup over a ragged hot "
                "table was served (known defect no longer reproduces)\n");
        } catch (const std::exception& e) {
            std::printf(
                "ragged-bin probe (known defect, not gating): K=1 "
                "ShardedRouter lookup with hot=%llu rows, q_hot=%llu was "
                "rejected: %s\n",
                static_cast<unsigned long long>(config.codesign.hot_size),
                static_cast<unsigned long long>(config.codesign.q_hot),
                e.what());
        }
    }
    node->Stop();
}

}  // namespace perfbench
