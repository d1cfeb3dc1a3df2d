/**
 * @file
 * photond load harness: many synthetic clients hammer one in-process
 * SimServer with a request mix that repeats a small set of distinct
 * specs, the way a real simulation service sees the same kernels from
 * many users. Reports the shared-cache economics (hit rate, dedup
 * collapses, answers served from the answer cache, jobs actually
 * executed) and client-visible request latency (p50/p99 nearest-rank)
 * for a cold and a warm pass.
 *
 * The assignment of specs to requests is deterministic (client index
 * and request index only), so two runs issue the identical load.
 *
 * The warm pass repeats several times so the report carries
 * min/median/max throughput; a spread above 15% of the median is
 * flagged (noisy host, not a simulator regression) rather than failed.
 *
 * Writes BENCH_serve.json in the working directory for the CI
 * perf-smoke artifact. `--quick` shrinks the client count for CI.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "driver/report.hpp"
#include "serve/server.hpp"

using namespace photon;
using namespace photon::serve;

namespace {

/** One measured pass over the request schedule. */
struct PassResult
{
    std::string pass;
    std::size_t clients = 0;
    std::size_t requests = 0;
    std::uint64_t jobsExecuted = 0;
    std::uint64_t dedupCollapsed = 0;
    std::uint64_t answersCached = 0; ///< answered without running a job
    std::uint64_t cacheHits = 0;   ///< kernel-cache lookup hits
    std::uint64_t cacheMisses = 0;
    std::uint64_t requestCacheHits = 0; ///< requests fully cache-served
    /** Kernel-cache lookup hit rate; 0 when the pass ran no lookup
     *  (every request answered from the answer cache). */
    double hitRate = 0.0;
    double wallSeconds = 0.0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    double throughput = 0.0; ///< requests per second
};

/** Throughput dispersion over the repeated warm passes. */
struct WarmSpread
{
    double minRps = 0.0;
    double medianRps = 0.0;
    double maxRps = 0.0;
    double spreadPct = 0.0; ///< 100 * (max - min) / median
    bool flagged = false;   ///< spread above kSpreadLimitPct
};

/** Rep-to-rep spread beyond this marks the sample as noisy. */
constexpr double kSpreadLimitPct = 15.0;

WarmSpread
warmSpread(const std::vector<double> &rps)
{
    std::vector<double> sorted = rps;
    std::sort(sorted.begin(), sorted.end());
    WarmSpread s;
    s.minRps = sorted.front();
    s.medianRps = sorted[sorted.size() / 2];
    s.maxRps = sorted.back();
    if (s.medianRps > 0.0)
        s.spreadPct = 100.0 * (s.maxRps - s.minRps) / s.medianRps;
    s.flagged = sorted.size() > 1 && s.spreadPct > kSpreadLimitPct;
    return s;
}

/** The distinct specs the load repeats (tiny GPU: CI-sized). */
std::vector<service::JobSpec>
distinctSpecs()
{
    return {
        {"relu", 256, "photon", "tiny"},
        {"fir", 256, "photon", "tiny"},
        {"sc", 256, "photon", "tiny"},
        {"aes", 64, "photon", "tiny"},
    };
}

/** Deterministic request schedule: client c's i-th request. */
const service::JobSpec &
specFor(const std::vector<service::JobSpec> &specs, std::size_t client,
        std::size_t i)
{
    return specs[(client + i) % specs.size()];
}

/** Nearest-rank percentile of an unsorted latency sample, in ms. */
double
percentileMs(std::vector<double> sorted, double pct)
{
    if (sorted.empty())
        return 0.0;
    std::sort(sorted.begin(), sorted.end());
    std::size_t rank = static_cast<std::size_t>(
        pct / 100.0 * static_cast<double>(sorted.size()));
    if (rank >= sorted.size())
        rank = sorted.size() - 1;
    return sorted[rank] * 1e3;
}

/** Run @p clients x @p perClient requests against @p server. */
PassResult
runPass(SimServer &server, const char *pass, std::size_t clients,
        std::size_t per_client)
{
    const std::vector<service::JobSpec> specs = distinctSpecs();
    StoreStats before = server.store().stats();

    std::vector<std::vector<double>> latencies(clients);
    std::vector<std::uint64_t> hits(clients, 0);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    auto t0 = std::chrono::steady_clock::now();
    for (std::size_t c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            latencies[c].reserve(per_client);
            for (std::size_t i = 0; i < per_client; ++i) {
                auto r0 = std::chrono::steady_clock::now();
                ServeResult r = server.runSync(specFor(specs, c, i));
                auto r1 = std::chrono::steady_clock::now();
                if (!r.ok) {
                    std::fprintf(stderr, "FAIL: %s: %s\n",
                                 r.spec.label().c_str(),
                                 r.error.c_str());
                    std::exit(1);
                }
                latencies[c].push_back(
                    std::chrono::duration<double>(r1 - r0).count());
                if (r.cacheHit)
                    ++hits[c];
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    auto t1 = std::chrono::steady_clock::now();

    StoreStats after = server.store().stats();
    PassResult out;
    out.pass = pass;
    out.clients = clients;
    out.requests = clients * per_client;
    out.jobsExecuted = after.jobsExecuted - before.jobsExecuted;
    out.dedupCollapsed = after.dedupCollapsed - before.dedupCollapsed;
    out.answersCached = after.answersCached - before.answersCached;
    out.cacheHits = after.cacheHits - before.cacheHits;
    out.cacheMisses = after.cacheMisses - before.cacheMisses;
    std::uint64_t lookups = out.cacheHits + out.cacheMisses;
    out.hitRate = lookups ? static_cast<double>(out.cacheHits) /
                                static_cast<double>(lookups)
                          : 0.0;
    for (std::size_t c = 0; c < clients; ++c)
        out.requestCacheHits += hits[c];
    std::vector<double> all;
    all.reserve(out.requests);
    for (const auto &v : latencies)
        all.insert(all.end(), v.begin(), v.end());
    out.p50Ms = percentileMs(all, 50.0);
    out.p99Ms = percentileMs(all, 99.0);
    out.wallSeconds = std::chrono::duration<double>(t1 - t0).count();
    out.throughput = out.wallSeconds > 0.0
                         ? static_cast<double>(out.requests) /
                               out.wallSeconds
                         : 0.0;
    return out;
}

void
writeJson(const std::vector<PassResult> &rows, const WarmSpread &spread,
          std::uint32_t workers, const char *path)
{
    std::ofstream f(path);
    f << "{\n  \"bench\": \"serve_load\",\n";
    f << "  \"workers\": " << workers << ",\n";
    f << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n";
    f << "  \"warm_throughput_min_rps\": " << spread.minRps << ",\n";
    f << "  \"warm_throughput_median_rps\": " << spread.medianRps
      << ",\n";
    f << "  \"warm_throughput_max_rps\": " << spread.maxRps << ",\n";
    f << "  \"warm_spread_pct\": " << spread.spreadPct << ",\n";
    f << "  \"warm_spread_flagged\": "
      << (spread.flagged ? "true" : "false") << ",\n";
    f << "  \"passes\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const PassResult &r = rows[i];
        f << "    {\"pass\": \"" << r.pass << "\", \"clients\": "
          << r.clients << ", \"requests\": " << r.requests
          << ", \"jobs_executed\": " << r.jobsExecuted
          << ", \"dedup_collapsed\": " << r.dedupCollapsed
          << ", \"answers_cached\": " << r.answersCached << ",\n"
          << "     \"cache_hits\": " << r.cacheHits
          << ", \"cache_misses\": " << r.cacheMisses
          << ", \"cache_hit_rate\": " << r.hitRate
          << ", \"request_cache_hits\": " << r.requestCacheHits << ",\n"
          << "     \"p50_ms\": " << r.p50Ms << ", \"p99_ms\": " << r.p99Ms
          << ", \"wall_seconds\": " << r.wallSeconds
          << ", \"throughput_rps\": " << r.throughput << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    f << "  ]\n}\n";
    std::printf("wrote %s\n", path);
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = bench::quickMode(argc, argv);
    const std::size_t clients = quick ? 4 : 8;
    const std::size_t per_client = quick ? 4 : 8;
    const std::uint32_t workers = 4;

    driver::printBanner(std::cout, "photond shared-cache load");
    std::printf("%zu clients x %zu requests over %zu distinct specs, "
                "%u resident workers\n\n",
                clients, per_client, distinctSpecs().size(), workers);

    ServerOptions o;
    o.workers = workers;
    SimServer server(o);

    // Cold pass: first touch of every distinct spec executes detailed;
    // overlapping identical requests collapse; the rest hit the cache.
    // Warm passes: the store already knows every kernel, so the whole
    // schedule should be answered from the shared cache (a repeat whose
    // answer is still current runs no job at all). Repeated so the
    // report carries a min/median/max instead of a single sample.
    const std::size_t warm_reps = quick ? 2 : 3;
    std::vector<PassResult> rows;
    rows.push_back(runPass(server, "cold", clients, per_client));
    std::vector<double> warm_rps;
    for (std::size_t rep = 0; rep < warm_reps; ++rep) {
        std::string name = "warm" + std::to_string(rep + 1);
        rows.push_back(runPass(server, name.c_str(), clients,
                               per_client));
        warm_rps.push_back(rows.back().throughput);
    }
    const WarmSpread spread = warmSpread(warm_rps);

    driver::Table table({"pass", "requests", "executed", "collapsed",
                         "answer_cached", "hit_rate", "p50_ms", "p99_ms",
                         "req/s"});
    for (const PassResult &r : rows) {
        table.addRow({r.pass, std::to_string(r.requests),
                      std::to_string(r.jobsExecuted),
                      std::to_string(r.dedupCollapsed),
                      std::to_string(r.answersCached),
                      driver::Table::num(r.hitRate, 3),
                      driver::Table::num(r.p50Ms, 2),
                      driver::Table::num(r.p99Ms, 2),
                      driver::Table::num(r.throughput)});
    }
    table.print(std::cout);

    for (std::size_t i = 1; i < rows.size(); ++i) {
        const PassResult &warm = rows[i];
        if (warm.requestCacheHits != warm.requests) {
            std::fprintf(stderr,
                         "FAIL: %s pass had %llu/%zu cache-served "
                         "requests (expected all)\n",
                         warm.pass.c_str(),
                         static_cast<unsigned long long>(
                             warm.requestCacheHits),
                         warm.requests);
            return 1;
        }
    }
    std::printf("\nwarm passes fully cache-served: every request "
                "answered without a detailed run\n");
    std::printf("warm throughput: min %.0f / median %.0f / max %.0f "
                "req/s (spread %.1f%%)\n",
                spread.minRps, spread.medianRps, spread.maxRps,
                spread.spreadPct);
    if (spread.flagged)
        std::printf("WARN: warm rep spread %.1f%% exceeds %.0f%% of "
                    "median; host was noisy, treat the medians with "
                    "care\n",
                    spread.spreadPct, kSpreadLimitPct);

    writeJson(rows, spread, workers, "BENCH_serve.json");
    return 0;
}
