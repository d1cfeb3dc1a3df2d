/** @file Tests for the pluggable timing-backend seam.
 *
 *  Covers the backend name/enum round-trip, the campaign layer's
 *  backend dimension (cross-product expansion, labels, validation),
 *  the daemon's wire compatibility (requests without a "backend" key
 *  mean detailed) and admission dedup keyed on (fingerprint, backend),
 *  and the backends themselves: the detailed adapter reproduces the
 *  golden seed numbers with full capabilities, the interval model is
 *  deterministic with no capabilities, seeding latency fits changes
 *  its predictions, and auto mode actually switches fidelity on an
 *  iterative workload with the decision visible in telemetry. */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "driver/platform.hpp"
#include "isa/opcode.hpp"
#include "serve/global_store.hpp"
#include "serve/protocol.hpp"
#include "service/campaign.hpp"
#include "workloads/workload.hpp"

using namespace photon;

namespace {

/** Build a platform, run one workload, and return the platform for
 *  inspection (cycles, telemetry, backend internals). */
struct RunResult
{
    Cycle cycles = 0;
    std::uint64_t insts = 0;
    std::vector<sampling::KernelTelemetry> telemetry;
};

RunResult
runWorkloadOn(driver::Platform &p, const char *workload,
              std::uint32_t size)
{
    std::string err;
    auto w = service::makeWorkload(workload, size, &err);
    EXPECT_NE(w, nullptr) << err;
    w->setup(p);
    workloads::runWorkload(*w, p);
    return {p.totalKernelCycles(), p.totalInsts(), p.telemetry()};
}

GpuConfig
gpuByName(const char *name)
{
    GpuConfig gpu;
    std::string err;
    EXPECT_TRUE(service::parseGpuName(name, gpu, &err)) << err;
    return gpu;
}

} // namespace

// ----- Name round-trips -----

TEST(BackendKind, NameRoundTrip)
{
    using timing::BackendKind;
    for (auto kind : {BackendKind::Detailed, BackendKind::Interval,
                      BackendKind::Auto}) {
        BackendKind parsed{};
        ASSERT_TRUE(
            timing::parseBackendKind(timing::backendKindName(kind), parsed));
        EXPECT_EQ(parsed, kind);
    }
}

TEST(BackendKind, RejectsUnknownNames)
{
    timing::BackendKind parsed = timing::BackendKind::Interval;
    EXPECT_FALSE(timing::parseBackendKind("cycle-level", parsed));
    EXPECT_FALSE(timing::parseBackendKind("", parsed));
    EXPECT_FALSE(timing::parseBackendKind("Detailed", parsed));
    // A failed parse must leave the output untouched.
    EXPECT_EQ(parsed, timing::BackendKind::Interval);
}

TEST(BackendKind, ServiceParserNamesTheAlternatives)
{
    timing::BackendKind kind{};
    std::string err;
    EXPECT_FALSE(service::parseBackendName("surprise", kind, &err));
    EXPECT_NE(err.find("surprise"), std::string::npos) << err;
    EXPECT_NE(err.find("detailed"), std::string::npos) << err;
    EXPECT_NE(err.find("interval"), std::string::npos) << err;
    EXPECT_NE(err.find("auto"), std::string::npos) << err;
}

// ----- Campaign layer -----

TEST(BackendCampaign, ExpandJobsCrossesTheBackendDimension)
{
    auto jobs = service::expandJobs({"mm", "relu"}, {64}, {"full"},
                                    {"tiny"}, {"detailed", "interval"});
    ASSERT_EQ(jobs.size(), 4u);
    std::set<std::string> labels;
    for (const auto &j : jobs)
        labels.insert(j.label());
    EXPECT_TRUE(labels.count("mm/64/full/tiny"));
    EXPECT_TRUE(labels.count("mm/64/full/tiny/interval"));
    EXPECT_TRUE(labels.count("relu/64/full/tiny"));
    EXPECT_TRUE(labels.count("relu/64/full/tiny/interval"));
}

TEST(BackendCampaign, EmptyBackendListMeansDetailed)
{
    auto jobs = service::expandJobs({"mm"}, {64}, {"full"}, {"tiny"});
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].backend, "detailed");
    // Pre-backend labels are unchanged: no fifth component.
    EXPECT_EQ(jobs[0].label(), "mm/64/full/tiny");
}

TEST(BackendCampaign, ValidateJobRestrictsBackendsToFullMode)
{
    service::JobSpec spec;
    spec.workload = "mm";
    spec.size = 64;
    spec.gpu = "tiny";
    spec.mode = "photon";
    spec.backend = "interval";
    // The sampled modes' control planes live in the detailed core's
    // monitor hooks; an analytical backend cannot host them.
    EXPECT_NE(service::validateJob(spec), "");

    spec.mode = "full";
    EXPECT_EQ(service::validateJob(spec), "");

    spec.backend = "definitely-not-a-backend";
    EXPECT_NE(service::validateJob(spec), "");
}

// ----- Wire protocol -----

TEST(BackendProtocol, DefaultBackendStaysOffTheWire)
{
    serve::Request req;
    req.op = serve::Op::Submit;
    req.id = "c1-0";
    req.spec.workload = "mm";
    req.spec.size = 256;
    req.spec.mode = "photon";
    req.spec.gpu = "r9nano";
    // A default-backend submit line must be byte-identical to what
    // pre-backend clients send.
    EXPECT_EQ(encodeRequest(req).find("backend"), std::string::npos);

    req.spec.backend = "interval";
    req.spec.mode = "full";
    std::string line = encodeRequest(req);
    EXPECT_NE(line.find("\"backend\": \"interval\""), std::string::npos);

    serve::Request back;
    std::string err;
    ASSERT_TRUE(decodeRequest(line, back, &err)) << err;
    EXPECT_EQ(back.spec.backend, "interval");
}

TEST(BackendProtocol, OldClientLinesDefaultToDetailed)
{
    // Exactly what a pre-backend client emits: no "backend" key.
    const std::string line =
        "{\"v\": 1, \"op\": \"submit\", \"id\": \"old-7\", "
        "\"workload\": \"spmv\", \"size\": 1024, \"mode\": \"photon\", "
        "\"gpu\": \"r9nano\"}";
    serve::Request req;
    std::string err;
    ASSERT_TRUE(decodeRequest(line, req, &err)) << err;
    EXPECT_EQ(req.spec.backend, "detailed");
    EXPECT_EQ(req.spec.workload, "spmv");
}

TEST(BackendProtocol, UnknownKeysStillIgnored)
{
    const std::string line =
        "{\"v\": 1, \"op\": \"submit\", \"id\": \"new-1\", "
        "\"workload\": \"mm\", \"size\": 64, \"mode\": \"full\", "
        "\"gpu\": \"tiny\", \"backend\": \"auto\", "
        "\"future_extension\": \"ignored\", \"priority\": 3}";
    serve::Request req;
    std::string err;
    ASSERT_TRUE(decodeRequest(line, req, &err)) << err;
    EXPECT_EQ(req.spec.backend, "auto");
}

TEST(BackendAdmission, DedupKeysSeparateBackends)
{
    serve::GlobalStore store;
    service::JobSpec detailed;
    detailed.workload = "mm";
    detailed.size = 64;
    detailed.mode = "full";
    detailed.gpu = "tiny";

    service::JobSpec interval = detailed;
    interval.backend = "interval";

    // A detailed and an interval run of the same spec are different
    // results and must not collapse onto one in-flight execution...
    EXPECT_NE(store.admissionKey(detailed), store.admissionKey(interval));
    // ...while resubmitting the same spec still dedups.
    EXPECT_EQ(store.admissionKey(interval), store.admissionKey(interval));
}

// ----- Detailed backend: the adapter is the seed model -----

TEST(DetailedBackend, ReproducesGoldenNumbersWithFullCaps)
{
    driver::Platform p(gpuByName("tiny"), driver::SimMode::FullDetailed,
                       {}, timing::BackendKind::Detailed);
    auto caps = p.activeBackend().caps();
    EXPECT_TRUE(caps.cycleLevel);
    EXPECT_TRUE(caps.monitorHooks);
    EXPECT_TRUE(caps.occupancyStats);
    EXPECT_STREQ(p.activeBackend().name(), "detailed");

    // Golden constants from the seed build (see test_golden_parity).
    auto r = runWorkloadOn(p, "mm", 64);
    EXPECT_EQ(r.cycles, 15663ull);
    EXPECT_EQ(r.insts, 37696ull);
    ASSERT_FALSE(r.telemetry.empty());
    EXPECT_EQ(r.telemetry[0].backend, "detailed");
}

// ----- Interval backend -----

TEST(IntervalBackend, DeterministicWithNoCaps)
{
    Cycle first = 0;
    for (int run = 0; run < 2; ++run) {
        driver::Platform p(gpuByName("tiny"),
                           driver::SimMode::FullDetailed, {},
                           timing::BackendKind::Interval);
        ASSERT_NE(p.interval(), nullptr);
        auto caps = p.activeBackend().caps();
        EXPECT_FALSE(caps.cycleLevel);
        EXPECT_FALSE(caps.monitorHooks);
        EXPECT_FALSE(caps.occupancyStats);
        EXPECT_STREQ(p.activeBackend().name(), "interval");

        auto r = runWorkloadOn(p, "mm", 64);
        EXPECT_GT(r.cycles, 0ull);
        EXPECT_GT(r.insts, 0ull);
        ASSERT_FALSE(r.telemetry.empty());
        EXPECT_EQ(r.telemetry[0].backend, "interval");
        EXPECT_EQ(r.telemetry[0].backendDetailedCycles, 0ull);
        EXPECT_EQ(r.telemetry[0].backendIntervalCycles, r.cycles);

        if (run == 0)
            first = r.cycles;
        else
            EXPECT_EQ(r.cycles, first) << "interval model not deterministic";
    }
}

TEST(IntervalBackend, SeededLatenciesChangePredictions)
{
    auto runSeeded = [](bool seed) {
        driver::Platform p(gpuByName("tiny"),
                           driver::SimMode::FullDetailed, {},
                           timing::BackendKind::Interval);
        if (seed) {
            // Claim every opcode averaged 500 cycles in a (fictitious)
            // detailed phase; predictions must reflect the merged fits.
            std::vector<timing::LatencyObservation> obs;
            for (unsigned op = 0; op < isa::kNumOpcodes; ++op)
                obs.push_back({op, 500.0 * 64, 64});
            p.interval()->seedLatencies("mm", obs);
        }
        return runWorkloadOn(p, "mm", 64).cycles;
    };
    Cycle unseeded = runSeeded(false);
    Cycle seeded = runSeeded(true);
    EXPECT_GT(seeded, unseeded)
        << "seeding 500-cycle opcode fits must slow the prediction";
}

// ----- Auto mode -----

TEST(AutoBackend, SwitchesFidelityOnIterativeWorkload)
{
    driver::Platform p(gpuByName("r9nano"), driver::SimMode::FullDetailed,
                       {}, timing::BackendKind::Auto);
    ASSERT_NE(p.pilot(), nullptr);
    ASSERT_NE(p.interval(), nullptr);

    // Pagerank issues 2 kernels x 8 iterations; per-kernel launch
    // durations stabilize quickly, so the cross-kernel latch must move
    // the tail launches onto the interval backend.
    auto r = runWorkloadOn(p, "pagerank", 4096);
    EXPECT_GE(p.pilot()->latchedKernels(), 1ull);
    EXPECT_GE(p.pilot()->intervalLaunches(), 1ull);

    ASSERT_EQ(r.telemetry.size(), 16u);
    bool sawDetailed = false, sawNonDetailed = false;
    std::uint64_t detailedCycles = 0, intervalCycles = 0;
    for (const auto &t : r.telemetry) {
        if (t.backend == "detailed")
            sawDetailed = true;
        else
            sawNonDetailed = true;
        detailedCycles += t.backendDetailedCycles;
        intervalCycles += t.backendIntervalCycles;
        // The split must account for the whole prediction.
        EXPECT_EQ(t.backendDetailedCycles + t.backendIntervalCycles,
                  t.predictedCycles)
            << t.kernel;
    }
    EXPECT_TRUE(sawDetailed) << "auto must start on the detailed core";
    EXPECT_TRUE(sawNonDetailed) << "auto never switched to interval";
    EXPECT_GT(detailedCycles, 0ull);
    EXPECT_GT(intervalCycles, 0ull);

    // The early launches run detailed, the latched tail does not: the
    // first record is detailed and some later record is not.
    EXPECT_EQ(r.telemetry.front().backend, "detailed");
    EXPECT_NE(r.telemetry.back().backend, "detailed");
}
