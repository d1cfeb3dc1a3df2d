/** @file Golden parity tests for the control-plane/data-plane split.
 *
 *  The constants below were captured from the pre-refactor build (the
 *  seed of this PR): total kernel cycles, total instructions, and the
 *  per-launch SampleLevel sequence for example workloads on the tiny
 *  and R9-Nano GPU models. The refactor moved the switch logic into
 *  SamplingController/SwitchGovernor and added telemetry capture, but
 *  none of that may perturb a single simulated cycle — every case must
 *  reproduce bit-identically.
 *
 *  The memory-counter cases (every mem.* statistic plus cycles, full
 *  detail, R9 Nano and MI100) were captured from the per-way
 *  {tag, lastUse, valid} cache model and its modulo bank/MSHR
 *  selection, before the caches became recency-ordered line arrays
 *  and the selections masks. */

#include <gtest/gtest.h>

#include "driver/platform.hpp"
#include "service/campaign.hpp"
#include "workloads/workload.hpp"

using namespace photon;
using L = sampling::SampleLevel;

namespace {

struct GoldenCase {
    const char *workload;
    std::uint32_t size;
    const char *gpu;
    driver::SimMode mode;
    bool warpSampling; // SamplingConfig ablation (photon mode only)
    Cycle cycles;
    std::uint64_t insts;
    std::vector<L> levels;
};

void
runCase(const GoldenCase &c)
{
    SamplingConfig cfg;
    cfg.enableWarpSampling = c.warpSampling;
    GpuConfig gpu;
    std::string err;
    ASSERT_TRUE(service::parseGpuName(c.gpu, gpu, &err)) << err;
    driver::Platform p(gpu, c.mode, cfg);
    auto w = service::makeWorkload(c.workload, c.size, &err);
    ASSERT_NE(w, nullptr) << err;
    w->setup(p);
    workloads::runWorkload(*w, p);

    EXPECT_EQ(p.totalKernelCycles(), c.cycles)
        << c.workload << "/" << c.size << " on " << c.gpu;
    EXPECT_EQ(p.totalInsts(), c.insts)
        << c.workload << "/" << c.size << " on " << c.gpu;
    ASSERT_EQ(p.launchLog().size(), c.levels.size());
    for (std::size_t i = 0; i < c.levels.size(); ++i)
        EXPECT_EQ(p.launchLog()[i].sample.level, c.levels[i])
            << c.workload << " launch " << i;
}

/** Pagerank issues 16 launches (2 kernels x 8 iterations); with the
 *  kernel cache warm after the first iteration, launches 3.. hit it. */
std::vector<L>
pagerankPhotonLevels()
{
    std::vector<L> v(16, L::Kernel);
    v[0] = L::Full;
    v[1] = L::Full;
    return v;
}

/** Every example workload on the tiny GPU, detailed and photon. All
 *  kernels are below the engagement thresholds, so photon must fall
 *  back to Full and reproduce the detailed numbers exactly. */
const std::vector<GoldenCase> &
tinyMatrix()
{
    static const std::vector<GoldenCase> kCases = {
        {"relu", 64, "tiny", driver::SimMode::FullDetailed, true, 881ull,
         960ull, {L::Full}},
        {"fir", 64, "tiny", driver::SimMode::FullDetailed, true, 4144ull,
         10240ull, {L::Full}},
        {"sc", 64, "tiny", driver::SimMode::FullDetailed, true, 3293ull,
         4312ull, {L::Full}},
        {"mm", 64, "tiny", driver::SimMode::FullDetailed, true, 15663ull,
         37696ull, {L::Full}},
        {"mmtiled", 64, "tiny", driver::SimMode::FullDetailed, true,
         8993ull, 30720ull, {L::Full}},
        {"aes", 32, "tiny", driver::SimMode::FullDetailed, true, 10719ull,
         13728ull, {L::Full}},
        {"spmv", 64, "tiny", driver::SimMode::FullDetailed, true,
         727793ull, 56178ull, {L::Full}},
        {"pagerank", 64, "tiny", driver::SimMode::FullDetailed, true,
         62159ull, 9568ull, std::vector<L>(16, L::Full)},
        {"relu", 64, "tiny", driver::SimMode::Photon, true, 881ull, 960ull,
         {L::Full}},
        {"fir", 64, "tiny", driver::SimMode::Photon, true, 4144ull,
         10240ull, {L::Full}},
        {"sc", 64, "tiny", driver::SimMode::Photon, true, 3293ull, 4312ull,
         {L::Full}},
        {"mm", 64, "tiny", driver::SimMode::Photon, true, 15663ull,
         37696ull, {L::Full}},
        {"mmtiled", 64, "tiny", driver::SimMode::Photon, true, 8993ull,
         30720ull, {L::Full}},
        {"aes", 32, "tiny", driver::SimMode::Photon, true, 10719ull,
         13728ull, {L::Full}},
        {"spmv", 64, "tiny", driver::SimMode::Photon, true, 727793ull,
         56178ull, {L::Full}},
        {"pagerank", 64, "tiny", driver::SimMode::Photon, true, 77040ull,
         9568ull, pagerankPhotonLevels()},
    };
    return kCases;
}

/** R9-Nano cases exercising the actual switch paths (warp, basic
 *  block, kernel cache) and the no-warp-sampling ablation. */
const std::vector<GoldenCase> &
nanoMatrix()
{
    static const std::vector<GoldenCase> kCases = {
        {"relu", 16384, "r9nano", driver::SimMode::Photon, true, 31408ull,
         245760ull, {L::Warp}},
        {"relu", 16384, "r9nano", driver::SimMode::Photon, false, 31461ull,
         245760ull, {L::Full}},
        {"sc", 16384, "r9nano", driver::SimMode::Photon, true, 112303ull,
         1195852ull, {L::Warp}},
        {"sc", 16384, "r9nano", driver::SimMode::Photon, false, 108732ull,
         1195672ull, {L::Full}},
        {"fir", 32768, "r9nano", driver::SimMode::Photon, true, 208957ull,
         5242880ull, {L::BasicBlock}},
        {"pagerank", 16384, "r9nano", driver::SimMode::Photon, true,
         207480ull, 640384ull, pagerankPhotonLevels()},
    };
    return kCases;
}

/** Every memory-system counter a run exports, pinned per case so a
 *  cache or memory change that keeps the cycle count but shifts hits,
 *  misses or DRAM queueing still fails. */
struct MemGoldenCase {
    const char *workload;
    std::uint32_t size;
    const char *gpu;
    Cycle cycles;
    std::uint64_t l1vHits, l1vMisses;
    std::uint64_t l1iHits, l1iMisses;
    std::uint64_t l1kHits, l1kMisses;
    std::uint64_t l2Hits, l2Misses;
    std::uint64_t dramAccesses, dramQueueingCycles;
};

void
runMemCase(const MemGoldenCase &c)
{
    GpuConfig gpu;
    std::string err;
    ASSERT_TRUE(service::parseGpuName(c.gpu, gpu, &err)) << err;
    driver::Platform p(gpu, driver::SimMode::FullDetailed);
    auto w = service::makeWorkload(c.workload, c.size, &err);
    ASSERT_NE(w, nullptr) << err;
    w->setup(p);
    workloads::runWorkload(*w, p);

    const std::string where = std::string(c.workload) + "/" +
                              std::to_string(c.size) + " on " + c.gpu;
    EXPECT_EQ(p.totalKernelCycles(), c.cycles) << where;
    const StatRegistry stats = p.stats();
    const std::pair<const char *, std::uint64_t> want[] = {
        {"mem.l1v.hits", c.l1vHits},
        {"mem.l1v.misses", c.l1vMisses},
        {"mem.l1i.hits", c.l1iHits},
        {"mem.l1i.misses", c.l1iMisses},
        {"mem.l1k.hits", c.l1kHits},
        {"mem.l1k.misses", c.l1kMisses},
        {"mem.l2.hits", c.l2Hits},
        {"mem.l2.misses", c.l2Misses},
        {"mem.dram.accesses", c.dramAccesses},
        {"mem.dram.queueing_cycles", c.dramQueueingCycles},
    };
    for (const auto &[name, value] : want)
        EXPECT_EQ(static_cast<std::uint64_t>(stats.get(name)), value)
            << name << " for " << where;
}

/** Memory-irregular full-detail runs on both presets: the R9 Nano
 *  (8 L2 banks, 64 CUs) and the MI100 (32 L2 banks, 120 CUs). */
const std::vector<MemGoldenCase> &
memMatrix()
{
    static const std::vector<MemGoldenCase> kCases = {
        {"spmv", 1024, "r9nano", 3066067ull, 231380ull, 3695702ull,
         131064ull, 80ull, 6128ull, 16ull, 789365ull, 2906433ull,
         2906433ull, 113353490ull},
        {"pagerank", 16384, "r9nano", 163043ull, 1171401ull, 600799ull,
         106176ull, 896ull, 18176ull, 256ull, 445855ull, 156096ull,
         156096ull, 7271366ull},
        {"spmv", 1024, "mi100", 1357234ull, 411736ull, 3515346ull,
         130994ull, 150ull, 6114ull, 30ull, 590863ull, 2924663ull,
         2924663ull, 39729864ull},
    };
    return kCases;
}

} // namespace

TEST(GoldenParity, MemoryCountersSerial)
{
    for (const auto &c : memMatrix())
        runMemCase(c);
}

TEST(GoldenParity, TinyMatrixSerial)
{
    for (const auto &c : tinyMatrix())
        runCase(c);
}

TEST(GoldenParity, NanoSwitchPathsSerial)
{
    for (const auto &c : nanoMatrix())
        runCase(c);
}
