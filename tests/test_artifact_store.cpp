/** @file Tests for the versioned binary artifact store. */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "service/artifact_store.hpp"

using namespace photon;
using namespace photon::sampling;
using namespace photon::service;

namespace {

Bbv
bbvOf(isa::BbId bb, std::uint64_t n)
{
    Bbv v(8);
    v.add(bb, 64, n);
    v.add(bb, 20, 1); // touch a second lane bucket
    return v;
}

GpuBbv
sigOf(isa::BbId bb)
{
    WarpClassifier c;
    for (int i = 0; i < 10; ++i)
        c.classify(bbvOf(bb, 10), 100);
    return GpuBbv::build(c, 16, 8);
}

KernelRecord
record(const char *name, isa::BbId bb, std::uint32_t warps)
{
    KernelRecord r;
    r.name = name;
    r.signature = sigOf(bb);
    r.numWarps = warps;
    r.totalInsts = warps * 100ull;
    r.sampledInsts = warps;
    r.cycles = warps * 5ull;
    return r;
}

OnlineAnalysis
analysisOf(isa::BbId bb)
{
    OnlineAnalysis a;
    a.totalWarps = 1000;
    a.sampledWarps = 10;
    a.sampledInsts = 1000;
    for (int i = 0; i < 7; ++i)
        a.classifier.classify(bbvOf(bb, 10), 100);
    for (int i = 0; i < 3; ++i)
        a.classifier.classify(bbvOf(bb + 1, 4), 40);
    a.signature = GpuBbv::build(a.classifier, 16, 8);
    a.bbExecCounts = {1, 2, 3, 4, 0, 9};
    a.bbInstCounts = {10, 20, 30, 40, 0, 90};
    a.dominantType = a.classifier.dominantType();
    a.dominantRate = a.classifier.dominantRate();
    return a;
}

Artifact
sampleArtifact()
{
    Artifact art;
    StoreGroup &g = art.group("R9Nano");
    g.kernels.push_back(record("mm", 0, 4096));
    g.kernels.push_back(record("relu", 2, 256));
    g.analyses.emplace("mm#64x4", analysisOf(0));
    g.analyses.emplace("relu#4x4", analysisOf(2));
    StoreGroup &g2 = art.group("MI100");
    g2.kernels.push_back(record("fir", 1, 512));
    return art;
}

void
expectAnalysisEq(const OnlineAnalysis &a, const OnlineAnalysis &b)
{
    EXPECT_EQ(a.totalWarps, b.totalWarps);
    EXPECT_EQ(a.sampledWarps, b.sampledWarps);
    EXPECT_EQ(a.sampledInsts, b.sampledInsts);
    ASSERT_EQ(a.classifier.numTypes(), b.classifier.numTypes());
    EXPECT_EQ(a.classifier.totalWarps(), b.classifier.totalWarps());
    for (std::uint32_t i = 0; i < a.classifier.numTypes(); ++i) {
        EXPECT_EQ(a.classifier.types()[i].bbv,
                  b.classifier.types()[i].bbv);
        EXPECT_EQ(a.classifier.types()[i].instCount,
                  b.classifier.types()[i].instCount);
        EXPECT_EQ(a.classifier.types()[i].numWarps,
                  b.classifier.types()[i].numWarps);
    }
    EXPECT_EQ(a.signature.vec(), b.signature.vec());
    EXPECT_EQ(a.signature.dims(), b.signature.dims());
    EXPECT_EQ(a.signature.numClusters(), b.signature.numClusters());
    EXPECT_EQ(a.bbExecCounts, b.bbExecCounts);
    EXPECT_EQ(a.bbInstCounts, b.bbInstCounts);
    EXPECT_EQ(a.dominantType, b.dominantType);
    EXPECT_EQ(a.dominantRate, b.dominantRate);
}

} // namespace

TEST(ArtifactStore, RoundTripEmpty)
{
    std::string bytes = serializeArtifact(Artifact{});
    Artifact back;
    LoadStatus st = deserializeArtifact(bytes, back);
    ASSERT_TRUE(st.ok) << st.error;
    EXPECT_TRUE(back.groups.empty());
    EXPECT_EQ(back.numKernelRecords(), 0u);
    EXPECT_EQ(back.numAnalyses(), 0u);
}

TEST(ArtifactStore, RoundTripMultiRecord)
{
    Artifact art = sampleArtifact();
    std::string bytes = serializeArtifact(art);
    Artifact back;
    LoadStatus st = deserializeArtifact(bytes, back);
    ASSERT_TRUE(st.ok) << st.error;

    ASSERT_EQ(back.groups.size(), 2u);
    ASSERT_EQ(back.numKernelRecords(), 3u);
    ASSERT_EQ(back.numAnalyses(), 2u);

    const StoreGroup &g = back.groups.at("R9Nano");
    ASSERT_EQ(g.kernels.size(), 2u);
    EXPECT_EQ(g.kernels[0].name, "mm");
    EXPECT_EQ(g.kernels[0].numWarps, 4096u);
    EXPECT_EQ(g.kernels[0].totalInsts, 409600u);
    EXPECT_EQ(g.kernels[0].sampledInsts, 4096u);
    EXPECT_EQ(g.kernels[0].cycles, 20480u);
    // Signatures survive bit-exactly: distance to the original is 0.
    EXPECT_EQ(g.kernels[0].signature.distance(
                  art.groups.at("R9Nano").kernels[0].signature),
              0.0);
    EXPECT_EQ(g.kernels[0].signature.vec(),
              art.groups.at("R9Nano").kernels[0].signature.vec());

    ASSERT_EQ(g.analyses.count("mm#64x4"), 1u);
    expectAnalysisEq(art.groups.at("R9Nano").analyses.at("mm#64x4"),
                     g.analyses.at("mm#64x4"));
}

TEST(ArtifactStore, SerializationIsDeterministic)
{
    Artifact art = sampleArtifact();
    EXPECT_EQ(serializeArtifact(art), serializeArtifact(art));
    // Round-tripping then re-serializing also yields identical bytes.
    std::string bytes = serializeArtifact(art);
    Artifact back;
    ASSERT_TRUE(deserializeArtifact(bytes, back).ok);
    EXPECT_EQ(serializeArtifact(back), bytes);
}

TEST(ArtifactStore, RejectsVersionMismatch)
{
    std::string bytes = serializeArtifact(sampleArtifact());
    bytes[4] = static_cast<char>(kArtifactVersion + 1); // version LSB
    Artifact back;
    LoadStatus st = deserializeArtifact(bytes, back);
    EXPECT_FALSE(st.ok);
    EXPECT_NE(st.error.find("version mismatch"), std::string::npos)
        << st.error;
    EXPECT_TRUE(back.groups.empty());
}

TEST(ArtifactStore, RejectsBadMagic)
{
    std::string bytes = serializeArtifact(sampleArtifact());
    bytes[0] = 'X';
    Artifact back;
    LoadStatus st = deserializeArtifact(bytes, back);
    EXPECT_FALSE(st.ok);
    EXPECT_NE(st.error.find("magic"), std::string::npos) << st.error;
}

TEST(ArtifactStore, RejectsTruncation)
{
    std::string bytes = serializeArtifact(sampleArtifact());
    // Every proper prefix must be rejected, never crash.
    for (std::size_t len : {std::size_t{0}, std::size_t{3},
                            std::size_t{7}, bytes.size() / 2,
                            bytes.size() - 1}) {
        Artifact back;
        LoadStatus st =
            deserializeArtifact(std::string_view(bytes).substr(0, len),
                                back);
        EXPECT_FALSE(st.ok) << "prefix of " << len << " bytes accepted";
        EXPECT_TRUE(back.groups.empty());
    }

    // Record counts far beyond the bytes behind them must fail before
    // anything is sized by them: 0xFFFFFFFF kernel records in a 26-byte
    // artifact, and 0xFFFFFFFF telemetry records in a 34-byte one.
    auto u32 = [](std::string &out, std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    };
    std::string head = "PHAS";
    u32(head, kArtifactVersion);
    u32(head, 1); // one group
    u32(head, 6);
    head += "r9nano";
    std::string kernels = head;
    u32(kernels, 0xFFFFFFFFu);
    std::string telemetry = head;
    u32(telemetry, 0);           // kernel records
    u32(telemetry, 0);           // analyses
    u32(telemetry, 0xFFFFFFFFu); // telemetry records
    ASSERT_EQ(kernels.size(), 26u);
    ASSERT_EQ(telemetry.size(), 34u);
    for (const std::string &corrupt : {kernels, telemetry}) {
        Artifact back;
        LoadStatus st;
        EXPECT_NO_THROW(st = deserializeArtifact(corrupt, back))
            << corrupt.size() << "-byte artifact";
        EXPECT_FALSE(st.ok) << corrupt.size() << "-byte artifact accepted";
        EXPECT_NE(st.error.find("count"), std::string::npos) << st.error;
        EXPECT_TRUE(back.groups.empty());
    }
}

TEST(ArtifactStore, RejectsTrailingBytes)
{
    std::string bytes = serializeArtifact(sampleArtifact());
    bytes.push_back('\0');
    Artifact back;
    LoadStatus st = deserializeArtifact(bytes, back);
    EXPECT_FALSE(st.ok);
    EXPECT_NE(st.error.find("trailing"), std::string::npos) << st.error;
}

TEST(ArtifactStore, FileRoundTrip)
{
    std::string path = testing::TempDir() + "photon_artifact_rt.bin";
    Artifact art = sampleArtifact();
    LoadStatus st = saveArtifact(art, path);
    ASSERT_TRUE(st.ok) << st.error;
    Artifact back;
    st = loadArtifact(path, back);
    ASSERT_TRUE(st.ok) << st.error;
    EXPECT_EQ(serializeArtifact(back), serializeArtifact(art));
    std::remove(path.c_str());
}

TEST(ArtifactStore, LoadReportsMissingFile)
{
    Artifact back;
    LoadStatus st =
        loadArtifact("/nonexistent/photon_store.bin", back);
    EXPECT_FALSE(st.ok);
    EXPECT_NE(st.error.find("cannot open"), std::string::npos)
        << st.error;
}

TEST(ArtifactStore, ClassifierRestoreRebuildsHashIndex)
{
    // A classifier rebuilt from exported types must keep classifying
    // known BBVs into their original type instead of minting new ones.
    WarpClassifier orig;
    for (int i = 0; i < 5; ++i)
        orig.classify(bbvOf(0, 10), 100);
    orig.classify(bbvOf(3, 2), 20);

    WarpClassifier back = WarpClassifier::fromTypes(
        std::vector<WarpType>(orig.types().begin(), orig.types().end()));
    EXPECT_EQ(back.totalWarps(), orig.totalWarps());
    EXPECT_EQ(back.dominantType(), orig.dominantType());
    EXPECT_EQ(back.dominantRate(), orig.dominantRate());
    WarpTypeId id = back.classify(bbvOf(0, 10), 100);
    EXPECT_EQ(id, orig.dominantType());
    EXPECT_EQ(back.numTypes(), orig.numTypes()); // no new type minted
}

TEST(ArtifactStore, BbvAndGpuBbvRestoreHooks)
{
    Bbv v = bbvOf(2, 7);
    Bbv back = Bbv::fromCounts(v.counts());
    EXPECT_EQ(back, v);
    EXPECT_EQ(back.hash(), v.hash());
    EXPECT_EQ(back.blockHash(), v.blockHash());

    GpuBbv sig = sigOf(1);
    GpuBbv sig_back =
        GpuBbv::fromRaw(sig.vec(), sig.dims(), sig.numClusters());
    EXPECT_EQ(sig_back.distance(sig), 0.0);
}
