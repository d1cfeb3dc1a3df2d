/** @file Tests for the per-kernel telemetry spine: deterministic JSON /
 *  CSV serialization, the schema-versioned round trip (current schema
 *  plus v1..v3-document compatibility), and telemetry persistence
 *  through the binary artifact store (with v1..v5 load
 *  compatibility). */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "sampling/telemetry.hpp"
#include "service/artifact_store.hpp"

using namespace photon;
using namespace photon::sampling;

namespace {

KernelTelemetry
sampleRecord()
{
    KernelTelemetry t;
    t.kernel = "mm_tiled";
    t.job = "mm/256/photon/r9nano";
    t.numWorkgroups = 64;
    t.wavesPerWorkgroup = 4;
    t.level = SampleLevel::Warp;
    t.switchCycle = 31408;
    t.residentAtSwitch = 40;
    t.warpDetector.points = 2048;
    t.warpDetector.slope = 0.98765432109876543;
    t.warpDetector.slopeValid = true;
    t.warpDetector.drift = -0.0123456789;
    t.warpDetector.meanRecent = 512.25;
    t.warpDetector.meanPrev = 518.5;
    t.warpDetector.stable = true;
    t.bbStableRate = 0.875;
    t.predictedCycles = 112303;
    t.predictedInsts = 1195852;
    t.detailedCycles = 31408;
    t.detailedInsts = 245760;
    t.detailedWarps = 96;
    t.totalWarps = 256;
    t.analysisInsts = 4096;
    t.analysisReused = false;
    t.wallSeconds = 1.2345678901234567;
    // Backend fields: every slot non-default so the round-trips
    // exercise them independently. "interval" is 8 chars like the
    // default, keeping the backend tail at 28 bytes (the loader-compat
    // tests below rely on that size).
    t.backend = "interval";
    t.backendDetailedCycles = 31408;
    t.backendIntervalCycles = 80895;
    return t;
}

/** Bytes of sampleRecord's tail behind its v2 layout in the current
 *  artifact encoding: wall_seconds, the backend string and the two
 *  backend cycle counters. */
constexpr std::size_t kRecordTailBytes = 8 + (4 + 8) + 2 * 8;

void
putLe(std::string &out, std::uint64_t v, int bytes)
{
    for (int i = 0; i < bytes; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/**
 * Re-encode a current artifact holding one sampleRecord in the layout
 * of artifact @p version (3..5): the epoch triple (epochs, epoch
 * cycles, barrier crossings) behind wall_seconds, the hasDetailedStats
 * flag behind the backend fields (v4+), and the trace count (v5).
 */
std::string
legacyArtifact(std::string bytes, std::uint32_t version)
{
    const std::size_t tail = bytes.size() - 4 - kRecordTailBytes;
    std::string wall = bytes.substr(tail, 8);
    std::string backend = bytes.substr(tail + 8, kRecordTailBytes - 8);
    bytes.resize(tail);
    bytes[4] = static_cast<char>(version);
    bytes += wall;
    putLe(bytes, 321, 8);  // epochs
    putLe(bytes, 2568, 8); // epoch cycles
    putLe(bytes, 642, 8);  // barrier crossings
    if (version >= 4) {
        bytes += backend;
        putLe(bytes, 1, 4); // hasDetailedStats
    }
    if (version >= 5)
        putLe(bytes, 0, 4); // empty trace section
    return bytes;
}

/**
 * Re-write a current telemetry document in the layout of schema
 * @p version (2 or 3): the epoch statistics after wall_seconds —
 * numbers, or JSON nulls as v3 backends without a detailed core wrote
 * them — and, for v2, no backend fields.
 */
std::string
legacyDocument(std::string doc, std::uint32_t version, bool nulls)
{
    const std::string ver = "\"schema_version\": ";
    std::size_t v = doc.find(ver) + ver.size();
    doc.replace(v, doc.find(',', v) - v, std::to_string(version));
    const std::string epochs =
        nulls ? ", \"epochs\": null, \"epoch_cycles\": null, "
                "\"barrier_crossings\": null"
              : ", \"epochs\": 321, \"epoch_cycles\": 2568, "
                "\"barrier_crossings\": 642";
    const std::string backend = ",\n     \"backend\": ";
    for (std::size_t at = doc.find(backend); at != std::string::npos;
         at = doc.find(backend, at)) {
        if (version < 3)
            doc.erase(at, doc.find('}', at) - at);
        doc.insert(at, epochs);
        at = doc.find('}', at);
    }
    return doc;
}

void
expectEqual(const KernelTelemetry &a, const KernelTelemetry &b)
{
    EXPECT_EQ(a.kernel, b.kernel);
    EXPECT_EQ(a.job, b.job);
    EXPECT_EQ(a.numWorkgroups, b.numWorkgroups);
    EXPECT_EQ(a.wavesPerWorkgroup, b.wavesPerWorkgroup);
    EXPECT_EQ(a.level, b.level);
    EXPECT_EQ(a.switchCycle, b.switchCycle);
    EXPECT_EQ(a.residentAtSwitch, b.residentAtSwitch);
    EXPECT_EQ(a.warpDetector.points, b.warpDetector.points);
    EXPECT_EQ(a.warpDetector.slope, b.warpDetector.slope);
    EXPECT_EQ(a.warpDetector.slopeValid, b.warpDetector.slopeValid);
    EXPECT_EQ(a.warpDetector.drift, b.warpDetector.drift);
    EXPECT_EQ(a.warpDetector.meanRecent, b.warpDetector.meanRecent);
    EXPECT_EQ(a.warpDetector.meanPrev, b.warpDetector.meanPrev);
    EXPECT_EQ(a.warpDetector.stable, b.warpDetector.stable);
    EXPECT_EQ(a.bbStableRate, b.bbStableRate);
    EXPECT_EQ(a.predictedCycles, b.predictedCycles);
    EXPECT_EQ(a.predictedInsts, b.predictedInsts);
    EXPECT_EQ(a.detailedCycles, b.detailedCycles);
    EXPECT_EQ(a.detailedInsts, b.detailedInsts);
    EXPECT_EQ(a.detailedWarps, b.detailedWarps);
    EXPECT_EQ(a.totalWarps, b.totalWarps);
    EXPECT_EQ(a.analysisInsts, b.analysisInsts);
    EXPECT_EQ(a.analysisReused, b.analysisReused);
    EXPECT_EQ(a.wallSeconds, b.wallSeconds);
    EXPECT_EQ(a.backend, b.backend);
    EXPECT_EQ(a.backendDetailedCycles, b.backendDetailedCycles);
    EXPECT_EQ(a.backendIntervalCycles, b.backendIntervalCycles);
}

} // namespace

TEST(Telemetry, LevelNamesRoundTrip)
{
    EXPECT_STREQ(sampleLevelName(SampleLevel::Full), "full");
    EXPECT_STREQ(sampleLevelName(SampleLevel::Kernel), "kernel");
    EXPECT_STREQ(sampleLevelName(SampleLevel::Warp), "warp");
    EXPECT_STREQ(sampleLevelName(SampleLevel::BasicBlock), "bb");
}

TEST(Telemetry, JsonRoundTripIsBitExact)
{
    std::vector<KernelTelemetry> records = {sampleRecord()};
    KernelTelemetry full;
    full.kernel = "relu";
    full.level = SampleLevel::Full;
    full.totalWarps = 16;
    full.detailedWarps = 16;
    records.push_back(full);

    std::ostringstream os;
    writeTelemetryJson(records, os);
    std::string doc = os.str();
    EXPECT_NE(doc.find("\"schema_version\": " +
                       std::to_string(kTelemetrySchemaVersion)),
              std::string::npos);
    EXPECT_NE(doc.find("\"wall_seconds\""), std::string::npos);
    EXPECT_EQ(doc.find("\"epochs\""), std::string::npos);

    std::vector<KernelTelemetry> parsed;
    std::string err;
    ASSERT_TRUE(readTelemetryJson(doc, parsed, &err)) << err;
    ASSERT_EQ(parsed.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i)
        expectEqual(records[i], parsed[i]);

    // Writers are deterministic: re-serializing the parsed records
    // reproduces the document byte for byte.
    std::ostringstream os2;
    writeTelemetryJson(parsed, os2);
    EXPECT_EQ(doc, os2.str());

    // v3 documents carry the epoch statistics (numbers, or nulls from
    // backends without a detailed core); they are skipped and every
    // other field round-trips.
    for (bool nulls : {false, true}) {
        std::string legacy = legacyDocument(doc, 3, nulls);
        ASSERT_NE(legacy.find("\"barrier_crossings\""), std::string::npos);
        ASSERT_TRUE(readTelemetryJson(legacy, parsed, &err)) << err;
        ASSERT_EQ(parsed.size(), records.size());
        for (std::size_t i = 0; i < records.size(); ++i)
            expectEqual(records[i], parsed[i]);
    }
    // v2 documents carry the epoch statistics but no backend fields,
    // which keep their defaults.
    std::string v2 = legacyDocument(doc, 2, false);
    ASSERT_EQ(v2.find("\"backend\""), std::string::npos);
    ASSERT_TRUE(readTelemetryJson(v2, parsed, &err)) << err;
    ASSERT_EQ(parsed.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        KernelTelemetry expect = records[i];
        expect.backend = "detailed";
        expect.backendDetailedCycles = 0;
        expect.backendIntervalCycles = 0;
        expectEqual(expect, parsed[i]);
    }
}

TEST(Telemetry, EmptyDocumentRoundTrips)
{
    std::ostringstream os;
    writeTelemetryJson({}, os);
    std::vector<KernelTelemetry> parsed;
    ASSERT_TRUE(readTelemetryJson(os.str(), parsed));
    EXPECT_TRUE(parsed.empty());
}

TEST(Telemetry, ReaderRejectsSchemaMismatchAndJunk)
{
    std::vector<KernelTelemetry> out;
    std::string err;
    EXPECT_FALSE(readTelemetryJson(
        "{\"schema_version\": 999, \"kernels\": []}", out, &err));
    EXPECT_NE(err.find("schema version"), std::string::npos);

    EXPECT_FALSE(readTelemetryJson("{\"kernels\": []}", out, &err));
    EXPECT_FALSE(readTelemetryJson("not json", out, &err));
    EXPECT_FALSE(readTelemetryJson(
        "{\"schema_version\": 1, \"kernels\": [{\"level\": \"bogus\"}]}",
        out, &err));
}

TEST(Telemetry, ReaderSkipsUnknownKeysForForwardCompat)
{
    std::string doc =
        "{\"schema_version\": 1, \"future_field\": {\"x\": [1, 2]},\n"
        " \"kernels\": [{\"kernel\": \"k\", \"extra\": \"ignored\","
        " \"total_warps\": 8}]}";
    std::vector<KernelTelemetry> parsed;
    std::string err;
    ASSERT_TRUE(readTelemetryJson(doc, parsed, &err)) << err;
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0].kernel, "k");
    EXPECT_EQ(parsed[0].totalWarps, 8u);
}

/** Schema v1 documents (no wall_seconds) still load; the absent fields
 *  stay at their zero defaults. */
TEST(Telemetry, V1DocumentLoadsWithZeroEpochStats)
{
    std::string doc =
        "{\"schema_version\": 1, \"kernels\": [{\"kernel\": \"k\","
        " \"total_warps\": 8, \"predicted_cycles\": 100}]}";
    std::vector<KernelTelemetry> parsed;
    std::string err;
    ASSERT_TRUE(readTelemetryJson(doc, parsed, &err)) << err;
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0].predictedCycles, 100u);
    EXPECT_EQ(parsed[0].wallSeconds, 0.0);
}

TEST(Telemetry, CsvCarriesSchemaVersionHeader)
{
    std::ostringstream os;
    writeTelemetryCsv({sampleRecord()}, os);
    std::string csv = os.str();
    EXPECT_EQ(csv.rfind("# telemetry_schema_version=" +
                            std::to_string(kTelemetrySchemaVersion),
                        0),
              0u);
    EXPECT_NE(csv.find("kernel,job,workgroups"), std::string::npos);
    EXPECT_NE(csv.find("mm_tiled,"), std::string::npos);
    EXPECT_NE(csv.find(",warp,"), std::string::npos);
    EXPECT_EQ(csv.find("epoch"), std::string::npos);
}

TEST(Telemetry, DetailedFractionDefinition)
{
    KernelTelemetry t;
    EXPECT_EQ(t.detailedFraction(), 1.0); // no warps: conservatively full
    t.totalWarps = 200;
    t.detailedWarps = 50;
    EXPECT_NEAR(t.detailedFraction(), 0.25, 1e-12);
}

TEST(Telemetry, ArtifactStorePersistsTelemetry)
{
    service::Artifact art;
    service::StoreGroup &g = art.group("r9nano");
    g.telemetry.push_back(sampleRecord());
    ASSERT_EQ(art.numTelemetryRecords(), 1u);

    std::string bytes = service::serializeArtifact(art);
    service::Artifact back;
    service::LoadStatus st = service::deserializeArtifact(bytes, back);
    ASSERT_TRUE(st.ok) << st.error;
    ASSERT_EQ(back.numTelemetryRecords(), 1u);
    expectEqual(g.telemetry[0], back.groups.at("r9nano").telemetry[0]);
}

TEST(Telemetry, ArtifactLoaderStillAcceptsV1)
{
    // A v1 artifact is the current layout minus the per-group telemetry
    // section and the trailing v5 trace section; synthesize one by
    // patching the version field of an empty-group artifact and
    // dropping the trailing trace count + telemetry count.
    service::Artifact art;
    art.group("tiny"); // one empty group
    std::string bytes = service::serializeArtifact(art);
    ASSERT_GE(bytes.size(), 8u + 8u);
    bytes[4] = 1;                              // version -> 1
    bytes.resize(bytes.size() - 8);            // drop trace+telemetry counts
    service::Artifact back;
    service::LoadStatus st = service::deserializeArtifact(bytes, back);
    ASSERT_TRUE(st.ok) << st.error;
    EXPECT_EQ(back.groups.size(), 1u);
    EXPECT_EQ(back.numTelemetryRecords(), 0u);
}

TEST(Telemetry, ArtifactLoaderStillAcceptsV2)
{
    // v2 telemetry records end after the analysis_reused flag; behind
    // it sit wall_seconds and the backend fields. Synthesize a v2
    // artifact by patching the version and truncating that tail and
    // the trace count off the last record.
    service::Artifact art;
    art.group("tiny").telemetry.push_back(sampleRecord());
    std::string bytes = service::serializeArtifact(art);
    ASSERT_GE(bytes.size(), 8u + 4u + kRecordTailBytes);
    bytes[4] = 2; // version -> 2
    bytes.resize(bytes.size() - 4 - kRecordTailBytes);
    service::Artifact back;
    service::LoadStatus st = service::deserializeArtifact(bytes, back);
    ASSERT_TRUE(st.ok) << st.error;
    ASSERT_EQ(back.numTelemetryRecords(), 1u);
    const KernelTelemetry &t = back.groups.at("tiny").telemetry[0];
    EXPECT_EQ(t.kernel, "mm_tiled");
    EXPECT_EQ(t.predictedCycles, 112303u);
    EXPECT_EQ(t.wallSeconds, 0.0); // v3 fields default to zero
    // v4 fields keep their declared defaults: a pre-backend record is
    // a detailed-core record.
    EXPECT_EQ(t.backend, "detailed");
    EXPECT_EQ(t.backendDetailedCycles, 0u);
    EXPECT_EQ(t.backendIntervalCycles, 0u);
}

TEST(Telemetry, ArtifactLoaderStillAcceptsV3)
{
    // v3..v5 records carry the epoch triple behind wall_seconds, and
    // v4/v5 the hasDetailedStats flag behind the backend fields; the
    // loader skips them and keeps every other field.
    service::Artifact art;
    art.group("tiny").telemetry.push_back(sampleRecord());
    const std::string bytes = service::serializeArtifact(art);
    for (std::uint32_t version : {3u, 4u, 5u}) {
        service::Artifact back;
        service::LoadStatus st = service::deserializeArtifact(
            legacyArtifact(bytes, version), back);
        ASSERT_TRUE(st.ok) << "v" << version << ": " << st.error;
        ASSERT_EQ(back.numTelemetryRecords(), 1u);
        KernelTelemetry expect = sampleRecord();
        if (version < 4) { // v4 defaults: detailed record
            expect.backend = "detailed";
            expect.backendDetailedCycles = 0;
            expect.backendIntervalCycles = 0;
        }
        expectEqual(expect, back.groups.at("tiny").telemetry[0]);
    }
}
