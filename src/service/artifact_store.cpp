#include "service/artifact_store.hpp"

#include <algorithm>
#include <bit>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace photon::service {

namespace {

constexpr char kMagic[4] = {'P', 'H', 'A', 'S'};

// ----- Little-endian primitive encoding -----

void
putU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putDouble(std::string &out, double v)
{
    putU64(out, std::bit_cast<std::uint64_t>(v));
}

void
putString(std::string &out, const std::string &s)
{
    putU32(out, static_cast<std::uint32_t>(s.size()));
    out.append(s);
}

void
putU64Vec(std::string &out, const std::vector<std::uint64_t> &v)
{
    putU32(out, static_cast<std::uint32_t>(v.size()));
    for (std::uint64_t x : v)
        putU64(out, x);
}

void
putDoubleVec(std::string &out, const std::vector<double> &v)
{
    putU32(out, static_cast<std::uint32_t>(v.size()));
    for (double x : v)
        putDouble(out, x);
}

/** Parse error carrying the diagnostic for LoadStatus. */
struct ParseError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Bounds-checked cursor over the serialized bytes. */
class Reader
{
  public:
    explicit Reader(std::string_view bytes) : bytes_(bytes) {}

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(bytes_[pos_ + i]))
                 << (8 * i);
        pos_ += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(bytes_[pos_ + i]))
                 << (8 * i);
        pos_ += 8;
        return v;
    }

    double
    dbl()
    {
        return std::bit_cast<double>(u64());
    }

    std::string
    str()
    {
        std::uint32_t len = u32();
        need(len);
        std::string s(bytes_.substr(pos_, len));
        pos_ += len;
        return s;
    }

    std::vector<std::uint64_t>
    u64Vec()
    {
        std::uint32_t n = count(8);
        std::vector<std::uint64_t> v(n);
        for (std::uint32_t i = 0; i < n; ++i)
            v[i] = u64();
        return v;
    }

    std::vector<double>
    dblVec()
    {
        std::uint32_t n = count(8);
        std::vector<double> v(n);
        for (std::uint32_t i = 0; i < n; ++i)
            v[i] = dbl();
        return v;
    }

    /** A record count, checked against the bytes left at @p min_bytes
     *  per record, so a corrupt count fails here instead of sizing an
     *  allocation. */
    std::uint32_t
    count(std::size_t min_bytes)
    {
        std::uint32_t n = u32();
        if (std::size_t{n} * min_bytes > bytes_.size() - pos_)
            throw ParseError("corrupt artifact: count " +
                             std::to_string(n) + " at offset " +
                             std::to_string(pos_ - 4) +
                             " exceeds the remaining bytes");
        return n;
    }

    /** Skip @p n bytes (fields an older layout carried). */
    void
    skip(std::size_t n)
    {
        need(n);
        pos_ += n;
    }

    /** A view of @p n raw bytes (the embedded trace blobs). */
    std::string_view
    raw(std::size_t n)
    {
        need(n);
        std::string_view v = bytes_.substr(pos_, n);
        pos_ += n;
        return v;
    }

    bool atEnd() const { return pos_ == bytes_.size(); }

  private:
    void
    need(std::size_t n) const
    {
        if (bytes_.size() - pos_ < n)
            throw ParseError("truncated artifact (need " +
                             std::to_string(n) + " bytes at offset " +
                             std::to_string(pos_) + ")");
    }

    std::string_view bytes_;
    std::size_t pos_ = 0;
};

// ----- Composite encoders/decoders -----

// Smallest encoding of each counted record (every string and vector
// empty), the floor Reader::count checks a declared count against.
constexpr std::size_t kMinKernelRecordBytes = 4 + 12 + 4 + 3 * 8;
constexpr std::size_t kMinWarpTypeBytes = 4 + 2 * 8;
/** The v2 telemetry layout, the shortest of all versions: two strings,
 *  nine 32-bit and twelve 64-bit fields. */
constexpr std::size_t kMinTelemetryBytes = 2 * 4 + 9 * 4 + 12 * 8;

void
putGpuBbv(std::string &out, const sampling::GpuBbv &sig)
{
    putDoubleVec(out, sig.vec());
    putU32(out, sig.dims());
    putU32(out, sig.numClusters());
}

sampling::GpuBbv
getGpuBbv(Reader &r)
{
    std::vector<double> vec = r.dblVec();
    std::uint32_t dims = r.u32();
    std::uint32_t clusters = r.u32();
    if (std::size_t{dims} * clusters != vec.size())
        throw ParseError("corrupt GPU BBV: " + std::to_string(vec.size()) +
                         " values for " + std::to_string(clusters) + "x" +
                         std::to_string(dims));
    return sampling::GpuBbv::fromRaw(std::move(vec), dims, clusters);
}

void
putKernelRecord(std::string &out, const sampling::KernelRecord &rec)
{
    putString(out, rec.name);
    putGpuBbv(out, rec.signature);
    putU32(out, rec.numWarps);
    putU64(out, rec.totalInsts);
    putU64(out, rec.sampledInsts);
    putU64(out, rec.cycles);
}

sampling::KernelRecord
getKernelRecord(Reader &r)
{
    sampling::KernelRecord rec;
    rec.name = r.str();
    rec.signature = getGpuBbv(r);
    rec.numWarps = r.u32();
    rec.totalInsts = r.u64();
    rec.sampledInsts = r.u64();
    rec.cycles = r.u64();
    return rec;
}

void
putAnalysis(std::string &out, const sampling::OnlineAnalysis &a)
{
    putU32(out, a.totalWarps);
    putU32(out, a.sampledWarps);
    putU64(out, a.sampledInsts);
    const auto &types = a.classifier.types();
    putU32(out, static_cast<std::uint32_t>(types.size()));
    for (const auto &t : types) {
        putU64Vec(out, t.bbv.counts());
        putU64(out, t.instCount);
        putU64(out, t.numWarps);
    }
    putGpuBbv(out, a.signature);
    putU64Vec(out, a.bbExecCounts);
    putU64Vec(out, a.bbInstCounts);
    putU32(out, a.dominantType);
    putDouble(out, a.dominantRate);
}

sampling::OnlineAnalysis
getAnalysis(Reader &r)
{
    sampling::OnlineAnalysis a;
    a.totalWarps = r.u32();
    a.sampledWarps = r.u32();
    a.sampledInsts = r.u64();
    std::uint32_t num_types = r.count(kMinWarpTypeBytes);
    std::vector<sampling::WarpType> types(num_types);
    for (auto &t : types) {
        t.bbv = sampling::Bbv::fromCounts(r.u64Vec());
        t.instCount = r.u64();
        t.numWarps = r.u64();
    }
    a.classifier = sampling::WarpClassifier::fromTypes(std::move(types));
    a.signature = getGpuBbv(r);
    a.bbExecCounts = r.u64Vec();
    a.bbInstCounts = r.u64Vec();
    a.dominantType = r.u32();
    a.dominantRate = r.dbl();
    return a;
}

void
putTelemetry(std::string &out, const sampling::KernelTelemetry &t)
{
    putString(out, t.kernel);
    putString(out, t.job);
    putU32(out, t.numWorkgroups);
    putU32(out, t.wavesPerWorkgroup);
    putU32(out, static_cast<std::uint32_t>(t.level));
    putU64(out, t.switchCycle);
    putU32(out, t.residentAtSwitch);
    putU64(out, t.warpDetector.points);
    putDouble(out, t.warpDetector.slope);
    putU32(out, t.warpDetector.slopeValid ? 1 : 0);
    putDouble(out, t.warpDetector.drift);
    putDouble(out, t.warpDetector.meanRecent);
    putDouble(out, t.warpDetector.meanPrev);
    putU32(out, t.warpDetector.stable ? 1 : 0);
    putDouble(out, t.bbStableRate);
    putU64(out, t.predictedCycles);
    putU64(out, t.predictedInsts);
    putU64(out, t.detailedCycles);
    putU64(out, t.detailedInsts);
    putU32(out, t.detailedWarps);
    putU32(out, t.totalWarps);
    putU64(out, t.analysisInsts);
    putU32(out, t.analysisReused ? 1 : 0);
    putDouble(out, t.wallSeconds);
    putString(out, t.backend);
    putU64(out, t.backendDetailedCycles);
    putU64(out, t.backendIntervalCycles);
}

sampling::KernelTelemetry
getTelemetry(Reader &r, std::uint32_t version)
{
    sampling::KernelTelemetry t;
    t.kernel = r.str();
    t.job = r.str();
    t.numWorkgroups = r.u32();
    t.wavesPerWorkgroup = r.u32();
    std::uint32_t level = r.u32();
    if (level > static_cast<std::uint32_t>(
                    sampling::SampleLevel::BasicBlock))
        throw ParseError("corrupt telemetry record: sample level " +
                         std::to_string(level));
    t.level = static_cast<sampling::SampleLevel>(level);
    t.switchCycle = r.u64();
    t.residentAtSwitch = r.u32();
    t.warpDetector.points = r.u64();
    t.warpDetector.slope = r.dbl();
    t.warpDetector.slopeValid = r.u32() != 0;
    t.warpDetector.drift = r.dbl();
    t.warpDetector.meanRecent = r.dbl();
    t.warpDetector.meanPrev = r.dbl();
    t.warpDetector.stable = r.u32() != 0;
    t.bbStableRate = r.dbl();
    t.predictedCycles = r.u64();
    t.predictedInsts = r.u64();
    t.detailedCycles = r.u64();
    t.detailedInsts = r.u64();
    t.detailedWarps = r.u32();
    t.totalWarps = r.u32();
    t.analysisInsts = r.u64();
    t.analysisReused = r.u32() != 0;
    if (version >= 3) {
        t.wallSeconds = r.dbl();
        if (version < 6)
            r.skip(3 * 8); // epochs, epoch cycles, barrier crossings
    }
    if (version >= 4) {
        t.backend = r.str();
        t.backendDetailedCycles = r.u64();
        t.backendIntervalCycles = r.u64();
        if (version < 6)
            r.skip(4); // hasDetailedStats
    }
    return t;
}

} // namespace

std::size_t
Artifact::numKernelRecords() const
{
    std::size_t n = 0;
    for (const auto &[gpu, g] : groups)
        n += g.kernels.size();
    return n;
}

std::size_t
Artifact::numAnalyses() const
{
    std::size_t n = 0;
    for (const auto &[gpu, g] : groups)
        n += g.analyses.size();
    return n;
}

std::size_t
Artifact::numTelemetryRecords() const
{
    std::size_t n = 0;
    for (const auto &[gpu, g] : groups)
        n += g.telemetry.size();
    return n;
}

std::string
serializeArtifact(const Artifact &artifact)
{
    std::string out;
    out.append(kMagic, sizeof(kMagic));
    putU32(out, kArtifactVersion);
    putU32(out, static_cast<std::uint32_t>(artifact.groups.size()));
    for (const auto &[gpu, g] : artifact.groups) {
        putString(out, gpu);
        putU32(out, static_cast<std::uint32_t>(g.kernels.size()));
        for (const auto &rec : g.kernels)
            putKernelRecord(out, rec);
        // The analysis store is an unordered_map; sort the keys so
        // serialization is byte-deterministic.
        std::vector<const std::string *> keys;
        keys.reserve(g.analyses.size());
        for (const auto &[key, a] : g.analyses) // photon-lint: order-insensitive
            keys.push_back(&key);
        std::sort(keys.begin(), keys.end(),
                  [](const auto *a, const auto *b) { return *a < *b; });
        putU32(out, static_cast<std::uint32_t>(keys.size()));
        for (const std::string *key : keys) {
            putString(out, *key);
            putAnalysis(out, g.analyses.at(*key));
        }
        putU32(out, static_cast<std::uint32_t>(g.telemetry.size()));
        for (const auto &t : g.telemetry)
            putTelemetry(out, t);
    }
    // v5 trace section: std::map iteration is key-sorted, so the
    // section is byte-deterministic. Each trace is its own versioned
    // blob (magic "PHTR") behind a length prefix.
    putU32(out, static_cast<std::uint32_t>(artifact.traces.size()));
    for (const auto &[key, trace] : artifact.traces) {
        putString(out, key);
        std::vector<std::uint8_t> blob;
        func::serializeLaunchTrace(*trace, blob);
        putU64(out, blob.size());
        out.append(reinterpret_cast<const char *>(blob.data()),
                   blob.size());
    }
    return out;
}

LoadStatus
deserializeArtifact(std::string_view bytes, Artifact &out)
{
    out = Artifact{};
    try {
        if (bytes.size() < sizeof(kMagic))
            return LoadStatus::fail("truncated artifact (no magic)");
        if (!std::equal(kMagic, kMagic + sizeof(kMagic), bytes.begin()))
            return LoadStatus::fail("not a Photon artifact (bad magic)");
        Reader body(bytes.substr(sizeof(kMagic)));
        std::uint32_t version = body.u32();
        if (version < 1 || version > kArtifactVersion) {
            std::ostringstream os;
            os << "artifact version mismatch: file has v" << version
               << ", this build reads v1..v" << kArtifactVersion;
            return LoadStatus::fail(os.str());
        }
        std::uint32_t num_groups = body.u32();
        Artifact parsed;
        for (std::uint32_t gi = 0; gi < num_groups; ++gi) {
            std::string gpu = body.str();
            StoreGroup &g = parsed.groups[gpu];
            std::uint32_t num_kernels = body.count(kMinKernelRecordBytes);
            g.kernels.reserve(num_kernels);
            for (std::uint32_t i = 0; i < num_kernels; ++i)
                g.kernels.push_back(getKernelRecord(body));
            std::uint32_t num_analyses = body.u32();
            for (std::uint32_t i = 0; i < num_analyses; ++i) {
                std::string key = body.str();
                g.analyses.emplace(std::move(key), getAnalysis(body));
            }
            if (version >= 2) {
                std::uint32_t num_tele = body.count(kMinTelemetryBytes);
                g.telemetry.reserve(num_tele);
                for (std::uint32_t i = 0; i < num_tele; ++i)
                    g.telemetry.push_back(getTelemetry(body, version));
            }
        }
        if (version >= 5) {
            std::uint32_t num_traces = body.u32();
            for (std::uint32_t i = 0; i < num_traces; ++i) {
                std::string key = body.str();
                std::uint64_t len = body.u64();
                std::string_view blob =
                    body.raw(static_cast<std::size_t>(len));
                auto trace = std::make_shared<func::LaunchTrace>();
                std::string err;
                if (!func::deserializeLaunchTrace(
                        reinterpret_cast<const std::uint8_t *>(
                            blob.data()),
                        blob.size(), *trace, &err))
                    throw ParseError("trace '" + key + "': " + err);
                parsed.traces.emplace(std::move(key), std::move(trace));
            }
        }
        if (!body.atEnd())
            return LoadStatus::fail("trailing bytes after artifact body");
        out = std::move(parsed);
        return {};
    } catch (const ParseError &e) {
        out = Artifact{};
        return LoadStatus::fail(e.what());
    }
}

LoadStatus
saveArtifact(const Artifact &artifact, const std::string &path)
{
    std::string bytes = serializeArtifact(artifact);
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f)
        return LoadStatus::fail("cannot open '" + path + "' for writing");
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    f.flush();
    if (!f)
        return LoadStatus::fail("write to '" + path + "' failed");
    return {};
}

LoadStatus
loadArtifact(const std::string &path, Artifact &out)
{
    out = Artifact{};
    std::ifstream f(path, std::ios::binary);
    if (!f)
        return LoadStatus::fail("cannot open '" + path + "' for reading");
    std::ostringstream os;
    os << f.rdbuf();
    if (f.bad())
        return LoadStatus::fail("read from '" + path + "' failed");
    return deserializeArtifact(os.str(), out);
}

} // namespace photon::service
