/**
 * @file
 * photon_lint against the checked-in fixtures: the good fixture is
 * clean, seeded violations are detected at exact locations with the
 * expected traces, and the waivers suppress exactly their sites.
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint.hpp"

using photon::lint::Diagnostic;
using photon::lint::Kind;

namespace {

std::string
fixture(const std::string &name)
{
    return std::string(LINT_FIXTURE_DIR) + "/" + name;
}

std::vector<Diagnostic>
ofKind(const std::vector<Diagnostic> &diags, Kind kind)
{
    std::vector<Diagnostic> out;
    for (const Diagnostic &d : diags) {
        if (d.kind == kind)
            out.push_back(d);
    }
    return out;
}

bool
contains(const std::string &haystack, const std::string &needle)
{
    return haystack.find(needle) != std::string::npos;
}

} // namespace

TEST(PhotonLint, GoodFixtureIsClean)
{
    auto diags = photon::lint::analyzeFiles({fixture("good.cpp")});
    for (const Diagnostic &d : diags)
        ADD_FAILURE() << photon::lint::formatDiagnostic(d);
    EXPECT_TRUE(diags.empty());
}

TEST(PhotonLint, DeterminismViolationsDetected)
{
    auto diags = photon::lint::analyzeFiles({fixture("nondet.cpp")});
    ASSERT_EQ(diags.size(), 6u);

    auto nondet = ofKind(diags, Kind::NondeterministicCall);
    ASSERT_EQ(nondet.size(), 3u);
    EXPECT_EQ(nondet[0].line, 16); // rand
    EXPECT_TRUE(contains(nondet[0].message, "'rand'"));
    EXPECT_EQ(nondet[1].line, 22); // time
    EXPECT_TRUE(contains(nondet[1].message, "'time'"));
    EXPECT_EQ(nondet[2].line, 28); // std::random_device
    EXPECT_TRUE(contains(nondet[2].message, "random_device"));

    auto unordered = ofKind(diags, Kind::UnorderedIteration);
    ASSERT_EQ(unordered.size(), 1u);
    EXPECT_EQ(unordered[0].line, 36);
    EXPECT_TRUE(contains(unordered[0].message, "sumValues"));

    auto ptr = ofKind(diags, Kind::PointerKeyedOrder);
    ASSERT_EQ(ptr.size(), 1u);
    EXPECT_EQ(ptr[0].line, 41);

    auto uninit = ofKind(diags, Kind::UninitializedMember);
    ASSERT_EQ(uninit.size(), 1u);
    EXPECT_EQ(uninit[0].line, 8);
    EXPECT_TRUE(contains(uninit[0].message, "NondetStats::misses_"));
}

TEST(PhotonLint, AosInHotPathDetectedAndWaivable)
{
    auto diags = photon::lint::analyzeFiles({fixture("aos.cpp")});
    for (const Diagnostic &d : diags)
        EXPECT_EQ(d.kind, Kind::AosInHotPath)
            << photon::lint::formatDiagnostic(d);
    auto aos = ofKind(diags, Kind::AosInHotPath);
    ASSERT_EQ(aos.size(), 2u);
    EXPECT_EQ(aos[0].line, 33); // std::vector<Particle> particles_
    EXPECT_TRUE(contains(aos[0].message, "HotEngine::particles_"));
    EXPECT_TRUE(contains(aos[0].message, "'Particle'"));
    EXPECT_TRUE(contains(aos[0].message, "'vector'"));
    EXPECT_EQ(aos[1].line, 35); // std::deque<Particle> retired_
    EXPECT_TRUE(contains(aos[1].message, "'deque'"));
    std::string text = photon::lint::formatDiagnostic(aos[0]);
    EXPECT_TRUE(contains(text, "[aos-in-hot-path]"));
    // xs_ (scalar lane), ids_ (single-member wrapper) and the
    // aos-ok-waived spawnQueue_ produced no findings — covered by the
    // exact count above.
}

TEST(PhotonLint, AosCheckNeedsMarkerAndCanBeDisabled)
{
    // The same aggregates in a file without the soa-hot-path marker
    // are fine: good.cpp stays clean (checked elsewhere), and the aos
    // fixture goes quiet when the check is off.
    photon::lint::Options no_aos;
    no_aos.aosCheck = false;
    EXPECT_TRUE(
        photon::lint::analyzeFiles({fixture("aos.cpp")}, no_aos)
            .empty());
}

TEST(PhotonLint, WholeProgramMergeAcrossFiles)
{
    // Declarations and definitions merge by (class, name); analyzing
    // the clean fixture alongside a violating one must not change the
    // findings.
    auto diags = photon::lint::analyzeFiles(
        {fixture("good.cpp"), fixture("lockset.cpp")});
    EXPECT_EQ(diags.size(), 8u);
}

TEST(PhotonLint, ChecksCanBeDisabledIndependently)
{
    photon::lint::Options no_det;
    no_det.determinismCheck = false;
    EXPECT_TRUE(
        photon::lint::analyzeFiles({fixture("nondet.cpp")}, no_det)
            .empty());
}

TEST(PhotonLint, FormatIncludesKindSlugAndChain)
{
    auto diags = photon::lint::analyzeFiles({fixture("lockset.cpp")});
    auto writes = ofKind(diags, Kind::UnguardedSharedWrite);
    ASSERT_FALSE(writes.empty());
    std::string text = photon::lint::formatDiagnostic(writes[0]);
    EXPECT_TRUE(contains(text, "[unguarded-shared-write]"));
    EXPECT_TRUE(contains(text, "lockset.cpp:25"));
    EXPECT_TRUE(contains(text, "call chain:"));
    EXPECT_TRUE(contains(text, "Counters::badAdd"));
}

TEST(PhotonLint, LocksetFixtureExactDiagnostics)
{
    auto diags = photon::lint::analyzeFiles({fixture("lockset.cpp")});
    ASSERT_EQ(diags.size(), 8u);

    auto writes = ofKind(diags, Kind::UnguardedSharedWrite);
    ASSERT_EQ(writes.size(), 7u);
    // badAdd: no lock at all.
    EXPECT_EQ(writes[0].line, 25);
    EXPECT_TRUE(contains(writes[0].message, "Counters::total_"));
    EXPECT_TRUE(contains(writes[0].message, "PHOTON_GUARDED_BY('mu_')"));
    // wrongMutex: otherMu_ held, mu_ required.
    EXPECT_EQ(writes[1].line, 32);
    // branchy: only the unguarded fall-through write is flagged; the
    // guarded early-return write at line 41 is silent.
    EXPECT_EQ(writes[2].line, 44);
    for (const Diagnostic &d : writes)
        EXPECT_NE(d.line, 41) << photon::lint::formatDiagnostic(d);
    // guardReleasedEarly: full CFG-path trace — entry, acquire,
    // scope-end release, then the offending write.
    EXPECT_EQ(writes[3].line, 53);
    ASSERT_EQ(writes[3].chain.size(), 4u);
    EXPECT_TRUE(
        contains(writes[3].chain[0], "Counters::guardReleasedEarly"));
    EXPECT_TRUE(contains(writes[3].chain[1], "lock 'mu_' acquired"));
    EXPECT_TRUE(contains(writes[3].chain[1], ":51"));
    EXPECT_TRUE(contains(writes[3].chain[2], "lock 'mu_' released"));
    EXPECT_TRUE(contains(writes[3].chain[2], ":52"));
    EXPECT_TRUE(
        contains(writes[3].chain[3], "unguarded write to 'total_'"));
    // unlockInLoop: explicit .unlock() before the write.
    EXPECT_EQ(writes[4].line, 63);
    // badPush: mutating method on a guarded container.
    EXPECT_EQ(writes[5].line, 70);
    EXPECT_TRUE(contains(writes[5].message, "Counters::log_"));
    // Plain::bump: plain SHARED_STATE field, no lock, untagged writer.
    EXPECT_EQ(writes[6].line, 122);
    EXPECT_TRUE(contains(writes[6].message, "shared_"));
    EXPECT_TRUE(contains(writes[6].message, "lockset-ok"));

    auto calls = ofKind(diags, Kind::RequiresLockCall);
    ASSERT_EQ(calls.size(), 1u);
    EXPECT_EQ(calls[0].line, 103);
    EXPECT_TRUE(contains(calls[0].message, "'addLocked'"));
    EXPECT_TRUE(contains(calls[0].message,
                         "PHOTON_REQUIRES_LOCK('mu_')"));
    // goodAdd, commitAdd, the lockset-ok waiver, the REQUIRES_LOCK
    // body itself and the locked caller are all silent — covered by
    // the exact count above.
}

TEST(PhotonLint, TaintFixtureExactDiagnostics)
{
    // The token-level determinism check is off so the flow-sensitive
    // taint findings can be counted exactly.
    photon::lint::Options opts;
    opts.determinismCheck = false;
    auto diags =
        photon::lint::analyzeFiles({fixture("taint.cpp")}, opts);
    ASSERT_EQ(diags.size(), 7u);
    for (const Diagnostic &d : diags)
        EXPECT_EQ(d.kind, Kind::TaintedSink)
            << photon::lint::formatDiagnostic(d);

    // directSource: rand() straight into the sink argument.
    EXPECT_EQ(diags[0].line, 21);
    EXPECT_TRUE(contains(diags[0].message, "'emitResult'"));
    EXPECT_TRUE(contains(diags[0].message, "argument 1"));

    // assignmentChain: the report carries the full source-to-sink
    // chain through both assignments.
    EXPECT_EQ(diags[1].line, 30);
    ASSERT_EQ(diags[1].chain.size(), 4u);
    EXPECT_TRUE(contains(diags[1].chain[0], "source: call to 'rand'"));
    EXPECT_TRUE(contains(diags[1].chain[0], ":28"));
    EXPECT_TRUE(contains(diags[1].chain[1], "assigned to 'seed'"));
    EXPECT_TRUE(contains(diags[1].chain[2], "assigned to 'cooked'"));
    EXPECT_TRUE(contains(diags[1].chain[3],
                         "passed as argument 1 to determinism sink"));

    // viaReturn: taint crosses a function boundary via the callee's
    // return summary.
    EXPECT_EQ(diags[2].line, 43);
    ASSERT_EQ(diags[2].chain.size(), 4u);
    EXPECT_TRUE(contains(diags[2].chain[0], "source: call to 'rand'"));
    EXPECT_TRUE(
        contains(diags[2].chain[1], "returned from 'freshSeed'"));
    EXPECT_TRUE(contains(diags[2].chain[2], "assigned to 'v'"));

    // pointerCast: allocation-order-dependent integer.
    EXPECT_EQ(diags[3].line, 50);
    EXPECT_TRUE(
        contains(diags[3].chain[0], "pointer-to-integer"));

    // viaThreadId: thread identity laundered through a helper.
    EXPECT_EQ(diags[4].line, 63);
    EXPECT_TRUE(contains(diags[4].chain[0], "this_thread::get_id"));
    EXPECT_TRUE(
        contains(diags[4].chain[2], "returned from 'threadTag'"));

    // unorderedWalk: hash-order iteration taints the loop variable.
    EXPECT_EQ(diags[5].line, 70);
    EXPECT_TRUE(contains(diags[5].chain[0],
                         "iteration over unordered container 'table'"));

    // Accumulator::absorb: tainted write into a DET_SINK field.
    EXPECT_EQ(diags[6].line, 80);
    EXPECT_TRUE(
        contains(diags[6].message, "Accumulator::total_"));

    // killedBeforeSink (strong update), sessionNonce /
    // viaSessionNonce (PHOTON_DET_SOURCE_OK) and waivedSink
    // (taint-ok) are silent — covered by the exact count above.
}

TEST(PhotonLint, MultiLineWaiversBindToNextCodeLine)
{
    auto diags =
        photon::lint::analyzeFiles({fixture("waiver_multiline.cpp")});
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].kind, Kind::NondeterministicCall);
    EXPECT_EQ(diags[0].line, 23); // only notWaived() fires
}

TEST(PhotonLint, LocksetAndTaintCanBeDisabledIndependently)
{
    photon::lint::Options no_lockset;
    no_lockset.locksetCheck = false;
    EXPECT_TRUE(photon::lint::analyzeFiles({fixture("lockset.cpp")},
                                           no_lockset)
                    .empty());

    photon::lint::Options no_taint;
    no_taint.determinismCheck = false;
    no_taint.taintCheck = false;
    EXPECT_TRUE(
        photon::lint::analyzeFiles({fixture("taint.cpp")}, no_taint)
            .empty());
}

TEST(PhotonLint, JsonOutputIsWellFormed)
{
    auto diags = photon::lint::analyzeFiles({fixture("lockset.cpp")});
    ASSERT_FALSE(diags.empty());
    std::string doc = photon::lint::formatDiagnosticsJson(diags);
    EXPECT_EQ(doc.front(), '[');
    EXPECT_TRUE(contains(doc, "\"kind\": \"unguarded-shared-write\""));
    EXPECT_TRUE(contains(doc, "\"kind\": \"requires-lock-call\""));
    EXPECT_TRUE(contains(doc, "\"line\": 25"));
    EXPECT_TRUE(contains(doc, "\"chain\": ["));
    // The escaper must keep embedded quotes and backslashes parseable.
    Diagnostic tricky;
    tricky.kind = Kind::TaintedSink;
    tricky.file = "a\\b.cpp";
    tricky.message = "say \"hi\"\n";
    std::string esc = photon::lint::formatDiagnosticsJson({tricky});
    EXPECT_TRUE(contains(esc, "a\\\\b.cpp"));
    EXPECT_TRUE(contains(esc, "\\\"hi\\\"\\n"));
    EXPECT_EQ(photon::lint::formatDiagnosticsJson({}), "[]\n");
}
