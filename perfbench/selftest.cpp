/**
 * @file
 * Self-test of the benchmark's own arithmetic on hand-built inputs.
 * run.py runs it before every benchmark run; a failure stops the run.
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"
#include "tracer.hpp"

namespace {

int failures = 0;

void
expectNear(double got, double want, const char *what)
{
    if (std::fabs(got - want) > 1e-9 * std::max(1.0, std::fabs(want))) {
        std::fprintf(stderr, "selftest FAILED: %s: got %.17g, want %.17g\n",
                     what, got, want);
        ++failures;
    }
}

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(i);
    return v;
}

void
testPercentiles()
{
    using perfbench::percentiles;
    // 100 samples: p95 has only 5 beyond it, p90 has 10.
    perfbench::Percentiles p = percentiles(oneTo(100));
    expectNear(p.p50, 50, "p50 of 1..100");
    expectNear(p.tailPct, 90, "tail percentile of 100 samples");
    expectNear(p.tail, 90, "p90 of 1..100");
    // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
    p = percentiles(oneTo(1000));
    expectNear(p.tailPct, 99, "tail percentile of 1000 samples");
    expectNear(p.tail, 990, "p99 of 1..1000");
    // 40 samples: p75 has 10 beyond it, p90 only 4.
    p = percentiles(oneTo(40));
    expectNear(p.tailPct, 75, "tail percentile of 40 samples");
    expectNear(p.tail, 30, "p75 of 1..40");
    // Below 40 samples no tail percentile qualifies: the median stands in.
    p = percentiles(oneTo(39));
    expectNear(p.tailPct, 50, "tail percentile of 39 samples");
    expectNear(p.tail, p.p50, "tail of 39 samples is the median");
    expectNear(p.p50, 20, "p50 of 1..39");
    expectNear(static_cast<double>(p.count), 39, "sample count");
    expectNear(perfbench::median({4, 1, 3, 2}), 2.5, "even median");
    expectNear(perfbench::median({5, 1, 3}), 3, "odd median");
}

void
testSelfTime()
{
    using perfbench::selfTime;
    // Children [1,3] and [2,5] overlap (union 4); [8,12] sticks out of
    // the parent (2 inside); [11,13] lies outside; [6,6] is empty.
    expectNear(selfTime({0, 10}, {{1, 3}, {2, 5}, {8, 12}, {11, 13}, {6, 6}}),
               4, "self time with overlapping children");
    expectNear(selfTime({0, 10}, {}), 10, "self time without children");
    expectNear(selfTime({0, 10}, {{-1, 20}}), 0, "fully covered span");

    // Layer self time through the tracer: service span [0,10] with two
    // overlapping func children.
    perfbench::Tracer t;
    t.record("service.campaign", "j", -1, 0, 10);
    t.record("func.capture", "j", 0, 1, 3);
    t.record("func.capture", "j", 0, 2, 5);
    auto layers = t.layerSelfTimes();
    expectNear(layers["service"], 6, "service layer self time");
    expectNear(layers["func"], 5, "func layer self time (spans summed)");
}

void
testFormulas()
{
    using namespace perfbench;
    expectNear(errorPct(90, 100), 10, "error_pct under");
    expectNear(errorPct(110, 100), 10, "error_pct over");
    expectNear(errorPct(208957, 272127), 23.213426084144537,
               "error_pct fir-32768");
    expectNear(errorFactor(80, 100), 1.25, "error_factor under");
    expectNear(errorFactor(125, 100), 1.25, "error_factor over");
    expectNear(errorFactor(7, 7), 1, "error_factor exact");
    expectNear(busyFraction({1, 2, 3}, 4, 2), 0.75, "busy fraction");
    expectNear(busyFraction({1}, 0, 2), 0, "busy fraction, no workers");
}

} // namespace

int
main()
{
    testPercentiles();
    testSelfTime();
    testFormulas();
    if (failures)
        return 1;
    std::fprintf(stderr, "perfbench selftest: ok\n");
    return 0;
}
