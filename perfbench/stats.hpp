/**
 * @file
 * The benchmark's own arithmetic, kept free of simulator types so the
 * self-test can check it on hand-built inputs: percentiles under the
 * "highest percentile with at least ten samples beyond it" rule, span
 * self time with overlapping children, and the error and busy-fraction
 * formulas.
 */

#ifndef PERFBENCH_STATS_HPP
#define PERFBENCH_STATS_HPP

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/** A latency summary: the median and the reportable tail. */
struct Percentiles
{
    double p50 = 0.0;
    double tailPct = 50.0; ///< which percentile `tail` is
    double tail = 0.0;
    std::size_t count = 0;
};

/** Nearest-rank value: the smallest sample with at least @p pct % of
 *  the samples at or below it. @p sorted must be ascending, non-empty. */
inline double
nearestRank(const std::vector<double> &sorted, double pct)
{
    const std::size_t n = sorted.size();
    auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, n);
    return sorted[rank - 1];
}

/** Samples ranked after the nearest-rank position of @p pct. */
inline std::size_t
samplesBeyond(std::size_t n, double pct)
{
    auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
    rank = std::clamp<std::size_t>(rank, 1, n);
    return n - rank;
}

/**
 * Median plus the highest of p75/p90/p95/p99/p99.9 that still has at
 * least ten samples beyond it. Below forty samples not even p75
 * qualifies, and the tail is reported as the median.
 */
inline Percentiles
percentiles(std::vector<double> samples)
{
    Percentiles p;
    p.count = samples.size();
    if (samples.empty())
        return p;
    std::sort(samples.begin(), samples.end());
    p.p50 = nearestRank(samples, 50.0);
    p.tail = p.p50;
    for (double pct : {75.0, 90.0, 95.0, 99.0, 99.9}) {
        if (samplesBeyond(samples.size(), pct) < 10)
            break;
        p.tailPct = pct;
        p.tail = nearestRank(samples, pct);
    }
    return p;
}

/** Median of a non-empty sample (mean of the middle pair when even). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** A closed-open time interval [start, end). */
using Interval = std::pair<double, double>;

/**
 * Self time of a span: its duration minus the part of it that its
 * children cover. Children may overlap each other (concurrent
 * requests) and may stick out of the parent; only the union of their
 * intersections with the parent is subtracted.
 */
inline double
selfTime(Interval span, std::vector<Interval> children)
{
    const double dur = span.second - span.first;
    if (dur <= 0.0)
        return 0.0;
    for (Interval &c : children) {
        c.first = std::max(c.first, span.first);
        c.second = std::min(c.second, span.second);
    }
    std::sort(children.begin(), children.end());
    double covered = 0.0;
    double run_start = 0.0, run_end = 0.0;
    bool open = false;
    for (const Interval &c : children) {
        if (c.second <= c.first)
            continue;
        if (open && c.first <= run_end) {
            run_end = std::max(run_end, c.second);
            continue;
        }
        if (open)
            covered += run_end - run_start;
        run_start = c.first;
        run_end = c.second;
        open = true;
    }
    if (open)
        covered += run_end - run_start;
    return dur - covered;
}

/** Relative cycle error of a prediction against the full-detailed
 *  reference, in percent: |fast - full| / full * 100. */
inline double
errorPct(std::uint64_t fast, std::uint64_t full)
{
    if (full == 0)
        return fast == 0 ? 0.0 : 100.0;
    const double f = static_cast<double>(full);
    return std::fabs(static_cast<double>(fast) - f) / f * 100.0;
}

/**
 * Symmetric error factor: max(fast/full, full/fast). 1 means the two
 * predictions agree exactly; it never reaches 0, so a relative bound on
 * it means something even on workloads where Photon is exact.
 */
inline double
errorFactor(std::uint64_t fast, std::uint64_t full)
{
    if (fast == 0 || full == 0)
        return fast == full ? 1.0 : HUGE_VAL;
    const double a = static_cast<double>(fast);
    const double b = static_cast<double>(full);
    return std::max(a / b, b / a);
}

/** Share of the worker pool's capacity spent running jobs:
 *  sum(job wall) / (workers * campaign wall). */
inline double
busyFraction(const std::vector<double> &job_walls, std::uint32_t workers,
             double campaign_wall)
{
    if (workers == 0 || campaign_wall <= 0.0)
        return 0.0;
    double sum = 0.0;
    for (double w : job_walls)
        sum += w;
    return sum / (static_cast<double>(workers) * campaign_wall);
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HPP
