#include "sampling/stability.hpp"

#include <algorithm>
#include <cmath>

#include "sim/log.hpp"

namespace photon::sampling {

StabilityDetector::StabilityDetector(std::uint32_t window, double delta)
    : window_(window), delta_(delta)
{
    PHOTON_ASSERT(window_ >= 2, "window too small");
    issue_.reserve(2 * window_);
    retire_.reserve(2 * window_);
}

void
StabilityDetector::addPoint(double issue_time, double retired_time)
{
    std::size_t cap = std::size_t{2} * window_;
    if (issue_.size() < cap) {
        issue_.push_back(issue_time);
        retire_.push_back(retired_time);
    } else {
        std::size_t pos = total_ % cap;
        issue_[pos] = issue_time;
        retire_[pos] = retired_time;
    }
    ++total_;
    dirty_ = true;
}

void
StabilityDetector::reset()
{
    issue_.clear();
    retire_.clear();
    total_ = 0;
    dirty_ = true;
}

void
StabilityDetector::computeIfDirty() const
{
    if (!dirty_)
        return;
    dirty_ = false;
    fitDirty_ = true;
    stable_ = false;
    meanRecent_ = 0.0;
    meanPrev_ = 0.0;
    drift_ = 0.0;

    std::size_t cap = std::size_t{2} * window_;
    if (total_ < cap)
        return; // need the full 2n history for the local-optimum guard

    // Sum both windows straight off the ring, oldest point first (the
    // ring's oldest entry sits at total_ % cap once it has wrapped).
    double sum_recent = 0.0, sum_prev = 0.0;
    for (std::size_t i = 0; i < window_; ++i) {
        std::size_t prev = (total_ + i) % cap;
        std::size_t recent = (total_ + window_ + i) % cap;
        sum_prev += retire_[prev] - issue_[prev];
        sum_recent += retire_[recent] - issue_[recent];
    }
    meanRecent_ = sum_recent / window_;
    meanPrev_ = sum_prev / window_;

    // Stability: the mean execution time of the last n points must
    // agree with the n before them (the paper's local-optimum guard,
    // promoted to the primary criterion). Within-window regression of
    // execution time against issue time is length-biased at this event
    // density — points enter the window at retire time, so long
    // executions are systematically paired with early issues — which is
    // why the across-window comparison carries the decision. The caller
    // adds persistence across several checks (SwitchGovernor).
    double denom = std::max(std::abs(meanPrev_), 1e-9);
    drift_ = (meanRecent_ - meanPrev_) / denom;
    if (std::abs(drift_) >= delta_)
        return;
    stable_ = true;
}

bool
StabilityDetector::stable() const
{
    computeIfDirty();
    return stable_;
}

LineFit
StabilityDetector::recentFit() const
{
    computeIfDirty();
    if (!fitDirty_)
        return fit_;
    fitDirty_ = false;
    fit_ = LineFit{};
    std::size_t cap = std::size_t{2} * window_;
    if (total_ < cap)
        return fit_;
    // The paper fits retired time against issue time over the last n
    // points and tests |a - 1| < delta; it interprets a ~ 1 as "the
    // execution time of basic blocks is not related to its issue
    // time". The fit is kept for reporting (Figures 3/4) only, so it
    // is built on demand; computeIfDirty() explains why the stability
    // decision uses window means at this event density.
    std::vector<double> xs(window_), ys(window_);
    for (std::size_t i = 0; i < window_; ++i) {
        std::size_t pos = (total_ + window_ + i) % cap;
        xs[i] = issue_[pos];
        ys[i] = retire_[pos];
    }
    fit_ = leastSquares(xs, ys);
    return fit_;
}

double
StabilityDetector::meanExecTime() const
{
    computeIfDirty();
    if (total_ >= std::size_t{2} * window_)
        return meanRecent_;
    // Not enough history for the windowed mean: fall back to all points.
    double sum = 0.0;
    std::size_t n = issue_.size();
    if (n == 0)
        return 0.0;
    for (std::size_t i = 0; i < n; ++i)
        sum += retire_[i] - issue_[i];
    return sum / static_cast<double>(n);
}

double
StabilityDetector::relativeDrift() const
{
    computeIfDirty();
    return drift_;
}

double
StabilityDetector::previousMeanExecTime() const
{
    computeIfDirty();
    return meanPrev_;
}

StabilitySnapshot
StabilityDetector::snapshot() const
{
    computeIfDirty();
    StabilitySnapshot s;
    s.points = total_;
    LineFit fit = recentFit();
    s.slope = fit.a;
    s.slopeValid = fit.valid;
    s.drift = drift_;
    s.meanRecent = meanRecent_;
    s.meanPrev = meanPrev_;
    s.stable = stable_;
    return s;
}

} // namespace photon::sampling
