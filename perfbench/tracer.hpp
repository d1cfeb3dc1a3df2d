/**
 * @file
 * In-memory span recorder for the traced run. Spans are taken in the
 * benchmark's own code around calls into the library's public API; the
 * library itself carries no spans. A span's name is "<layer>.<call>",
 * where the layer is the library module called (workloads, func,
 * timing, sampling, driver, service, serve); "bench.*" spans are the
 * benchmark's own grouping roots.
 */

#ifndef PERFBENCH_TRACER_HPP
#define PERFBENCH_TRACER_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct SpanRecord
{
    std::string name;
    std::string job; ///< spans of one job share this id
    double start = 0.0; ///< seconds since the tracer was created
    double end = 0.0;
    std::int64_t id = 0;
    std::int64_t parent = -1; ///< -1 for a root span
};

class Tracer
{
  public:
    Tracer() : epoch_(std::chrono::steady_clock::now()) {}
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    double
    now() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    /** Open a span; the caller closes it with close(). */
    std::int64_t
    open(const std::string &name, const std::string &job,
         std::int64_t parent)
    {
        std::lock_guard<std::mutex> lock(mu_);
        SpanRecord r;
        r.name = name;
        r.job = job;
        r.start = now();
        r.id = static_cast<std::int64_t>(spans_.size());
        r.parent = parent;
        spans_.push_back(std::move(r));
        return spans_.back().id;
    }

    void
    close(std::int64_t id)
    {
        const double t = now();
        std::lock_guard<std::mutex> lock(mu_);
        spans_[static_cast<std::size_t>(id)].end = t;
    }

    /** Record an already-timed interval (e.g. a request measured from
     *  its due time on another thread). */
    void
    record(const std::string &name, const std::string &job,
           std::int64_t parent, double start, double end)
    {
        std::lock_guard<std::mutex> lock(mu_);
        SpanRecord r{name, job, start, end,
                     static_cast<std::int64_t>(spans_.size()), parent};
        spans_.push_back(std::move(r));
    }

    std::vector<SpanRecord>
    spans() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return spans_;
    }

    /** Self time summed per layer (the span name up to the first '.'). */
    std::map<std::string, double>
    layerSelfTimes() const
    {
        std::vector<SpanRecord> all = spans();
        std::vector<std::vector<Interval>> children(all.size());
        for (const SpanRecord &s : all)
            if (s.parent >= 0)
                children[static_cast<std::size_t>(s.parent)].push_back(
                    {s.start, s.end});
        std::map<std::string, double> out;
        for (const SpanRecord &s : all) {
            const std::string layer = s.name.substr(0, s.name.find('.'));
            out[layer] += selfTime({s.start, s.end},
                                   children[static_cast<std::size_t>(
                                       s.id)]);
        }
        return out;
    }

    /** One JSON object per line: name, job, start, end, id, parent. */
    void
    write(std::ostream &os) const
    {
        for (const SpanRecord &s : spans())
            os << "{\"name\":\"" << s.name << "\",\"job\":\"" << s.job
               << "\",\"start\":" << s.start << ",\"end\":" << s.end
               << ",\"id\":" << s.id << ",\"parent\":" << s.parent
               << "}\n";
    }

  private:
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<SpanRecord> spans_;
};

/**
 * RAII span. With a null tracer it records nothing, so the timed runs
 * and the traced run share one code path. Parents are passed
 * explicitly: the caller's own span id (or -1).
 */
class Span
{
  public:
    Span(Tracer *tracer, const std::string &name, const std::string &job,
         std::int64_t parent = -1)
        : tracer_(tracer),
          id_(tracer ? tracer->open(name, job, parent) : -1)
    {}
    ~Span()
    {
        if (tracer_)
            tracer_->close(id_);
    }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::int64_t id() const { return id_; }

  private:
    Tracer *tracer_;
    std::int64_t id_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HPP
