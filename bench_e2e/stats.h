/**
 * @file
 * Exact-sample statistics and the result file of the end-to-end
 * benchmark.
 *
 * Quantiles are read from the sorted raw samples (nearest rank), never
 * from LatencyHistogram: its 12.5% buckets are wider than the
 * regression bounds the benchmark is judged by.
 */

#ifndef SIMDRAM_BENCH_E2E_STATS_H
#define SIMDRAM_BENCH_E2E_STATS_H

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

namespace e2e
{

/** Aborts the run: a set-up or internal check failed. */
[[noreturn]] inline void
fail(const std::string &msg)
{
    std::fprintf(stderr, "bench_e2e: %s\n", msg.c_str());
    std::exit(1);
}

/** Raw samples with exact nearest-rank quantiles. */
class Samples
{
  public:
    void add(double x) { v_.push_back(x); }

    size_t size() const { return v_.size(); }

    /** @return The q-quantile (0 <= q <= 1); 0 when empty. */
    double
    quantile(double q) const
    {
        if (v_.empty())
            return 0.0;
        std::vector<double> s(v_);
        std::sort(s.begin(), s.end());
        const double r = std::ceil(q * static_cast<double>(s.size()));
        const size_t i = r < 1.0 ? 0 : static_cast<size_t>(r) - 1;
        return s[std::min(i, s.size() - 1)];
    }

  private:
    std::vector<double> v_;
};

/** One reported metric: value, unit, and how many samples it rests on. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    size_t samples = 1;
};

/** The metrics of one workload run, in report order. */
class MetricSet
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit,
        size_t samples = 1)
    {
        if (has(name))
            fail("metric reported twice: " + name);
        m_.push_back(Metric{name, value, unit, samples});
    }

    bool
    has(const std::string &name) const
    {
        for (const Metric &m : m_)
            if (m.name == name)
                return true;
        return false;
    }

    const std::vector<Metric> &all() const { return m_; }

  private:
    std::vector<Metric> m_;
};

/** @return Peak resident set size of this process, MiB. */
inline double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** @return Host cores, as recorded in every result header. */
inline unsigned
hostCores()
{
    return std::thread::hardware_concurrency();
}

/** What one workload run checked, for the result header. */
struct Outcome
{
    /** Units of work whose output was checked. */
    size_t attempted = 0;
    /** Of those: shed, errored, or produced a wrong output. */
    size_t failed = 0;
    /** Wrong outputs (a subset of failed); any makes the run
     *  incorrect. */
    size_t mismatched = 0;
};

/**
 * Writes one workload's result file: the header (workload, seed,
 * host_cores, mode, outcome) and every metric with its unit and
 * sample count. Numbers carry all 17 significant digits.
 */
inline bool
writeResult(const std::string &path, const std::string &workload,
            unsigned long long seed, double seconds, bool smoke,
            bool traced, const Outcome &out, const MetricSet &ms)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f,
                 "{\n  \"schema\": \"simdram-bench-e2e-v1\",\n"
                 "  \"workload\": \"%s\",\n  \"seed\": %llu,\n"
                 "  \"seconds\": %.17g,\n  \"host_cores\": %u,\n"
                 "  \"mode\": \"%s\",\n  \"trace\": %s,\n"
                 "  \"correct\": %s,\n  \"attempted\": %zu,\n"
                 "  \"failed\": %zu,\n  \"mismatched\": %zu,\n"
                 "  \"metrics\": {\n",
                 workload.c_str(), seed, seconds, hostCores(),
                 smoke ? "smoke" : "full", traced ? "true" : "false",
                 out.mismatched == 0 ? "true" : "false", out.attempted,
                 out.failed, out.mismatched);
    const auto &all = ms.all();
    for (size_t i = 0; i < all.size(); ++i) {
        const Metric &m = all[i];
        std::fprintf(f,
                     "    \"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                     "\"samples\": %zu}%s\n",
                     m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                     m.unit.c_str(), m.samples,
                     i + 1 < all.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    return std::fclose(f) == 0;
}

} // namespace e2e

#endif // SIMDRAM_BENCH_E2E_STATS_H
