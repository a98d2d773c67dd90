/**
 * @file
 * Minimal vendored micro-benchmark harness.
 *
 * A self-contained replacement for google-benchmark so the kernel
 * benchmarks build in every environment (bench_micro remains an
 * optional google-benchmark front-end for the same kernels). The
 * harness auto-calibrates an inner iteration count to a target wall
 * time, repeats each benchmark several times, reports the best rep
 * (the standard microbenchmark estimator: least-disturbed run), and
 * writes machine-readable JSON — BENCH_kernels.json — including
 * named speedup pairs so the perf trajectory of a kernel vs. its
 * retained reference path is tracked across PRs. The JSON header
 * records the host core count (host_cores).
 *
 * Usage:
 *   Harness h(parseArgs(argc, argv));
 *   h.run("bitrow/majority3/fused", lanes, [&] { ... one op ... });
 *   h.speedup("majority3 fused vs seed", "bitrow/majority3/seed",
 *             "bitrow/majority3/fused");
 *   return h.finish();
 *
 * Flags: --smoke (1 rep, 1 inner iteration — CI wiring check),
 *        --out=FILE (default BENCH_kernels.json),
 *        --min-time-ms=N (calibration target per rep, default 20),
 *        --reps=N (default 5).
 */

#ifndef SIMDRAM_BENCH_HARNESS_H
#define SIMDRAM_BENCH_HARNESS_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

namespace simdram
{
namespace bench
{

/** Aborts the bench run with a message (sanity check failed). */
[[noreturn]] inline void
fail(const std::string &msg)
{
    std::fprintf(stderr, "BENCH FAILURE: %s\n", msg.c_str());
    std::exit(1);
}

/** Compiler barrier: keeps result objects from being optimized out. */
inline void
doNotOptimize(const void *p)
{
#if defined(_MSC_VER)
    volatile const void *sink = p;
    (void)sink;
#else
    asm volatile("" : : "g"(p) : "memory");
#endif
}

/** Harness configuration (see file comment for the flags). */
struct Options
{
    bool smoke = false;
    std::string out = "BENCH_kernels.json";
    double min_time_ms = 20.0;
    size_t reps = 5;
    /** Schema tag written to the JSON artifact. */
    std::string schema = "simdram-bench-kernels-v1";
};

/**
 * Parses the harness command-line flags (unknown flags are fatal).
 * @p defaults seeds the options, so drivers with their own artifact
 * name/schema (bench_runtime) pass them here and flags still win.
 */
inline Options
parseArgs(int argc, char **argv, Options defaults = Options{})
{
    Options o = std::move(defaults);
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--smoke") {
            o.smoke = true;
        } else if (a.rfind("--out=", 0) == 0) {
            o.out = a.substr(6);
        } else if (a.rfind("--min-time-ms=", 0) == 0) {
            o.min_time_ms = std::stod(a.substr(14));
        } else if (a.rfind("--reps=", 0) == 0) {
            o.reps = static_cast<size_t>(std::stoul(a.substr(7)));
        } else {
            std::fprintf(stderr,
                         "unknown flag: %s\n"
                         "usage: %s [--smoke] [--out=FILE] "
                         "[--min-time-ms=N] [--reps=N]\n",
                         a.c_str(), argv[0]);
            std::exit(2);
        }
    }
    return o;
}

/** Times registered benchmarks and renders a table plus JSON. */
class Harness
{
  public:
    explicit Harness(Options opts) : opts_(std::move(opts)) {}

    /**
     * Times @p fn (one operation per call).
     *
     * @param name Result name, slash-namespaced ("bitrow/maj3/fused").
     * @param items Items processed per op (lanes, elements); reported
     *        as items/s so differently-shaped kernels compare.
     * @param fn The operation under test.
     */
    template <class F>
    void
    run(const std::string &name, size_t items, F &&fn)
    {
        using clock = std::chrono::steady_clock;
        // Calibrate the inner count so one rep lasts ~min_time_ms.
        uint64_t inner = 1;
        if (!opts_.smoke) {
            for (;;) {
                const auto t0 = clock::now();
                for (uint64_t i = 0; i < inner; ++i)
                    fn();
                const double ms =
                    std::chrono::duration<double, std::milli>(
                        clock::now() - t0)
                        .count();
                if (ms >= opts_.min_time_ms || inner >= (1ULL << 30))
                    break;
                const double scale =
                    ms > 0.1 ? opts_.min_time_ms / ms * 1.2 : 16.0;
                inner = std::max<uint64_t>(
                    inner + 1,
                    static_cast<uint64_t>(
                        static_cast<double>(inner) * scale));
            }
        }

        const size_t reps = opts_.smoke ? 1 : opts_.reps;
        double best_ns = 0.0;
        for (size_t r = 0; r < reps; ++r) {
            const auto t0 = clock::now();
            for (uint64_t i = 0; i < inner; ++i)
                fn();
            const double ns =
                std::chrono::duration<double, std::nano>(clock::now() -
                                                         t0)
                    .count() /
                static_cast<double>(inner);
            if (r == 0 || ns < best_ns)
                best_ns = ns;
        }

        Result res;
        res.name = name;
        res.ns_per_op = best_ns;
        res.items = items;
        res.inner = inner;
        res.reps = reps;
        results_.push_back(res);
        std::printf("%-40s %14.1f ns/op %12.1f Mitems/s\n",
                    name.c_str(), best_ns,
                    best_ns > 0.0
                        ? static_cast<double>(items) / best_ns * 1e3
                        : 0.0);
        std::fflush(stdout);
    }

    /**
     * Records a result whose per-operation time was measured (or
     * modeled) externally — e.g. the simulated DRAM latency of a
     * stream from DramStats, where wall clock would measure the
     * simulator host instead of the simulated machine. The entry
     * participates in tables, JSON, and speedup pairs exactly like a
     * run() result.
     */
    void
    record(const std::string &name, size_t items, double ns_per_op)
    {
        Result res;
        res.name = name;
        res.ns_per_op = ns_per_op;
        res.items = items;
        res.inner = 1;
        res.reps = 1;
        results_.push_back(res);
        std::printf("%-40s %14.1f ns/op %12.1f Mitems/s\n",
                    name.c_str(), ns_per_op,
                    ns_per_op > 0.0
                        ? static_cast<double>(items) / ns_per_op *
                              1e3
                        : 0.0);
        std::fflush(stdout);
    }

    /**
     * Records a named speedup pair: how much faster @p fast_name ran
     * than @p slow_name. Both must have been run already.
     */
    void
    speedup(const std::string &name, const std::string &slow_name,
            const std::string &fast_name)
    {
        const Result *slow = find(slow_name);
        const Result *fast = find(fast_name);
        if (slow == nullptr || fast == nullptr) {
            std::fprintf(stderr, "speedup %s: unknown result name\n",
                         name.c_str());
            std::exit(2);
        }
        Speedup s;
        s.name = name;
        s.baseline = slow_name;
        s.fast = fast_name;
        s.factor =
            fast->ns_per_op > 0.0 ? slow->ns_per_op / fast->ns_per_op
                                  : 0.0;
        speedups_.push_back(s);
    }

    /** Prints the speedup table, writes JSON; @return exit code. */
    int
    finish() const
    {
        if (!speedups_.empty()) {
            std::printf("\nSpeedups (baseline / fast):\n");
            for (const Speedup &s : speedups_)
                std::printf("  %-44s %6.2fx\n", s.name.c_str(),
                            s.factor);
        }
        std::ofstream os(opts_.out);
        if (!os) {
            std::fprintf(stderr, "cannot write %s\n",
                         opts_.out.c_str());
            return 1;
        }
        os << "{\n  \"schema\": \"" << opts_.schema << "\",\n";
        os << "  \"mode\": \"" << (opts_.smoke ? "smoke" : "full")
           << "\",\n";
        // Wall-clock results only compare between hosts with the
        // same number of cores backing the worker threads.
        os << "  \"host_cores\": " << std::thread::hardware_concurrency()
           << ",\n";
        // SIMDRAM_USE_AVX2 is a PUBLIC define of the simdram target:
        // it reports whether the *library kernels* were built with
        // the AVX2 intrinsic path (this TU itself is not compiled
        // with -mavx2).
#if defined(SIMDRAM_USE_AVX2)
        os << "  \"avx2\": true,\n";
#else
        os << "  \"avx2\": false,\n";
#endif
        os << "  \"results\": [\n";
        for (size_t i = 0; i < results_.size(); ++i) {
            const Result &r = results_[i];
            os << "    {\"name\": \"" << r.name
               << "\", \"ns_per_op\": " << r.ns_per_op
               << ", \"items_per_op\": " << r.items
               << ", \"inner_iterations\": " << r.inner
               << ", \"reps\": " << r.reps << "}"
               << (i + 1 < results_.size() ? "," : "") << "\n";
        }
        os << "  ],\n  \"speedups\": [\n";
        for (size_t i = 0; i < speedups_.size(); ++i) {
            const Speedup &s = speedups_[i];
            os << "    {\"name\": \"" << s.name << "\", \"baseline\": \""
               << s.baseline << "\", \"fast\": \"" << s.fast
               << "\", \"speedup\": " << s.factor << "}"
               << (i + 1 < speedups_.size() ? "," : "") << "\n";
        }
        os << "  ]\n}\n";
        std::printf("\nwrote %s (%zu results, %zu speedups)\n",
                    opts_.out.c_str(), results_.size(),
                    speedups_.size());
        return 0;
    }

  private:
    struct Result
    {
        std::string name;
        double ns_per_op = 0.0;
        size_t items = 0;
        uint64_t inner = 0;
        size_t reps = 0;
    };

    struct Speedup
    {
        std::string name;
        std::string baseline;
        std::string fast;
        double factor = 0.0;
    };

    const Result *
    find(const std::string &name) const
    {
        for (const Result &r : results_)
            if (r.name == name)
                return &r;
        return nullptr;
    }

    Options opts_;
    std::vector<Result> results_;
    std::vector<Speedup> speedups_;
};

} // namespace bench
} // namespace simdram

#endif // SIMDRAM_BENCH_HARNESS_H
