/**
 * @file
 * Open-loop load generation for the end-to-end benchmark, and the
 * serving phase built on it.
 *
 * Arrivals follow a seeded Poisson schedule fixed before the phase
 * starts, so the offered load never depends on how fast the system
 * under test happens to be. One generator thread sends each request at
 * its due time; when it falls behind (a blocking submit, a descheduled
 * core) it sends the backlog as fast as it can, and every request is
 * timed from when it was DUE, not from when it was sent. That is what
 * keeps a stall from hiding its own cost (coordinated omission): the
 * requests that queued up behind it report the whole wait.
 */

#ifndef SIMDRAM_BENCH_E2E_OPEN_LOOP_H
#define SIMDRAM_BENCH_E2E_OPEN_LOOP_H

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "serve/request_coalescer.h"
#include "stats.h"

namespace e2e
{

using Clock = std::chrono::steady_clock;

/** @return Nanoseconds from @p a to @p b. */
inline int64_t
nsSince(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

/** One scheduled arrival. */
struct Arrival
{
    int64_t dueNs = 0; ///< Offset from the phase start.
    uint32_t kind = 0; ///< Index into the caller's weights.
    uint32_t item = 0; ///< Which pre-built input of that kind.
};

/** @return An index drawn with probability proportional to @p weights. */
inline uint32_t
pickKind(simdram::Rng &rng, const std::vector<double> &weights)
{
    double total = 0.0;
    for (double w : weights)
        total += w;
    double pick = rng.uniform() * total;
    uint32_t kind = 0;
    while (kind + 1 < weights.size() && pick >= weights[kind])
        pick -= weights[kind++];
    return kind;
}

/**
 * @return Poisson arrivals at @p rate per second over @p seconds, each
 *         tagged with a kind drawn from @p weights (relative shares)
 *         and an input index below @p items. Same seed, same schedule.
 */
inline std::vector<Arrival>
poissonSchedule(uint64_t seed, double rate, double seconds,
                const std::vector<double> &weights, uint32_t items)
{
    simdram::Rng rng(seed);
    std::vector<Arrival> out;
    out.reserve(static_cast<size_t>(rate * seconds * 1.1) + 16);
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - rng.uniform()) / rate;
        if (t >= seconds)
            break;
        Arrival a;
        a.dueNs = static_cast<int64_t>(t * 1e9);
        a.kind = pickKind(rng, weights);
        a.item = static_cast<uint32_t>(rng.below(items));
        out.push_back(a);
    }
    return out;
}

/**
 * Calls submit(arrival, due, sent) for every arrival of @p sched at
 * its due time past @p start, on the calling thread. It sleeps until
 * each due time and never spins: a spinning generator takes a core
 * the system under test needs (see README.md, "shed requests").
 */
template <class Submit>
void
runOpenLoop(Clock::time_point start, const std::vector<Arrival> &sched,
            Submit &&submit)
{
    for (const Arrival &a : sched) {
        const auto due = start + std::chrono::nanoseconds(a.dueNs);
        std::this_thread::sleep_until(due);
        submit(a, due, Clock::now());
    }
}

/**
 * One collector thread that hands every pushed item, in order, to a
 * handler. The destructor (or finish()) lets it drain and joins it, so
 * an exception on the generator side cannot leave it running.
 */
template <class T>
class Collector
{
  public:
    template <class Handler>
    explicit Collector(Handler handler)
        : thread_([this, handler]() mutable {
              T x;
              while (pop(x))
                  handler(x);
          })
    {}

    ~Collector() { finish(); }

    Collector(const Collector &) = delete;
    Collector &operator=(const Collector &) = delete;

    void
    push(T x)
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            q_.push_back(std::move(x));
        }
        cv_.notify_one();
    }

    /** No more pushes: drains what is queued and joins the thread. */
    void
    finish()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            closed_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable())
            thread_.join();
    }

  private:
    bool
    pop(T &out)
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return !q_.empty() || closed_; });
        if (q_.empty())
            return false;
        out = std::move(q_.front());
        q_.pop_front();
        return true;
    }

    std::mutex mu_;
    std::condition_variable cv_;
    std::deque<T> q_;
    bool closed_ = false;
    std::thread thread_; ///< Last: it uses the members above.
};

/**
 * Sleeps in short steps until @p h completes. The collectors poll
 * instead of blocking in wait(): one wake-up per ~half millisecond
 * rather than one per request keeps the benchmark's own threads from
 * competing with the system under test. Latency is read from the
 * library's own clocks, so polling adds no error to it.
 */
template <class Handle>
void
pollUntilDone(const Handle &h)
{
    while (!h.done())
        std::this_thread::sleep_for(std::chrono::microseconds(500));
}

/** Pre-built requests of one coalescer class, with host answers. */
struct RequestPool
{
    uint32_t cls = 0; ///< Coalescer class id.
    std::vector<std::vector<std::vector<uint64_t>>> inputs;
    /** Host reference output per input; empty = not checked. */
    std::vector<std::vector<uint64_t>> expected;
};

/** Timing of one served request, ns offsets from the run epoch. */
struct ServedRequest
{
    int64_t dueNs = 0;
    int64_t sentNs = 0;
    double queueNs = 0.0;
    double executeNs = 0.0;
    double totalNs = 0.0;
};

/** What one open-loop serving phase observed. */
struct ServePhase
{
    size_t offered = 0;
    size_t shed = 0;
    size_t errors = 0;
    size_t mismatched = 0;
    /** Due time to result, ms, every completed request. */
    Samples latencyMs;
    /** The same, split by request kind. */
    std::vector<Samples> kindLatencyMs;
    /** How late the generator sent each request, us. */
    Samples lateUs;
    Samples queueUs;
    Samples executeUs;
    /** Batches dispatched (each request counts 1/batchSize). */
    double batches = 0.0;
    double wallNs = 0.0;
    /** Per-request timings, kept only when asked for (tracing). */
    std::vector<ServedRequest> log;
};

/**
 * Offers @p sched to @p co from the calling thread (the only load
 * generator) while one collector thread waits on the futures in
 * arrival order, checks every output against its pool's host answer,
 * and times each request from its due time: (sent - due) plus the
 * coalescer's own arrival-to-result clock. Drains before returning.
 */
inline ServePhase
runServePhase(simdram::RequestCoalescer &co,
              const std::vector<RequestPool> &pools,
              const std::vector<Arrival> &sched, Clock::time_point epoch,
              bool keepLog)
{
    struct Inflight
    {
        simdram::ServeFuture f;
        Arrival a;
        int64_t dueNs = 0;
        int64_t sentNs = 0;
    };

    ServePhase ph;
    ph.offered = sched.size();
    ph.kindLatencyMs.resize(pools.size());
    Collector<Inflight> collector([&](Inflight &it) {
        pollUntilDone(it.f);
        simdram::ServeResult r;
        try {
            r = it.f.wait();
        } catch (...) {
            ++ph.errors;
            return;
        }
        const RequestPool &pool = pools[it.a.kind];
        if (!pool.expected.empty() && r.output != pool.expected[it.a.item])
            ++ph.mismatched;
        const double lat =
            static_cast<double>(it.sentNs - it.dueNs) + r.totalNs;
        ph.latencyMs.add(lat / 1e6);
        ph.kindLatencyMs[it.a.kind].add(lat / 1e6);
        ph.queueUs.add(r.queueNs / 1e3);
        ph.executeUs.add(r.executeNs / 1e3);
        ph.batches += 1.0 / static_cast<double>(r.batchSize);
        if (keepLog)
            ph.log.push_back(ServedRequest{it.dueNs, it.sentNs, r.queueNs,
                                           r.executeNs, r.totalNs});
    });

    // A short lead so the collector is parked before the first due.
    const auto start = Clock::now() + std::chrono::milliseconds(2);
    runOpenLoop(start, sched,
                [&](const Arrival &a, Clock::time_point due,
                    Clock::time_point sent) {
                    ph.lateUs.add(nsSince(due, sent) / 1e3);
                    try {
                        simdram::ServeFuture f = co.submit(
                            pools[a.kind].cls,
                            pools[a.kind].inputs[a.item]);
                        collector.push(Inflight{std::move(f), a,
                                                nsSince(epoch, due),
                                                nsSince(epoch, sent)});
                    } catch (const simdram::RequestShedError &) {
                        ++ph.shed;
                    }
                });
    co.drain();
    ph.wallNs = static_cast<double>(nsSince(start, Clock::now()));
    collector.finish();
    return ph;
}

} // namespace e2e

#endif // SIMDRAM_BENCH_E2E_OPEN_LOOP_H
