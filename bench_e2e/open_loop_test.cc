/**
 * @file
 * Coordinated-omission test of the open-loop serving phase.
 *
 * A fake StreamService stalls the coalescer's dispatcher for 50 ms
 * once. With a small Block-mode admission budget the stall backs up
 * into the generator, which then sends the requests due during the
 * stall late. A closed-loop or send-timed measurement would hide that
 * wait; the phase must instead (1) report every request due during
 * the stall with at least its full wait from its due time, and (2)
 * show the stall in the generator's lateness p99.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "open_loop.h"
#include "serve/workloads.h"

namespace
{

using namespace simdram;
using e2e::Clock;

/** Records nothing, computes nothing; stalls once after @p after. */
class StallingService : public StreamService
{
  public:
    StallingService(Clock::time_point after, std::chrono::milliseconds len)
        : after_(after), len_(len)
    {}

    uint16_t
    defineObject(size_t elements, size_t bits) override
    {
        shapes_.push_back({elements, bits, false});
        return static_cast<uint16_t>(shapes_.size() - 1);
    }

    void releaseObject(uint16_t) override {}

    void
    writeObject(uint16_t, const std::vector<uint64_t> &) override
    {
        if (stalled_ || Clock::now() < after_)
            return;
        stalled_ = true;
        stallStart = Clock::now();
        std::this_thread::sleep_for(len_);
        stallEnd = Clock::now();
    }

    std::vector<uint64_t>
    readObject(uint16_t id) override
    {
        return std::vector<uint64_t>(shapes_.at(id).elements, 0);
    }

    BbopObjectShape
    objectShape(uint16_t id) const override
    {
        if (id >= shapes_.size())
            bbopError("StallingService: unknown object");
        return shapes_[id];
    }

    StreamHandle submit(const std::vector<BbopInstr> &) override
    {
        return {};
    }

    std::vector<StreamHandle> submit(const StreamIR &) override
    {
        return {};
    }

    void sync() override {}

    /** Set by the dispatcher thread; read after the phase drained. */
    Clock::time_point stallStart, stallEnd;

  private:
    Clock::time_point after_;
    std::chrono::milliseconds len_;
    bool stalled_ = false;
    std::vector<BbopObjectShape> shapes_;
};

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL: %s\n", what);
        ++failures;
    }
}

} // namespace

int
main()
{
    const auto epoch = Clock::now();
    StallingService svc(epoch + std::chrono::milliseconds(200),
                        std::chrono::milliseconds(50));
    RequestCoalescer co(svc, CoalescerOptions{8, 200.0, 16,
                                              AdmissionPolicy::Block});
    const TpchFilterSpec spec{64, 32};
    e2e::RequestPool pool;
    pool.cls = co.registerClass(tpchFilterClass(spec));
    pool.inputs.push_back(
        tpchFilterRequest(spec, std::vector<uint64_t>(64, 7), 3));

    // 2 k rps for 0.6 s: ~100 requests fall due inside the stall.
    const auto sched = e2e::poissonSchedule(42, 2000.0, 0.6, {1.0}, 1);
    e2e::ServePhase ph = e2e::runServePhase(co, {pool}, sched, epoch,
                                            /*keepLog=*/true);
    const int64_t s0 = e2e::nsSince(epoch, svc.stallStart);
    const int64_t s1 = e2e::nsSince(epoch, svc.stallEnd);

    check(s1 - s0 >= 50000000, "the service stalled for 50 ms");
    check(ph.shed == 0 && ph.errors == 0, "Block admission, no errors");
    check(ph.log.size() == ph.offered, "every request completed");
    size_t during = 0, underReported = 0, sentLate = 0;
    for (const e2e::ServedRequest &r : ph.log) {
        if (r.dueNs < s0 || r.dueNs >= s1)
            continue;
        ++during;
        const double fromDue =
            static_cast<double>(r.sentNs - r.dueNs) + r.totalNs;
        // 50 us slack: the coalescer stamps arrival just after the
        // benchmark stamps the send.
        if (fromDue < static_cast<double>(s1 - r.dueNs) - 50000.0)
            ++underReported;
        if (r.sentNs - r.dueNs > 10000000)
            ++sentLate;
    }
    std::printf("requests due during the stall: %zu, sent >10 ms late: "
                "%zu, under-reported: %zu, generator lateness p99: "
                "%.0f us\n",
                during, sentLate, underReported, ph.lateUs.quantile(0.99));
    check(during >= 50, "requests fell due during the stall");
    check(sentLate > 0, "the stall blocked the generator");
    check(underReported == 0,
          "requests due during the stall report their full wait");
    check(ph.lateUs.quantile(0.99) >= 10000.0,
          "generator lateness p99 shows the stall");
    if (failures == 0)
        std::printf("open_loop_test: OK\n");
    return failures == 0 ? 0 : 1;
}
