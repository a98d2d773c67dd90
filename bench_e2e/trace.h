/**
 * @file
 * Tracing for the end-to-end benchmark: spans recorded from the
 * benchmark's own files, around its calls into each layer.
 *
 * A span has a name, start and end (ns from the run epoch), a parent,
 * and the id of the request, stream or job it belongs to. Spans stay
 * in memory and are written as Chrome trace-event JSON at exit. A
 * span's self time is its duration minus what its children cover; the
 * self times under one end-to-end span sum to that span, which is how
 * the per-layer shares are computed. A span may also LINK to a span it
 * shares with other requests (one coalesced batch serves up to eight
 * requests): the linked subtree counts as a child of each.
 *
 * TimedExecutor is the bench-local decorator that times the runtime
 * layer: it is a StreamExecutor whose writeObject / submit /
 * readObject record their host time. Every layer above calls these
 * through a virtual interface (StreamService, or the StreamExecutor
 * the TenantExecutor holds), so handing a TimedExecutor to a workload
 * instead of a bare StreamExecutor is the only change tracing makes.
 * Before each real submit it re-runs the submit-path stages on a copy
 * of the program — BbopValidator, runPasses, analyzeStream against a
 * snapshot of the object table — to split the submit time by stage.
 */

#ifndef SIMDRAM_BENCH_E2E_TRACE_H
#define SIMDRAM_BENCH_E2E_TRACE_H

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "analysis/stream_analyzer.h"
#include "isa/validate.h"
#include "open_loop.h"
#include "runtime/stream_executor.h"
#include "stream/passes.h"

namespace e2e
{

/** One traced interval. */
struct Span
{
    const char *name = "";
    int64_t t0 = 0;
    int64_t t1 = 0;
    int32_t parent = -1;
    int32_t link = -1;
    uint64_t id = 0;
    uint32_t tid = 0; ///< Chrome track: 0 = generator/client.
};

/** Self time per span name under a set of end-to-end spans. */
struct Breakdown
{
    std::map<std::string, double> selfNs;
    double rootNs = 0.0;
    size_t roots = 0;
};

/** The spans of one traced phase. */
class SpanSet
{
  public:
    /** Appends a span (end clamped to start); @return its index. */
    int32_t
    add(const char *name, int64_t t0, int64_t t1, int32_t parent = -1,
        uint64_t id = 0, uint32_t tid = 0)
    {
        Span s;
        s.name = name;
        s.t0 = t0;
        s.t1 = std::max(t0, t1);
        s.parent = parent;
        s.id = id;
        s.tid = tid;
        spans_.push_back(s);
        return static_cast<int32_t>(spans_.size() - 1);
    }

    /** Makes @p target's subtree a shared child of @p from. */
    void link(int32_t from, int32_t target) { spans_[from].link = target; }

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Walks every parentless span named @p root and sums self time per
     * span name over its subtree (links followed). The root's own self
     * time is the time no child span covers.
     */
    Breakdown
    breakdown(const char *root) const
    {
        std::vector<std::vector<int32_t>> kids(spans_.size());
        for (size_t i = 0; i < spans_.size(); ++i)
            if (spans_[i].parent >= 0)
                kids[spans_[i].parent].push_back(static_cast<int32_t>(i));
        std::vector<double> self(spans_.size());
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            double covered = 0.0;
            for (int32_t k : kids[i])
                covered += overlap(spans_[k], s);
            if (s.link >= 0)
                covered += overlap(spans_[s.link], s);
            self[i] = std::max(0.0, static_cast<double>(s.t1 - s.t0) -
                                        covered);
        }
        Breakdown b;
        std::vector<int32_t> stack;
        for (size_t r = 0; r < spans_.size(); ++r) {
            const Span &rs = spans_[r];
            if (rs.parent >= 0 || std::string(rs.name) != root)
                continue;
            ++b.roots;
            b.rootNs += static_cast<double>(rs.t1 - rs.t0);
            stack.assign(1, static_cast<int32_t>(r));
            while (!stack.empty()) {
                const int32_t i = stack.back();
                stack.pop_back();
                b.selfNs[spans_[i].name] += self[i];
                for (int32_t k : kids[i])
                    stack.push_back(k);
                if (spans_[i].link >= 0)
                    stack.push_back(spans_[i].link);
            }
        }
        return b;
    }

    /**
     * Writes the first @p cap spans as Chrome trace-event JSON
     * (complete events, us timestamps); @return false on I/O error.
     */
    bool
    writeChrome(const std::string &path, size_t cap) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        const size_t n = std::min(cap, spans_.size());
        std::fprintf(f, "{\"traceEvents\": [\n");
        for (size_t i = 0; i < n; ++i) {
            const Span &s = spans_[i];
            std::fprintf(
                f,
                "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                "{\"span\": %zu, \"parent\": %d, \"link\": %d, "
                "\"id\": %llu}}%s\n",
                s.name, s.tid, static_cast<double>(s.t0) / 1e3,
                static_cast<double>(s.t1 - s.t0) / 1e3, i, s.parent,
                s.link, static_cast<unsigned long long>(s.id),
                i + 1 < n ? "," : "");
        }
        std::fprintf(f,
                     "],\n\"otherData\": {\"spans\": %zu, "
                     "\"written\": %zu}}\n",
                     spans_.size(), n);
        return std::fclose(f) == 0;
    }

  private:
    static double
    overlap(const Span &a, const Span &b)
    {
        const int64_t lo = std::max(a.t0, b.t0);
        const int64_t hi = std::min(a.t1, b.t1);
        return hi > lo ? static_cast<double>(hi - lo) : 0.0;
    }

    std::vector<Span> spans_;
};

/** One timed call into the runtime layer. */
struct ExecCall
{
    enum Kind : uint8_t
    {
        Write,
        Read,
        Submit,
    };
    Kind kind = Submit;
    /** The real call, ns from the run epoch. */
    int64_t t0 = 0;
    int64_t t1 = 0;
    /** Submit: when the stage re-run started (it ends at t0). */
    int64_t rerun0 = 0;
    /** Submit: one run of each submit-path stage on this program. */
    double validateNs = 0.0;
    double passesNs = 0.0;
    double lintNs = 0.0;
    /** Submit: instructions in the submitted program. */
    size_t instructions = 0;
    /** Submit: time blocked on a full device queue (Block policy), as
     *  its StreamResult reports; filled in by a caller that sees it. */
    double backpressureNs = 0.0;
};

/** A StreamExecutor that records every host-visible call it serves. */
class TimedExecutor final : public simdram::StreamExecutor
{
  public:
    TimedExecutor(simdram::DeviceGroup &group,
                  simdram::StreamExecutorOptions opts,
                  Clock::time_point epoch)
        : StreamExecutor(group, opts), epoch_(epoch)
    {}

    using StreamExecutor::submit;

    uint16_t
    defineObject(size_t elements, size_t bits) override
    {
        const uint16_t id = StreamExecutor::defineObject(elements, bits);
        size_t cur = objects_.load();
        while (cur < size_t{id} + 1u &&
               !objects_.compare_exchange_weak(cur, size_t{id} + 1u)) {
        }
        return id;
    }

    void
    writeObject(uint16_t id, const std::vector<uint64_t> &data) override
    {
        ExecCall c;
        c.kind = ExecCall::Write;
        c.t0 = now();
        StreamExecutor::writeObject(id, data);
        c.t1 = now();
        record(c);
    }

    std::vector<uint64_t>
    readObject(uint16_t id) override
    {
        ExecCall c;
        c.kind = ExecCall::Read;
        c.t0 = now();
        std::vector<uint64_t> out = StreamExecutor::readObject(id);
        c.t1 = now();
        record(c);
        return out;
    }

    simdram::StreamHandle
    submit(const std::vector<simdram::BbopInstr> &stream) override
    {
        ExecCall c = rerun(simdram::StreamIR::lift(stream));
        c.t0 = now();
        simdram::StreamHandle h = StreamExecutor::submit(stream);
        c.t1 = now();
        record(c);
        return h;
    }

    std::vector<simdram::StreamHandle>
    submit(const simdram::StreamIR &ir) override
    {
        ExecCall c = rerun(ir);
        c.t0 = now();
        std::vector<simdram::StreamHandle> hs = StreamExecutor::submit(ir);
        c.t1 = now();
        record(c);
        return hs;
    }

    /** @return Every call recorded so far, clearing the record. */
    std::vector<ExecCall>
    takeCalls()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return std::exchange(calls_, {});
    }

  private:
    int64_t now() const { return nsSince(epoch_, Clock::now()); }

    void
    record(const ExecCall &c)
    {
        std::lock_guard<std::mutex> lock(mu_);
        calls_.push_back(c);
    }

    /**
     * Times one run of each submit-path stage on @p ir against a
     * snapshot of the object table taken now, before the real submit
     * changes it: validation of the submitted program, the optimizer
     * passes on a copy, and the lint of the optimized copy.
     */
    ExecCall
    rerun(const simdram::StreamIR &ir)
    {
        using namespace simdram;
        ExecCall c;
        c.kind = ExecCall::Submit;
        c.instructions = ir.nodes.size();
        c.rerun0 = now();
        BbopObjectTable table;
        for (size_t id = 0; id < objects_.load(); ++id) {
            try {
                const BbopObjectShape s =
                    objectShape(static_cast<uint16_t>(id));
                table.define(s.elements, s.bits, s.vertical);
            } catch (const BbopError &) {
                table.define(0, 1); // released id: a tombstone
            }
        }
        int64_t t = now();
        try {
            BbopValidator v(table);
            for (const StreamNode &n : ir.nodes)
                v.check(n.instr);
        } catch (const BbopError &) {
            // The real submit rejects it the same way.
        }
        c.validateNs = static_cast<double>(now() - t);
        t = now();
        StreamIR opt = ir;
        runPasses(opt, PassOptions{options().enableTrspHoist,
                                   options().enableDeadWriteElim,
                                   options().enableFusion});
        c.passesNs = static_cast<double>(now() - t);
        t = now();
        if (options().lintMode != LintMode::Off)
            analyzeStream(opt, table,
                          AnalyzerOptions{EntryAssumption::FromView});
        c.lintNs = static_cast<double>(now() - t);
        return c;
    }

    Clock::time_point epoch_;
    std::atomic<size_t> objects_{0};
    std::mutex mu_;
    std::vector<ExecCall> calls_;
};

} // namespace e2e

#endif // SIMDRAM_BENCH_E2E_TRACE_H
