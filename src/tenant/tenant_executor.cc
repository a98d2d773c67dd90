#include "tenant/tenant_executor.h"

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace simdram
{

namespace detail
{

/** Shared completion state of one tenant stream. */
struct TenantStreamState
{
    std::mutex mu;
    std::condition_variable cv;
    /** The stream reached the physical executor (or failed there). */
    bool dispatched = false;
    bool done = false;
    /** First error: dispatch-time validation or execution. */
    std::exception_ptr error;
    /** Physical handles, one per final segment (set at dispatch). */
    std::vector<StreamHandle> inner;
    TenantStreamResult result;
    /** Tenant-side submit entry: origin of the e2e clock. */
    std::chrono::steady_clock::time_point t0;
};

} // namespace detail

/** One admitted, not-yet-dispatched stream (ids already physical). */
struct TenantExecutor::PendingStream
{
    StreamIR ir;
    std::shared_ptr<detail::TenantStreamState> st;
    /** DRR cost: instruction count of the stream. */
    size_t cost = 1;
};

/** One dispatched stream awaiting completion. */
struct TenantExecutor::ReapJob
{
    uint32_t tid = 0;
    std::shared_ptr<detail::TenantStreamState> st;
};

/** Everything the executor tracks about one tenant. */
struct TenantExecutor::TenantState
{
    TenantConfig cfg;
    bool dead = false;

    /** The namespace: virtual id = index. Slots are never reused. */
    struct Obj
    {
        uint16_t phys = kNoObject;
        size_t elements = 0;
        size_t bits = 0;
        bool released = false;
    };
    std::vector<Obj> objs;

    /** Admitted (queued or dispatched), not yet completed. */
    size_t inflight = 0;
    std::deque<PendingStream> pending;
    /** DRR deficit, in instructions. */
    size_t deficit = 0;
    /** inflight dropped / tenant died. condition_variable_any: the
     *  waits hold the executor's annotated Mutex via UniqueLock. */
    std::condition_variable_any admit_cv;

    TenantStats stats;
    LatencyHistogram lat;
    std::unique_ptr<StreamService> viewSvc;
};

/**
 * A tenant's StreamService facade: every id is a virtual id of that
 * tenant, every operation delegates to the owning TenantExecutor.
 */
class TenantView : public StreamService
{
  public:
    TenantView(TenantExecutor &te, uint32_t tid)
        : te_(&te), tid_(tid)
    {}

    uint16_t defineObject(size_t elements, size_t bits) override
    {
        return te_->defineObject(tid_, elements, bits);
    }
    void releaseObject(uint16_t id) override
    {
        te_->releaseObject(tid_, id);
    }
    void writeObject(uint16_t id,
                     const std::vector<uint64_t> &data) override
    {
        te_->writeObject(tid_, id, data);
    }
    std::vector<uint64_t> readObject(uint16_t id) override
    {
        return te_->readObject(tid_, id);
    }
    BbopObjectShape objectShape(uint16_t id) const override
    {
        return te_->objectShape(tid_, id);
    }
    StreamHandle submit(const std::vector<BbopInstr> &stream) override
    {
        // A raw stream is a one-segment program: exactly one handle.
        return te_->submitForHandles(tid_, StreamIR::lift(stream))
            .front();
    }
    std::vector<StreamHandle> submit(const StreamIR &ir) override
    {
        return te_->submitForHandles(tid_, ir);
    }
    void sync() override { te_->drainTenant(tid_); }

  private:
    TenantExecutor *te_;
    uint32_t tid_;
};

TenantExecutor::TenantExecutor(StreamExecutor &ex,
                               TenantExecutorOptions opts)
    : ex_(&ex), opts_(opts)
{
    if (opts_.quantumInstructions == 0)
        fatal("TenantExecutor: quantumInstructions must be >= 1");
    reaper_ = std::thread([this] { reaperMain(); });
    if (!opts_.manualDispatch)
        scheduler_ = std::thread([this] { schedulerMain(); });
}

TenantExecutor::~TenantExecutor()
{
    drain();
    {
        MutexLock lock(mu_);
        stop_ = true;
        sched_cv_.notify_all();
        reap_cv_.notify_all();
    }
    if (scheduler_.joinable())
        scheduler_.join();
    reaper_.join();
}

TenantExecutor::TenantState &
TenantExecutor::tenantLocked(uint32_t tid) const
{
    if (tid >= tenants_.size())
        fatal("TenantExecutor: unknown tenant id " +
              std::to_string(tid));
    TenantState &t = *tenants_[tid];
    if (t.dead)
        fatal("TenantExecutor: tenant '" + t.cfg.name +
              "' is unregistered");
    return t;
}

uint32_t
TenantExecutor::registerTenant(TenantConfig cfg)
{
    if (cfg.weight == 0)
        fatal("TenantExecutor: tenant weight must be >= 1");
    MutexLock lock(mu_);
    auto t = std::make_unique<TenantState>();
    t->cfg = std::move(cfg);
    tenants_.push_back(std::move(t));
    const uint32_t tid = static_cast<uint32_t>(tenants_.size() - 1);
    tenants_[tid]->viewSvc =
        std::make_unique<TenantView>(*this, tid);
    return tid;
}

void
TenantExecutor::unregisterTenant(uint32_t tid)
{
    drainTenant(tid);
    std::vector<uint16_t> toRelease;
    {
        MutexLock lock(mu_);
        TenantState &t = tenantLocked(tid);
        for (auto &o : t.objs)
            if (!o.released) {
                toRelease.push_back(o.phys);
                o.released = true;
            }
        fleet_.liveObjects -= t.stats.liveObjects;
        fleet_.liveObjectBits -= t.stats.liveObjectBits;
        t.stats.liveObjects = 0;
        t.stats.liveObjectBits = 0;
        t.dead = true;
        t.deficit = 0;
        // Any Block-mode submitter still waiting must observe the
        // death and fail instead of hanging.
        t.admit_cv.notify_all();
    }
    // The group allocations go back to the devices; each release
    // syncs the executor, so this never races in-flight streams.
    for (uint16_t phys : toRelease)
        ex_->releaseObject(phys);
}

size_t
TenantExecutor::tenantCount() const
{
    MutexLock lock(mu_);
    size_t live = 0;
    for (const auto &t : tenants_)
        if (!t->dead)
            ++live;
    return live;
}

uint16_t
TenantExecutor::defineObject(uint32_t tid, size_t elements,
                             size_t bits)
{
    const size_t cost = elements * bits;
    {
        MutexLock lock(mu_);
        TenantState &t = tenantLocked(tid);
        // Quota check BEFORE any effect: a rejected define leaves
        // both namespaces and budgets exactly as they were. Object
        // quotas always throw — TenantQuotaPolicy governs streams
        // only (waiting cannot free objects).
        if (t.cfg.maxObjects != 0 &&
            t.stats.liveObjects >= t.cfg.maxObjects)
            throw TenantQuotaError(
                "TenantExecutor: tenant '" + t.cfg.name +
                "' object budget exhausted (" +
                std::to_string(t.cfg.maxObjects) + " objects)");
        if (t.cfg.maxObjectBits != 0 &&
            t.stats.liveObjectBits + cost > t.cfg.maxObjectBits)
            throw TenantQuotaError(
                "TenantExecutor: tenant '" + t.cfg.name +
                "' bit budget exhausted (" +
                std::to_string(t.cfg.maxObjectBits) + " bits)");
        // Reserve under the lock; rolled back if the physical define
        // fails below.
        t.stats.liveObjects += 1;
        t.stats.liveObjectBits += cost;
        fleet_.liveObjects += 1;
        fleet_.liveObjectBits += cost;
    }

    uint16_t phys = kNoObject;
    try {
        phys = ex_->defineObject(elements, bits);
    } catch (...) {
        MutexLock lock(mu_);
        TenantState &t = *tenants_[tid];
        t.stats.liveObjects -= 1;
        t.stats.liveObjectBits -= cost;
        fleet_.liveObjects -= 1;
        fleet_.liveObjectBits -= cost;
        throw;
    }

    MutexLock lock(mu_);
    TenantState &t = *tenants_[tid];
    t.objs.push_back(TenantState::Obj{phys, elements, bits, false});
    return static_cast<uint16_t>(t.objs.size() - 1);
}

void
TenantExecutor::releaseObject(uint32_t tid, uint16_t vid)
{
    // Drain first so the release lands in the tenant's program
    // order: its queued streams may still reference the object.
    drainTenant(tid);
    uint16_t phys = kNoObject;
    {
        MutexLock lock(mu_);
        TenantState &t = tenantLocked(tid);
        if (vid >= t.objs.size() || t.objs[vid].released)
            bbopError("TenantExecutor: tenant '" + t.cfg.name +
                      "': unknown object id d" +
                      std::to_string(vid));
        TenantState::Obj &o = t.objs[vid];
        o.released = true;
        phys = o.phys;
        const size_t cost = o.elements * o.bits;
        t.stats.liveObjects -= 1;
        t.stats.liveObjectBits -= cost;
        fleet_.liveObjects -= 1;
        fleet_.liveObjectBits -= cost;
    }
    ex_->releaseObject(phys);
}

void
TenantExecutor::writeObject(uint32_t tid, uint16_t vid,
                            const std::vector<uint64_t> &data)
{
    // Host accesses are per-tenant barriers (mirroring the physical
    // executor, whose write/read sync()): queued streams of this
    // tenant complete first, so the write lands in program order.
    drainTenant(tid);
    uint16_t phys = kNoObject;
    {
        MutexLock lock(mu_);
        TenantState &t = tenantLocked(tid);
        if (vid >= t.objs.size() || t.objs[vid].released)
            bbopError("TenantExecutor: tenant '" + t.cfg.name +
                      "': unknown object id d" +
                      std::to_string(vid));
        phys = t.objs[vid].phys;
    }
    ex_->writeObject(phys, data);
}

std::vector<uint64_t>
TenantExecutor::readObject(uint32_t tid, uint16_t vid)
{
    drainTenant(tid);
    uint16_t phys = kNoObject;
    {
        MutexLock lock(mu_);
        TenantState &t = tenantLocked(tid);
        if (vid >= t.objs.size() || t.objs[vid].released)
            bbopError("TenantExecutor: tenant '" + t.cfg.name +
                      "': unknown object id d" +
                      std::to_string(vid));
        phys = t.objs[vid].phys;
    }
    return ex_->readObject(phys);
}

BbopObjectShape
TenantExecutor::objectShape(uint32_t tid, uint16_t vid) const
{
    uint16_t phys = kNoObject;
    {
        MutexLock lock(mu_);
        const TenantState &t = tenantLocked(tid);
        if (vid >= t.objs.size() || t.objs[vid].released)
            bbopError("TenantExecutor: tenant '" + t.cfg.name +
                      "': unknown object id d" +
                      std::to_string(vid));
        phys = t.objs[vid].phys;
    }
    return ex_->objectShape(phys);
}

void
TenantExecutor::translateInstr(const TenantState &t,
                               BbopInstr &in) const
{
    auto tr = [&](uint16_t vid) -> uint16_t {
        if (vid >= t.objs.size() || t.objs[vid].released)
            bbopError("TenantExecutor: tenant '" + t.cfg.name +
                      "': unknown object id d" +
                      std::to_string(vid));
        return t.objs[vid].phys;
    };
    // Translate exactly the fields that name objects; immediate
    // fields (Init's 36-bit constant in src1/src2/sel, the shifts'
    // amount in sel) pass through untouched. After this, no field
    // the executor dereferences can carry an untranslated id — a
    // tenant physically cannot address another tenant's objects.
    switch (in.opcode) {
      case BbopOpcode::Trsp:
      case BbopOpcode::TrspInv:
      case BbopOpcode::Init:
        in.dst = tr(in.dst);
        return;
      case BbopOpcode::ShiftL:
      case BbopOpcode::ShiftR:
        in.dst = tr(in.dst);
        in.src1 = tr(in.src1);
        return;
      case BbopOpcode::Op:
        in.dst = tr(in.dst);
        in.src1 = tr(in.src1);
        // Unused operand slots hold kNoObject; a real operand id can
        // never collide with it (both tables cap below kNoObject).
        if (in.src2 != kNoObject)
            in.src2 = tr(in.src2);
        if (in.sel != kNoObject)
            in.sel = tr(in.sel);
        return;
    }
    bbopError("TenantExecutor: unknown opcode " +
              std::to_string(static_cast<int>(in.opcode)));
}

StreamIR
TenantExecutor::translateLocked(const TenantState &t,
                                const StreamIR &ir) const
{
    StreamIR out = ir;
    for (auto &n : out.nodes)
        translateInstr(t, n.instr);
    return out;
}

TenantStreamHandle
TenantExecutor::submit(uint32_t tid,
                       const std::vector<BbopInstr> &stream)
{
    return submit(tid, StreamIR::lift(stream));
}

TenantStreamHandle
TenantExecutor::submit(uint32_t tid, const StreamIR &ir)
{
    return submitTranslated(tid, ir);
}

TenantStreamHandle
TenantExecutor::submitTranslated(uint32_t tid, const StreamIR &ir)
{
    const auto entry = std::chrono::steady_clock::now();
    auto st = std::make_shared<detail::TenantStreamState>();
    st->t0 = entry;
    {
        UniqueLock lock(mu_);
        TenantState &t = tenantLocked(tid);
        // Translation first: an unknown/foreign/released id throws
        // the typed BbopError HERE, synchronously, before the stream
        // can reach validation or any queue — side-effect-free.
        StreamIR translated = translateLocked(t, ir);

        // Stream quota, layered above the executor's device queues.
        if (t.cfg.maxPendingStreams != 0 &&
            t.inflight >= t.cfg.maxPendingStreams) {
            if (t.cfg.onFull == TenantQuotaPolicy::Shed) {
                ++t.stats.shed;
                ++fleet_.shed;
                throw TenantQuotaError(
                    "TenantExecutor: tenant '" + t.cfg.name +
                    "' stream quota exhausted (" +
                    std::to_string(t.cfg.maxPendingStreams) +
                    " streams in flight)");
            }
            // Block: wait for this tenant's own streams to complete.
            // Only mu_ is held, so dispatch and reaping continue.
            // Explicit loop (not the predicate overload) so the
            // thread-safety analysis sees the guarded reads in a
            // scope that holds mu_.
            while (!t.dead &&
                   t.inflight >= t.cfg.maxPendingStreams)
                t.admit_cv.wait(lock);
            if (t.dead)
                fatal("TenantExecutor: tenant '" + t.cfg.name +
                      "' unregistered while blocked on quota");
        }

        ++t.inflight;
        ++t.stats.submitted;
        ++fleet_.submitted;
        PendingStream p;
        p.cost = std::max<size_t>(1, translated.nodes.size());
        p.ir = std::move(translated);
        p.st = st;
        t.pending.push_back(std::move(p));
        sched_cv_.notify_one();
    }
    TenantStreamHandle h;
    h.state_ = std::move(st);
    return h;
}

std::vector<StreamHandle>
TenantExecutor::submitForHandles(uint32_t tid, const StreamIR &ir)
{
    TenantStreamHandle h = submitTranslated(tid, ir);
    // Under manualDispatch nothing else drives the scheduler, so a
    // view submit pumps inline (still strict DRR order — the pump
    // drains every tenant's due work, not just ours).
    if (opts_.manualDispatch)
        pump();
    auto &st = *h.state_;
    std::unique_lock<std::mutex> lock(st.mu);
    st.cv.wait(lock, [&] { return st.dispatched; });
    if (st.error)
        std::rethrow_exception(st.error);
    return st.inner;
}

bool
TenantExecutor::anyPendingLocked() const
{
    for (const auto &t : tenants_)
        if (!t->dead && !t->pending.empty())
            return true;
    return false;
}

size_t
TenantExecutor::totalInflightLocked() const
{
    size_t n = 0;
    for (const auto &t : tenants_)
        n += t->inflight;
    return n;
}

bool
TenantExecutor::pickLocked(uint32_t &tid, PendingStream &job)
{
    const size_t n = tenants_.size();
    if (n == 0)
        return false;
    // Deficit round robin: each visit to a backlogged tenant grants
    // weight × quantum instructions; the head stream dispatches once
    // the accumulated deficit covers its cost, so weights translate
    // to instruction shares while the deficit carry-over keeps
    // expensive streams from starving.
    for (;;) {
        if (!anyPendingLocked())
            return false;
        for (size_t i = 0; i < n; ++i) {
            TenantState &t = *tenants_[cursor_];
            if (t.dead || t.pending.empty()) {
                t.deficit = 0;
                granted_ = false;
                cursor_ = (cursor_ + 1) % n;
                continue;
            }
            if (!granted_) {
                t.deficit +=
                    t.cfg.weight * opts_.quantumInstructions;
                granted_ = true;
            }
            if (t.pending.front().cost <= t.deficit) {
                t.deficit -= t.pending.front().cost;
                tid = static_cast<uint32_t>(cursor_);
                job = std::move(t.pending.front());
                t.pending.pop_front();
                if (t.pending.empty()) {
                    // Standard DRR: an emptied queue forfeits its
                    // leftover deficit (no banking while idle).
                    t.deficit = 0;
                    granted_ = false;
                }
                if (opts_.recordDispatchOrder)
                    dispatch_order_.push_back(tid);
                return true;
            }
            // Not enough deficit yet: carry it, move on.
            granted_ = false;
            cursor_ = (cursor_ + 1) % n;
        }
    }
}

bool
TenantExecutor::dispatchNext()
{
    uint32_t tid = 0;
    PendingStream job;
    {
        MutexLock lock(mu_);
        if (!pickLocked(tid, job))
            return false;
    }

    // Physical submission OUTSIDE mu_: it may block on the
    // executor's own backpressure, and validation errors must only
    // fail THIS stream.
    std::vector<StreamHandle> inner;
    std::exception_ptr err;
    try {
        inner = ex_->submit(job.ir);
    } catch (...) {
        err = std::current_exception();
    }

    if (!err) {
        {
            std::lock_guard<std::mutex> lock(job.st->mu);
            job.st->dispatched = true;
            job.st->inner = std::move(inner);
            job.st->cv.notify_all();
        }
        MutexLock lock(mu_);
        reap_.push_back(ReapJob{tid, std::move(job.st)});
        reap_cv_.notify_one();
        return true;
    }

    // Rejected at validation: the executor enqueued nothing, so the
    // stream completes here — failed, isolated to its tenant. Settle
    // before resolving (see reaperMain).
    MutexLock lock(mu_);
    TenantState &t = *tenants_[tid];
    ++t.stats.failed;
    ++fleet_.failed;
    --t.inflight;
    t.admit_cv.notify_all();
    {
        std::lock_guard<std::mutex> slock(job.st->mu);
        job.st->dispatched = true;
        job.st->error = err;
        job.st->done = true;
        job.st->cv.notify_all();
    }
    drain_cv_.notify_all();
    return true;
}

void
TenantExecutor::pump()
{
    // One dispatcher at a time, so executor submission order is
    // exactly the DRR pick order. Never hold mu_ around this.
    MutexLock lock(dispatch_mu_);
    while (dispatchNext()) {
    }
}

void
TenantExecutor::drain()
{
    for (;;) {
        pump();
        UniqueLock lock(mu_);
        if (reap_.empty() && totalInflightLocked() == 0)
            return;
        if (anyPendingLocked())
            continue; // raced with a submitter: dispatch again
        while (!(reap_.empty() && totalInflightLocked() == 0) &&
               !anyPendingLocked())
            drain_cv_.wait(lock);
        if (reap_.empty() && totalInflightLocked() == 0)
            return;
    }
}

void
TenantExecutor::drainTenant(uint32_t tid)
{
    for (;;) {
        pump();
        UniqueLock lock(mu_);
        TenantState &t = tenantLocked(tid);
        if (t.inflight == 0)
            return;
        if (!t.pending.empty())
            continue;
        while (t.inflight != 0 && t.pending.empty())
            drain_cv_.wait(lock);
        if (t.inflight == 0)
            return;
    }
}

StreamService &
TenantExecutor::view(uint32_t tid)
{
    MutexLock lock(mu_);
    return *tenantLocked(tid).viewSvc;
}

TenantStats
TenantExecutor::stats(uint32_t tid) const
{
    MutexLock lock(mu_);
    if (tid >= tenants_.size())
        fatal("TenantExecutor: unknown tenant id " +
              std::to_string(tid));
    return tenants_[tid]->stats;
}

TenantStats
TenantExecutor::fleetStats() const
{
    MutexLock lock(mu_);
    return fleet_;
}

const LatencyHistogram &
TenantExecutor::latency(uint32_t tid) const
{
    MutexLock lock(mu_);
    if (tid >= tenants_.size())
        fatal("TenantExecutor: unknown tenant id " +
              std::to_string(tid));
    return tenants_[tid]->lat;
}

LatencyHistogram
TenantExecutor::fleetLatency() const
{
    MutexLock lock(mu_);
    LatencyHistogram out;
    for (const auto &t : tenants_)
        out.merge(t->lat);
    return out;
}

std::vector<uint32_t>
TenantExecutor::dispatchOrder() const
{
    MutexLock lock(mu_);
    return dispatch_order_;
}

void
TenantExecutor::schedulerMain()
{
    for (;;) {
        {
            UniqueLock lock(mu_);
            while (!stop_ && !anyPendingLocked())
                sched_cv_.wait(lock);
            if (stop_ && !anyPendingLocked())
                return;
        }
        pump();
    }
}

void
TenantExecutor::reaperMain()
{
    for (;;) {
        ReapJob job;
        {
            UniqueLock lock(mu_);
            while (!stop_ && reap_.empty())
                reap_cv_.wait(lock);
            if (reap_.empty())
                return; // stop requested and everything reaped
            job = std::move(reap_.front());
            reap_.pop_front();
        }

        // Wait for the physical handles OUTSIDE mu_. FIFO reaping is
        // safe: the executor completes streams in submission order,
        // so the front job finishes no later than any behind it.
        detail::TenantStreamState &st = *job.st;
        TenantStreamResult res;
        std::exception_ptr err;
        for (auto &h : st.inner) {
            try {
                res.segments.push_back(h.wait());
            } catch (...) {
                if (!err)
                    err = std::current_exception();
                // A failed segment still carries its recovery
                // accounting (attempts, faultsDetected): collect the
                // result non-throwingly so chargeback and the
                // per-tenant fault counters see the whole story.
                res.segments.push_back(h.waitResult());
            }
        }
        for (const StreamResult &r : res.segments) {
            res.compute = merge(res.compute, r.compute);
            res.transfer = merge(res.transfer, r.transfer);
            res.instructions += r.instructions;
            res.cachedInstructions += r.cachedInstructions;
            res.optimizedInstructions += r.optimizedInstructions;
        }
        res.e2eNs = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - st.t0)
                        .count();
        const double e2e = res.e2eNs;

        // Classify the failure by type so a noisy device is visible
        // per tenant: integrity faults and missed deadlines get their
        // own counters next to the generic failed/shed split.
        bool faulted = false;
        bool deadlined = false;
        if (err) {
            try {
                std::rethrow_exception(err);
            } catch (const StreamFaultError &) {
                faulted = true;
            } catch (const StreamDeadlineError &) {
                deadlined = true;
            } catch (...) {
            }
        }
        size_t faultsDetected = 0;
        bool retried = false;
        bool recovered = false;
        for (const StreamResult &r : res.segments) {
            faultsDetected += r.faultsDetected;
            retried = retried || r.attempts > 1;
            recovered = recovered || r.recoveredOnDevice != -1;
        }

        // Settle everything, then resolve the handle — still under
        // mu_, so a caller returning from wait() finds its counters
        // final and its quota free, and drain() cannot return before
        // the handle resolves.
        MutexLock lock(mu_);
        TenantState &t = *tenants_[job.tid];
        const TenantStreamResult &done = res;
        if (err) {
            ++t.stats.failed;
            ++fleet_.failed;
            if (faulted) {
                ++t.stats.faultedStreams;
                ++fleet_.faultedStreams;
            }
            if (deadlined) {
                ++t.stats.deadlineExpiredStreams;
                ++fleet_.deadlineExpiredStreams;
            }
        } else {
            ++t.stats.executed;
            ++fleet_.executed;
            if (retried) {
                ++t.stats.retriedStreams;
                ++fleet_.retriedStreams;
            }
            if (recovered) {
                ++t.stats.recoveredStreams;
                ++fleet_.recoveredStreams;
            }
            t.lat.record(e2e);
        }
        t.stats.faultsDetected += faultsDetected;
        fleet_.faultsDetected += faultsDetected;
        // Chargeback accrues even on a failed stream: whatever
        // segments ran consumed real device work.
        t.stats.compute = merge(t.stats.compute, done.compute);
        t.stats.transfer = merge(t.stats.transfer, done.transfer);
        t.stats.instructions += done.instructions;
        t.stats.cachedInstructions += done.cachedInstructions;
        t.stats.optimizedInstructions += done.optimizedInstructions;
        fleet_.compute = merge(fleet_.compute, done.compute);
        fleet_.transfer = merge(fleet_.transfer, done.transfer);
        fleet_.instructions += done.instructions;
        fleet_.cachedInstructions += done.cachedInstructions;
        fleet_.optimizedInstructions += done.optimizedInstructions;
        --t.inflight;
        t.admit_cv.notify_all();
        {
            std::lock_guard<std::mutex> slock(st.mu);
            if (err)
                st.error = err;
            st.result = std::move(res);
            st.done = true;
            st.cv.notify_all();
        }
        drain_cv_.notify_all();
    }
}

TenantStreamResult
TenantStreamHandle::wait()
{
    if (!state_)
        fatal("TenantStreamHandle::wait: empty handle");
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] { return state_->done; });
    if (state_->error)
        std::rethrow_exception(state_->error);
    return state_->result;
}

bool
TenantStreamHandle::done() const
{
    if (!state_)
        return false;
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->done;
}

} // namespace simdram
