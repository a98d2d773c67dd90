#include "serve/request_coalescer.h"

#include <algorithm>

#include "common/error.h"
#include "isa/validate.h"

namespace simdram
{

namespace detail
{

/** Shared completion state of one admitted request. */
struct RequestState
{
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    ServeResult result;
    /** Error raised executing the request's batch, if any. */
    std::exception_ptr error;
    /** Arrival at submit() — origin of the end-to-end clock. */
    std::chrono::steady_clock::time_point arrival;
};

} // namespace detail

namespace
{

double
nsBetween(std::chrono::steady_clock::time_point a,
          std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double, std::nano>(b - a).count();
}

} // namespace

ServeResult
ServeFuture::wait()
{
    if (!state_)
        fatal("ServeFuture::wait: empty handle");
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] { return state_->done; });
    if (state_->error)
        std::rethrow_exception(state_->error);
    return state_->result;
}

bool
ServeFuture::done() const
{
    if (!state_)
        return false;
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->done;
}

RequestCoalescer::RequestCoalescer(StreamService &ex,
                                   CoalescerOptions opts)
    : ex_(&ex), opts_(opts)
{
    if (opts_.maxBatch == 0)
        fatal("RequestCoalescer: maxBatch must be >= 1");
    if (opts_.maxLingerUs < 0.0)
        fatal("RequestCoalescer: negative linger");
    dispatcher_ = std::thread([this] { dispatcherMain(); });
}

RequestCoalescer::~RequestCoalescer()
{
    {
        MutexLock lock(mu_);
        stop_ = true;
    }
    // The dispatcher flushes and completes everything admitted
    // before exiting; blocked Block-mode submitters are woken into
    // an error (destroying a coalescer out from under submitters is
    // a caller bug, but it must not deadlock).
    dispatch_cv_.notify_all();
    admit_cv_.notify_all();
    dispatcher_.join();
}

uint32_t
RequestCoalescer::registerClass(RequestClassSpec spec)
{
    if (spec.elements == 0)
        fatal("RequestCoalescer: class '" + spec.name +
              "' has zero elements");
    if (spec.bits == 0 || spec.bits > 64)
        fatal("RequestCoalescer: class '" + spec.name +
              "' width out of range");
    if (spec.outputBits > 64)
        fatal("RequestCoalescer: class '" + spec.name +
              "' output width out of range");
    if (!spec.emit)
        fatal("RequestCoalescer: class '" + spec.name +
              "' has no emit callback");
    for (const auto &s : spec.shared) {
        if (s.size() != spec.elements)
            fatal("RequestCoalescer: class '" + spec.name +
                  "' shared data has wrong lane count");
        checkHostData(s, spec.bits, "RequestCoalescer: shared data");
    }
    auto cs = std::make_unique<ClassState>();
    cs->spec = std::move(spec);
    MutexLock lock(mu_);
    classes_.push_back(std::move(cs));
    return static_cast<uint32_t>(classes_.size() - 1);
}

ServeFuture
RequestCoalescer::submit(uint32_t cls,
                         std::vector<std::vector<uint64_t>> inputs)
{
    const auto arrival = std::chrono::steady_clock::now();

    // Validate the request shape BEFORE touching any shared state,
    // so every throw out of submit() is side-effect-free. Grab the
    // ClassState pointer under mu_ (classes_ may reallocate under a
    // concurrent registerClass); the pointee itself is stable.
    ClassState *csp = nullptr;
    {
        MutexLock lock(mu_);
        if (cls >= classes_.size())
            fatal("RequestCoalescer: unknown class id " +
                  std::to_string(cls));
        csp = classes_[cls].get();
    }
    const RequestClassSpec &spec = csp->spec;
    if (inputs.size() != spec.requestInputs)
        fatal("RequestCoalescer: class '" + spec.name + "' takes " +
              std::to_string(spec.requestInputs) +
              " inputs, got " + std::to_string(inputs.size()));
    for (const auto &in : inputs) {
        if (in.size() != spec.elements)
            fatal("RequestCoalescer: class '" + spec.name +
                  "' input has wrong lane count");
        checkHostData(in, spec.bits, "RequestCoalescer: input");
    }

    auto st = std::make_shared<detail::RequestState>();
    st->arrival = arrival;

    {
        UniqueLock lock(mu_);
        if (stop_)
            fatal("RequestCoalescer: submit after shutdown began");
        if (opts_.maxPending > 0 && pending_ >= opts_.maxPending) {
            if (opts_.onFull == AdmissionPolicy::Shed) {
                // Typed, synchronous, zero side effects: the request
                // never joined a batch and no future exists.
                shed_.fetch_add(1, std::memory_order_relaxed);
                throw RequestShedError(
                    "RequestCoalescer" +
                    (opts_.tenantTag.empty()
                         ? std::string()
                         : " [tenant " + opts_.tenantTag + "]") +
                    ": pending-request budget exhausted (" +
                    std::to_string(opts_.maxPending) +
                    " requests in flight)");
            }
            // Explicit wait loop (not the predicate overload): the
            // guarded members are read in this scope, where the
            // thread-safety analysis can see the lock is held.
            while (pending_ >= opts_.maxPending && !stop_)
                admit_cv_.wait(lock);
            if (stop_)
                fatal("RequestCoalescer: shut down while blocked "
                      "on admission");
        }
        ++pending_;
        ClassState &cs = *csp;
        if (cs.open.empty())
            cs.openSince = std::chrono::steady_clock::now();
        cs.open.push_back(Pending{st, std::move(inputs)});
        if (cs.open.size() >= opts_.maxBatch) {
            ready_.push_back(Batch{cls, std::move(cs.open)});
            cs.open.clear();
        }
        // Wake the dispatcher either way: a full batch must run now,
        // a first request must arm the linger deadline.
        dispatch_cv_.notify_all();
    }

    ServeFuture f;
    f.state_ = std::move(st);
    return f;
}

void
RequestCoalescer::flush()
{
    MutexLock lock(mu_);
    closeDueLocked(/*force=*/true);
    dispatch_cv_.notify_all();
}

void
RequestCoalescer::drain()
{
    flush();
    UniqueLock lock(mu_);
    for (;;) {
        bool openEmpty = true;
        for (const auto &cs : classes_)
            if (!cs->open.empty())
                openEmpty = false;
        if (pending_ == 0 && ready_.empty() && openEmpty)
            return;
        drain_cv_.wait(lock);
    }
}

size_t
RequestCoalescer::pendingRequests() const
{
    MutexLock lock(mu_);
    return pending_;
}

void
RequestCoalescer::closeDueLocked(bool force)
{
    const auto now = std::chrono::steady_clock::now();
    const auto linger = std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double, std::micro>(opts_.maxLingerUs));
    for (uint32_t c = 0; c < classes_.size(); ++c) {
        ClassState &cs = *classes_[c];
        if (cs.open.empty())
            continue;
        if (force || now - cs.openSince >= linger) {
            ready_.push_back(Batch{c, std::move(cs.open)});
            cs.open.clear();
        }
    }
}

void
RequestCoalescer::dispatcherMain()
{
    UniqueLock lock(mu_);
    for (;;) {
        // Stop means "finish everything admitted, then exit": close
        // all open batches so nothing lingers past shutdown.
        if (stop_)
            closeDueLocked(/*force=*/true);

        if (!ready_.empty()) {
            Batch b = std::move(ready_.front());
            ready_.pop_front();
            // Snapshot the slots' completion states before handing
            // the Batch over: executeBatch owns it after the move, so
            // if an exception ever escapes (allocation failure while
            // classifying or slicing) this snapshot is the only route
            // left to the futures. A throwing batch must propagate
            // into every slot's future, never strand a waiter.
            std::vector<std::shared_ptr<detail::RequestState>> slots;
            slots.reserve(b.reqs.size());
            for (const auto &p : b.reqs)
                slots.push_back(p.st);
            lock.unlock();
            try {
                executeBatch(std::move(b));
            } catch (...) {
                failSlots(slots, std::current_exception());
            }
            lock.lock();
            continue;
        }

        // Earliest linger deadline among open batches, if any.
        bool anyOpen = false;
        std::chrono::steady_clock::time_point earliest;
        for (const auto &cs : classes_)
            if (!cs->open.empty()) {
                if (!anyOpen || cs->openSince < earliest)
                    earliest = cs->openSince;
                anyOpen = true;
            }

        if (stop_ && !anyOpen)
            return; // nothing queued, nothing open: all drained

        if (anyOpen) {
            const auto deadline =
                earliest +
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::micro>(
                        opts_.maxLingerUs));
            dispatch_cv_.wait_until(lock, deadline);
            closeDueLocked(/*force=*/false);
        } else {
            dispatch_cv_.wait(lock);
        }
    }
}

void
RequestCoalescer::failSlots(
    const std::vector<std::shared_ptr<detail::RequestState>> &slots,
    std::exception_ptr err)
{
    // Every throw point in executeBatch precedes its pending_
    // release and its first resolved future, so the whole batch's
    // admission budget is still held and every slot is stranded when
    // this runs. Counters are best-effort on this path. Settle before
    // resolving, as executeBatch does.
    completed_.fetch_add(slots.size(), std::memory_order_relaxed);
    failed_.fetch_add(slots.size(), std::memory_order_relaxed);
    {
        MutexLock lock(mu_);
        pending_ -= slots.size();
        admit_cv_.notify_all();
        for (const auto &sp : slots) {
            detail::RequestState &st = *sp;
            std::lock_guard<std::mutex> slock(st.mu);
            st.error = err;
            st.done = true;
            st.cv.notify_all();
        }
    }
    drain_cv_.notify_all();
}

void
RequestCoalescer::ensureObjects(ClassState &cs)
{
    if (cs.objectsReady)
        return;
    const RequestClassSpec &spec = cs.spec;
    const size_t lanes = opts_.maxBatch * spec.elements;

    // Build the group into locals and publish only at the end: a
    // mid-definition failure (tenant quota, subarray capacity)
    // releases whatever was defined and leaves the class untouched,
    // so a later batch retries from scratch instead of emitting
    // against a half-defined object group.
    std::vector<uint16_t> reqObjs;
    std::vector<uint16_t> shObjs;
    uint16_t outObj = kNoObject;
    try {
        reqObjs.reserve(spec.requestInputs);
        for (size_t i = 0; i < spec.requestInputs; ++i)
            reqObjs.push_back(ex_->defineObject(lanes, spec.bits));
        shObjs.reserve(spec.shared.size());
        for (size_t s = 0; s < spec.shared.size(); ++s) {
            shObjs.push_back(ex_->defineObject(lanes, spec.bits));
            // Replicate the class-level data across every request slot
            // ONCE; the executor's stream cache keeps the transposed
            // image resident, so later batches elide these re-trsp's.
            std::vector<uint64_t> rep(lanes);
            for (size_t r = 0; r < opts_.maxBatch; ++r)
                std::copy(spec.shared[s].begin(),
                          spec.shared[s].end(),
                          rep.begin() +
                              static_cast<std::ptrdiff_t>(
                                  r * spec.elements));
            ex_->writeObject(shObjs[s], rep);
        }
        outObj = ex_->defineObject(
            lanes, spec.outputBits ? spec.outputBits : spec.bits);
    } catch (...) {
        for (uint16_t o : reqObjs)
            ex_->releaseObject(o);
        for (uint16_t o : shObjs)
            ex_->releaseObject(o);
        throw;
    }
    cs.requestObjs = std::move(reqObjs);
    cs.sharedObjs = std::move(shObjs);
    cs.outputObj = outObj;
    cs.objectsReady = true;
}

void
RequestCoalescer::executeBatch(Batch batch)
{
    // Take the pointer under mu_ (classes_ may reallocate); the
    // pointee is stable, and its exec-side fields (objects, scratch)
    // are dispatcher-only so no lock is needed past this point.
    ClassState *csp = nullptr;
    {
        MutexLock lock(mu_);
        csp = classes_[batch.cls].get();
    }
    ClassState &cs = *csp;
    const RequestClassSpec &spec = cs.spec;
    const auto dispatchT = std::chrono::steady_clock::now();

    std::exception_ptr err;
    std::vector<uint64_t> out;
    size_t streams = 0;
    try {
        ensureObjects(cs);
        const size_t n = spec.elements;
        const size_t lanes = opts_.maxBatch * n;

        // Lane-concatenate the batch's request inputs, zero-padding
        // the unused slots (their lanes compute garbage that the
        // per-request slicing below never reads).
        std::vector<uint64_t> concat(lanes);
        for (size_t slot = 0; slot < spec.requestInputs; ++slot) {
            std::fill(concat.begin(), concat.end(), 0);
            for (size_t r = 0; r < batch.reqs.size(); ++r)
                std::copy(
                    batch.reqs[r].inputs[slot].begin(),
                    batch.reqs[r].inputs[slot].end(),
                    concat.begin() +
                        static_cast<std::ptrdiff_t>(r * n));
            ex_->writeObject(cs.requestObjs[slot], concat);
        }

        // One fused program per batch: transpose the operands (the
        // stream cache elides every one that is already resident),
        // run the class pipeline, transpose the result back.
        StreamBuilder b(*ex_);
        for (uint16_t o : cs.sharedObjs)
            b.trsp(o);
        for (uint16_t o : cs.requestObjs)
            b.trsp(o);

        BatchLayout layout;
        layout.batch = batch.reqs.size();
        layout.capacity = opts_.maxBatch;
        layout.elements = lanes;
        layout.request = cs.requestObjs;
        layout.shared = cs.sharedObjs;
        layout.output = cs.outputObj;
        layout.scratch = [this, &cs, lanes](size_t i, size_t bits) {
            while (cs.scratchObjs.size() <= i)
                cs.scratchObjs.push_back(kNoObject);
            if (cs.scratchObjs[i] == kNoObject)
                cs.scratchObjs[i] = ex_->defineObject(lanes, bits);
            return cs.scratchObjs[i];
        };
        spec.emit(b, layout);
        b.trspInv(cs.outputObj);

        std::vector<StreamHandle> handles = b.submitAll();
        streams = handles.size();
        for (auto &h : handles)
            h.wait(); // rethrows execution errors
        out = ex_->readObject(cs.outputObj);
    } catch (...) {
        err = std::current_exception();
    }
    const auto doneT = std::chrono::steady_clock::now();

    // Classify the batch's error ONCE, then map it per request: an
    // unrecoverable in-DRAM fault becomes one device-attributed
    // RequestFaultError per slot rather than a batch-wide opaque
    // collapse, so each caller's wait() sees a typed error naming
    // its own request class and the faulting device.
    std::exception_ptr slotErr = err;
    if (err) {
        try {
            std::rethrow_exception(err);
        } catch (const StreamFaultError &e) {
            faulted_.fetch_add(batch.reqs.size(),
                               std::memory_order_relaxed);
            slotErr = std::make_exception_ptr(RequestFaultError(
                "RequestCoalescer: class '" + spec.name +
                    "' batch hit an unrecoverable in-DRAM fault: " +
                    e.what(),
                e.device()));
        } catch (const StreamDeadlineError &) {
            deadlined_.fetch_add(batch.reqs.size(),
                                 std::memory_order_relaxed);
        } catch (...) {
        }
        failed_.fetch_add(batch.reqs.size(),
                          std::memory_order_relaxed);
    }

    // Bump the lifetime counters BEFORE fulfilling any future, so a
    // caller returning from wait() observes them already updated.
    completed_.fetch_add(batch.reqs.size(),
                         std::memory_order_relaxed);
    batches_.fetch_add(1, std::memory_order_relaxed);

    // Fill the per-request results: slice the batched output and
    // stamp the latency breakdown on the end-to-end clock.
    const size_t n = spec.elements;
    for (size_t r = 0; r < batch.reqs.size(); ++r) {
        detail::RequestState &st = *batch.reqs[r].st;
        std::lock_guard<std::mutex> lock(st.mu);
        if (err) {
            st.error = slotErr;
        } else {
            st.result.output.assign(
                out.begin() + static_cast<std::ptrdiff_t>(r * n),
                out.begin() +
                    static_cast<std::ptrdiff_t>((r + 1) * n));
            st.result.queueNs = nsBetween(st.arrival, dispatchT);
            st.result.executeNs = nsBetween(dispatchT, doneT);
            st.result.totalNs = nsBetween(st.arrival, doneT);
            st.result.batchSize = batch.reqs.size();
            st.result.batchStreams = streams;
            latency_.record(st.result.totalNs);
        }
    }

    // Release the budget, then resolve the futures — under mu_, so a
    // caller returning from wait() can submit again at once and
    // drain() cannot return before every future resolves.
    {
        MutexLock lock(mu_);
        pending_ -= batch.reqs.size();
        admit_cv_.notify_all();
        for (const Pending &p : batch.reqs) {
            detail::RequestState &st = *p.st;
            std::lock_guard<std::mutex> slock(st.mu);
            st.done = true;
            st.cv.notify_all();
        }
    }
    drain_cv_.notify_all();
}

} // namespace simdram
