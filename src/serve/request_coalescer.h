/**
 * @file
 * Serving harness, part 1: SLO-aware request coalescing.
 *
 * A SIMDRAM device is a batch machine — one bbop stream computes over
 * hundreds of thousands of lanes at the same cost as over hundreds —
 * while a service front-end receives many SMALL independent requests
 * (a knn query, one brightness tile, a batch of tpch filter rows).
 * The RequestCoalescer bridges the two: it groups compatible requests
 * (same registered request class, hence same shape and op pipeline)
 * into batches under a batching policy — flush when maxBatch requests
 * have coalesced OR when the oldest waiter has lingered
 * maxLingerUs — and executes each batch as ONE fused multi-segment
 * StreamBuilder program over lane-concatenated objects. Because every
 * bbop operation is element-wise over lanes, a batch of K requests of
 * n lanes computed as one K*n-lane program is bit-exact with K
 * independent n-lane runs; per-request futures slice the batched
 * result back out.
 *
 *   RequestCoalescer co(ex, {.maxBatch = 8, .maxLingerUs = 200});
 *   const uint32_t cls = co.registerClass(brightnessTileClass(spec));
 *   ServeFuture f = co.submit(cls, brightnessTileRequest(spec, tile, delta));
 *   ... submit more requests, possibly from other threads ...
 *   ServeResult r = f.wait();   // r.output = this request's lanes
 *
 * Admission control sits ABOVE the executor's Block/Reject
 * backpressure (PR 4): the coalescer bounds the number of admitted
 * requests not yet completed (maxPending) and either sheds — the
 * typed RequestShedError, thrown synchronously with zero side
 * effects — or blocks the submitter (AdmissionPolicy). Under the
 * budget, request cost is decoupled from stream cost: one batch is
 * only a handful of device streams no matter how many requests rode
 * in it.
 *
 * Every completed request records its end-to-end latency — arrival
 * at submit() to future fulfillment, i.e. queue + coalesce + execute
 * on the corrected StreamResult::wallNs-style clock — into a
 * lock-free LatencyHistogram for p50/p99/p999 under load.
 *
 * Threading: submit() is thread-safe and cheap (it never executes);
 * a single dispatcher thread closes batches (size- or
 * deadline-triggered) and drives the executor, so batches execute in
 * close order and the executor's stream cache keeps shared operands
 * (request-class reference data) resident across batches. The
 * coalescer assumes it is the only client of its executor's objects;
 * registerClass() calls must not race submit() of the same class.
 */

#ifndef SIMDRAM_SERVE_REQUEST_COALESCER_H
#define SIMDRAM_SERVE_REQUEST_COALESCER_H

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "runtime/stream_executor.h"
#include "serve/latency_histogram.h"
#include "stream/stream_builder.h"

namespace simdram
{

/**
 * Raised by submit() under AdmissionPolicy::Shed when the pending-
 * request budget is exhausted. Distinct from StreamRejectedError
 * (the executor's per-device queue bound) and from BbopError (a
 * malformed program): the request is well-formed, the service is
 * saturated at the REQUEST level — the caller may retry later.
 * Shedding is side-effect-free: nothing is enqueued or batched.
 */
class RequestShedError : public FatalError
{
  public:
    explicit RequestShedError(const std::string &what)
        : FatalError(what)
    {}
};

/**
 * Raised out of ServeFuture::wait() when the request's batch hit an
 * unrecoverable in-DRAM fault (the executor's StreamFaultError, after
 * its own retry/quarantine budget was exhausted). Every request of
 * the batch receives its OWN RequestFaultError — the fault is mapped
 * per request rather than collapsing the whole batch into one opaque
 * failure — carrying the faulting device for attribution. The
 * coalescer's objects remain defined; subsequent batches of the class
 * run normally.
 */
class RequestFaultError : public FatalError
{
  public:
    RequestFaultError(const std::string &what, int device)
        : FatalError(what), device_(device)
    {}

    /** @return Device the underlying fault was detected on. */
    int device() const { return device_; }

  private:
    int device_ = -1;
};

/** What submit() does when the pending-request budget is full. */
enum class AdmissionPolicy
{
    Block, ///< Block the submitter until requests complete.
    Shed,  ///< Throw RequestShedError (no side effects).
};

/** Batching and admission knobs of a RequestCoalescer. */
struct CoalescerOptions
{
    /** Requests per batch that force an immediate flush (>= 1).
     *  Also the batch CAPACITY: batch objects hold maxBatch request
     *  slots; partial batches zero-pad the unused slots. Size it so
     *  a class's object group (inputs + output + scratch, each
     *  maxBatch * elements lanes) stays within the device's
     *  co-locatable subarray capacity — the sequential allocator
     *  only guarantees co-location for groups that do not straddle
     *  a subarray's data region. */
    size_t maxBatch = 8;
    /** Max microseconds the oldest request of an open batch may
     *  linger before the batch is flushed anyway (the latency half
     *  of the batching policy; 0 = flush as soon as the dispatcher
     *  sees the batch). */
    double maxLingerUs = 200.0;
    /** Admission budget: max requests admitted but not yet
     *  completed (queued + coalescing + executing); 0 = unbounded. */
    size_t maxPending = 0;
    /** Behaviour when the admission budget is exhausted. */
    AdmissionPolicy onFull = AdmissionPolicy::Shed;
    /**
     * Optional tenant tag, for a coalescer front-ending one tenant's
     * view of a shared TenantExecutor: purely diagnostic — it names
     * the tenant in RequestShedError messages so a multi-tenant
     * service can attribute shed traffic. Admission (maxPending) and
     * the tenant's own quotas compose independently either way.
     */
    std::string tenantTag{};
};

/**
 * The batched objects a request class's emit callback computes over.
 * All objects are lane-concatenations of `capacity` request slots
 * (`elements` = capacity * per-request lanes, same bit width); the
 * first `batch` slots hold live requests, the rest are zero padding
 * whose results are discarded.
 */
struct BatchLayout
{
    size_t batch = 0;    ///< Live requests in this batch.
    size_t capacity = 0; ///< Request slots (= CoalescerOptions::maxBatch).
    size_t elements = 0; ///< Total lanes = capacity * per-request lanes.
    /** Per-request input objects, one per RequestClassSpec slot,
     *  freshly written and transposed for this batch. */
    std::vector<uint16_t> request;
    /** Shared input objects (class-level data replicated across
     *  slots), resident since class setup — their re-transposes are
     *  elided by the executor's stream cache after the first batch. */
    std::vector<uint16_t> shared;
    /** The output object (RequestClassSpec::outputBits wide); the
     *  coalescer transposes it back and slices it per request after
     *  the emitted program runs. */
    uint16_t output = kNoObject;
    /** Scratch objects: scratch(i, bits) returns the i-th scratch,
     *  defining it `bits` wide on first use and reusing it across
     *  batches of the class (1-bit scratches hold relational masks;
     *  an index's width is fixed by its first use). */
    std::function<uint16_t(size_t, size_t)> scratch;
};

/**
 * One coalescable request shape + pipeline. Requests of the same
 * registered class batch together; different classes never mix.
 */
struct RequestClassSpec
{
    /** Diagnostic name ("knn-query", "brightness-tile", ...). */
    std::string name;
    /** Lanes per request (e.g. reference points, tile pixels). */
    size_t elements = 0;
    /** Element width in bits (1..64) of the request/shared inputs. */
    size_t bits = 0;
    /** Output element width; 0 means same as `bits`. Set to 1 for
     *  classes whose result is a relational mask (the ISA requires
     *  1-bit destinations for comparison ops). */
    size_t outputBits = 0;
    /** Per-request input slots each submit() must provide. */
    size_t requestInputs = 0;
    /** Shared input data, one entry per shared slot: `elements`
     *  lanes that every request sees identically (e.g. the knn
     *  reference columns). The coalescer replicates each across the
     *  batch slots once at class setup. */
    std::vector<std::vector<uint64_t>> shared;
    /**
     * Emits the class's compute pipeline into @p b against
     * @p layout. Contract: all request/shared inputs are already
     * transposed when emit runs; emit must leave the result in
     * layout.output (the coalescer appends the inverse transpose);
     * every op must be element-wise over lanes (that is what makes
     * lane-concatenation exact) — in particular, do NOT bbop_init a
     * value that differs per request (materialize it as a request
     * input instead).
     */
    std::function<void(StreamBuilder &, const BatchLayout &)> emit;
};

/** Completion data for one served request. */
struct ServeResult
{
    /** The request's output lanes, sliced from the batched result. */
    std::vector<uint64_t> output;
    /** Arrival to batch dispatch (queue + coalesce linger), ns. */
    double queueNs = 0.0;
    /** Batch dispatch to results read back (execute), ns. */
    double executeNs = 0.0;
    /** End-to-end: arrival at submit() to fulfillment, ns. */
    double totalNs = 0.0;
    /** Live requests in the batch that served this request. */
    size_t batchSize = 0;
    /** Device streams the batch's fused program dispatched as. */
    size_t batchStreams = 0;
};

namespace detail
{
struct RequestState;
} // namespace detail

/** Future-style handle to a submitted request. */
class ServeFuture
{
  public:
    ServeFuture() = default;

    /** @return True if the handle refers to an admitted request. */
    bool valid() const { return state_ != nullptr; }

    /**
     * Blocks until the request's batch completes and returns the
     * sliced result. Rethrows any error raised during execution.
     */
    ServeResult wait();

    /** @return True once the request completed (non-blocking). */
    bool done() const;

  private:
    friend class RequestCoalescer;
    std::shared_ptr<detail::RequestState> state_;
};

/**
 * SLO-aware request-coalescing front-end over a StreamService —
 * the physical StreamExecutor, or one tenant's view of a shared
 * TenantExecutor (every object the coalescer defines then lives in
 * that tenant's namespace and counts against its quotas).
 */
class RequestCoalescer
{
  public:
    /**
     * @param ex Service the batches run through (borrowed; must
     *           outlive the coalescer).
     */
    explicit RequestCoalescer(StreamService &ex)
        : RequestCoalescer(ex, CoalescerOptions{})
    {}

    /** As above, with batching/admission options. */
    RequestCoalescer(StreamService &ex, CoalescerOptions opts);

    /** Flushes and completes every admitted request, then joins the
     *  dispatcher. Do not call submit() concurrently with this. */
    ~RequestCoalescer();

    RequestCoalescer(const RequestCoalescer &) = delete;
    RequestCoalescer &operator=(const RequestCoalescer &) = delete;

    /** @return The coalescer's options. */
    const CoalescerOptions &options() const { return opts_; }

    /**
     * Registers a request class and returns its id. Call before
     * submitting requests of the class; must not race submit().
     * Throws FatalError on malformed specs, and BbopError when shared
     * data holds an element wider than `bits`.
     */
    uint32_t registerClass(RequestClassSpec spec);

    /**
     * Admits one request of class @p cls with one lane vector per
     * request-input slot (each RequestClassSpec::elements long).
     * Cheap and thread-safe: the request only joins its class's open
     * batch; execution happens on the dispatcher thread. Throws
     * FatalError on shape mismatches, BbopError on an input element
     * wider than the class's `bits` (so one bad request cannot fail
     * the batch it would join), and RequestShedError (zero side
     * effects) when the admission budget is exhausted under
     * AdmissionPolicy::Shed.
     */
    ServeFuture submit(uint32_t cls,
                       std::vector<std::vector<uint64_t>> inputs);

    /**
     * Closes every open batch and hands it to the dispatcher
     * immediately, ahead of its linger deadline. Does not wait.
     */
    void flush();

    /** flush(), then blocks until every admitted request completed. */
    void drain();

    /** @return Per-request end-to-end latency histogram. */
    const LatencyHistogram &latency() const { return latency_; }

    /** @return Requests completed (fulfilled or failed) so far. */
    uint64_t completedRequests() const
    {
        return completed_.load(std::memory_order_relaxed);
    }

    /** @return Requests shed by admission control so far. */
    uint64_t shedRequests() const
    {
        return shed_.load(std::memory_order_relaxed);
    }

    /** @return Batches dispatched so far. */
    uint64_t dispatchedBatches() const
    {
        return batches_.load(std::memory_order_relaxed);
    }

    /** @return Requests completed with an error (any kind). */
    uint64_t failedRequests() const
    {
        return failed_.load(std::memory_order_relaxed);
    }

    /** @return Requests failed by an in-DRAM fault (their futures
     *  rethrow RequestFaultError). Subset of failedRequests(). */
    uint64_t faultedRequests() const
    {
        return faulted_.load(std::memory_order_relaxed);
    }

    /** @return Requests failed by a stream deadline expiry. Subset
     *  of failedRequests(). */
    uint64_t deadlineExpiredRequests() const
    {
        return deadlined_.load(std::memory_order_relaxed);
    }

    /** @return Requests admitted but not yet completed. */
    size_t pendingRequests() const;

  private:
    /** One admitted, not-yet-dispatched request. */
    struct Pending
    {
        std::shared_ptr<detail::RequestState> st;
        std::vector<std::vector<uint64_t>> inputs;
    };

    /** A closed batch, ready for the dispatcher. */
    struct Batch
    {
        uint32_t cls = 0;
        std::vector<Pending> reqs;
    };

    /** Registered class + its open batch + its batched objects. */
    struct ClassState
    {
        RequestClassSpec spec;
        /** Batched objects, defined on the class's first dispatch. */
        bool objectsReady = false;
        std::vector<uint16_t> requestObjs;
        std::vector<uint16_t> sharedObjs;
        uint16_t outputObj = kNoObject;
        std::vector<uint16_t> scratchObjs;
        /** The open (still coalescing) batch; guarded by mu_. */
        std::vector<Pending> open;
        /** Arrival of the open batch's first request. */
        std::chrono::steady_clock::time_point openSince;
    };

    void dispatcherMain();
    /** Runs one batch through the executor; no coalescer lock held.
     *  Never lets a batch error escape without first fulfilling every
     *  slot's future (faults map to per-request RequestFaultError). */
    void executeBatch(Batch batch) SIMDRAM_EXCLUDES(mu_);
    /** Dispatcher safety net: releases the admission budget of
     *  @p slots and fails each of them with @p err, so an exception
     *  escaping executeBatch (e.g. allocation failure while slicing
     *  results) can never strand a ServeFuture. */
    void failSlots(
        const std::vector<std::shared_ptr<detail::RequestState>> &slots,
        std::exception_ptr err) SIMDRAM_EXCLUDES(mu_);
    /** Defines + seeds the class's batched objects (dispatcher only). */
    void ensureObjects(ClassState &cs);
    /** Moves due/flushed open batches to ready_; mu_ held. */
    void closeDueLocked(bool force) SIMDRAM_REQUIRES(mu_);

    StreamService *ex_;
    CoalescerOptions opts_;
    LatencyHistogram latency_;

    mutable Mutex mu_;
    /** condition_variable_any: waits take the annotated Mutex via
     *  UniqueLock (plain condition_variable only accepts
     *  std::unique_lock<std::mutex>, bypassing the annotations). */
    std::condition_variable_any dispatch_cv_; ///< Dispatcher work.
    std::condition_variable_any admit_cv_;    ///< Budget space freed.
    std::condition_variable_any drain_cv_;    ///< A batch completed.
    /** Registered classes; pointers stable while the vector grows. */
    std::vector<std::unique_ptr<ClassState>> classes_
        SIMDRAM_GUARDED_BY(mu_);
    /** Closed batches awaiting execution, in close order. */
    std::deque<Batch> ready_ SIMDRAM_GUARDED_BY(mu_);
    /** Admitted-but-not-completed requests. */
    size_t pending_ SIMDRAM_GUARDED_BY(mu_) = 0;
    bool stop_ SIMDRAM_GUARDED_BY(mu_) = false;

    /** Lifetime stats: written under mu_ or by the dispatcher,
     *  read lock-free by the getters. */
    std::atomic<uint64_t> completed_{0};
    std::atomic<uint64_t> shed_{0};
    std::atomic<uint64_t> batches_{0};
    std::atomic<uint64_t> failed_{0};
    std::atomic<uint64_t> faulted_{0};
    std::atomic<uint64_t> deadlined_{0};

    std::thread dispatcher_;
};

} // namespace simdram

#endif // SIMDRAM_SERVE_REQUEST_COALESCER_H
