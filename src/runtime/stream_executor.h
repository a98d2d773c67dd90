/**
 * @file
 * Multi-device runtime, part 2: asynchronous bbop-stream execution.
 *
 * The StreamExecutor is the memory-controller-side service the
 * paper's bbop ISA assumes: the host enqueues encoded bbop
 * instruction streams and continues; the controller executes them
 * behind the scenes. Here, a group-wide object table maps bbop object
 * ids to ShardedVecs, and one worker thread per device replays each
 * submitted stream against that device's shards:
 *
 *   DeviceGroup g(cfg, 4);
 *   StreamExecutor ex(g, {.maxQueuedStreams = 8});
 *   auto a = ex.defineObject(n, 32);
 *   auto y = ex.defineObject(n, 32);
 *   ex.writeObject(a, data);
 *   auto h = ex.submit({BbopInstr::trsp(a, 32),
 *                       BbopInstr::trsp(y, 32),
 *                       BbopInstr::unary(OpKind::Abs, 32, y, a),
 *                       BbopInstr::trspInv(y, 32)});
 *   ... overlap host work, submit more streams ...
 *   StreamResult r = h.wait();   // merged stats + wall clock
 *   auto out = ex.readObject(y);
 *
 * Semantics and guarantees:
 *  - Submission order is execution order on every device, so results
 *    are bit-exact with running the same streams sequentially on a
 *    single Processor holding the whole (unsharded) vectors.
 *  - submit() validates the whole stream through the shared
 *    BbopValidator (src/isa/validate.cc — the same rules the
 *    BbopDispatcher enforces) and throws BbopError without enqueuing
 *    anything if any instruction is malformed: a bad stream is
 *    rejected as a unit and never reaches a device or the object
 *    table.
 *  - Backpressure: with maxQueuedStreams > 0 each device queue is
 *    bounded. A submit() that finds a queue full either blocks until
 *    space frees up (BackpressurePolicy::Block, the default) or
 *    throws the typed StreamRejectedError without any side effect
 *    (BackpressurePolicy::Reject) — a rejected stream leaves layout
 *    state and queues exactly as they were. StreamResult carries the
 *    per-stream watermarks (queue depth at submit, time blocked).
 *  - Each completed stream reports its own DramStats deltas, merged
 *    across devices with merge() (latency = max: devices execute
 *    concurrently), plus submit-to-completion wall time.
 *  - writeObject()/readObject() synchronize (drain all pending
 *    streams) before touching host images, and run on the caller's
 *    thread.
 *  - Placement is checked at submit: an operation whose operand or
 *    destination segments do not share one subarray on some device
 *    is rejected with the typed PlacementError, before anything is
 *    enqueued or committed.
 *
 * Threading model:
 *  - One worker thread per device runs that device's FIFO, holding
 *    the device lock (DeviceGroup::lockDevice) for one whole stream.
 *    A stream is queued only on the devices that hold a shard of one
 *    of its destinations (every device if none does).
 *  - Bank parts: under IntegrityMode::Off, on a healthy device with
 *    no fault mechanism active, a job whose segments span two or
 *    more compute banks splits by bank (segment s sits in bank
 *    s mod computeBanks; banks share no state). The worker accounts
 *    the job's transfers and compiles its μPrograms first, in serial
 *    order, hands every bank part but one to the host helper
 *    threads, runs the remaining part itself, takes back any part no
 *    helper has started, and joins the rest — all under the device
 *    lock, before its after-job statistics snapshot. Results and
 *    DramStats are bit-identical to the serial loop.
 *  - hostHelperCount() = min(host cores - devices,
 *    devices x (computeBanks - 1)), at least 0. Helpers are shared by
 *    all devices, start on the first split job, spin for up to a
 *    millisecond between parts, and are joined by the destructor.
 *  - Everything else runs serially on the worker: jobs with one
 *    bank's worth of segments, the Checksum and DualModular
 *    integrity modes, the quarantine fallback, and jobs on a device
 *    with a fault injector or a TRA flip probability (fault ordinals
 *    count TRAs in serial order).
 *  - Optimizer passes (src/stream/passes.h): every submitted program
 *    — a raw instruction vector lifted to a one-segment StreamIR, or
 *    a multi-segment IR from StreamBuilder — runs through the pass
 *    pipeline (trsp/init hoisting, dead-write elimination, segment
 *    fusion) before dispatch. Each pass has its own toggle in
 *    StreamExecutorOptions; removed instructions are reported in
 *    StreamResult::optimizedInstructions and never reach a device.
 *    The ORIGINAL program is what submit() validates (atomic reject),
 *    and passes preserve both memory state and final layout state,
 *    so optimization is invisible except in statistics.
 *  - Stream cache (StreamExecutorOptions::enableStreamCache, on by
 *    default): each object keeps the redundancy fact (passes.h) its
 *    last accepted submission left behind, and the next submission
 *    runs the hoisting rule once more over its surviving
 *    instructions, starting from those facts instead of from
 *    nothing. A fact stops counting as a mirror once the vector's
 *    mutationGen() moves: an out-of-band DeviceGroup write, a
 *    rollback, or a stream that failed. Memory state
 *    is bit-exact with the cache off; only the per-stream DramStats
 *    shrink. Pipelined apps that resubmit self-contained streams
 *    (knn re-transposing its reference set per query, nn
 *    re-broadcasting weights per tile) stop paying for data that has
 *    not changed.
 *  - Static analysis (src/analysis, StreamExecutorOptions::lintMode):
 *    Warn runs the dataflow lint at submit time and accumulates
 *    typed diagnostics (wait-free lintDiagnosticCount(), drained via
 *    drainDiagnostics()); Strict additionally rejects Error-level
 *    findings with the typed, synchronous, side-effect-free
 *    StreamLintError. validatePasses machine-checks every optimizer
 *    pass against the analyzer's facts (translation validation) and
 *    rejects the submission with PassValidationError if a pass broke
 *    them.
 */

#ifndef SIMDRAM_RUNTIME_STREAM_EXECUTOR_H
#define SIMDRAM_RUNTIME_STREAM_EXECUTOR_H

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/stream_analyzer.h"
#include "common/stats.h"
#include "common/thread_annotations.h"
#include "isa/bbop.h"
#include "isa/validate.h"
#include "runtime/device_group.h"
#include "stream/stream_ir.h"

namespace simdram
{

namespace detail
{
struct StreamState;
} // namespace detail

/**
 * Raised by submit() under BackpressurePolicy::Reject when a bounded
 * device queue is full. Distinct from BbopError: the stream is
 * well-formed, the service is just saturated — the caller may retry.
 */
class StreamRejectedError : public FatalError
{
  public:
    explicit StreamRejectedError(const std::string &what)
        : FatalError(what)
    {}
};

/** What submit() does when a bounded device queue is full. */
enum class BackpressurePolicy
{
    Block,  ///< Block the submitter until space frees up.
    Reject, ///< Throw StreamRejectedError (no side effects).
};

/**
 * Raised by submit() under LintMode::Strict when the static analyzer
 * (src/analysis) finds an Error-level defect — a read of unwritten
 * data, a layout mismatch, a self-aliasing operand, a shift that
 * zeroes its destination. A subtype of BbopError so the rejection is
 * typed, synchronous, and side-effect-free exactly like a malformed
 * stream: nothing is enqueued, no shadow state moves.
 */
class StreamLintError : public BbopError
{
  public:
    explicit StreamLintError(const std::string &what)
        : BbopError(what)
    {}
};

/**
 * Raised by submit() when an operation's operands cannot run in one
 * subarray on some device: a segment of an input or of the
 * destination sits in another bank or subarray than the first
 * input's, or the destination's rows overlap an input's. The paper's
 * μPrograms compute between rows that share bitlines, so such a
 * stream cannot execute; rejecting it at submit keeps the failure
 * typed and side-effect-free (nothing is enqueued or committed).
 * Allocate the operands of one operation back to back, with equal
 * shapes, so the sequential allocator co-locates them.
 */
class PlacementError : public BbopError
{
  public:
    explicit PlacementError(const std::string &what) : BbopError(what)
    {}
};

/**
 * Raised by submit() when StreamExecutorOptions::validatePasses is on
 * and an optimizer pass failed translation validation — it changed
 * the definedness/layout/const state some surviving read observes.
 * This is an optimizer bug, not a caller bug, hence a FatalError
 * rather than a BbopError; the message names the offending pass.
 */
class PassValidationError : public FatalError
{
  public:
    explicit PassValidationError(const std::string &what)
        : FatalError(what)
    {}
};

/**
 * Raised (through StreamHandle::wait) when per-stream integrity
 * checking detected corrupted device results and the retry policy was
 * exhausted before a clean execution. Carries full attribution: which
 * device, which submitted stream (its submission sequence number),
 * and which instruction's output failed verification. The device's
 * pre-stream state is restored before the error surfaces, so a faulted
 * stream is side-effect-free — exactly like a rejected one.
 */
class StreamFaultError : public FatalError
{
  public:
    StreamFaultError(const std::string &what, size_t device,
                     uint64_t streamSeq, size_t opIndex)
        : FatalError(what), device_(device), streamSeq_(streamSeq),
          opIndex_(opIndex)
    {}

    /** @return The device whose execution failed verification. */
    size_t device() const { return device_; }

    /** @return The submission sequence number of the stream. */
    uint64_t streamSeq() const { return streamSeq_; }

    /** @return Index (in the dispatched program: the segment after
     *          pass removals and cache elisions) of the instruction
     *          whose output failed verification. */
    size_t opIndex() const { return opIndex_; }

  private:
    size_t device_ = 0;
    uint64_t streamSeq_ = 0;
    size_t opIndex_ = 0;
};

/**
 * Raised (through StreamHandle::wait) when a stream's queue+execute
 * time exceeded StreamExecutorOptions::deadlineUs before a device
 * could start (or retry) it. The clock is the same end-to-end clock
 * as StreamResult::wallNs: it starts at submit() entry.
 */
class StreamDeadlineError : public FatalError
{
  public:
    explicit StreamDeadlineError(const std::string &what)
        : FatalError(what)
    {}
};

/**
 * Per-stream integrity checking performed by the device workers
 * (detection layer of the fault-tolerance pipeline; see README
 * "Fault tolerance").
 */
enum class IntegrityMode
{
    /** No checking; the pre-existing zero-overhead hot path. */
    Off,
    /**
     * Fold every written object's post-execution device lanes into an
     * XOR + popcount signature and compare it against a host-side
     * shadow computed from the instruction semantics. Cheap, catches
     * any single-TRA corruption; multi-bit corruptions that preserve
     * both folds can alias (the dual-modular mode cannot).
     */
    Checksum,
    /**
     * Temporal dual-modular redundancy: every bbop op executes twice
     * and the two results must agree lane-for-lane (exact per-op
     * attribution), with a final lane-exact host-shadow comparison as
     * the arbiter for correlated double faults. Roughly doubles the
     * stream's compute cost.
     */
    DualModular,
};

/** Retry budget for streams whose integrity check failed. */
struct RetryPolicy
{
    /** Total execution attempts per device (1 = no retry). */
    size_t maxAttempts = 1;
    /** Backoff before retry k is baseBackoffUs * 2^(k-1) host us. */
    double baseBackoffUs = 0.0;
    /** Cap on any single backoff sleep. */
    double maxBackoffUs = 10000.0;
};

/** How much the submit-time static analyzer is allowed to do. */
enum class LintMode
{
    Off,    ///< No analysis.
    Warn,   ///< Analyze; accumulate diagnostics, accept the stream.
    Strict, ///< Reject on any Error-level diagnostic (typed,
            ///< synchronous, side-effect-free, like BbopError).
};

/** Tuning knobs of a StreamExecutor. */
struct StreamExecutorOptions
{
    /** Max streams queued (not yet started) per device; 0 = unbounded. */
    size_t maxQueuedStreams = 0;
    /** Behaviour when a bounded queue is full at submit(). */
    BackpressurePolicy onFull = BackpressurePolicy::Block;
    /**
     * Cross-submission trsp/init elision: after the passes and the
     * lint, submit() runs the hoisting rule (src/stream/passes.h)
     * over the surviving instructions in dispatch order, with each
     * object's entry fact taken from what earlier accepted
     * submissions left behind — so a bbop_trsp (or trsp_inv) of an
     * object whose images already coincide, or a bbop_init of the
     * constant it already holds, is elided even when the instruction
     * that put it in place ran in an earlier stream. A fact counts as
     * a mirror only while the backing vector's DeviceGroup mutation
     * generation is unchanged (any out-of-band synchronous write
     * invalidates it). Invisible except in statistics: memory state
     * is bit-exact with the cache disabled. Elided instructions are
     * reported in StreamResult::cachedInstructions, not in
     * optimizedInstructions.
     */
    bool enableStreamCache = true;
    /**
     * Optimizer pass toggles (src/stream/passes.h), each independent:
     * fusion merges adjacent submitted segments sharing an operand
     * into one device pass; dead-write elimination drops writes
     * overwritten before any read; trsp hoisting removes
     * transposes/inits whose effect is already in place within the
     * submitted program, starting from all-unknown facts (the stream
     * cache above applies the same rule from the cross-submission
     * facts). All three preserve memory state and final layout
     * bit-exactly.
     */
    bool enableFusion = true;
    bool enableDeadWriteElim = true;
    bool enableTrspHoist = true;
    /**
     * Submit-time static analysis (src/analysis): the dataflow lint
     * runs over the optimized program (node indices still match the
     * submitted program — passes only mark nodes dead) with the
     * object table as the entry state. Off: skip. Warn: accept and
     * accumulate diagnostics (lintDiagnosticCount() /
     * drainDiagnostics()). Strict: reject Error-level findings with
     * the typed StreamLintError before anything is enqueued or
     * committed. Warnings that the enabled passes already acted on
     * (redundant trsps the hoister removed, dead writes DWE
     * eliminated) do not re-fire: the lint sees the program the
     * devices will actually run.
     */
    LintMode lintMode = LintMode::Off;
    /**
     * Translation validation: run the optimizer passes one at a time,
     * re-analyzing in between, and reject the submission with
     * PassValidationError if any pass changed the facts a surviving
     * read observes (see runPassesValidated); then re-validate the
     * optimized lowering with the BbopValidator. The resulting program
     * is identical to the normal pipeline's; this only adds the
     * machine checks. Off by default — it triples the submit-time
     * analysis cost; tests and benches turn it on.
     */
    bool validatePasses = false;
    /**
     * Per-stream integrity checking (detection layer of the
     * fault-tolerance pipeline). Off is the pre-existing hot path —
     * no snapshots, no verification loads, no overhead. Checksum and
     * DualModular make each device worker snapshot the stream's
     * operands, verify its own execution against a host-side shadow,
     * and — on a detected fault — restore the pre-stream state and
     * apply retryPolicy / quarantine recovery.
     */
    IntegrityMode integrityMode = IntegrityMode::Off;
    /** Retry budget applied when an integrity check fails. */
    RetryPolicy retryPolicy = {};
    /**
     * Per-stream deadline in host microseconds over the end-to-end
     * clock (submit entry → device start/retry); 0 disables. A worker
     * that picks up (or would retry) a stream past its deadline fails
     * it with StreamDeadlineError instead of executing.
     */
    double deadlineUs = 0.0;
    /**
     * Quarantine: when > 0, a device whose lifetime detected-fault
     * count reaches this threshold is marked unhealthy. Its queued
     * and future streams still execute their TRA-free instructions
     * (row copies, transposition, shifts) locally but every bbop op
     * is re-executed on the first healthy device (or on the host
     * reference path when none remains) and the result is stored
     * back — bounding the blast radius of a noisy device to itself.
     * NOTE: re-executed ops run under the healthy device's lock, so
     * their work leaves that device's FIFO order. 0 disables.
     */
    size_t quarantineFaultThreshold = 0;
};

/** Completion data for one executed stream. */
struct StreamResult
{
    /** Compute stats of this stream, merged over devices. */
    DramStats compute;
    /** Host-transfer (transposition) stats of this stream. */
    DramStats transfer;
    /**
     * End-to-end wall time (host ns): from ENTRY into submit() —
     * before the submit lock, validation, and any Block-mode
     * backpressure wait — to the last device completing the stream.
     * This is the number a serving SLO observes; the backpressure
     * share of it is broken out in backpressureWaitNs. (Historical
     * note: before PR 7 the clock restarted after the backpressure
     * wait, so wallNs silently excluded exactly the time a loaded
     * service spends queueing — see e2eNs()/serviceNs().)
     */
    double wallNs = 0.0;
    /** Number of instructions in the stream (as submitted). */
    size_t instructions = 0;
    /**
     * Of those, how many the stream cache elided as redundant
     * (always 0 when the cache is disabled). Elided instructions
     * contribute nothing to the compute/transfer stats. Always
     * cachedTrspInstructions + cachedInitInstructions.
     */
    size_t cachedInstructions = 0;
    /** Transposition elisions (bbop_trsp / bbop_trsp_inv) of those. */
    size_t cachedTrspInstructions = 0;
    /** Constant-fill elisions (bbop_init) of those. */
    size_t cachedInitInstructions = 0;
    /**
     * Instructions of this stream removed by the optimizer passes
     * (hoisting + dead-write elimination) before dispatch — distinct
     * from cachedInstructions, which attributes the runtime cache.
     */
    size_t optimizedInstructions = 0;
    /**
     * Deepest per-device queue (this stream included) observed when
     * the stream was enqueued — the stream's watermark.
     */
    size_t queueDepthAtSubmit = 0;
    /** Host ns submit() spent blocked on backpressure (Block only). */
    double backpressureWaitNs = 0.0;
    /**
     * Execution attempts the stream needed, maximized over devices
     * (1 = clean first run; includes the quarantine fallback pass).
     * Always 1 with IntegrityMode::Off.
     */
    size_t attempts = 1;
    /** Integrity-check failures detected, summed over devices. */
    size_t faultsDetected = 0;
    /**
     * Where quarantine recovery re-executed this stream's ops:
     * -1 = no quarantine recovery (the common case), >= 0 = the
     * healthy device that ran them, -2 = the host reference path
     * (no healthy device remained).
     */
    int recoveredOnDevice = -1;

    /**
     * @return The true end-to-end latency of the stream: submit entry
     *         to last device completion, backpressure wait included.
     *         An explicit accessor so call sites reading an SLO
     *         number cannot accidentally pick up a partial clock;
     *         always >= backpressureWaitNs.
     */
    double e2eNs() const { return wallNs; }

    /**
     * @return The post-admission share of e2eNs(): queue + execute
     *         time once the stream had secured queue space (the
     *         quantity wallNs used to report before PR 7).
     */
    double serviceNs() const
    {
        return wallNs > backpressureWaitNs
                   ? wallNs - backpressureWaitNs
                   : 0.0;
    }
};

/** Future-style handle to a submitted stream. */
class StreamHandle
{
  public:
    StreamHandle() = default;

    /** @return True if the handle refers to a submitted stream. */
    bool valid() const { return state_ != nullptr; }

    /**
     * Blocks until the stream completes on every device and returns
     * its result. Rethrows any error raised during execution.
     */
    StreamResult wait();

    /**
     * Blocks until the stream completes or @p timeoutUs host
     * microseconds elapse, whichever is first. @return True iff the
     * stream is complete (wait() will not block). Non-consuming and
     * side-effect-free: it never rethrows a stream error — callers
     * still collect the result (or the error) through wait() — so it
     * can be polled to implement caller-side deadlines without
     * blocking forever behind a stalled device.
     */
    bool waitFor(double timeoutUs);

    /**
     * Blocks until the stream completes and returns its result
     * WITHOUT rethrowing an execution error: a failed stream's
     * attempts / faultsDetected / recoveredOnDevice counters are
     * still populated, and accounting layers (tenant chargeback,
     * fault attribution) need them even when wait() would throw.
     * Non-consuming: wait() still reports the error afterwards.
     */
    StreamResult waitResult();

    /** @return True once the stream has completed (non-blocking). */
    bool done() const;

  private:
    friend class StreamExecutor;
    std::shared_ptr<detail::StreamState> state_;
};

/**
 * The abstract bbop-stream service surface: everything a client
 * (StreamBuilder assembling programs, RequestCoalescer batching
 * requests, a tenant's virtual view of a shared executor) needs to
 * define objects, move data, and run streams — without naming the
 * concrete executor. StreamExecutor is the physical implementation;
 * TenantExecutor::view() returns a per-tenant virtualization whose
 * object ids live in that tenant's namespace.
 */
class StreamService
{
  public:
    virtual ~StreamService() = default;

    /** Registers an object of @p elements × @p bits; returns its id. */
    virtual uint16_t defineObject(size_t elements, size_t bits) = 0;

    /**
     * Releases object @p id: its group allocation is freed (after any
     * in-flight streams complete) and every further use of the id is
     * rejected with a typed BbopError.
     */
    virtual void releaseObject(uint16_t id) = 0;

    /**
     * Writes host data into the object's horizontal image. Data with
     * an element wider than the object is a typed BbopError
     * (checkHostData in isa/validate.h), with no side effect.
     */
    virtual void writeObject(uint16_t id,
                             const std::vector<uint64_t> &data) = 0;

    /** @return The object's current horizontal image. */
    virtual std::vector<uint64_t> readObject(uint16_t id) = 0;

    /** @return Shape/layout of object @p id (BbopError if unknown). */
    virtual BbopObjectShape objectShape(uint16_t id) const = 0;

    /** Validates and enqueues a decoded instruction stream. */
    virtual StreamHandle
    submit(const std::vector<BbopInstr> &stream) = 0;

    /** Validates and enqueues a multi-segment program. */
    virtual std::vector<StreamHandle> submit(const StreamIR &ir) = 0;

    /** Blocks until every stream this service submitted completed. */
    virtual void sync() = 0;
};

/** Asynchronous bbop-stream service over a DeviceGroup. */
class StreamExecutor : public StreamService, private BbopObjectView
{
  public:
    /**
     * Spawns one worker thread per device of @p group (borrowed;
     * must outlive the executor).
     */
    explicit StreamExecutor(DeviceGroup &group)
        : StreamExecutor(group, StreamExecutorOptions{})
    {}

    /** As above, with bounded-queue/backpressure options. */
    StreamExecutor(DeviceGroup &group, StreamExecutorOptions opts);

    /** Drains pending streams and joins the workers. */
    ~StreamExecutor() override;

    StreamExecutor(const StreamExecutor &) = delete;
    StreamExecutor &operator=(const StreamExecutor &) = delete;

    /** @return The device group driven by this executor. */
    DeviceGroup &group() { return *group_; }

    /** @return The executor's options. */
    const StreamExecutorOptions &options() const { return opts_; }

    /**
     * Registers a memory object of @p elements elements of @p bits
     * bits and returns its object id. The vertical (sharded) storage
     * is reserved up front; bbop_trsp populates it.
     */
    uint16_t defineObject(size_t elements, size_t bits) override;

    /**
     * Releases object @p id: drains in-flight streams (so none can
     * still reference the storage), frees the group allocation back
     * to the devices (identically-shaped re-definitions recycle the
     * rows), and marks the id dead — any further bbop reference,
     * read/write, or objectShape() of it raises a typed BbopError.
     * Ids are never reused; the table slot stays as a tombstone.
     */
    void releaseObject(uint16_t id) override;

    /**
     * Writes host data into an object's horizontal image (syncs).
     * Rejects an element wider than the object with a typed
     * BbopError before any side effect.
     */
    void writeObject(uint16_t id,
                     const std::vector<uint64_t> &data) override;

    /** @return The object's current horizontal image (syncs). */
    std::vector<uint64_t> readObject(uint16_t id) override;

    /**
     * Validates and enqueues a decoded instruction stream. Throws
     * BbopError (enqueuing nothing) if any instruction is malformed,
     * and StreamRejectedError (equally without side effects) if a
     * bounded queue is full under BackpressurePolicy::Reject.
     * Thread-safe: streams may be submitted from multiple threads;
     * the submission order defines the execution order.
     */
    StreamHandle submit(const std::vector<BbopInstr> &stream) override;

    /** Decodes a stream of 64-bit bbop words and submits it. */
    StreamHandle submit(const std::vector<uint64_t> &encoded);

    /**
     * Validates and enqueues a multi-segment program (typically built
     * with StreamBuilder). The ORIGINAL program is validated as a
     * unit — a malformed instruction anywhere rejects the whole
     * program atomically — then the enabled optimizer passes run and
     * one stream per surviving segment is dispatched, in order.
     * Returns one handle per final segment (fusion merges handles:
     * a fused segment's handle covers every original segment folded
     * into it). Same backpressure semantics as submit(stream), with
     * Reject requiring room for ALL segments up front.
     */
    std::vector<StreamHandle> submit(const StreamIR &ir) override;

    /**
     * @return Shape and layout state of object @p id, for callers
     *         (StreamBuilder) that derive instruction widths from the
     *         object table. Throws BbopError on unknown ids.
     */
    BbopObjectShape objectShape(uint16_t id) const override;

    /** Blocks until every submitted stream has completed. */
    void sync() override;

    /** @return The number of worker threads (= devices). */
    size_t workerCount() const;

    /**
     * @return The number of host helper threads that run bank parts
     *         of device jobs (see the file comment): min(host cores
     *         - devices, devices x (computeBanks - 1)), at least 0.
     *         Derived from the machine when the executor is built;
     *         the threads start on the first split job.
     */
    size_t hostHelperCount() const;

    /**
     * @return The deepest per-device queue depth any submit() has
     *         observed over the executor's lifetime.
     *
     * This and the counters below are wait-free: they read atomics
     * and never touch submit_mu_, so a monitoring thread (e.g. the
     * serving harness polling for its stats roll-up) cannot be
     * starved by a submitter that holds the submit lock across a
     * long Block-mode backpressure wait.
     */
    size_t queueHighWatermark() const;

    /**
     * @return Total instructions elided by the stream cache over the
     *         executor's lifetime (0 when the cache is disabled).
     *         Always cacheTrspHits() + cacheInitHits(). Wait-free,
     *         but the two addends are read independently: a sum
     *         racing a concurrent submit may briefly exclude its
     *         newest hits.
     */
    uint64_t cacheHits() const;

    /** @return Lifetime trsp/trsp_inv elisions by the stream cache. */
    uint64_t cacheTrspHits() const;

    /** @return Lifetime bbop_init elisions by the stream cache. */
    uint64_t cacheInitHits() const;

    /**
     * @return Total instructions removed by the optimizer passes over
     *         the executor's lifetime (0 with all passes disabled).
     */
    uint64_t optimizedInstructionCount() const;

    /**
     * @return Lifetime count of lint diagnostics produced by
     *         Warn/Strict-mode submissions (0 with lintMode Off).
     *         Wait-free like the counters above: a monitor polling
     *         "is the fleet still lint-clean?" never blocks behind a
     *         submitter. Draining does not reset it.
     */
    uint64_t lintDiagnosticCount() const;

    /**
     * @return Every accumulated diagnostic, in submission order,
     *         emptying the buffer. Takes the submit lock (briefly —
     *         the buffer is moved out).
     */
    std::vector<StreamDiagnostic> drainDiagnostics();

    /**
     * @return Lifetime integrity-check failures detected on device
     *         @p d (0 with IntegrityMode::Off). Wait-free, like the
     *         counters above.
     */
    uint64_t deviceFaultCount(size_t d) const;

    /**
     * @return False once device @p d has been quarantined (its
     *         detected-fault count reached quarantineFaultThreshold).
     *         Wait-free.
     */
    bool deviceHealthy(size_t d) const;

    /** @return Number of currently quarantined devices. Wait-free. */
    size_t quarantinedDeviceCount() const;

  private:
    struct Object;
    struct PreparedInstr;
    struct Worker;
    struct BankPart;
    struct Helpers;

    /** Per-device shard views of one operand, shared per object. */
    using PreparedInstrViews =
        std::shared_ptr<const std::vector<DeviceGroup::ShardView>>;

    /** One dispatched segment, operands resolved. */
    using PreparedProgram =
        std::shared_ptr<const std::vector<PreparedInstr>>;

    Object &object(uint16_t id) SIMDRAM_REQUIRES(submit_mu_);

    // BbopObjectView over the object table (for the validator and
    // the analyzer; both only run under submit_mu_). The REQUIRES
    // contract is enforced at our direct call sites — calls through
    // the BbopObjectView base are outside the analysis, which is why
    // every such call happens inside submitLocked()/objectShape().
    size_t objectCount() const override SIMDRAM_REQUIRES(submit_mu_)
    {
        return objects_.size();
    }
    BbopObjectShape shape(uint16_t id) const override
        SIMDRAM_REQUIRES(submit_mu_);

    /**
     * Resolves one already-validated segment into per-instruction
     * object pointers and shard views (@p views caches them per
     * object across a submission's segments). Touches no executor
     * state.
     */
    PreparedProgram resolveSegment(
        const std::vector<BbopInstr> &seg,
        std::map<const Object *, PreparedInstrViews> &views)
        SIMDRAM_REQUIRES(submit_mu_);

    /**
     * Whole submit path for one program; submit_mu_ held. @p entry
     * is the wall-clock instant the public submit() was entered —
     * the origin of every resulting stream's end-to-end clock
     * (StreamResult::wallNs), captured BEFORE the submit lock and
     * any backpressure wait.
     */
    std::vector<StreamHandle> submitLocked(
        const StreamIR &ir,
        std::chrono::steady_clock::time_point entry)
        SIMDRAM_REQUIRES(submit_mu_);

    /**
     * Applies the Reject backpressure policy to a submission whose
     * job s goes to the devices @p targets[s]: throws
     * StreamRejectedError unless every device queue has room for ALL
     * of its jobs (all-or-nothing — workers only shrink queues, so
     * room observed here still exists at push).
     * Under Block this is a no-op; the per-segment push waits
     * instead. Called with submit_mu_ held, before any commit.
     */
    void reserveQueueSpace(
        const std::vector<std::vector<size_t>> &targets)
        SIMDRAM_REQUIRES(submit_mu_);

    /**
     * Throws PlacementError unless instruction #@p index can run on
     * every device holding a shard of its destination (see
     * Processor::placementError()).
     */
    static void checkPlacement(const PreparedInstr &pi, size_t index);

    /** @return The devices holding a shard of any destination of
     *          @p prog; every device if none does. */
    std::vector<size_t>
    targetsOf(const std::vector<PreparedInstr> &prog) const;

    void workerMain(size_t d);

    /** Runs @p pi on device @p d, on one bank's segments or all. */
    void execOn(size_t d, const PreparedInstr &pi,
                size_t bank = Processor::kAllBanks);

    /**
     * @return How many bank parts device @p d's job @p prog splits
     *         into under IntegrityMode::Off on a healthy device: the
     *         banks holding its segments, or 1 (run it serially) when
     *         fewer than two do, no helper exists, or a fault
     *         mechanism is active on the device.
     */
    size_t bankParts(size_t d,
                     const std::vector<PreparedInstr> &prog) const;

    /**
     * Runs @p prog on device @p d as @p banks bank parts: accounts
     * its transfers and compiles its operations first, in serial
     * order, then hands every part but bank 0 to the helpers, runs
     * bank 0, takes back any part no helper has started, and joins
     * the rest. Rethrows the first error in bank order.
     */
    void runSplit(size_t d, const std::vector<PreparedInstr> &prog,
                  size_t banks);

    /** Runs one bank part, recording its error. */
    void runPart(BankPart &part);

    void helperMain();

    /** Per-device shadow/snapshot state of one in-flight job (one
     *  execution attempt's worth of verification context). */
    struct ShadowCtx;

    /**
     * Runs one dequeued stream on device @p d with the configured
     * detection/recovery pipeline (deadline → attempts → integrity
     * verify → backoff/retry → quarantine fallback). Device lock
     * held via @p devlock (released only around backoff sleeps).
     * @return The error to record, or nullptr on success; fills the
     * per-device attempt/fault/recovery attribution out-params.
     */
    std::exception_ptr
    runJob(size_t d, std::unique_lock<std::mutex> &devlock,
           const detail::StreamState &st,
           const std::vector<PreparedInstr> &prog, size_t &attempts,
           size_t &faults, int &recoveredOn);

    /** Snapshots operands + simulates the host-side shadow. */
    void prepareShadow(size_t d,
                       const std::vector<PreparedInstr> &prog,
                       ShadowCtx &ctx);

    /** Restores device @p d's pre-stream state from the snapshot. */
    void restoreJob(size_t d, const ShadowCtx &ctx);

    /**
     * Executes the program on device @p d, applying the per-op
     * temporal redundancy check under IntegrityMode::DualModular and
     * the end-of-stream shadow comparison for both modes. @return
     * npos on clean verification, else the index of the instruction
     * the detected corruption is attributed to.
     */
    size_t executeChecked(size_t d,
                          const std::vector<PreparedInstr> &prog,
                          const ShadowCtx &ctx);

    /**
     * Quarantine fallback: executes the program for device @p d with
     * every bbop op re-executed on the first healthy device (or the
     * host reference kernels when none remains); TRA-free
     * instructions run on @p d directly. Sets @p recoveredOn.
     */
    void fallbackJob(size_t d,
                     const std::vector<PreparedInstr> &prog,
                     int &recoveredOn);

    DeviceGroup *group_;
    StreamExecutorOptions opts_;
    std::vector<std::unique_ptr<Worker>> workers_;
    std::unique_ptr<Helpers> helpers_;
    /** Serializes submit()/defineObject() and the object table. */
    mutable Mutex submit_mu_;
    /** The object table, including per-object layout and cache facts. */
    std::vector<std::unique_ptr<Object>> objects_
        SIMDRAM_GUARDED_BY(submit_mu_);
    /** Lint findings accumulated by Warn/Strict submissions, in
     *  submission order, until drainDiagnostics() collects them. */
    std::vector<StreamDiagnostic> lint_diags_
        SIMDRAM_GUARDED_BY(submit_mu_);
    /**
     * Lifetime counters. Writers are serialized by submit_mu_ (so
     * plain read-modify-write under the lock is single-writer), but
     * they are atomics so the getters can read them WITHOUT the
     * lock: a Block-mode submit() holds submit_mu_ for its whole
     * backpressure wait, and a monitoring getter must not block (or
     * race, under TSan) behind it.
     */
    std::atomic<size_t> high_watermark_{0};
    std::atomic<uint64_t> cache_trsp_hits_{0};
    std::atomic<uint64_t> cache_init_hits_{0};
    std::atomic<uint64_t> optimized_count_{0};
    std::atomic<uint64_t> lint_count_{0};
    /** Monotonic stream submission sequence (attribution). */
    std::atomic<uint64_t> stream_seq_{0};
    /**
     * Per-device health state. Written by the owning device's worker
     * (under its device lock), read wait-free by the getters and by
     * quarantined workers scanning for a healthy peer; atomics keep
     * those cross-thread reads race-free.
     */
    std::unique_ptr<std::atomic<uint64_t>[]> fault_counts_;
    std::unique_ptr<std::atomic<bool>[]> healthy_;
};

} // namespace simdram

#endif // SIMDRAM_RUNTIME_STREAM_EXECUTOR_H
