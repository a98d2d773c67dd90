#include "runtime/stream_executor.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <string>
#include <thread>
#include <utility>

#include "baseline/host_kernels.h"
#include "common/error.h"
#include "stream/passes.h"

namespace simdram
{

namespace detail
{

/** Shared completion state of one submitted stream. */
struct StreamState
{
    std::mutex mu;
    std::condition_variable cv;
    /** Devices that have not finished this stream yet. */
    size_t remaining = 0;
    StreamResult result;
    /** First error raised during execution, if any. */
    std::exception_ptr error;
    /** Submit-ENTRY time: origin of the end-to-end wall clock
     *  (set before the submit lock and any backpressure wait). */
    std::chrono::steady_clock::time_point t0;
    /** Submission sequence number (error attribution). */
    uint64_t seq = 0;
};

} // namespace detail

/** One entry of the group-wide bbop object table. */
struct StreamExecutor::Object
{
    size_t elements = 0;
    size_t bits = 0;
    std::vector<uint64_t> hostImage;
    /** Sharded vertical storage, reserved at defineObject(). */
    ShardedVec vec;
    /** Layout shadow state, guarded by submit_mu_. */
    bool vertical = false;
    /**
     * Stream-cache entry fact, guarded by submit_mu_: the redundancy
     * fact accepted submissions left behind. Its mirror only holds
     * while the vector's mutation generation still equals cleanGen.
     */
    RedundancyFact cache;
    uint64_t cleanGen = 0;
    /**
     * Tombstone set by releaseObject(): the group allocation is gone
     * and every further reference to the id is a typed BbopError.
     */
    bool released = false;
};

/**
 * One validated instruction with its operands resolved: the Object
 * (for host-image access) and, per device, the ShardView of every
 * operand. Views are resolved once at submission, so a worker's hot
 * path drives its Processor directly — no group bookkeeping, no
 * locks beyond the device mutex it already holds.
 */
struct StreamExecutor::PreparedInstr
{
    BbopInstr instr;
    Object *dst = nullptr;
    Object *src1 = nullptr;
    Object *src2 = nullptr;
    Object *sel = nullptr;
    /** Per-device views of each operand, shared per object. */
    using Views = PreparedInstrViews;
    Views dstV, src1V, src2V, selV;
};

/** One compute bank's share of a device job (see runSplit()). */
struct StreamExecutor::BankPart
{
    enum class State
    {
        Queued,  ///< Posted; no thread has started it.
        Running, ///< A helper or the worker runs it.
        Done,
    };

    const std::vector<PreparedInstr> *prog = nullptr;
    size_t device = 0;
    size_t bank = 0;
    State state = State::Queued; ///< Guarded by Helpers::mu.
    std::exception_ptr error;
};

/**
 * The host helper threads, shared by every device worker. A worker
 * posts the bank parts of its job to one FIFO; any idle helper pops
 * the front part and runs it. Started on the first split job.
 */
struct StreamExecutor::Helpers
{
    explicit Helpers(size_t n) : count(n) {}

    const size_t count;
    std::mutex mu;
    std::condition_variable work_cv; ///< A part was posted, or stop.
    std::condition_variable done_cv; ///< A part finished.
    std::deque<BankPart *> queue;
    /** queue.size(), written under mu, read by spinning helpers. */
    std::atomic<size_t> queued{0};
    std::vector<std::thread> threads;
    bool stop = false;
};

/** Per-device worker thread and its FIFO of stream jobs. */
struct StreamExecutor::Worker
{
    struct Job
    {
        std::shared_ptr<detail::StreamState> state;
        PreparedProgram prog;
    };

    std::thread th;
    std::mutex mu;
    std::condition_variable cv;      ///< New work or stop.
    std::condition_variable idle_cv; ///< Queue drained and not busy.
    std::condition_variable space_cv; ///< A queued job was popped.
    std::deque<Job> q;
    bool busy = false;
    bool stop = false;
    /** Bank parts of the running job; only the worker resizes it. */
    std::vector<BankPart> parts;
};

/**
 * Per-device verification context of one in-flight stream: the
 * pre-stream snapshot of every operand shard this device touches
 * (restore source for retry / side-effect-free failure) and the
 * host-computed shadow of what a fault-free execution must produce.
 * Built once per job under the device lock; attempts re-verify
 * against it.
 */
struct StreamExecutor::ShadowCtx
{
    struct ObjCtx
    {
        Object *obj = nullptr;
        /** This device's shard of the object. */
        DeviceGroup::ShardView view;
        /** Pre-stream vertical lanes (restore + shadow seed). */
        std::vector<uint64_t> initLanes;
        /** Pre-stream host-image slice (restore + shadow seed). */
        std::vector<uint64_t> initHost;
        /** Expected post-stream vertical lanes. */
        std::vector<uint64_t> shadow;
        /** Expected post-stream host-image slice. */
        std::vector<uint64_t> shadowHost;
        /** True if any executed instruction writes the object. */
        bool written = false;
        /** Program index of the last instruction writing it. */
        size_t lastWriter = 0;
    };

    std::map<const Object *, size_t> index;
    std::vector<ObjCtx> objs;
};

namespace
{

constexpr size_t kCleanRun = static_cast<size_t>(-1);

uint64_t
laneMask(size_t bits)
{
    return bits >= 64 ? ~0ULL : ((1ULL << bits) - 1);
}

/**
 * The Checksum-mode signature of a lane vector: an XOR fold plus the
 * total popcount. Any corruption confined to one lane flips both the
 * fold and (except for compensating flips) the count; corruptions
 * that preserve both folds alias — DualModular exists for those.
 */
std::pair<uint64_t, uint64_t>
foldSignature(const std::vector<uint64_t> &lanes)
{
    uint64_t fold = 0;
    uint64_t pops = 0;
    for (uint64_t w : lanes) {
        fold ^= w;
        pops += static_cast<uint64_t>(std::popcount(w));
    }
    return {fold, pops};
}

} // namespace

StreamExecutor::StreamExecutor(DeviceGroup &group,
                               StreamExecutorOptions opts)
    : group_(&group), opts_(opts)
{
    const size_t devices = group.deviceCount();
    fault_counts_ = std::make_unique<std::atomic<uint64_t>[]>(devices);
    healthy_ = std::make_unique<std::atomic<bool>[]>(devices);
    for (size_t d = 0; d < devices; ++d) {
        fault_counts_[d].store(0, std::memory_order_relaxed);
        healthy_[d].store(true, std::memory_order_relaxed);
    }
    // Helpers use the cores the device workers leave free, and a
    // device never needs more than one per extra compute bank.
    const size_t cores = std::thread::hardware_concurrency();
    helpers_ = std::make_unique<Helpers>(
        cores > devices
            ? std::min(cores - devices,
                       devices * (group.config().computeBanks - 1))
            : 0);
    workers_.reserve(devices);
    for (size_t d = 0; d < devices; ++d)
        workers_.push_back(std::make_unique<Worker>());
    for (size_t d = 0; d < devices; ++d)
        workers_[d]->th =
            std::thread([this, d] { workerMain(d); });
}

StreamExecutor::~StreamExecutor()
{
    sync();
    for (auto &w : workers_) {
        std::lock_guard<std::mutex> lock(w->mu);
        w->stop = true;
        w->cv.notify_all();
    }
    for (auto &w : workers_)
        w->th.join();
    {
        std::lock_guard<std::mutex> lock(helpers_->mu);
        helpers_->stop = true;
    }
    helpers_->work_cv.notify_all();
    for (std::thread &t : helpers_->threads)
        t.join();
}

size_t
StreamExecutor::workerCount() const
{
    return workers_.size();
}

size_t
StreamExecutor::hostHelperCount() const
{
    return helpers_->count;
}

// The lifetime counters are written only under submit_mu_ but read
// lock-free: a getter must never queue behind (or race with) a
// submitter that holds the lock across a Block-mode backpressure
// wait. Relaxed ordering is enough — each counter is an independent
// monotonic statistic, not a synchronization point.

size_t
StreamExecutor::queueHighWatermark() const
{
    return high_watermark_.load(std::memory_order_relaxed);
}

uint64_t
StreamExecutor::cacheHits() const
{
    return cache_trsp_hits_.load(std::memory_order_relaxed) +
           cache_init_hits_.load(std::memory_order_relaxed);
}

uint64_t
StreamExecutor::cacheTrspHits() const
{
    return cache_trsp_hits_.load(std::memory_order_relaxed);
}

uint64_t
StreamExecutor::cacheInitHits() const
{
    return cache_init_hits_.load(std::memory_order_relaxed);
}

uint64_t
StreamExecutor::optimizedInstructionCount() const
{
    return optimized_count_.load(std::memory_order_relaxed);
}

uint64_t
StreamExecutor::lintDiagnosticCount() const
{
    return lint_count_.load(std::memory_order_relaxed);
}

uint64_t
StreamExecutor::deviceFaultCount(size_t d) const
{
    if (d >= workers_.size())
        fatal("StreamExecutor: bad device index");
    return fault_counts_[d].load(std::memory_order_relaxed);
}

bool
StreamExecutor::deviceHealthy(size_t d) const
{
    if (d >= workers_.size())
        fatal("StreamExecutor: bad device index");
    return healthy_[d].load(std::memory_order_relaxed);
}

size_t
StreamExecutor::quarantinedDeviceCount() const
{
    size_t n = 0;
    for (size_t d = 0; d < workers_.size(); ++d)
        if (!healthy_[d].load(std::memory_order_relaxed))
            ++n;
    return n;
}

std::vector<StreamDiagnostic>
StreamExecutor::drainDiagnostics()
{
    MutexLock lock(submit_mu_);
    std::vector<StreamDiagnostic> out = std::move(lint_diags_);
    lint_diags_.clear();
    return out;
}

StreamExecutor::Object &
StreamExecutor::object(uint16_t id)
{
    if (id >= objects_.size())
        bbopError("StreamExecutor: unknown object id d" +
                  std::to_string(id));
    if (objects_[id]->released)
        bbopError("StreamExecutor: released object id d" +
                  std::to_string(id));
    return *objects_[id];
}

BbopObjectShape
StreamExecutor::shape(uint16_t id) const
{
    const Object &obj = *objects_[id];
    // The validator seeds itself from every table entry, so a
    // tombstone must not throw here; its zero shape instead fails
    // any instruction that references the released id (typed
    // BbopError, stream rejected as a unit).
    if (obj.released)
        return BbopObjectShape{};
    return {obj.elements, obj.bits, obj.vertical};
}

BbopObjectShape
StreamExecutor::objectShape(uint16_t id) const
{
    MutexLock lock(submit_mu_);
    if (id >= objects_.size())
        bbopError("StreamExecutor: unknown object id d" +
                  std::to_string(id));
    if (objects_[id]->released)
        bbopError("StreamExecutor: released object id d" +
                  std::to_string(id));
    return shape(id);
}

uint16_t
StreamExecutor::defineObject(size_t elements, size_t bits)
{
    auto obj = std::make_unique<Object>();
    obj->elements = elements;
    obj->bits = bits;
    obj->hostImage.assign(elements, 0);
    // Reserving the vertical storage up front keeps workers free of
    // allocation: bbop_trsp only moves data. Rows in the functional
    // model exist either way, so this costs no extra memory. The
    // alloc happens before submit_mu_ so defineObject never nests
    // the device mutexes inside the submit lock.
    obj->vec = group_->alloc(elements, bits);
    MutexLock lock(submit_mu_);
    if (objects_.size() >= kNoObject)
        fatal("StreamExecutor: object table full");
    objects_.push_back(std::move(obj));
    return static_cast<uint16_t>(objects_.size() - 1);
}

void
StreamExecutor::releaseObject(uint16_t id)
{
    // Same ordering as writeObject: exclude submitters first, then
    // drain, so no stream referencing the object can be in flight or
    // sneak in while we free the storage.
    MutexLock lock(submit_mu_);
    sync();
    Object &obj = object(id); // BbopError on unknown/double release
    group_->release(obj.vec);
    obj.released = true;
    obj.vec = ShardedVec{};
    obj.hostImage = std::vector<uint64_t>();
    obj.vertical = false;
    obj.cache = RedundancyFact{};
}

void
StreamExecutor::writeObject(uint16_t id,
                            const std::vector<uint64_t> &data)
{
    // Take submit_mu_ BEFORE draining: a submit() sneaking in
    // between sync() and the host-image write would put workers back
    // in flight while we mutate hostImage. Workers never take
    // submit_mu_, so they can still drain while we hold it.
    MutexLock lock(submit_mu_);
    sync();
    Object &obj = object(id);
    if (data.size() != obj.elements)
        fatal("StreamExecutor::writeObject: element count mismatch");
    checkHostData(data, obj.bits, "StreamExecutor::writeObject");
    obj.hostImage = data;
    obj.cache.hasConst = false;
    if (obj.vertical) {
        // Keep the vertical copy coherent, as the dispatcher does on
        // a horizontal write to a transposed object — which also
        // means a subsequent trsp of this object is redundant and
        // the stream cache may elide it.
        group_->store(obj.vec, obj.hostImage);
        obj.cache.mirror = true;
        obj.cleanGen = group_->mutationGen(obj.vec);
    } else {
        obj.cache.mirror = false;
    }
}

std::vector<uint64_t>
StreamExecutor::readObject(uint16_t id)
{
    // Same ordering as writeObject: exclude submitters, then drain.
    MutexLock lock(submit_mu_);
    sync();
    return object(id).hostImage;
}

StreamExecutor::PreparedProgram
StreamExecutor::resolveSegment(
    const std::vector<BbopInstr> &seg,
    std::map<const Object *, PreparedInstrViews> &view_cache)
{
    // The segment is part of the validated, optimized program (see
    // submitLocked); this only resolves operands.

    // Shard geometry is immutable after alloc(), so resolve each
    // distinct object's per-device views once per submission; the
    // instructions share them by pointer, across segments too.
    const size_t devices = workers_.size();
    auto viewsOf = [&](const Object *o) -> PreparedInstr::Views {
        auto it = view_cache.find(o);
        if (it == view_cache.end()) {
            std::vector<DeviceGroup::ShardView> v;
            v.reserve(devices);
            for (size_t d = 0; d < devices; ++d)
                v.push_back(group_->shardView(o->vec, d));
            it = view_cache
                     .emplace(o,
                              std::make_shared<const std::vector<
                                  DeviceGroup::ShardView>>(
                                  std::move(v)))
                     .first;
        }
        return it->second;
    };

    std::vector<PreparedInstr> out;
    out.reserve(seg.size());
    for (const BbopInstr &in : seg) {
        // Resolve the well-formed instruction's operands.
        PreparedInstr pi;
        pi.instr = in;
        switch (in.opcode) {
          case BbopOpcode::Trsp:
          case BbopOpcode::TrspInv:
          case BbopOpcode::Init:
            pi.dst = objects_[in.dst].get();
            break;
          case BbopOpcode::ShiftL:
          case BbopOpcode::ShiftR:
            pi.dst = objects_[in.dst].get();
            pi.src1 = objects_[in.src1].get();
            break;
          case BbopOpcode::Op: {
            const auto sig = signatureOf(in.op, in.width);
            pi.dst = objects_[in.dst].get();
            pi.src1 = objects_[in.src1].get();
            if (sig.numInputs == 2)
                pi.src2 = objects_[in.src2].get();
            if (sig.hasSel)
                pi.sel = objects_[in.sel].get();
            break;
          }
        }

        // Attach every operand's per-device shard views, so the
        // workers never touch group bookkeeping.
        if (pi.dst != nullptr)
            pi.dstV = viewsOf(pi.dst);
        if (pi.src1 != nullptr)
            pi.src1V = viewsOf(pi.src1);
        if (pi.src2 != nullptr)
            pi.src2V = viewsOf(pi.src2);
        if (pi.sel != nullptr)
            pi.selV = viewsOf(pi.sel);
        checkPlacement(pi, out.size());
        out.push_back(std::move(pi));
    }

    return std::make_shared<const std::vector<PreparedInstr>>(
        std::move(out));
}

void
StreamExecutor::checkPlacement(const PreparedInstr &pi, size_t index)
{
    const BbopInstr &in = pi.instr;
    if (in.opcode != BbopOpcode::Op && in.opcode != BbopOpcode::ShiftL &&
        in.opcode != BbopOpcode::ShiftR)
        return;
    const PreparedInstrViews *inputs[] = {&pi.src1V, &pi.src2V,
                                          &pi.selV};
    size_t n = 0;
    while (n < 3 && *inputs[n] != nullptr)
        ++n;
    for (size_t d = 0; d < pi.dstV->size(); ++d) {
        const DeviceGroup::ShardView &dv = (*pi.dstV)[d];
        if (dv.count == 0)
            continue; // execOn skips this device
        for (size_t s = 0; s < dv.segments->size(); ++s) {
            Processor::PlacedSegment placed[3];
            for (size_t i = 0; i < n; ++i) {
                const DeviceGroup::ShardView &v = (**inputs[i])[d];
                placed[i] = {&(*v.segments)[s], v.handle.bits};
            }
            const char *why = Processor::placementError(
                placed, n, {&(*dv.segments)[s], dv.handle.bits});
            if (why != nullptr)
                throw PlacementError(
                    "StreamExecutor: instruction #" +
                    std::to_string(index) + " cannot run on device d" +
                    std::to_string(d) + ", segment " +
                    std::to_string(s) + ": " + why);
        }
    }
}

std::vector<size_t>
StreamExecutor::targetsOf(const std::vector<PreparedInstr> &prog) const
{
    std::vector<size_t> out;
    out.reserve(workers_.size());
    for (size_t d = 0; d < workers_.size(); ++d)
        for (const PreparedInstr &pi : prog)
            if ((*pi.dstV)[d].count != 0) {
                out.push_back(d);
                break;
            }
    // A program with no work still completes in FIFO order behind
    // every device's earlier streams.
    if (out.empty())
        for (size_t d = 0; d < workers_.size(); ++d)
            out.push_back(d);
    return out;
}

void
StreamExecutor::reserveQueueSpace(
    const std::vector<std::vector<size_t>> &targets)
{
    if (opts_.maxQueuedStreams == 0 ||
        opts_.onFull != BackpressurePolicy::Reject)
        return;
    // submit_mu_ is held: no other submitter can enqueue, and
    // workers only ever shrink their queues, so space observed here
    // still exists when the caller pushes. The whole submission is
    // rejected unless ALL of its segments fit — a partially enqueued
    // program would not be side-effect-free.
    std::vector<size_t> jobs(workers_.size(), 0);
    for (const std::vector<size_t> &t : targets)
        for (size_t d : t)
            ++jobs[d];
    for (size_t d = 0; d < workers_.size(); ++d) {
        Worker *w = workers_[d].get();
        std::lock_guard<std::mutex> lock(w->mu);
        if (w->q.size() + jobs[d] > opts_.maxQueuedStreams)
            throw StreamRejectedError(
                "StreamExecutor: device queue full (" +
                std::to_string(opts_.maxQueuedStreams) +
                " streams queued)");
    }
}

StreamHandle
StreamExecutor::submit(const std::vector<BbopInstr> &stream)
{
    // The end-to-end clock starts HERE, before the submit lock: lock
    // contention and the Block-mode backpressure wait are time the
    // caller's request spends in the service, and wallNs promises
    // submit-to-last-device-completion.
    const auto entry = std::chrono::steady_clock::now();
    MutexLock lock(submit_mu_);
    // A raw stream is a one-segment program: lift, optimize,
    // dispatch. Fusion has nothing to merge, so exactly one handle
    // comes back.
    return submitLocked(StreamIR::lift(stream), entry).front();
}

std::vector<StreamHandle>
StreamExecutor::submit(const StreamIR &ir)
{
    const auto entry = std::chrono::steady_clock::now();
    MutexLock lock(submit_mu_);
    return submitLocked(ir, entry);
}

std::vector<StreamHandle>
StreamExecutor::submitLocked(const StreamIR &ir,
                             std::chrono::steady_clock::time_point entry)
{
    if (ir.segments == 0)
        bbopError("StreamExecutor: program has no segments");
    for (const auto &n : ir.nodes)
        if (n.segment >= ir.segments)
            bbopError("StreamExecutor: node segment out of range");

    // Validate the ORIGINAL program as a unit: a malformed
    // instruction anywhere rejects the whole submission with nothing
    // touched. All rule checking lives in the shared validator (the
    // same one the BbopDispatcher uses); it validates against a
    // scratch copy of the layout state, committed only on acceptance.
    BbopValidator validator(*this);
    for (const auto &n : ir.nodes)
        validator.check(n.instr);

    // Run the enabled optimizer passes on a copy — under
    // validatePasses, one pass at a time with the analyzer checking
    // fact preservation in between (same resulting program).
    StreamIR opt = ir;
    const PassOptions popts{
        .trspHoist = opts_.enableTrspHoist,
        .deadWriteElim = opts_.enableDeadWriteElim,
        .fusion = opts_.enableFusion,
    };
    PassStats pstats;
    if (opts_.validatePasses) {
        const TranslationValidation tv = runPassesValidated(
            opt, popts, *this,
            AnalyzerOptions{EntryAssumption::FromView});
        if (!tv.ok())
            throw PassValidationError(
                "StreamExecutor: translation validation failed: " +
                tv.failures.front().message);
        pstats = tv.stats;
        // Passes preserve validity and the final layout state (see
        // passes.h); machine-check that on the optimized lowering.
        BbopValidator recheck(*this);
        for (const auto &seg : opt.lower())
            for (const auto &in : seg)
                recheck.check(in);
    } else {
        pstats = runPasses(opt, popts);
    }

    // Submit-time lint over the optimized program (dead nodes are
    // transparent, so node indices in diagnostics still index the
    // SUBMITTED program). Strict rejects Error findings here — before
    // queue reservation and any commit, as side-effect-free as a
    // validator rejection. Diagnostics are buffered locally and
    // published only if the submission is accepted, so a rejected
    // stream (lint or backpressure) leaves the diagnostic channel
    // untouched too.
    std::vector<StreamDiagnostic> lint;
    if (opts_.lintMode != LintMode::Off) {
        AnalysisResult ar = analyzeStream(
            opt, *this, AnalyzerOptions{EntryAssumption::FromView});
        if (opts_.lintMode == LintMode::Strict) {
            for (const StreamDiagnostic &d : ar.diagnostics)
                if (d.severity == LintSeverity::Error)
                    throw StreamLintError(
                        "StreamExecutor: stream rejected by lint: " +
                        d.message);
        }
        lint = std::move(ar.diagnostics);
    }

    // Per-final-segment as-submitted and pass-removed counts. A fused
    // segment's handle covers every original node folded into it.
    std::vector<StreamResult> results(opt.segments);
    for (const auto &n : opt.nodes) {
        ++results[n.segment].instructions;
        if (n.dead)
            ++results[n.segment].optimizedInstructions;
    }

    // Stream cache: elide once more with the hoisting rule over the
    // surviving nodes, in the order lower() dispatches them, starting
    // from the facts earlier submissions left behind. Only the
    // destinations of surviving nodes are consulted, so only they are
    // seeded — a mirror only while no out-of-band write has bumped the
    // vector's generation since — and only they are committed below.
    std::vector<RedundancyFact> facts;
    std::vector<uint64_t> gens; // read at seeding, for entry mirrors
    std::vector<uint16_t> seeded;
    if (opts_.enableStreamCache) {
        std::vector<size_t> order;
        order.reserve(opt.nodes.size());
        for (size_t n = 0; n < opt.nodes.size(); ++n)
            if (!opt.nodes[n].dead)
                order.push_back(n);
        const auto bySegment = [&](size_t x, size_t y) {
            return opt.nodes[x].segment < opt.nodes[y].segment;
        };
        if (!std::is_sorted(order.begin(), order.end(), bySegment))
            std::stable_sort(order.begin(), order.end(), bySegment);
        facts.resize(objects_.size());
        gens.resize(objects_.size());
        std::vector<uint8_t> isSeeded(objects_.size(), 0);
        for (size_t n : order) {
            const uint16_t id = opt.nodes[n].instr.dst;
            if (isSeeded[id])
                continue;
            isSeeded[id] = 1;
            seeded.push_back(id);
            const Object &o = *objects_[id];
            facts[id] = o.cache;
            if (o.cache.mirror) {
                gens[id] = group_->mutationGen(o.vec);
                facts[id].mirror = o.cleanGen == gens[id];
            }
        }
        elideRedundant(opt, order, facts);
        for (size_t n : order) {
            if (!opt.nodes[n].dead)
                continue;
            StreamResult &r = results[opt.nodes[n].segment];
            ++r.cachedInstructions;
            ++(opt.nodes[n].instr.opcode == BbopOpcode::Init
                   ? r.cachedInitInstructions
                   : r.cachedTrspInstructions);
        }
    }

    // Resolve every surviving segment against one shared view cache.
    const auto segs = opt.lower();
    std::map<const Object *, PreparedInstrViews> views;
    std::vector<PreparedProgram> prepared;
    std::vector<std::vector<size_t>> targets;
    prepared.reserve(segs.size());
    targets.reserve(segs.size());
    for (const auto &seg : segs) {
        prepared.push_back(resolveSegment(seg, views));
        targets.push_back(targetsOf(*prepared.back()));
    }

    // Apply Reject backpressure BEFORE committing anything: a
    // submission turned away by a full queue must be as
    // side-effect-free as a malformed one. (Block waits per segment
    // below instead: committing first is invisible — every observer
    // of the shadow state takes submit_mu_, which we hold.)
    reserveQueueSpace(targets);

    // Accepted: commit the layout of the ORIGINAL program (passes
    // preserve the final layout state) and the exit facts.
    const std::vector<bool> &layout = validator.layout();
    for (size_t i = 0; i < objects_.size(); ++i)
        objects_[i]->vertical = layout[i];
    for (uint16_t id : seeded) {
        // An exit mirror this program's own trsp/init will establish
        // is current as of now; an entry mirror is as of seeding, so
        // a write that raced this submit still invalidates it.
        Object &o = *objects_[id];
        if (facts[id].mirror)
            o.cleanGen = o.cache.mirror ? gens[id]
                                        : group_->mutationGen(o.vec);
        o.cache = facts[id];
    }
    // Single writer (submit_mu_ held), lock-free readers: relaxed
    // read-modify-writes are race-free and never lost.
    for (const StreamResult &r : results) {
        cache_trsp_hits_.fetch_add(r.cachedTrspInstructions,
                                   std::memory_order_relaxed);
        cache_init_hits_.fetch_add(r.cachedInitInstructions,
                                   std::memory_order_relaxed);
    }
    optimized_count_.fetch_add(pstats.removed(),
                               std::memory_order_relaxed);
    // Publish the lint findings only now that the submission is
    // committed: the counter is the wait-free lifetime total, the
    // buffer feeds drainDiagnostics() (both under submit_mu_).
    if (!lint.empty()) {
        lint_count_.fetch_add(lint.size(), std::memory_order_relaxed);
        for (StreamDiagnostic &d : lint)
            lint_diags_.push_back(std::move(d));
    }

    // One job per final segment, pushed in submission order. Under
    // Block, wait for room before each push — workers drain their
    // FIFOs independently of submit_mu_, so this cannot deadlock.
    const bool block = opts_.maxQueuedStreams > 0 &&
                       opts_.onFull == BackpressurePolicy::Block;
    std::vector<StreamHandle> handles;
    handles.reserve(segs.size());
    for (size_t s = 0; s < segs.size(); ++s) {
        double blockedNs = 0.0;
        if (block) {
            const auto t0 = std::chrono::steady_clock::now();
            for (size_t d : targets[s]) {
                Worker *w = workers_[d].get();
                std::unique_lock<std::mutex> wl(w->mu);
                w->space_cv.wait(wl, [&] {
                    return w->q.size() < opts_.maxQueuedStreams;
                });
            }
            blockedNs = std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
        }

        auto st = std::make_shared<detail::StreamState>();
        st->remaining = targets[s].size();
        st->result = results[s];
        st->result.backpressureWaitNs = blockedNs;
        st->seq = stream_seq_.fetch_add(1, std::memory_order_relaxed);
        // Every segment's stream clock is anchored at the SUBMIT
        // ENTRY instant, not "now": by this point the submission may
        // already have waited for the lock and (Block mode) for
        // queue space, and a later segment's e2e latency legitimately
        // includes its predecessors' — that is what the submitter
        // experiences.
        st->t0 = entry;

        size_t depth = 0;
        for (size_t d : targets[s]) {
            Worker *w = workers_[d].get();
            std::lock_guard<std::mutex> wl(w->mu);
            w->q.push_back(Worker::Job{st, prepared[s]});
            depth = std::max(depth, w->q.size());
            w->cv.notify_one();
        }
        st->result.queueDepthAtSubmit = depth;
        if (depth > high_watermark_.load(std::memory_order_relaxed))
            high_watermark_.store(depth, std::memory_order_relaxed);

        StreamHandle h;
        h.state_ = std::move(st);
        handles.push_back(std::move(h));
    }
    return handles;
}

StreamHandle
StreamExecutor::submit(const std::vector<uint64_t> &encoded)
{
    const auto entry = std::chrono::steady_clock::now();
    // Decode the whole stream before validating any of it, so a
    // stream mixing decode and validation errors is rejected as a
    // unit either way, with no partial effects.
    std::vector<BbopInstr> stream;
    stream.reserve(encoded.size());
    for (uint64_t w : encoded)
        stream.push_back(decodeBbop(w)); // throws BbopError
    MutexLock lock(submit_mu_);
    return submitLocked(StreamIR::lift(stream), entry).front();
}

void
StreamExecutor::sync()
{
    for (auto &w : workers_) {
        std::unique_lock<std::mutex> lock(w->mu);
        w->idle_cv.wait(lock,
                        [&] { return w->q.empty() && !w->busy; });
    }
}

void
StreamExecutor::workerMain(size_t d)
{
    Worker &w = *workers_[d];
    for (;;) {
        Worker::Job job;
        {
            std::unique_lock<std::mutex> lock(w.mu);
            w.cv.wait(lock,
                      [&] { return w.stop || !w.q.empty(); });
            if (w.q.empty())
                return; // stop requested and queue drained
            job = std::move(w.q.front());
            w.q.pop_front();
            w.busy = true;
            w.space_cv.notify_all(); // a blocked submitter may enter
        }

        std::exception_ptr err;
        DramStats dcompute, dtransfer;
        size_t attempts = 1;
        size_t faults = 0;
        int recoveredOn = -1;
        {
            auto devlock = group_->lockDevice(d);
            const DramStats c0 = group_->deviceComputeStats(d);
            const DramStats t0 = group_->deviceTransferStats(d);
            err = runJob(d, devlock, *job.state, *job.prog, attempts,
                         faults, recoveredOn);
            dcompute = diff(group_->deviceComputeStats(d), c0);
            dtransfer = diff(group_->deviceTransferStats(d), t0);
        }
        if (err) {
            // The stream's writes did not all happen here (it failed
            // before running, part way, or was rolled back), yet the
            // cache facts committed at submit assume they did. Bump
            // every written object's generation so later submissions
            // stop trusting those facts.
            for (const PreparedInstr &pi : *job.prog)
                group_->noteExternalMutation(pi.dst->vec);
        }

        {
            detail::StreamState &st = *job.state;
            std::lock_guard<std::mutex> lock(st.mu);
            st.result.compute = merge(st.result.compute, dcompute);
            st.result.transfer =
                merge(st.result.transfer, dtransfer);
            st.result.attempts = std::max(st.result.attempts,
                                          attempts);
            st.result.faultsDetected += faults;
            if (recoveredOn != -1 &&
                st.result.recoveredOnDevice == -1)
                st.result.recoveredOnDevice = recoveredOn;
            if (err && !st.error)
                st.error = err;
            if (--st.remaining == 0) {
                st.result.wallNs =
                    std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - st.t0)
                        .count();
                st.cv.notify_all();
            }
        }

        {
            std::lock_guard<std::mutex> lock(w.mu);
            w.busy = false;
            if (w.q.empty())
                w.idle_cv.notify_all();
        }
    }
}

std::exception_ptr
StreamExecutor::runJob(size_t d,
                       std::unique_lock<std::mutex> &devlock,
                       const detail::StreamState &st,
                       const std::vector<PreparedInstr> &prog,
                       size_t &attempts, size_t &faults,
                       int &recoveredOn)
{
    attempts = 1;
    faults = 0;
    recoveredOn = -1;

    // Per-stream deadline over the end-to-end clock (submit entry →
    // here). A stream that spent its budget queued behind a pinned
    // or slow device fails typed instead of executing late.
    auto deadlineError = [&]() -> std::exception_ptr {
        if (opts_.deadlineUs <= 0.0)
            return nullptr;
        const double elapsedUs =
            std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - st.t0)
                .count();
        if (elapsedUs <= opts_.deadlineUs)
            return nullptr;
        return std::make_exception_ptr(StreamDeadlineError(
            "StreamExecutor: stream s" + std::to_string(st.seq) +
            " exceeded its " + std::to_string(opts_.deadlineUs) +
            "us deadline on device d" + std::to_string(d)));
    };
    if (auto e = deadlineError())
        return e;

    // A quarantined device goes straight to the fallback path: its
    // TRA-free instructions are trustworthy, its bbop ops are not.
    if (!healthy_[d].load(std::memory_order_relaxed)) {
        try {
            fallbackJob(d, prog, recoveredOn);
        } catch (...) {
            return std::current_exception();
        }
        return nullptr;
    }

    // IntegrityMode::Off is the pre-existing hot path: no snapshot,
    // no verification loads, no overhead; its compute banks may run
    // on helper threads.
    if (opts_.integrityMode == IntegrityMode::Off) {
        try {
            const size_t banks = bankParts(d, prog);
            if (banks > 1) {
                runSplit(d, prog, banks);
            } else {
                for (const PreparedInstr &pi : prog)
                    execOn(d, pi);
            }
        } catch (...) {
            return std::current_exception();
        }
        return nullptr;
    }

    ShadowCtx ctx;
    try {
        prepareShadow(d, prog, ctx);
    } catch (...) {
        return std::current_exception();
    }

    const size_t maxAttempts =
        std::max<size_t>(opts_.retryPolicy.maxAttempts, 1);
    for (size_t attempt = 1;; ++attempt) {
        attempts = attempt;
        if (attempt > 1) {
            if (auto e = deadlineError())
                return e; // state already restored below
        }

        size_t badOp = kCleanRun;
        try {
            badOp = executeChecked(d, prog, ctx);
        } catch (...) {
            // Execution errors (FatalError et al.) are not faults:
            // no retry, propagate as before.
            return std::current_exception();
        }
        if (badOp == kCleanRun)
            return nullptr;

        // Detected corruption: count it, undo it, then recover.
        ++faults;
        const uint64_t total =
            fault_counts_[d].fetch_add(1,
                                       std::memory_order_relaxed) +
            1;
        try {
            restoreJob(d, ctx);
        } catch (...) {
            return std::current_exception();
        }
        if (opts_.quarantineFaultThreshold > 0 &&
            total >= opts_.quarantineFaultThreshold)
            healthy_[d].store(false, std::memory_order_relaxed);

        if (!healthy_[d].load(std::memory_order_relaxed)) {
            // Quarantined: drain this stream through the fallback
            // path (one more attempt) instead of burning the retry
            // budget against a device we no longer trust.
            try {
                fallbackJob(d, prog, recoveredOn);
            } catch (...) {
                return std::current_exception();
            }
            attempts = attempt + 1;
            return nullptr;
        }

        if (attempt >= maxAttempts)
            return std::make_exception_ptr(StreamFaultError(
                "StreamExecutor: stream s" + std::to_string(st.seq) +
                    " failed integrity verification on device d" +
                    std::to_string(d) + " at op #" +
                    std::to_string(badOp) + " (" +
                    std::to_string(attempt) +
                    " attempts; device state restored)",
                d, st.seq, badOp));

        // Capped exponential backoff, slept OUTSIDE the device lock
        // so synchronous group users and the quarantine fallback of
        // other workers are not blocked behind our wait.
        const RetryPolicy &rp = opts_.retryPolicy;
        if (rp.baseBackoffUs > 0.0) {
            const unsigned shift = static_cast<unsigned>(
                std::min<size_t>(attempt - 1, 30));
            const double backoffUs =
                std::min(rp.baseBackoffUs *
                             static_cast<double>(1ULL << shift),
                         rp.maxBackoffUs);
            devlock.unlock();
            std::this_thread::sleep_for(
                std::chrono::duration<double, std::micro>(
                    backoffUs));
            devlock.lock();
        }
    }
}

size_t
StreamExecutor::bankParts(size_t d,
                          const std::vector<PreparedInstr> &prog) const
{
    if (helpers_->count == 0)
        return 1;
    size_t segs = 0;
    const Processor *proc = nullptr;
    for (const PreparedInstr &pi : prog) {
        const DeviceGroup::ShardView &dv = (*pi.dstV)[d];
        segs = std::max(segs, dv.segments->size());
        proc = dv.proc;
    }
    const size_t banks =
        std::min(segs, group_->config().computeBanks);
    // A fault injector counts TRAs device-wide, so its ordinals only
    // mean something in serial order.
    if (banks < 2 || !proc->faultFree())
        return 1;
    return banks;
}

void
StreamExecutor::runSplit(size_t d,
                         const std::vector<PreparedInstr> &prog,
                         size_t banks)
{
    // Serial prologue: the transposition unit's statistics are
    // shared by the banks and summed in floating point, so account
    // every transfer here in (instruction, segment) order; compile
    // every operation, so the parts only read the caches.
    for (const PreparedInstr &pi : prog) {
        const DeviceGroup::ShardView &dv = (*pi.dstV)[d];
        if (dv.count == 0)
            continue;
        switch (pi.instr.opcode) {
          case BbopOpcode::Trsp:
          case BbopOpcode::TrspInv:
            dv.proc->accountTransfer(dv.handle);
            break;
          case BbopOpcode::Op:
            dv.proc->precompile(pi.instr.op, (*pi.src1V)[d].handle.bits);
            break;
          default:
            break;
        }
    }

    std::vector<BankPart> &parts = workers_[d]->parts;
    parts.assign(banks, BankPart{});
    for (size_t b = 0; b < banks; ++b) {
        parts[b].prog = &prog;
        parts[b].device = d;
        parts[b].bank = b;
    }
    Helpers &h = *helpers_;
    {
        std::lock_guard<std::mutex> lock(h.mu);
        if (h.threads.empty())
            for (size_t i = 0; i < h.count; ++i)
                h.threads.emplace_back([this] { helperMain(); });
        for (size_t b = 1; b < banks; ++b)
            h.queue.push_back(&parts[b]);
        h.queued.store(h.queue.size(), std::memory_order_relaxed);
    }
    h.work_cv.notify_all();

    parts[0].state = BankPart::State::Running;
    runPart(parts[0]);
    // Take back every part no helper has started yet.
    for (size_t b = 1; b < banks; ++b) {
        {
            std::lock_guard<std::mutex> lock(h.mu);
            if (parts[b].state != BankPart::State::Queued)
                continue;
            h.queue.erase(
                std::find(h.queue.begin(), h.queue.end(), &parts[b]));
            h.queued.store(h.queue.size(), std::memory_order_relaxed);
            parts[b].state = BankPart::State::Running;
        }
        runPart(parts[b]);
        std::lock_guard<std::mutex> lock(h.mu);
        parts[b].state = BankPart::State::Done;
    }
    {
        std::unique_lock<std::mutex> lock(h.mu);
        h.done_cv.wait(lock, [&] {
            return std::all_of(parts.begin() + 1, parts.end(),
                               [](const BankPart &p) {
                                   return p.state ==
                                          BankPart::State::Done;
                               });
        });
    }
    for (const BankPart &p : parts)
        if (p.error)
            std::rethrow_exception(p.error);
}

void
StreamExecutor::runPart(BankPart &part)
{
    try {
        for (const PreparedInstr &pi : *part.prog)
            execOn(part.device, pi, part.bank);
    } catch (...) {
        part.error = std::current_exception();
    }
}

void
StreamExecutor::helperMain()
{
    // A job's parts follow each other closely (the next stream is
    // usually queued already). A helper that sleeps in between is
    // often woken onto the worker's own core, where it cannot start
    // before the worker takes its part back; spinning (and yielding)
    // for up to a millisecond keeps it on a core of its own.
    constexpr auto kSpin = std::chrono::milliseconds(1);
    Helpers &h = *helpers_;
    std::unique_lock<std::mutex> lock(h.mu);
    while (!h.stop) {
        if (h.queue.empty()) {
            // Spin first after every wake-up too: a wake-up that finds
            // its part taken back must not put the helper straight to
            // sleep again.
            lock.unlock();
            const auto until = std::chrono::steady_clock::now() + kSpin;
            while (h.queued.load(std::memory_order_relaxed) == 0 &&
                   std::chrono::steady_clock::now() < until)
                std::this_thread::yield();
            lock.lock();
            if (h.queue.empty() && !h.stop)
                h.work_cv.wait(lock);
            continue;
        }
        BankPart *part = h.queue.front();
        h.queue.pop_front();
        h.queued.store(h.queue.size(), std::memory_order_relaxed);
        part->state = BankPart::State::Running;
        lock.unlock();
        runPart(*part);
        lock.lock();
        part->state = BankPart::State::Done;
        h.done_cv.notify_all();
    }
}

void
StreamExecutor::prepareShadow(size_t d,
                              const std::vector<PreparedInstr> &prog,
                              ShadowCtx &ctx)
{
    // Find-or-create the per-object context: the first touch loads
    // the device lanes (snapshot doubling as the shadow seed) and
    // copies this device's host-image slice. Returns an INDEX, not a
    // reference: a first touch grows ctx.objs and would invalidate
    // every outstanding ObjCtx reference, so each use below
    // re-derives its reference after all operand touches are done.
    auto touch = [&](Object *o,
                     const DeviceGroup::ShardView &v) -> size_t {
        auto it = ctx.index.find(o);
        if (it == ctx.index.end()) {
            ShadowCtx::ObjCtx oc;
            oc.obj = o;
            oc.view = v;
            oc.initLanes.resize(v.count);
            if (v.count != 0)
                v.proc->loadInto(v.handle, oc.initLanes.data());
            oc.initHost.assign(
                o->hostImage.begin() +
                    static_cast<std::ptrdiff_t>(v.offset),
                o->hostImage.begin() +
                    static_cast<std::ptrdiff_t>(v.offset + v.count));
            oc.shadow = oc.initLanes;
            oc.shadowHost = oc.initHost;
            it = ctx.index.emplace(o, ctx.objs.size()).first;
            ctx.objs.push_back(std::move(oc));
        }
        return it->second;
    };

    // Simulate the program in order against the shadow: simulation
    // order equals this device's execution order, and every device
    // owns a disjoint slice, so host-image updates compose exactly.
    for (size_t i = 0; i < prog.size(); ++i) {
        const PreparedInstr &pi = prog[i];
        const DeviceGroup::ShardView &dv = (*pi.dstV)[d];
        if (dv.count == 0)
            continue; // execOn skips the whole instruction too
        const BbopInstr &in = pi.instr;
        const size_t dstIdx = touch(pi.dst, dv);
        const uint64_t mask = laneMask(pi.dst->bits);
        switch (in.opcode) {
          case BbopOpcode::Trsp: {
            ShadowCtx::ObjCtx &dst = ctx.objs[dstIdx];
            for (size_t k = 0; k < dv.count; ++k)
                dst.shadow[k] = dst.shadowHost[k] & mask;
            break;
          }
          case BbopOpcode::TrspInv: {
            ShadowCtx::ObjCtx &dst = ctx.objs[dstIdx];
            dst.shadowHost = dst.shadow;
            break;
          }
          case BbopOpcode::Init: {
            ShadowCtx::ObjCtx &dst = ctx.objs[dstIdx];
            const uint64_t imm = in.initImmediate();
            std::fill(dst.shadow.begin(), dst.shadow.end(),
                      imm & mask);
            // execOn writes the raw immediate into the host image.
            std::fill(dst.shadowHost.begin(), dst.shadowHost.end(),
                      imm);
            break;
          }
          case BbopOpcode::ShiftL:
          case BbopOpcode::ShiftR: {
            const size_t srcIdx = touch(pi.src1, (*pi.src1V)[d]);
            ShadowCtx::ObjCtx &dst = ctx.objs[dstIdx];
            const ShadowCtx::ObjCtx &src = ctx.objs[srcIdx];
            const size_t k = static_cast<size_t>(in.sel);
            for (size_t e = 0; e < dv.count; ++e) {
                const uint64_t v = src.shadow[e];
                dst.shadow[e] = in.opcode == BbopOpcode::ShiftL
                                    ? (k >= 64 ? 0 : (v << k)) & mask
                                    : (k >= 64 ? 0 : v >> k);
            }
            break;
          }
          case BbopOpcode::Op: {
            const auto sig = signatureOf(in.op, in.width);
            const size_t aIdx = touch(pi.src1, (*pi.src1V)[d]);
            std::vector<uint64_t> b, sel;
            if (sig.numInputs == 2)
                b = ctx.objs[touch(pi.src2, (*pi.src2V)[d])].shadow;
            if (sig.hasSel)
                sel = ctx.objs[touch(pi.sel, (*pi.selV)[d])].shadow;
            std::vector<uint64_t> res = hostBulkOp(
                in.op, in.width, ctx.objs[aIdx].shadow, b, sel);
            for (uint64_t &v : res)
                v &= mask;
            ctx.objs[dstIdx].shadow = std::move(res);
            break;
          }
        }
        ctx.objs[dstIdx].written = true;
        ctx.objs[dstIdx].lastWriter = i;
    }
}

void
StreamExecutor::restoreJob(size_t d, const ShadowCtx &ctx)
{
    (void)d;
    for (const ShadowCtx::ObjCtx &oc : ctx.objs) {
        if (!oc.written || oc.view.count == 0)
            continue;
        oc.view.proc->store(oc.view.handle, oc.initLanes.data(),
                            oc.view.count);
        std::copy(oc.initHost.begin(), oc.initHost.end(),
                  oc.obj->hostImage.begin() +
                      static_cast<std::ptrdiff_t>(oc.view.offset));
        // The rollback rewrote device rows behind the stream cache's
        // back: bump the vector's mutation generation so elisions the
        // rolled-back stream committed (e.g. "vertical image is
        // clean" after its trsp) re-validate instead of reading the
        // restored pre-stream lanes.
        group_->noteExternalMutation(oc.obj->vec);
    }
}

size_t
StreamExecutor::executeChecked(size_t d,
                               const std::vector<PreparedInstr> &prog,
                               const ShadowCtx &ctx)
{
    const bool dual =
        opts_.integrityMode == IntegrityMode::DualModular;
    for (size_t i = 0; i < prog.size(); ++i) {
        const PreparedInstr &pi = prog[i];
        execOn(d, pi);
        if (!dual || pi.instr.opcode != BbopOpcode::Op)
            continue;
        const DeviceGroup::ShardView &dv = (*pi.dstV)[d];
        if (dv.count == 0)
            continue;
        // Temporal redundancy: run the op a second time (in-place
        // execution is forbidden, so the destination is never an
        // input and a re-run is safe) and require lane-for-lane
        // agreement — exact per-op attribution.
        std::vector<uint64_t> r1(dv.count);
        dv.proc->loadInto(dv.handle, r1.data());
        execOn(d, pi);
        std::vector<uint64_t> r2(dv.count);
        dv.proc->loadInto(dv.handle, r2.data());
        if (r1 != r2)
            return i;
    }

    // End-of-stream comparison against the host-computed shadow:
    // signatures under Checksum, lane-exact under DualModular (the
    // arbiter for correlated double faults both runs agreed on).
    for (const ShadowCtx::ObjCtx &oc : ctx.objs) {
        if (!oc.written || oc.view.count == 0)
            continue;
        std::vector<uint64_t> cur(oc.view.count);
        oc.view.proc->loadInto(oc.view.handle, cur.data());
        std::vector<uint64_t> host(
            oc.obj->hostImage.begin() +
                static_cast<std::ptrdiff_t>(oc.view.offset),
            oc.obj->hostImage.begin() +
                static_cast<std::ptrdiff_t>(oc.view.offset +
                                            oc.view.count));
        bool ok;
        if (dual)
            ok = cur == oc.shadow && host == oc.shadowHost;
        else
            ok = foldSignature(cur) == foldSignature(oc.shadow) &&
                 foldSignature(host) == foldSignature(oc.shadowHost);
        if (!ok)
            return oc.lastWriter;
    }
    return kCleanRun;
}

void
StreamExecutor::fallbackJob(size_t d,
                            const std::vector<PreparedInstr> &prog,
                            int &recoveredOn)
{
    for (const PreparedInstr &pi : prog) {
        const DeviceGroup::ShardView &dv = (*pi.dstV)[d];
        if (dv.count == 0)
            continue;
        if (pi.instr.opcode != BbopOpcode::Op) {
            // Transposition, init, and shifts are TRA-free (row
            // copies and column I/O): trustworthy even on the
            // quarantined device.
            execOn(d, pi);
            continue;
        }

        // Re-execute the bbop op off-device: load the operand lanes,
        // compute on the first healthy device (falling back to the
        // host reference kernels when none remains or scratch rows
        // cannot be co-located), and store the result back.
        const BbopInstr &in = pi.instr;
        const auto sig = signatureOf(in.op, in.width);
        std::vector<uint64_t> a(dv.count), b, sel;
        {
            const DeviceGroup::ShardView &sv = (*pi.src1V)[d];
            sv.proc->loadInto(sv.handle, a.data());
        }
        if (sig.numInputs == 2) {
            const DeviceGroup::ShardView &sv = (*pi.src2V)[d];
            b.resize(dv.count);
            sv.proc->loadInto(sv.handle, b.data());
        }
        if (sig.hasSel) {
            const DeviceGroup::ShardView &sv = (*pi.selV)[d];
            sel.resize(dv.count);
            sv.proc->loadInto(sv.handle, sel.data());
        }

        int target = -2;
        for (size_t h = 0; h < workers_.size(); ++h) {
            if (h == d || !healthy_[h].load(std::memory_order_relaxed))
                continue;
            target = static_cast<int>(h);
            break;
        }

        std::vector<uint64_t> res;
        bool done = false;
        if (target >= 0) {
            // Lock order is safe: quarantined workers only ever take
            // a HEALTHY device's lock on top of their own, and
            // healthy workers never take a second device lock.
            auto hlock =
                group_->lockDevice(static_cast<size_t>(target));
            Processor &hp =
                group_->device(static_cast<size_t>(target));
            std::vector<Processor::VecHandle> tmp;
            try {
                const auto va = hp.alloc(dv.count, pi.src1->bits);
                tmp.push_back(va);
                hp.store(va, a.data(), dv.count);
                Processor::VecHandle vb{}, vsel{};
                if (sig.numInputs == 2) {
                    vb = hp.alloc(dv.count, pi.src2->bits);
                    tmp.push_back(vb);
                    hp.store(vb, b.data(), dv.count);
                }
                if (sig.hasSel) {
                    vsel = hp.alloc(dv.count, pi.sel->bits);
                    tmp.push_back(vsel);
                    hp.store(vsel, sel.data(), dv.count);
                }
                const auto vy = hp.alloc(dv.count, pi.dst->bits);
                tmp.push_back(vy);
                if (sig.numInputs == 1)
                    hp.run(in.op, vy, va);
                else if (!sig.hasSel)
                    hp.run(in.op, vy, va, vb);
                else
                    hp.run(in.op, vy, va, vb, vsel);
                res.resize(dv.count);
                hp.loadInto(vy, res.data());
                done = true;
            } catch (const FatalError &) {
                // Scratch rows straddled a subarray boundary (the
                // bump allocator cannot co-locate them): fall back
                // to the host path for this op.
            }
            for (auto it = tmp.rbegin(); it != tmp.rend(); ++it)
                hp.free(*it);
        }
        if (!done) {
            res = hostBulkOp(in.op, in.width, a, b, sel);
            const uint64_t mask = laneMask(pi.dst->bits);
            for (uint64_t &v : res)
                v &= mask;
            target = -2;
        }
        dv.proc->store(dv.handle, res.data(), dv.count);
        if (recoveredOn == -1)
            recoveredOn = target;
    }
}

void
StreamExecutor::execOn(size_t d, const PreparedInstr &pi, size_t bank)
{
    const BbopInstr &in = pi.instr;
    const DeviceGroup::ShardView &dst = (*pi.dstV)[d];
    if (dst.count == 0)
        return; // this device holds no shard of the destination
    uint64_t *host = pi.dst->hostImage.data() + dst.offset;
    switch (in.opcode) {
      case BbopOpcode::Trsp:
        dst.proc->store(dst.handle, host, dst.count, bank);
        return;
      case BbopOpcode::TrspInv:
        dst.proc->loadInto(dst.handle, host, bank);
        return;
      case BbopOpcode::Init: {
        const uint64_t imm = in.initImmediate();
        dst.proc->fillConstant(dst.handle, imm, bank);
        // Each worker (each bank part) refreshes its own disjoint
        // slice of the horizontal image, so the whole image is
        // coherent once the stream completes on every device.
        for (const Processor::Segment &seg : *dst.segments) {
            if (bank == Processor::kAllBanks || seg.bank == bank)
                std::fill_n(host, seg.lanes, imm);
            host += seg.lanes;
        }
        return;
      }
      case BbopOpcode::ShiftL:
        dst.proc->shiftLeft(dst.handle, (*pi.src1V)[d].handle,
                            static_cast<size_t>(in.sel), bank);
        return;
      case BbopOpcode::ShiftR:
        dst.proc->shiftRight(dst.handle, (*pi.src1V)[d].handle,
                             static_cast<size_t>(in.sel), bank);
        return;
      case BbopOpcode::Op:
        break;
    }

    const auto sig = signatureOf(in.op, in.width);
    if (sig.numInputs == 1)
        dst.proc->run(in.op, dst.handle, (*pi.src1V)[d].handle, bank);
    else if (!sig.hasSel)
        dst.proc->run(in.op, dst.handle, (*pi.src1V)[d].handle,
                      (*pi.src2V)[d].handle, bank);
    else
        dst.proc->run(in.op, dst.handle, (*pi.src1V)[d].handle,
                      (*pi.src2V)[d].handle, (*pi.selV)[d].handle,
                      bank);
}

StreamResult
StreamHandle::wait()
{
    if (!state_)
        fatal("StreamHandle::wait: empty handle");
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] { return state_->remaining == 0; });
    if (state_->error)
        std::rethrow_exception(state_->error);
    return state_->result;
}

StreamResult
StreamHandle::waitResult()
{
    if (!state_)
        fatal("StreamHandle::waitResult: empty handle");
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] { return state_->remaining == 0; });
    return state_->result;
}

bool
StreamHandle::waitFor(double timeoutUs)
{
    if (!state_)
        fatal("StreamHandle::waitFor: empty handle");
    std::unique_lock<std::mutex> lock(state_->mu);
    // Non-consuming: report readiness only. Errors stay parked until
    // wait() collects them, so polling cannot lose a failure.
    return state_->cv.wait_for(
        lock,
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::micro>(timeoutUs)),
        [&] { return state_->remaining == 0; });
}

bool
StreamHandle::done() const
{
    if (!state_)
        return false;
    std::lock_guard<std::mutex> lock(state_->mu);
    return state_->remaining == 0;
}

} // namespace simdram
