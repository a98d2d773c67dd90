/**
 * @file
 * The SIMDRAM processor: the library's main public API.
 *
 * A Processor owns a DRAM device, a transposition unit, a control
 * unit, and a compiled-μProgram cache, and exposes a vector-style
 * interface:
 *
 *   Processor p(DramConfig::simdramConfig(16));
 *   auto a = p.alloc(1 << 20, 32);
 *   auto b = p.alloc(1 << 20, 32);
 *   auto y = p.alloc(1 << 20, 32);
 *   p.store(a, data_a);
 *   p.store(b, data_b);
 *   p.run(OpKind::Add, y, a, b);
 *   auto result = p.load(y);
 *   auto stats = p.computeStats();
 *
 * Vectors are stored vertically; elements are striped across banks in
 * subarray-sized segments (cfg.rowBits lanes each; segment s sits in
 * bank s mod computeBanks), and banks execute segments concurrently.
 * Operands of one operation must be co-located (allocated while the
 * same subarrays are current), which the sequential allocator
 * guarantees for identically sized vectors allocated together.
 *
 * Bank parts: the segment-wise calls take an optional compute bank
 * and then touch only that bank's segments. Banks share no rows,
 * compute cells or statistics, so calls for distinct banks may run on
 * different threads at once, provided that (a) no other call runs
 * meanwhile, (b) every operation they run was compiled beforehand
 * (precompile()), and (c) no fault mechanism is active (faultFree():
 * a fault injector counts TRAs device-wide). A bank-filtered store or
 * load moves data only; the caller accounts the whole transfer once
 * with accountTransfer(), in serial order, because the transposition
 * unit's statistics are shared by the banks.
 *
 * Three backends share this interface: the SIMDRAM compiler (greedy
 * allocation), the SIMDRAM compiler with naive allocation (ablation),
 * and the Ambit per-gate baseline.
 */

#ifndef SIMDRAM_EXEC_PROCESSOR_H
#define SIMDRAM_EXEC_PROCESSOR_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "dram/device.h"
#include "exec/control_unit.h"
#include "exec/replay_plan.h"
#include "layout/transposition_unit.h"
#include "ops/library.h"
#include "uprog/program.h"

namespace simdram
{

/** Which compiler generates the μPrograms. */
enum class Backend : uint8_t
{
    Simdram,      ///< MIG + greedy allocation (the paper's system).
    SimdramNaive, ///< MIG + naive allocation (ablation).
    Ambit,        ///< AND/OR/NOT per-gate recipes (baseline).
};

/** @return A printable backend name. */
const char *toString(Backend b);

/** Which μProgram replay path Processor::run uses. */
enum class ReplayMode : uint8_t
{
    Reference, ///< Seed path: per-segment binding via ControlUnit.
    Batched,   ///< Cached ReplayPlan, its compiled schedule per segment.
};

/** @return A printable replay-mode name. */
const char *toString(ReplayMode m);

/** An in-DRAM SIMD processor instance. */
class Processor
{
  public:
    /** A handle to an allocated vertical vector. */
    struct VecHandle
    {
        uint32_t id = UINT32_MAX; ///< Internal identifier.
        size_t elements = 0;      ///< Number of SIMD elements.
        size_t bits = 0;          ///< Element width in bits.

        /** @return True if the handle refers to a vector. */
        bool valid() const { return id != UINT32_MAX; }
    };

    /** Where one subarray-sized piece of a vector lives. */
    struct Segment
    {
        size_t bank = 0;
        size_t sub = 0;
        uint32_t baseRow = 0;
        size_t lanes = 0; ///< Elements in this segment.
    };

    /** One operand segment of an operation, with its row count. */
    struct PlacedSegment
    {
        const Segment *seg = nullptr;
        size_t bits = 0;
    };

    /** Selects every compute bank in the bank-filtered calls. */
    static constexpr size_t kAllBanks = SIZE_MAX;

    /**
     * @return Why an operation cannot run on one segment of its
     *         @p n inputs and destination @p out, or nullptr if it
     *         can: every segment must sit in the first input's bank
     *         and subarray, and the destination's rows must overlap
     *         no input's (a μProgram may write an output row before
     *         its last read of the inputs).
     */
    static const char *placementError(const PlacedSegment *inputs,
                                      size_t n, PlacedSegment out);

    /**
     * @param cfg Device configuration.
     * @param backend μProgram compiler selection.
     */
    explicit Processor(DramConfig cfg,
                       Backend backend = Backend::Simdram);

    /**
     * Allocates a vertical vector of @p elements elements of
     * @p bits bits each. Rows are reserved in segment order across
     * the compute banks, recycling identically-shaped freed segments
     * (see free()) before extending the bump allocation.
     */
    VecHandle alloc(size_t elements, size_t bits);

    /**
     * Frees @p v: its handle becomes invalid (any further use is
     * fatal) and its subarray segments join a free list that alloc()
     * recycles for segments of the same bank and row count, FIFO. A
     * teardown-and-recreate sequence that reallocates the same shapes
     * in the same order therefore lands on the same subarray rows —
     * preserving the co-location guarantees the bump allocator gives
     * groups allocated back to back. Mixed-shape reuse may place a
     * recycled segment in a different subarray than its (fresh)
     * operand partners; such operands fail the usual co-location
     * check at execution.
     */
    void free(const VecHandle &v);

    /** Stores host data into a vector through the transposition unit. */
    void store(const VecHandle &v, const std::vector<uint64_t> &data);

    /**
     * Stores @p n elements from @p data into @p v (pointer variant:
     * lets callers stage slices of a larger host buffer — e.g. one
     * shard of a DeviceGroup vector — without copying into a
     * temporary). @p n must equal the vector's element count. With
     * a @p bank, only that bank's segments are written, with no
     * accounting (see the file comment).
     */
    void store(const VecHandle &v, const uint64_t *data, size_t n,
               size_t bank = kAllBanks);

    /**
     * Adds the transfer cost of one store or load of @p v, segment
     * by segment, as store()/loadInto() without a bank do.
     */
    void accountTransfer(const VecHandle &v);

    /**
     * Fills every element of @p v with @p value using in-DRAM row
     * initialization: each bit row is RowCloned from the matching
     * constant row (C0/C1), one AAP per row per segment, with no
     * channel traffic. This is the bbop_init path — far cheaper than
     * transposing a host buffer of identical values.
     */
    void fillConstant(const VecHandle &v, uint64_t value,
                      size_t bank = kAllBanks);

    /**
     * Logical shift left within each element: dst = src << k.
     *
     * In the vertical layout a shift is pure row bookkeeping: bit
     * row j of dst is a RowClone copy of bit row j-k of src, and the
     * bottom k rows come from C0 (paper section 2: shifting needs no
     * dedicated hardware). @p dst and @p src must be distinct,
     * co-located, same-shape vectors.
     */
    void shiftLeft(const VecHandle &dst, const VecHandle &src,
                   size_t k, size_t bank = kAllBanks);

    /** Logical shift right within each element: dst = src >> k. */
    void shiftRight(const VecHandle &dst, const VecHandle &src,
                    size_t k, size_t bank = kAllBanks);

    /** Loads a vector back into host (horizontal) layout. */
    std::vector<uint64_t> load(const VecHandle &v);

    /**
     * Loads a vector into @p out, which must have room for the
     * vector's element count (pointer variant of load(), for writing
     * straight into a slice of a larger host buffer). With a
     * @p bank, only that bank's segments are read, with no
     * accounting.
     */
    void loadInto(const VecHandle &v, uint64_t *out,
                  size_t bank = kAllBanks);

    /** Executes a unary operation: dst = op(a). */
    void run(OpKind op, const VecHandle &dst, const VecHandle &a,
             size_t bank = kAllBanks);

    /** Executes a binary operation: dst = op(a, b). */
    void run(OpKind op, const VecHandle &dst, const VecHandle &a,
             const VecHandle &b, size_t bank = kAllBanks);

    /**
     * Executes a predicated operation (if_else):
     * dst = sel ? a : b, with @p sel a 1-bit vector.
     */
    void run(OpKind op, const VecHandle &dst, const VecHandle &a,
             const VecHandle &b, const VecHandle &sel,
             size_t bank = kAllBanks);

    /**
     * @return The compiled μProgram for @p op at @p width under the
     *         current backend (compiled once, cached).
     */
    const MicroProgram &program(OpKind op, size_t width);

    /**
     * Compiles @p op at @p width, μProgram and replay plan, so later
     * run() calls only read the caches (see the file comment).
     */
    void precompile(OpKind op, size_t width);

    /** @return The segments of @p v, in element order. */
    const std::vector<Segment> &segments(const VecHandle &v) const;

    /**
     * @return True if no subarray has a TRA fault mechanism active
     *         (Subarray::faultFree()) and no injector is installed.
     */
    bool faultFree() const { return device_.faultFree(); }

    /** @return Compute statistics (banks merged in parallel). */
    DramStats computeStats() const;

    /** @return Host-transfer (transposition) statistics. */
    DramStats transferStats() const;

    /** Clears all statistics. */
    void resetStats();

    /** @return The backend in use. */
    Backend backend() const { return backend_; }

    /**
     * Selects the replay path (default: ReplayMode::Batched). The
     * reference mode reproduces the seed execution exactly — same
     * commands, same order, same stats — and exists for differential
     * testing and benchmarking of the batched path.
     */
    void setReplayMode(ReplayMode mode) { replay_mode_ = mode; }

    /** @return The replay path in use. */
    ReplayMode replayMode() const { return replay_mode_; }

    /** @return The device configuration. */
    const DramConfig &config() const { return device_.config(); }

    /** @return The underlying device (tests, advanced use). */
    DramDevice &device() { return device_; }

    /**
     * Installs @p injector (not owned; nullptr clears) into every
     * subarray of the underlying device; consulted once per TRA.
     */
    void setFaultInjector(FaultInjector *injector)
    {
        device_.setFaultInjector(injector);
    }

    /** @return The operation library (circuit access). */
    OperationLibrary &library() { return lib_; }

  private:
    struct VecInfo
    {
        size_t elements = 0;
        size_t bits = 0;
        std::vector<Segment> segments;
        /** Set by free(); any further use of the handle is fatal. */
        bool freed = false;
    };

    /** One recycled subarray segment, keyed by its row count. */
    struct FreeSeg
    {
        Segment seg;
        size_t rows = 0;
    };

    const VecInfo &info(const VecHandle &v) const;

    /** Reserves @p rows rows for segment @p seg_idx in its bank. */
    Segment reserveSegment(size_t seg_idx, size_t rows,
                           size_t lanes);

    /** Runs @p prog over @p n inputs, on @p bank's segments. */
    void execute(const MicroProgram &prog, const VecInfo *const *inputs,
                 size_t n, const VecInfo &out, size_t bank);

    /** Shared body of shiftLeft()/shiftRight(). */
    void shift(const VecHandle &dst, const VecHandle &src, size_t k,
               bool left, size_t bank);

    /** @return The cached replay plan for @p prog (built once). */
    const ReplayPlan &planFor(const MicroProgram &prog);

    DramDevice device_;
    TranspositionUnit tunit_;
    ControlUnit cu_;
    OperationLibrary lib_;
    Backend backend_;
    ReplayMode replay_mode_ = ReplayMode::Batched;

    std::vector<VecInfo> vectors_;
    // Per-bank bump allocation state.
    std::vector<size_t> cur_sub_;
    std::vector<uint32_t> next_row_;
    /** Freed segments awaiting reuse (FIFO per shape; see free()). */
    std::vector<FreeSeg> free_segs_;

    std::map<std::pair<OpKind, size_t>,
             std::unique_ptr<MicroProgram>>
        prog_cache_;
    // Keyed by program address: programs are owned by prog_cache_
    // behind unique_ptr, so their addresses are stable.
    std::map<const MicroProgram *, ReplayPlan> plan_cache_;
};

} // namespace simdram

#endif // SIMDRAM_EXEC_PROCESSOR_H
