/**
 * @file
 * Multi-device runtime, part 1: sharded vectors over a group of
 * SIMDRAM devices.
 *
 * A DeviceGroup owns N independent Processor instances (N simulated
 * memory devices, each with its own banks, transposition unit, and
 * μProgram caches) and shards vectors across them. Shards are
 * segment-aligned: a vector of E elements occupies ceil(E / rowBits)
 * subarray segments, and whole segments are distributed contiguously
 * across the devices, so every per-device piece is itself a valid
 * Processor vector with the same element width. Devices towards the
 * end of the group may receive an empty shard; operations simply skip
 * them.
 *
 *   DeviceGroup g(DramConfig::forTesting(), 4);
 *   auto a = g.alloc(1 << 20, 32);
 *   auto b = g.alloc(1 << 20, 32);
 *   auto y = g.alloc(1 << 20, 32);
 *   g.store(a, data_a);
 *   g.store(b, data_b);
 *   g.run(OpKind::Add, y, a, b);       // each device runs its shard
 *   auto out = g.load(y);
 *   auto stats = g.computeStats();     // merged: latency = max
 *
 * The whole-vector methods are synchronous and deterministic (devices
 * are visited in order on the calling thread). The per-shard
 * primitives at the bottom are the building blocks the asynchronous
 * StreamExecutor drives from its worker threads.
 *
 * Threading model: every access to device d's Processor must hold
 * that device's mutex (lockDevice(d)); the synchronous methods do so
 * internally, while the per-shard primitives leave locking to the
 * caller so a worker can hold the device across a whole batch of
 * instructions. The lock holder may run the bank parts of its work
 * on other threads while it holds the lock (Processor's bank-filtered
 * calls; the StreamExecutor's helpers), joining them before it
 * releases it. Mixing synchronous whole-vector calls with in-flight
 * StreamExecutor streams is memory-safe but has unspecified ordering;
 * call StreamExecutor::sync() first. faultInjector() takes the device
 * lock, so a lock holder asks Processor::faultFree() instead.
 */

#ifndef SIMDRAM_RUNTIME_DEVICE_GROUP_H
#define SIMDRAM_RUNTIME_DEVICE_GROUP_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/stats.h"
#include "exec/processor.h"

namespace simdram
{

/** A handle to a vector sharded across the devices of a group. */
struct ShardedVec
{
    uint32_t id = UINT32_MAX; ///< Internal identifier.
    size_t elements = 0;      ///< Total elements over all shards.
    size_t bits = 0;          ///< Element width in bits.

    /** @return True if the handle refers to a vector. */
    bool valid() const { return id != UINT32_MAX; }
};

/** N SIMDRAM devices operated as one wide SIMD machine. */
class DeviceGroup
{
  public:
    /**
     * @param cfg Per-device configuration (each device is identical).
     * @param devices Number of devices (>= 1).
     * @param backend μProgram compiler used by every device.
     */
    DeviceGroup(DramConfig cfg, size_t devices,
                Backend backend = Backend::Simdram);

    /** @return The number of devices in the group. */
    size_t deviceCount() const { return procs_.size(); }

    /** @return Device @p d's processor (tests, advanced use). */
    Processor &device(size_t d);

    /** @return The per-device configuration. */
    const DramConfig &config() const;

    /** @return The backend every device compiles with. */
    Backend backend() const { return backend_; }

    /**
     * Allocates a vector of @p elements elements of @p bits bits,
     * sharded segment-aligned across the devices.
     */
    ShardedVec alloc(size_t elements, size_t bits);

    /**
     * Releases @p v: every per-device shard is freed back to its
     * Processor (identically-shaped reallocations recycle the rows;
     * see Processor::free) and the handle becomes invalid — any
     * further use is fatal. The caller must guarantee no stream is
     * in flight against the vector (StreamExecutor::releaseObject
     * syncs first). Double release is fatal.
     */
    void release(const ShardedVec &v);

    /** Stores host data into every shard of @p v. */
    void store(const ShardedVec &v, const std::vector<uint64_t> &data);

    /** Loads @p v back into one contiguous host buffer. */
    std::vector<uint64_t> load(const ShardedVec &v);

    /** Fills every element of @p v with @p value (bbop_init path). */
    void fillConstant(const ShardedVec &v, uint64_t value);

    /** Element-wise logical shift left: dst = src << k. */
    void shiftLeft(const ShardedVec &dst, const ShardedVec &src,
                   size_t k);

    /** Element-wise logical shift right: dst = src >> k. */
    void shiftRight(const ShardedVec &dst, const ShardedVec &src,
                    size_t k);

    /** Executes a unary operation on every shard: dst = op(a). */
    void run(OpKind op, const ShardedVec &dst, const ShardedVec &a);

    /** Executes a binary operation on every shard: dst = op(a, b). */
    void run(OpKind op, const ShardedVec &dst, const ShardedVec &a,
             const ShardedVec &b);

    /** Executes a predicated operation: dst = sel ? a : b. */
    void run(OpKind op, const ShardedVec &dst, const ShardedVec &a,
             const ShardedVec &b, const ShardedVec &sel);

    /**
     * @return Compute statistics merged over the devices: counters
     *         and energy add, latency is the maximum (devices operate
     *         concurrently, like banks within a device).
     */
    DramStats computeStats() const;

    /** @return Host-transfer statistics, merged the same way. */
    DramStats transferStats() const;

    /** Clears statistics on every device. */
    void resetStats();

    // ---- Shard geometry and per-shard primitives ----------------
    //
    // Everything below operates on one device's shard and does NOT
    // lock the device; callers hold lockDevice(d) (the
    // StreamExecutor worker pattern: lock once per batch of
    // instructions).

    /**
     * A fully resolved view of one vector's shard on one device:
     * enough to drive the device's Processor directly, without
     * touching group bookkeeping again. Shard geometry is immutable
     * after alloc(), so views can be resolved once (e.g. at stream
     * submission) and used from worker threads with no locking
     * beyond the device mutex.
     */
    struct ShardView
    {
        Processor *proc = nullptr;   ///< The device's processor.
        Processor::VecHandle handle; ///< Invalid when count == 0.
        size_t offset = 0; ///< First whole-vector element index.
        size_t count = 0;  ///< Elements on this device.
        /** The shard's segments (empty when count == 0), captured at
         *  alloc(): readable without the device lock. */
        const std::vector<Processor::Segment> *segments = nullptr;
    };

    /** @return The resolved view of @p v's shard on device @p d. */
    ShardView shardView(const ShardedVec &v, size_t d) const;

    /** @return First whole-vector element index of shard @p d. */
    size_t shardOffset(const ShardedVec &v, size_t d) const;

    /** @return Element count of shard @p d (0 = device unused). */
    size_t shardElements(const ShardedVec &v, size_t d) const;

    /** @return The lock guarding device @p d's processor. */
    std::unique_lock<std::mutex> lockDevice(size_t d) const;

    /**
     * Installs @p injector into device @p d (nullptr clears). The
     * group keeps shared ownership so the injector outlives every
     * subarray pointer handed out; installation takes the device
     * lock, so it is safe while a StreamExecutor is attached (the
     * injector takes effect for the next stream on that device).
     */
    void setFaultInjector(size_t d,
                          std::shared_ptr<FaultInjector> injector);

    /** @return Device @p d's installed injector, or nullptr. */
    std::shared_ptr<FaultInjector> faultInjector(size_t d) const;

    /**
     * @return The mutation generation of @p v: a counter bumped by
     *         every DeviceGroup API call that writes the vector
     *         (store/fillConstant/shift/run and their per-shard
     *         variants). Callers that cache derived state — e.g. the
     *         StreamExecutor's trsp/init stream cache — tag their
     *         entries with this generation and re-validate on use, so
     *         out-of-band synchronous writes invalidate the cache.
     *         Writes issued directly against a device's Processor
     *         bypass the counter (the executor's own workers do this
     *         deliberately: their effects are tracked stream-side).
     */
    uint64_t mutationGen(const ShardedVec &v) const;

    /**
     * Declares that @p v's device rows were rewritten OUTSIDE the
     * DeviceGroup API (direct Processor stores), bumping its mutation
     * generation so every generation-tagged cache of derived state
     * re-validates. The StreamExecutor's fault-recovery restore path
     * uses this: rolling a device back to its pre-stream snapshot
     * must invalidate stream-cache entries the rolled-back stream
     * committed, or a later elided transpose would read stale lanes.
     */
    void noteExternalMutation(const ShardedVec &v) const;

    /** @return Device @p d's compute statistics (unmerged). */
    DramStats deviceComputeStats(size_t d) const;

    /** @return Device @p d's transfer statistics (unmerged). */
    DramStats deviceTransferStats(size_t d) const;

    /** Stores shard @p d from @p data (shardElements() elements). */
    void storeShard(size_t d, const ShardedVec &v,
                    const uint64_t *data);

    /** Loads shard @p d into @p out (shardElements() elements). */
    void loadShard(size_t d, const ShardedVec &v, uint64_t *out);

    /** Fills shard @p d of @p v with @p value. */
    void fillShard(size_t d, const ShardedVec &v, uint64_t value);

    /** Shifts shard @p d: dst = left ? src << k : src >> k. */
    void shiftShard(size_t d, bool left, const ShardedVec &dst,
                    const ShardedVec &src, size_t k);

    /** Runs a unary operation on shard @p d. */
    void runShard(size_t d, OpKind op, const ShardedVec &dst,
                  const ShardedVec &a);

    /** Runs a binary operation on shard @p d. */
    void runShard(size_t d, OpKind op, const ShardedVec &dst,
                  const ShardedVec &a, const ShardedVec &b);

    /** Runs a predicated operation on shard @p d. */
    void runShard(size_t d, OpKind op, const ShardedVec &dst,
                  const ShardedVec &a, const ShardedVec &b,
                  const ShardedVec &sel);

  private:
    /** Group-level bookkeeping for one sharded vector. */
    struct VecState
    {
        size_t elements = 0;
        size_t bits = 0;
        /** Per-device handle; invalid where the shard is empty. */
        std::vector<Processor::VecHandle> handles;
        /** Per-device first element index. */
        std::vector<size_t> offsets;
        /** Per-device element count. */
        std::vector<size_t> counts;
        /** Per-device segments (Processor::segments() at alloc). */
        std::vector<std::vector<Processor::Segment>> segments;
        /** Set by release(); any further use of the handle is fatal. */
        bool released = false;
        /** Mutation generation (see mutationGen()); metadata, so
         *  mutable — bumped through const accessors too. */
        mutable std::atomic<uint64_t> gen{0};
    };

    const VecState &state(const ShardedVec &v) const;
    Processor::VecHandle handleOn(const VecState &vs, size_t d) const;

    Backend backend_;
    std::vector<std::unique_ptr<Processor>> procs_;
    /** One mutex per device; see the threading model above. */
    std::unique_ptr<std::mutex[]> dev_mu_;
    /** Per-device fault injectors (shared ownership; may be null).
     *  Guarded by the respective device mutex. */
    std::vector<std::shared_ptr<FaultInjector>> injectors_;

    /**
     * Vector table. Entries are behind unique_ptr so VecState
     * references captured by StreamExecutor jobs stay stable while
     * the table grows; growth itself is serialized by vec_mu_.
     */
    std::vector<std::unique_ptr<VecState>> vecs_;
    mutable std::mutex vec_mu_;
};

} // namespace simdram

#endif // SIMDRAM_RUNTIME_DEVICE_GROUP_H
