#include "runtime/device_group.h"

#include <algorithm>

#include "common/error.h"

namespace simdram
{

DeviceGroup::DeviceGroup(DramConfig cfg, size_t devices,
                         Backend backend)
    : backend_(backend)
{
    if (devices == 0)
        fatal("DeviceGroup: device count must be >= 1");
    cfg.validate();
    procs_.reserve(devices);
    for (size_t d = 0; d < devices; ++d)
        procs_.push_back(std::make_unique<Processor>(cfg, backend));
    dev_mu_ = std::make_unique<std::mutex[]>(devices);
    injectors_.resize(devices);
}

void
DeviceGroup::setFaultInjector(size_t d,
                              std::shared_ptr<FaultInjector> injector)
{
    if (d >= procs_.size())
        fatal("DeviceGroup: bad device index");
    auto lock = lockDevice(d);
    injectors_[d] = std::move(injector);
    procs_[d]->setFaultInjector(injectors_[d].get());
}

std::shared_ptr<FaultInjector>
DeviceGroup::faultInjector(size_t d) const
{
    if (d >= procs_.size())
        fatal("DeviceGroup: bad device index");
    auto lock = lockDevice(d);
    return injectors_[d];
}

Processor &
DeviceGroup::device(size_t d)
{
    if (d >= procs_.size())
        fatal("DeviceGroup: bad device index");
    return *procs_[d];
}

const DramConfig &
DeviceGroup::config() const
{
    return procs_[0]->config();
}

ShardedVec
DeviceGroup::alloc(size_t elements, size_t bits)
{
    if (elements == 0 || bits == 0)
        fatal("DeviceGroup::alloc: empty vector");

    // Segment-aligned contiguous split: whole rowBits-lane segments
    // go to each device, front-loaded so trailing devices take the
    // slack (possibly an empty shard).
    const size_t lanes = config().rowBits;
    const size_t total_segs = (elements + lanes - 1) / lanes;
    const size_t devices = procs_.size();

    auto vs = std::make_unique<VecState>();
    vs->elements = elements;
    vs->bits = bits;
    vs->handles.resize(devices);
    vs->offsets.assign(devices, 0);
    vs->counts.assign(devices, 0);
    vs->segments.resize(devices);

    size_t seg_start = 0;
    for (size_t d = 0; d < devices; ++d) {
        const size_t segs =
            total_segs / devices + (d < total_segs % devices ? 1 : 0);
        const size_t offset = seg_start * lanes;
        const size_t count =
            offset < elements
                ? std::min(elements - offset, segs * lanes)
                : 0;
        vs->offsets[d] = std::min(offset, elements);
        vs->counts[d] = count;
        if (count > 0) {
            auto lock = lockDevice(d);
            vs->handles[d] = procs_[d]->alloc(count, bits);
            vs->segments[d] = procs_[d]->segments(vs->handles[d]);
        }
        seg_start += segs;
    }

    std::lock_guard<std::mutex> lock(vec_mu_);
    vecs_.push_back(std::move(vs));
    ShardedVec h;
    h.id = static_cast<uint32_t>(vecs_.size() - 1);
    h.elements = elements;
    h.bits = bits;
    return h;
}

void
DeviceGroup::release(const ShardedVec &v)
{
    VecState *vs = nullptr;
    {
        std::lock_guard<std::mutex> lock(vec_mu_);
        if (!v.valid() || v.id >= vecs_.size())
            fatal("DeviceGroup: invalid sharded-vector handle");
        vs = vecs_[v.id].get();
        if (vs->released)
            fatal("DeviceGroup::release: vector already released");
        vs->released = true;
    }
    vs->gen.fetch_add(1, std::memory_order_relaxed);
    for (size_t d = 0; d < procs_.size(); ++d) {
        if (vs->counts[d] == 0)
            continue;
        auto lock = lockDevice(d);
        procs_[d]->free(vs->handles[d]);
        vs->handles[d] = Processor::VecHandle{};
    }
}

const DeviceGroup::VecState &
DeviceGroup::state(const ShardedVec &v) const
{
    std::lock_guard<std::mutex> lock(vec_mu_);
    if (!v.valid() || v.id >= vecs_.size())
        fatal("DeviceGroup: invalid sharded-vector handle");
    if (vecs_[v.id]->released)
        fatal("DeviceGroup: use of released sharded-vector handle");
    return *vecs_[v.id];
}

Processor::VecHandle
DeviceGroup::handleOn(const VecState &vs, size_t d) const
{
    if (d >= procs_.size())
        fatal("DeviceGroup: bad device index");
    return vs.handles[d];
}

DeviceGroup::ShardView
DeviceGroup::shardView(const ShardedVec &v, size_t d) const
{
    const VecState &vs = state(v);
    if (d >= procs_.size())
        fatal("DeviceGroup: bad device index");
    ShardView view;
    view.proc = procs_[d].get();
    view.handle = vs.handles[d];
    view.offset = vs.offsets[d];
    view.count = vs.counts[d];
    view.segments = &vs.segments[d];
    return view;
}

size_t
DeviceGroup::shardOffset(const ShardedVec &v, size_t d) const
{
    const VecState &vs = state(v);
    if (d >= procs_.size())
        fatal("DeviceGroup: bad device index");
    return vs.offsets[d];
}

size_t
DeviceGroup::shardElements(const ShardedVec &v, size_t d) const
{
    const VecState &vs = state(v);
    if (d >= procs_.size())
        fatal("DeviceGroup: bad device index");
    return vs.counts[d];
}

std::unique_lock<std::mutex>
DeviceGroup::lockDevice(size_t d) const
{
    if (d >= procs_.size())
        fatal("DeviceGroup: bad device index");
    return std::unique_lock<std::mutex>(dev_mu_[d]);
}

DramStats
DeviceGroup::deviceComputeStats(size_t d) const
{
    if (d >= procs_.size())
        fatal("DeviceGroup: bad device index");
    return procs_[d]->computeStats();
}

DramStats
DeviceGroup::deviceTransferStats(size_t d) const
{
    if (d >= procs_.size())
        fatal("DeviceGroup: bad device index");
    return procs_[d]->transferStats();
}

void
DeviceGroup::store(const ShardedVec &v,
                   const std::vector<uint64_t> &data)
{
    const VecState &vs = state(v);
    if (data.size() != vs.elements)
        fatal("DeviceGroup::store: element count mismatch");
    for (size_t d = 0; d < procs_.size(); ++d) {
        if (vs.counts[d] == 0)
            continue;
        auto lock = lockDevice(d);
        storeShard(d, v, data.data() + vs.offsets[d]);
    }
}

std::vector<uint64_t>
DeviceGroup::load(const ShardedVec &v)
{
    const VecState &vs = state(v);
    std::vector<uint64_t> out(vs.elements);
    for (size_t d = 0; d < procs_.size(); ++d) {
        if (vs.counts[d] == 0)
            continue;
        auto lock = lockDevice(d);
        loadShard(d, v, out.data() + vs.offsets[d]);
    }
    return out;
}

void
DeviceGroup::fillConstant(const ShardedVec &v, uint64_t value)
{
    const VecState &vs = state(v);
    for (size_t d = 0; d < procs_.size(); ++d) {
        if (vs.counts[d] == 0)
            continue;
        auto lock = lockDevice(d);
        fillShard(d, v, value);
    }
}

void
DeviceGroup::shiftLeft(const ShardedVec &dst, const ShardedVec &src,
                       size_t k)
{
    const VecState &vs = state(dst);
    for (size_t d = 0; d < procs_.size(); ++d) {
        if (vs.counts[d] == 0)
            continue;
        auto lock = lockDevice(d);
        shiftShard(d, true, dst, src, k);
    }
}

void
DeviceGroup::shiftRight(const ShardedVec &dst, const ShardedVec &src,
                        size_t k)
{
    const VecState &vs = state(dst);
    for (size_t d = 0; d < procs_.size(); ++d) {
        if (vs.counts[d] == 0)
            continue;
        auto lock = lockDevice(d);
        shiftShard(d, false, dst, src, k);
    }
}

void
DeviceGroup::run(OpKind op, const ShardedVec &dst,
                 const ShardedVec &a)
{
    const VecState &vs = state(dst);
    for (size_t d = 0; d < procs_.size(); ++d) {
        if (vs.counts[d] == 0)
            continue;
        auto lock = lockDevice(d);
        runShard(d, op, dst, a);
    }
}

void
DeviceGroup::run(OpKind op, const ShardedVec &dst,
                 const ShardedVec &a, const ShardedVec &b)
{
    const VecState &vs = state(dst);
    for (size_t d = 0; d < procs_.size(); ++d) {
        if (vs.counts[d] == 0)
            continue;
        auto lock = lockDevice(d);
        runShard(d, op, dst, a, b);
    }
}

void
DeviceGroup::run(OpKind op, const ShardedVec &dst,
                 const ShardedVec &a, const ShardedVec &b,
                 const ShardedVec &sel)
{
    const VecState &vs = state(dst);
    for (size_t d = 0; d < procs_.size(); ++d) {
        if (vs.counts[d] == 0)
            continue;
        auto lock = lockDevice(d);
        runShard(d, op, dst, a, b, sel);
    }
}

DramStats
DeviceGroup::computeStats() const
{
    DramStats total;
    for (size_t d = 0; d < procs_.size(); ++d) {
        auto lock = lockDevice(d);
        total = merge(total, procs_[d]->computeStats());
    }
    return total;
}

DramStats
DeviceGroup::transferStats() const
{
    DramStats total;
    for (size_t d = 0; d < procs_.size(); ++d) {
        auto lock = lockDevice(d);
        total = merge(total, procs_[d]->transferStats());
    }
    return total;
}

void
DeviceGroup::resetStats()
{
    for (size_t d = 0; d < procs_.size(); ++d) {
        auto lock = lockDevice(d);
        procs_[d]->resetStats();
    }
}

uint64_t
DeviceGroup::mutationGen(const ShardedVec &v) const
{
    return state(v).gen.load(std::memory_order_relaxed);
}

void
DeviceGroup::noteExternalMutation(const ShardedVec &v) const
{
    state(v).gen.fetch_add(1, std::memory_order_relaxed);
}

void
DeviceGroup::storeShard(size_t d, const ShardedVec &v,
                        const uint64_t *data)
{
    const VecState &vs = state(v);
    vs.gen.fetch_add(1, std::memory_order_relaxed);
    if (vs.counts[d] == 0)
        return;
    procs_[d]->store(handleOn(vs, d), data, vs.counts[d]);
}

void
DeviceGroup::loadShard(size_t d, const ShardedVec &v, uint64_t *out)
{
    const VecState &vs = state(v);
    if (vs.counts[d] == 0)
        return;
    procs_[d]->loadInto(handleOn(vs, d), out);
}

void
DeviceGroup::fillShard(size_t d, const ShardedVec &v, uint64_t value)
{
    const VecState &vs = state(v);
    vs.gen.fetch_add(1, std::memory_order_relaxed);
    if (vs.counts[d] == 0)
        return;
    procs_[d]->fillConstant(handleOn(vs, d), value);
}

void
DeviceGroup::shiftShard(size_t d, bool left, const ShardedVec &dst,
                        const ShardedVec &src, size_t k)
{
    const VecState &ds = state(dst);
    const VecState &ss = state(src);
    ds.gen.fetch_add(1, std::memory_order_relaxed);
    if (ds.counts[d] == 0 && ss.counts[d] == 0)
        return;
    if (left)
        procs_[d]->shiftLeft(handleOn(ds, d), handleOn(ss, d), k);
    else
        procs_[d]->shiftRight(handleOn(ds, d), handleOn(ss, d), k);
}

void
DeviceGroup::runShard(size_t d, OpKind op, const ShardedVec &dst,
                      const ShardedVec &a)
{
    const VecState &ds = state(dst);
    ds.gen.fetch_add(1, std::memory_order_relaxed);
    if (ds.counts[d] == 0)
        return;
    procs_[d]->run(op, handleOn(ds, d), handleOn(state(a), d));
}

void
DeviceGroup::runShard(size_t d, OpKind op, const ShardedVec &dst,
                      const ShardedVec &a, const ShardedVec &b)
{
    const VecState &ds = state(dst);
    ds.gen.fetch_add(1, std::memory_order_relaxed);
    if (ds.counts[d] == 0)
        return;
    procs_[d]->run(op, handleOn(ds, d), handleOn(state(a), d),
                   handleOn(state(b), d));
}

void
DeviceGroup::runShard(size_t d, OpKind op, const ShardedVec &dst,
                      const ShardedVec &a, const ShardedVec &b,
                      const ShardedVec &sel)
{
    const VecState &ds = state(dst);
    ds.gen.fetch_add(1, std::memory_order_relaxed);
    if (ds.counts[d] == 0)
        return;
    procs_[d]->run(op, handleOn(ds, d), handleOn(state(a), d),
                   handleOn(state(b), d), handleOn(state(sel), d));
}

} // namespace simdram
