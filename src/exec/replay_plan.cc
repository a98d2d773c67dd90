#include "exec/replay_plan.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "common/error.h"

namespace simdram
{

namespace
{

/**
 * Replay scratch, one per worker thread and sized by the largest plan
 * the thread has run: the TRA value arena plus per-segment tables.
 */
struct ReplayScratch
{
    std::vector<uint64_t> arena;          ///< TRA value slots.
    std::vector<const uint64_t *> values; ///< Value table words.
    std::vector<BitRow *> regions;        ///< Region base rows.
    std::vector<uint64_t> snaps;          ///< Input-valued groups.
};

thread_local ReplayScratch t_scratch;

constexpr uint32_t kNone = UINT32_MAX;

/** Schedule value ids of the constant rows. */
constexpr uint32_t kC0 = 0;
constexpr uint32_t kC1 = 1;

/** Compute-cell index (T0..T3, DCC0, DCC1) behind a special row. */
uint32_t
cellIndex(SpecialRow s)
{
    switch (s) {
      case SpecialRow::T0: return 0;
      case SpecialRow::T1: return 1;
      case SpecialRow::T2: return 2;
      case SpecialRow::T3: return 3;
      case SpecialRow::DCC0P:
      case SpecialRow::DCC0N: return 4;
      case SpecialRow::DCC1P:
      case SpecialRow::DCC1N: return 5;
      case SpecialRow::C0:
      case SpecialRow::C1: break;
    }
    panic("ReplayPlan: constant rows have no cell");
}

bool
negatedPort(SpecialRow s)
{
    return s == SpecialRow::DCC0N || s == SpecialRow::DCC1N;
}

} // namespace

ReplayPlan::ReplayPlan(const MicroProgram &prog, const DramConfig &cfg)
{
    // Region table in virtual-row order: inputs, outputs, scratch.
    std::vector<size_t> starts;
    size_t start = 0;
    auto addRegion = [&](size_t rows) {
        starts.push_back(start);
        region_rows_.push_back(static_cast<uint32_t>(rows));
        start += rows;
    };
    for (const RowRegion &r : prog.inputRegions)
        addRegion(r.rows);
    for (const RowRegion &r : prog.outputRegions)
        addRegion(r.rows);
    addRegion(prog.scratchRows);
    n_regions_ = region_rows_.size();
    n_input_regions_ = prog.inputRegions.size();
    const size_t virtual_rows = start;

    auto resolve = [&](const RowAddr &a) {
        Operand op;
        if (a.kind != RowAddr::Kind::Data) {
            op.fixed = a;
            return op;
        }
        if (a.dataRow >= virtual_rows)
            panic("ReplayPlan: virtual row out of range");
        op.isData = true;
        for (size_t r = 0; r < n_regions_; ++r) {
            if (a.dataRow < starts[r] + region_rows_[r]) {
                op.region = static_cast<uint32_t>(r);
                op.offset = static_cast<uint32_t>(a.dataRow - starts[r]);
                break;
            }
        }
        return op;
    };

    // Precompute the statistics of one stream replay, accumulating
    // in command order with exactly the per-command constants
    // Subarray::aap/ap would use, so one bulk add per segment equals
    // the seed path's per-command accounting.
    auto countActivate = [&](const RowAddr &a) {
        const int raised = a.rowsRaised();
        if (raised > 1)
            ++seg_stats_.multiActivates;
        else
            ++seg_stats_.activates;
        seg_stats_.energyPj += cfg.actEnergyPj(raised);
    };

    ops_.reserve(prog.ops.size());
    for (const MicroOp &op : prog.ops) {
        PlanOp p;
        p.kind = op.kind;
        p.src = resolve(op.src);
        countActivate(op.src);
        if (op.kind == MicroOp::Kind::Aap) {
            p.dst = resolve(op.dst);
            countActivate(op.dst);
            ++seg_stats_.aaps;
            seg_stats_.latencyNs += cfg.timing.aapNs();
        } else {
            ++seg_stats_.aps;
            seg_stats_.latencyNs += cfg.timing.apNs();
        }
        ++seg_stats_.precharges;
        seg_stats_.energyPj += cfg.preEnergyPj();
        ops_.push_back(p);
    }

    compile(prog);
}

void
ReplayPlan::compile(const MicroProgram &prog)
{
    // Row keys: the virtual data rows, then the six compute cells.
    const uint32_t n_data = static_cast<uint32_t>(prog.virtualRowCount());
    const uint32_t n_keys = n_data + 6;
    const uint32_t n_input_rows =
        static_cast<uint32_t>(prog.inputRowCount());

    // Value ids: kC0, kC1, then inputs and TRA outputs as created;
    // value_key holds an input's row key and kNone otherwise.
    struct Val
    {
        uint32_t id = kNone;
        bool neg = false;
    };
    struct SymTra
    {
        uint32_t out;
        Val in[3];
    };
    std::vector<uint32_t> value_key = {kNone, kNone};
    std::vector<SymTra> tras;
    std::vector<Val> cur(n_keys);
    std::vector<uint8_t> written(n_keys, 0);
    std::vector<uint32_t> input_of(n_keys, kNone);
    bool ok = true;

    auto flip = [](Val v) {
        if (v.id == kC0 || v.id == kC1)
            return Val{v.id ^ 1U, false};
        return Val{v.id, !v.neg};
    };
    auto readKey = [&](uint32_t key) {
        if (cur[key].id == kNone) {
            input_of[key] = static_cast<uint32_t>(value_key.size());
            value_key.push_back(key);
            cur[key] = Val{input_of[key], false};
        }
        return cur[key];
    };
    auto readPort = [&](const RowAddr &a) {
        if (a.kind == RowAddr::Kind::Data)
            return readKey(a.dataRow);
        if (a.special == SpecialRow::C0)
            return Val{kC0, false};
        if (a.special == SpecialRow::C1)
            return Val{kC1, false};
        const Val v = readKey(n_data + cellIndex(a.special));
        return negatedPort(a.special) ? flip(v) : v;
    };
    auto writeKey = [&](uint32_t key, Val v) {
        cur[key] = v;
        written[key] = 1;
        ok = ok && key >= n_input_rows;
    };
    auto writeSpecial = [&](SpecialRow s, Val v) {
        if (s == SpecialRow::C0 || s == SpecialRow::C1) {
            ok = false; // the per-command path panics at replay
            return;
        }
        writeKey(n_data + cellIndex(s), negatedPort(s) ? flip(v) : v);
    };
    auto write = [&](const RowAddr &a, Val v) {
        switch (a.kind) {
          case RowAddr::Kind::Data:
            writeKey(a.dataRow, v);
            return;
          case RowAddr::Kind::Special:
            writeSpecial(a.special, v);
            return;
          case RowAddr::Kind::Dual:
            for (SpecialRow s : dualRows(a.dual))
                writeSpecial(s, v);
            return;
          case RowAddr::Kind::Triple:
            for (SpecialRow s : tripleRows(a.triple))
                writeSpecial(s, v);
            return;
        }
    };
    auto tra = [&](TripleAddr t) {
        SymTra st;
        const auto rows = tripleRows(t);
        for (size_t k = 0; k < 3; ++k)
            st.in[k] = readKey(n_data + cellIndex(rows[k]));
        st.out = static_cast<uint32_t>(value_key.size());
        value_key.push_back(kNone);
        tras.push_back(st);
        const Val m{st.out, false};
        for (SpecialRow s : rows)
            writeKey(n_data + cellIndex(s), m);
        return m;
    };

    for (const MicroOp &op : prog.ops) {
        if (op.src.kind == RowAddr::Kind::Dual) {
            ok = false; // the per-command path panics at replay
            break;
        }
        Val v;
        if (op.src.kind == RowAddr::Kind::Triple)
            v = tra(op.src.triple);
        else if (op.kind == MicroOp::Kind::Aap)
            v = readPort(op.src);
        // An AP on a single row restores it unchanged.
        if (op.kind == MicroOp::Kind::Aap)
            write(op.dst, v);
    }
    if (!ok)
        return;

    auto isTra = [&](uint32_t id) {
        return id > kC1 && value_key[id] == kNone;
    };
    auto rowRef = [&](uint32_t key) {
        RowRef ref;
        if (key >= n_data) {
            const uint32_t cell = key - n_data;
            ref.region = static_cast<uint32_t>(n_regions_) +
                         (cell < 4 ? 0 : 1);
            ref.offset = cell < 4 ? cell : cell - 4;
            return ref;
        }
        uint32_t start = 0;
        while (key >= start + region_rows_[ref.region])
            start += region_rows_[ref.region++];
        ref.offset = key - start;
        return ref;
    };

    // Value table: C0, C1, the inputs, then the arena slots.
    const size_t n_values = value_key.size();
    std::vector<uint32_t> table(n_values, kNone);
    table[kC0] = kC0;
    table[kC1] = kC1;
    for (uint32_t id = kC1 + 1; id < n_values; ++id) {
        if (!isTra(id)) {
            table[id] = static_cast<uint32_t>(2 + inputs_.size());
            inputs_.push_back(rowRef(value_key[id]));
        }
    }
    const uint32_t slot_base = static_cast<uint32_t>(2 + inputs_.size());

    // The rows to store back: every written row that no longer holds
    // its own input value.
    std::vector<uint32_t> finals;
    for (uint32_t key = 0; key < n_keys; ++key)
        if (written[key] &&
            !(cur[key].id == input_of[key] && !cur[key].neg))
            finals.push_back(key);

    // Slots by last use: a TRA value's slot frees after the last TRA
    // that reads it, unless a row stores it back. The kernel is
    // element-wise, so an output may reuse its operand's slot.
    std::vector<size_t> last_use(n_values, 0);
    for (size_t i = 0; i < tras.size(); ++i)
        for (const Val &v : tras[i].in)
            last_use[v.id] = i;
    for (uint32_t key : finals)
        last_use[cur[key].id] = SIZE_MAX;
    std::vector<uint32_t> free_slots;
    for (size_t i = 0; i < tras.size(); ++i) {
        TraOp op;
        for (size_t k = 0; k < 3; ++k) {
            const Val v = tras[i].in[k];
            op.in[k] = table[v.id];
            op.mask[k] = v.neg ? ~0ULL : 0ULL;
            if (isTra(v.id) && last_use[v.id] == i) {
                free_slots.push_back(table[v.id] - slot_base);
                last_use[v.id] = SIZE_MAX; // free it once
            }
        }
        if (free_slots.empty()) {
            op.out = static_cast<uint32_t>(n_slots_++);
        } else {
            op.out = free_slots.back();
            free_slots.pop_back();
        }
        table[tras[i].out] = slot_base + op.out;
        if (last_use[tras[i].out] <= i) // dead: read by no later TRA
            free_slots.push_back(op.out);
        tras_.push_back(op);
    }

    // Write-back groups, in row order.
    std::vector<std::pair<Val, std::vector<RowRef>>> groups;
    for (uint32_t key : finals) {
        const Val v = cur[key];
        auto it = std::find_if(groups.begin(), groups.end(),
                               [&](const auto &g) {
                                   return g.first.id == v.id &&
                                          g.first.neg == v.neg;
                               });
        if (it == groups.end())
            it = groups.insert(groups.end(), {v, {}});
        it->second.push_back(rowRef(key));
    }
    for (const auto &[v, rows] : groups) {
        WriteGroup g;
        g.value = table[v.id];
        g.negated = v.neg;
        g.first = static_cast<uint32_t>(group_rows_.size());
        g.count = static_cast<uint32_t>(rows.size());
        groups_.push_back(g);
        group_rows_.insert(group_rows_.end(), rows.begin(), rows.end());
    }
    compiled_ = true;
}

bool
ReplayPlan::scheduleApplies(const Subarray &sub,
                            const uint32_t *bases) const
{
    if (!compiled_ || sub.referencePath() || !sub.faultFree())
        return false;
    auto end = [&](size_t r) {
        return static_cast<size_t>(bases[r]) + region_rows_[r];
    };
    for (size_t r = 0; r < n_regions_; ++r) {
        if (end(r) > sub.dataRowCount())
            return false; // the per-command path panics on access
        if (r < n_input_regions_ || region_rows_[r] == 0)
            continue;
        // A written region must not share rows with any other.
        for (size_t q = 0; q < n_regions_; ++q)
            if (q != r && region_rows_[q] != 0 &&
                bases[q] < end(r) && bases[r] < end(q))
                return false;
    }
    return true;
}

void
ReplayPlan::runSchedule(Subarray &sub, const uint32_t *bases) const
{
    ReplayScratch &s = t_scratch;
    const Subarray::Cells cells = sub.replayCells();
    const size_t nw = (sub.rowBits() + 63) / 64;

    s.regions.resize(n_regions_ + 2);
    for (size_t r = 0; r < n_regions_; ++r)
        s.regions[r] = cells.data + bases[r];
    s.regions[n_regions_] = cells.t;
    s.regions[n_regions_ + 1] = cells.dcc;
    auto row = [&](const RowRef &ref) {
        return s.regions[ref.region] + ref.offset;
    };

    if (s.arena.size() < n_slots_ * nw)
        s.arena.resize(n_slots_ * nw);
    uint64_t *arena = s.arena.data();
    s.values.resize(2 + inputs_.size() + n_slots_);
    s.values[kC0] = cells.c0->data();
    s.values[kC1] = cells.c1->data();
    for (size_t i = 0; i < inputs_.size(); ++i)
        s.values[2 + i] = row(inputs_[i])->data();
    for (size_t k = 0; k < n_slots_; ++k)
        s.values[2 + inputs_.size() + k] = arena + k * nw;

    // No row changes until every majority has read its operands.
    for (const TraOp &op : tras_)
        BitRow::majority3Words(arena + op.out * nw, s.values[op.in[0]],
                               op.mask[0], s.values[op.in[1]],
                               op.mask[1], s.values[op.in[2]],
                               op.mask[2], nw);

    // Copy the input values that groups store before any write: two
    // groups may swap rows' values.
    const size_t first_input = 2;
    const size_t end_input = 2 + inputs_.size();
    auto isInput = [&](uint32_t v) {
        return v >= first_input && v < end_input;
    };
    size_t n_snaps = 0;
    for (const WriteGroup &g : groups_)
        n_snaps += isInput(g.value) ? 1 : 0;
    if (s.snaps.size() < n_snaps * nw)
        s.snaps.resize(n_snaps * nw);
    uint64_t *snap = s.snaps.data();
    for (const WriteGroup &g : groups_) {
        if (isInput(g.value)) {
            std::copy_n(s.values[g.value], nw, snap);
            snap += nw;
        }
    }

    // Every member row takes the value into its own payload: a row the
    // schedule writes never shares a payload with another row, so the
    // next replay finds it unshared and overwrites it in place.
    snap = s.snaps.data();
    for (const WriteGroup &g : groups_) {
        const uint64_t *src = s.values[g.value];
        if (isInput(g.value)) {
            src = snap;
            snap += nw;
        }
        const RowRef *members = group_rows_.data() + g.first;
        for (uint32_t m = 0; m < g.count; ++m)
            row(members[m])->assignWords(src, g.negated);
    }
}

void
ReplayPlan::replaySegment(Subarray &sub, const uint32_t *bases) const
{
    if (scheduleApplies(sub, bases)) {
        runSchedule(sub, bases);
    } else {
        auto addr = [&](const Operand &o) {
            return o.isData ? RowAddr::data(bases[o.region] + o.offset)
                            : o.fixed;
        };
        for (const PlanOp &op : ops_) {
            if (op.kind == MicroOp::Kind::Aap)
                sub.aapFunctional(addr(op.src), addr(op.dst));
            else
                sub.apFunctional(addr(op.src));
        }
    }
    sub.addStats(seg_stats_);
}

void
ReplayPlan::replay(Subarray &sub,
                   const std::vector<uint32_t> &bases) const
{
    if (bases.size() != n_regions_)
        panic("ReplayPlan: wrong number of region bases");
    replaySegment(sub, bases.data());
}

} // namespace simdram
