/**
 * @file
 * Compiled μProgram replay plans (the batched execution path).
 *
 * The seed control-unit path (ControlUnit::execute) rebuilds the
 * virtual-to-physical row table and re-dispatches every μOp through a
 * binding closure for every segment of every operation. A ReplayPlan
 * instead resolves each μOp operand ONCE per μProgram into either a
 * fixed special/dual/triple address or a (region, offset) pair; a
 * segment is then described by nothing but its region base rows.
 *
 * At construction the plan also compiles the μOp stream into a
 * static schedule by executing it symbolically over row values:
 *
 *  - the values are C0, C1, every row the μProgram reads before it
 *    writes it (its inputs — T, DCC and scratch rows included, so
 *    memory state stays exact for any μProgram), and the output of
 *    every TRA;
 *  - a copy (AAP from a single row) is a rename: it moves a
 *    (value, negated) pair from row to row and emits no work; a DCC
 *    negative port flips the negated bit;
 *  - each TRA becomes one majority over value slots, with negations
 *    folded into operand masks; a TRA whose value never reaches a
 *    row's final state is dropped, and slots are reused after their
 *    last use;
 *  - every row the μProgram writes ends holding one (value, negated)
 *    pair; rows holding the same pair form one write-back group.
 *
 * Replaying a segment runs the majorities into one per-thread arena
 * and then stores each group's value into every member row, in
 * place while the row's payload is unshared (copy-on-write, BitRow:
 * a payload an outside copy holds detaches first). The input values
 * that groups store are copied aside before any write, since two
 * groups may swap rows' values. No row the schedule writes ends up
 * sharing a payload, so a steady-state replay allocates nothing.
 * Segments replay back to back in their original order, each adding
 * the plan's precomputed DramStats once, so memory state and
 * statistics equal the per-command path (asserted by the
 * replay-equivalence tests).
 *
 * The schedule assumes a TRA is a pure majority and that the rows a
 * μProgram writes are distinct from every other row it touches. A
 * segment whose subarray has a TRA fault mechanism active or is on
 * its reference path, a plan whose μProgram writes an input region
 * (two inputs may be the same vector), and a binding that overlaps a
 * written region all replay μOp by μOp through
 * Subarray::aapFunctional()/apFunctional() instead: every TRA then
 * consults the fault injector in exactly the reference path's order.
 */

#ifndef SIMDRAM_EXEC_REPLAY_PLAN_H
#define SIMDRAM_EXEC_REPLAY_PLAN_H

#include <cstdint>
#include <vector>

#include "dram/subarray.h"
#include "uprog/program.h"

namespace simdram
{

/** A μProgram with operand bindings resolved to region offsets. */
class ReplayPlan
{
  public:
    ReplayPlan() = default;

    /**
     * Builds the plan for @p prog on a device configured as @p cfg:
     * validates every virtual row reference, splits each operand into
     * fixed vs. region-relative form, compiles the static schedule
     * (see the file comment), and precomputes the statistics
     * aggregate (counters, serial latency, energy) of one full
     * stream replay — command accounting identical to issuing every
     * aap()/ap() individually, paid once per segment instead of once
     * per command. The program must outlive the plan.
     */
    ReplayPlan(const MicroProgram &prog, const DramConfig &cfg);

    /**
     * @return Number of region bases a segment binds: inputs, then
     *         outputs, then scratch.
     */
    size_t regionCount() const { return n_regions_; }

    /** @return Number of μOps in the plan. */
    size_t opCount() const { return ops_.size(); }

    /**
     * @return True if the μProgram compiled to a static schedule;
     *         false if every segment replays μOp by μOp (see the file
     *         comment).
     */
    bool compiled() const { return compiled_; }

    /** @return The statistics of one full stream replay. */
    const DramStats &segmentStats() const { return seg_stats_; }

    /** Replays the μOp stream on one segment (see replaySegment()). */
    void replay(Subarray &sub,
                const std::vector<uint32_t> &bases) const;

    /**
     * Replays one segment whose regionCount() base rows start at
     * @p bases, then adds its statistics. Allocates nothing once the
     * calling thread's scratch has grown to the plan's size.
     */
    void replaySegment(Subarray &sub, const uint32_t *bases) const;

  private:
    /** One resolved μOp operand. */
    struct Operand
    {
        RowAddr fixed;       ///< Used when !isData.
        uint32_t region = 0; ///< Index into the segment's bases.
        uint32_t offset = 0; ///< Row offset within the region.
        bool isData = false; ///< Region-relative vs. fixed address.
    };

    /** One resolved μOp (the per-command fallback). */
    struct PlanOp
    {
        MicroOp::Kind kind = MicroOp::Kind::Ap;
        Operand src;
        Operand dst;
    };

    /**
     * A row of the schedule: @c offset rows past the base of
     * @c region, where regions n_regions_ and n_regions_ + 1 stand for
     * the compute rows T0..T3 and the DCC cells.
     */
    struct RowRef
    {
        uint32_t region = 0;
        uint32_t offset = 0;
    };

    /**
     * out = MAJ(in[0] ^ mask[0], in[1] ^ mask[1], in[2] ^ mask[2]).
     * Operands index the value table (C0, C1, inputs, then arena
     * slots); @c out is an arena slot.
     */
    struct TraOp
    {
        uint32_t out = 0;
        uint32_t in[3] = {0, 0, 0};
        uint64_t mask[3] = {0, 0, 0};
    };

    /** Rows that all end holding one value table entry. */
    struct WriteGroup
    {
        uint32_t value = 0;    ///< Value table index.
        bool negated = false;  ///< Rows hold the complement.
        uint32_t first = 0;    ///< Members: group_rows_[first, +count).
        uint32_t count = 0;
    };

    /** Executes the μOp stream symbolically into the schedule. */
    void compile(const MicroProgram &prog);

    /** @return True if @p bases may replay through the schedule. */
    bool scheduleApplies(const Subarray &sub,
                         const uint32_t *bases) const;

    /** Replays one segment through the schedule. */
    void runSchedule(Subarray &sub, const uint32_t *bases) const;

    std::vector<PlanOp> ops_;
    size_t n_regions_ = 0;
    size_t n_input_regions_ = 0;
    std::vector<uint32_t> region_rows_; ///< Rows per region.
    DramStats seg_stats_; ///< Aggregate of one stream replay.

    bool compiled_ = false;
    std::vector<RowRef> inputs_;  ///< Value table entries 2, 3, ...
    size_t n_slots_ = 0;          ///< Arena slots (rows) needed.
    std::vector<TraOp> tras_;
    std::vector<WriteGroup> groups_;
    std::vector<RowRef> group_rows_;
};

} // namespace simdram

#endif // SIMDRAM_EXEC_REPLAY_PLAN_H
