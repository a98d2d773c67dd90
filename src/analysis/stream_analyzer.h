/**
 * @file
 * Static analysis over the stream IR: a forward dataflow engine and a
 * rule-based lint framework.
 *
 * The runtime BbopValidator (src/isa/validate.h) polices the ISA
 * contract — widths, shapes, ids, layout state — but knows nothing
 * about dataflow: it happily accepts a program that reads an object
 * nothing ever wrote, transposes stale host data over a freshly
 * computed vertical image, or performs work the optimizer should have
 * elided. With four layers mechanically emitting bbop programs
 * (apps → StreamBuilder → optimizer passes → coalescer fusion), those
 * bugs deserve to be caught BEFORE a device executes anything.
 *
 * analyzeStream() walks a StreamIR in submission order, tracking a
 * per-object abstract state derived from effectsOf():
 *
 *  - definedness  — Unwritten / Partial / Full, per storage location
 *    (the vertical bit-serial image and the horizontal host image);
 *  - layout       — Unknown / Horizontal / Vertical, mirroring the
 *    executor's layout commit rules (full vertical writes establish
 *    the vertical layout);
 *  - const-ness   — whether both images provably hold one broadcast
 *    constant (the hoisting pass's RedundancyFact, evolved by the
 *    same applyFact(); the redundant-trsp/redundant-init rules are
 *    its isRedundant());
 *  - last writer  — the node index that last wrote each location.
 *
 * Lint rules evaluate against that state and emit typed
 * StreamDiagnostics (rule id, severity, node index, object id,
 * human-readable message). Malformedness per se is NOT re-implemented
 * here: the analyzer runs the shared BbopValidator alongside its own
 * transfer function and wraps any BbopError as a Malformed
 * diagnostic, so the analyzer is stricter than the validator by
 * construction, never looser.
 *
 * runPassesValidated() is the translation-validation harness: it
 * analyzes the IR before and after each enabled optimizer pass and
 * checks the pass preserved the live-semantics facts — every
 * surviving read observes the same definedness/layout/const state,
 * no dead node is resurrected, and the per-object exit state is
 * unchanged. Failures name the offending pass.
 */

#ifndef SIMDRAM_ANALYSIS_STREAM_ANALYZER_H
#define SIMDRAM_ANALYSIS_STREAM_ANALYZER_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "isa/bbop.h"
#include "isa/validate.h"
#include "stream/passes.h"
#include "stream/stream_ir.h"

namespace simdram
{

/** The lint rules the analyzer ships with. */
enum class LintRule : uint8_t
{
    /** The shared BbopValidator rejected the instruction. */
    Malformed,
    /** Read of an object no instruction (or entry state) ever wrote. */
    ReadUnwritten,
    /** Use reads a location holding stale or absent data (e.g. an
     *  operation on a never-transposed object, or a bbop_trsp that
     *  would clobber a newer vertical image with old host data). */
    LayoutMismatch,
    /** Write overwritten before any read of it (end-of-program is
     *  live-out for both locations, exactly as in the DWE pass). */
    DeadWrite,
    /** trsp/trsp_inv whose images already coincide — the hoisting
     *  pass should have elided it. */
    RedundantTrsp,
    /** init re-broadcasting a constant already in place. */
    RedundantInit,
    /** Operation or shift whose destination aliases a source. */
    SelfAlias,
    /** Shift amount >= element width: the result is always zero.
     *  The ISA validator accepts this; the analyzer rejects it. */
    ShiftOverflow,
};

/** @return The stable kebab-case id of @p rule (e.g. "dead-write"). */
const char *lintRuleId(LintRule rule);

/** Severity of one diagnostic. Strict mode rejects on any Error. */
enum class LintSeverity : uint8_t
{
    Warning,
    Error,
};

/** One finding of the analyzer. */
struct StreamDiagnostic
{
    LintRule rule = LintRule::Malformed;
    LintSeverity severity = LintSeverity::Error;
    /** Index into StreamIR::nodes of the offending instruction. For
     *  DeadWrite this is the WRITER that is dead, not the overwriter. */
    size_t node = 0;
    /** Primary object the rule fired on. */
    uint16_t obj = kNoObject;
    /** Human-readable message, prefixed with the rule id. */
    std::string message;
};

/** Definedness of one object across its two storage locations. */
enum class Definedness : uint8_t
{
    Unwritten, ///< Neither location holds data.
    Partial,   ///< Exactly one location holds the current value.
    Full,      ///< Both locations hold the current value.
};

/** Abstract layout of one object, as the executor would commit it. */
enum class AbstractLayout : uint8_t
{
    Unknown,    ///< Nothing known (object never touched).
    Horizontal, ///< Host image only; vertical reads would be rejected.
    Vertical,   ///< Vertical image established by a full write.
};

/** Sentinel node index: "no instruction" (entry state). */
constexpr size_t kNoNode = static_cast<size_t>(-1);

/** Exit (or entry) abstract state of one object. */
struct AbstractObjectState
{
    Definedness def = Definedness::Unwritten;
    AbstractLayout layout = AbstractLayout::Unknown;
    /** Both images provably hold constVal everywhere. */
    bool isConst = false;
    uint64_t constVal = 0;
    /** Node that last wrote any location of the object. */
    size_t lastWriter = kNoNode;

    bool operator==(const AbstractObjectState &o) const = default;
};

/** State of ONE storage location, as a read observes it. */
enum class LocDefinedness : uint8_t
{
    Absent,  ///< Nothing ever wrote this location.
    Stale,   ///< The current value lives in the other location.
    Current, ///< This location holds the object's latest value.
};

/**
 * The abstract state one read observes, recorded per surviving node
 * for translation validation. Deliberately EXCLUDES lastWriter: a
 * pass may legitimately change which node produces a value (hoisting
 * removes a rewrite of identical data) without changing the value
 * semantics the read observes. The definedness fact is scoped to the
 * location the read touches, NOT the whole object, for the same
 * reason: dead-write elimination removing a dead write to the OTHER
 * location (e.g. a trsp_inv host copy nothing reads) changes the
 * object's overall definedness at this point without changing a bit
 * of what this read sees.
 */
struct ReadFact
{
    uint16_t obj = kNoObject;
    BbopLoc loc = BbopLoc::Vert;
    LocDefinedness def = LocDefinedness::Absent;
    AbstractLayout layout = AbstractLayout::Unknown;
    bool isConst = false;
    uint64_t constVal = 0;

    bool operator==(const ReadFact &o) const = default;
};

/** What the entry state assumes about objects the program reads. */
enum class EntryAssumption : uint8_t
{
    /**
     * Nothing is written before the program runs: the first touch of
     * every object must be a write (bbop_init, or an operation/shift
     * destination) or the analyzer reports ReadUnwritten. The right
     * mode for analyzing a program as a self-contained unit.
     */
    Unwritten,
    /**
     * Seed from a BbopObjectView the way the executor sees its table:
     * every object's host image exists (defineObject zero-fills it,
     * writeObject/ trsp_inv keep it live), and the vertical image is
     * current iff the view reports the object vertical. The right
     * mode at submit time, where prior streams and host writes have
     * already produced state.
     */
    FromView,
};

/** Tuning of one analyzeStream() run. */
struct AnalyzerOptions
{
    EntryAssumption entry = EntryAssumption::Unwritten;
};

/** Everything one analyzeStream() run produced. */
struct AnalysisResult
{
    /** All findings, in program order (DeadWrite is reported at the
     *  overwrite point but anchored to the dead writer's node). */
    std::vector<StreamDiagnostic> diagnostics;
    /**
     * Per node (indexed like StreamIR::nodes): the abstract state
     * each of its reads observed, in effectsOf() order. Dead nodes
     * get an empty vector — they were not analyzed.
     */
    std::vector<std::vector<ReadFact>> nodeReads;
    /** Per object id: abstract state after the whole program. */
    std::vector<AbstractObjectState> exitState;

    /** @return Number of Error-severity diagnostics. */
    size_t errorCount() const;

    /** @return Number of diagnostics of rule @p rule. */
    size_t count(LintRule rule) const;
};

/**
 * A trivial self-describing object table, for analyzing programs
 * standalone (tests, tooling) without an executor or dispatcher:
 *
 *   BbopObjectTable t;
 *   uint16_t a = t.define(64, 8);
 *   auto result = analyzeStream(ir, t);
 */
class BbopObjectTable : public BbopObjectView
{
  public:
    /** Registers an object and returns its id. */
    uint16_t define(size_t elements, size_t bits,
                    bool vertical = false)
    {
        shapes_.push_back({elements, bits, vertical});
        return static_cast<uint16_t>(shapes_.size() - 1);
    }

    size_t objectCount() const override { return shapes_.size(); }
    BbopObjectShape shape(uint16_t id) const override
    {
        return shapes_[id];
    }

  private:
    std::vector<BbopObjectShape> shapes_;
};

/**
 * Analyzes @p ir against @p view in submission order and returns the
 * diagnostics plus the dataflow facts translation validation needs.
 * Dead nodes are skipped (they will not execute). Never throws on a
 * malformed program — malformedness becomes Malformed diagnostics and
 * the analysis continues optimistically past the bad instruction.
 */
AnalysisResult analyzeStream(const StreamIR &ir,
                             const BbopObjectView &view,
                             const AnalyzerOptions &opts = {});

/** One translation-validation violation, attributed to its pass. */
struct PassValidationFailure
{
    /** Which pass broke the facts: "trsp-hoist", "dead-write-elim",
     *  or "fusion". */
    std::string pass;
    /** Node whose facts changed (kNoNode for exit-state mismatches). */
    size_t node = kNoNode;
    std::string message;
};

/** Outcome of a validated pass pipeline run. */
struct TranslationValidation
{
    /** Cumulative pass statistics (as runPasses would report). */
    PassStats stats;
    /** Empty iff every enabled pass preserved the analysis facts. */
    std::vector<PassValidationFailure> failures;

    bool ok() const { return failures.empty(); }
};

/**
 * Runs the enabled optimizer passes over @p ir one at a time (same
 * fixed order as runPasses: hoist, DWE, fusion), analyzing the IR
 * before and after each and checking that the pass preserved the
 * live-semantics facts:
 *
 *  - every node alive after the pass observes exactly the ReadFacts
 *    it observed before (same definedness / layout / const state on
 *    every read);
 *  - no node dead before the pass is alive after it;
 *  - the per-object exit state (definedness, layout, const-ness —
 *    not last-writer) is unchanged.
 *
 * The resulting @p ir is identical to what runPasses(ir, opts) would
 * have produced; violations are returned, not thrown, so a harness
 * can report every failure with the pass that caused it.
 */
TranslationValidation
runPassesValidated(StreamIR &ir, const PassOptions &opts,
                   const BbopObjectView &view,
                   const AnalyzerOptions &aopts = {});

} // namespace simdram

#endif // SIMDRAM_ANALYSIS_STREAM_ANALYZER_H
