#include "analysis/stream_analyzer.h"

#include <utility>

#include "ops/op_kind.h"

namespace simdram
{

namespace
{

/**
 * Concrete state of one storage location. "Current" means the
 * location holds the object's latest value; "Stale" that a newer
 * value lives in the OTHER location (so a read here observes outdated
 * data); "Unwritten" that nothing ever produced data here. The
 * invariant a full-write ISA gives us: a location only ever goes
 * Stale because the other one went Current.
 */
enum class LocState : uint8_t
{
    Unwritten,
    Stale,
    Current,
};

/** Per-object dataflow state the forward walk evolves. */
struct ObjState
{
    LocState vert = LocState::Unwritten;
    LocState host = LocState::Unwritten;
    /** The validator's layout flag: a full vertical write happened
     *  (or the entry view reported the object vertical). */
    bool vflag = false;
    /**
     * The redundancy fact, evolved by the shared applyFact() so the
     * Redundant* rules are isRedundant() itself (src/stream/passes.h).
     * Entry is all-unknown even in FromView mode — cross-submission
     * redundancy is the executor's stream cache, not the lint's.
     */
    RedundancyFact fact;
    /** Last writer node per location, for DeadWrite attribution. */
    size_t lastWriterVert = kNoNode;
    size_t lastWriterHost = kNoNode;
    /** Whether each location was read since its last write. */
    bool vertRead = false;
    bool hostRead = false;
    /** Last node that wrote ANY location (the exported fact). */
    size_t lastWriter = kNoNode;
};

Definedness
definednessOf(const ObjState &s)
{
    if (s.vert == LocState::Current && s.host == LocState::Current)
        return Definedness::Full;
    if (s.vert == LocState::Unwritten &&
        s.host == LocState::Unwritten)
        return Definedness::Unwritten;
    return Definedness::Partial;
}

AbstractLayout
layoutOf(const ObjState &s)
{
    if (s.vflag)
        return AbstractLayout::Vertical;
    if (s.host != LocState::Unwritten)
        return AbstractLayout::Horizontal;
    return AbstractLayout::Unknown;
}

const char *
locName(BbopLoc loc)
{
    return loc == BbopLoc::Vert ? "vertical" : "host";
}

/**
 * @return True iff @p in is shaped well enough for effectsOf() and
 *         the dataflow rules: known opcode and operation, width in
 *         range, and every operand id inside the object table.
 *         Instructions failing this are left to the validator, which
 *         rejects them with the precise typed message (wrapped as a
 *         Malformed diagnostic).
 */
bool
analyzable(const BbopInstr &in, size_t object_count)
{
    switch (in.opcode) {
      case BbopOpcode::Trsp:
      case BbopOpcode::TrspInv:
      case BbopOpcode::Op:
      case BbopOpcode::Init:
      case BbopOpcode::ShiftL:
      case BbopOpcode::ShiftR:
        break;
      default:
        return false;
    }
    if (in.width == 0 || in.width > 64)
        return false;
    if (in.opcode == BbopOpcode::Op &&
        static_cast<size_t>(in.op) >= kOpKindCount)
        return false;
    const BbopEffects e = effectsOf(in);
    for (size_t i = 0; i < e.numReads; ++i)
        if (e.reads[i].obj >= object_count)
            return false;
    for (size_t i = 0; i < e.numWrites; ++i)
        if (e.writes[i].obj >= object_count)
            return false;
    return true;
}

} // namespace

const char *
lintRuleId(LintRule rule)
{
    switch (rule) {
      case LintRule::Malformed:      return "malformed";
      case LintRule::ReadUnwritten:  return "read-unwritten";
      case LintRule::LayoutMismatch: return "layout-mismatch";
      case LintRule::DeadWrite:      return "dead-write";
      case LintRule::RedundantTrsp:  return "redundant-trsp";
      case LintRule::RedundantInit:  return "redundant-init";
      case LintRule::SelfAlias:      return "self-alias";
      case LintRule::ShiftOverflow:  return "shift-overflow";
    }
    return "unknown";
}

size_t
AnalysisResult::errorCount() const
{
    size_t n = 0;
    for (const auto &d : diagnostics)
        if (d.severity == LintSeverity::Error)
            ++n;
    return n;
}

size_t
AnalysisResult::count(LintRule rule) const
{
    size_t n = 0;
    for (const auto &d : diagnostics)
        if (d.rule == rule)
            ++n;
    return n;
}

AnalysisResult
analyzeStream(const StreamIR &ir, const BbopObjectView &view,
              const AnalyzerOptions &opts)
{
    const size_t n_obj = view.objectCount();
    std::vector<ObjState> st(n_obj);
    for (size_t i = 0; i < n_obj; ++i) {
        const BbopObjectShape sh =
            view.shape(static_cast<uint16_t>(i));
        st[i].vflag = sh.vertical;
        if (opts.entry == EntryAssumption::FromView) {
            // The executor zero-fills every host image at
            // defineObject() and keeps it live across submissions, so
            // the host location always holds data; the vertical image
            // is current iff the table says the object is vertical.
            st[i].host = LocState::Current;
            st[i].vert = sh.vertical ? LocState::Current
                                     : LocState::Unwritten;
        }
    }

    AnalysisResult res;
    res.nodeReads.resize(ir.nodes.size());
    // Writes of each node not yet proven overwritten-before-read;
    // when a node's count hits zero it is a dead write.
    std::vector<size_t> pending(ir.nodes.size(), 0);

    BbopValidator validator(view);

    for (size_t n = 0; n < ir.nodes.size(); ++n) {
        if (ir.nodes[n].dead)
            continue; // will not execute; transparent to the facts
        const BbopInstr &in = ir.nodes[n].instr;

        bool node_error = false;
        auto emit = [&](LintRule rule, LintSeverity sev, size_t node,
                        uint16_t obj, const std::string &msg) {
            res.diagnostics.push_back(StreamDiagnostic{
                rule, sev, node, obj,
                std::string(lintRuleId(rule)) + ": " + msg});
            if (sev == LintSeverity::Error && node == n)
                node_error = true;
        };

        const bool ok = analyzable(in, n_obj);
        BbopEffects eff{};
        if (ok) {
            eff = effectsOf(in);

            // Self-aliasing src/dst hazard: in-place bbop execution
            // does not exist, so an operand that is also the
            // destination reads data the instruction is concurrently
            // overwriting.
            if (in.opcode == BbopOpcode::Op ||
                in.opcode == BbopOpcode::ShiftL ||
                in.opcode == BbopOpcode::ShiftR) {
                for (size_t i = 0; i < eff.numReads; ++i) {
                    if (eff.reads[i].obj != in.dst)
                        continue;
                    emit(LintRule::SelfAlias, LintSeverity::Error, n,
                         in.dst,
                         toAsm(in) + " destination d" +
                             std::to_string(in.dst) +
                             " aliases a source operand (node " +
                             std::to_string(n) + ")");
                    break;
                }
            }

            // Shift amount >= element width always produces zero —
            // legal to the validator, almost certainly a bug. This is
            // the one rule that is strictly NEW over the ISA checks.
            if ((in.opcode == BbopOpcode::ShiftL ||
                 in.opcode == BbopOpcode::ShiftR) &&
                in.sel >= in.width) {
                emit(LintRule::ShiftOverflow, LintSeverity::Error, n,
                     in.dst,
                     toAsm(in) + " shift amount " +
                         std::to_string(in.sel) +
                         " >= element width " +
                         std::to_string(in.width) +
                         " zeroes the destination (node " +
                         std::to_string(n) + ")");
            }

            // Redundant trsp/trsp_inv/init: the hoisting pass's rule.
            if (isRedundant(st[in.dst].fact, in)) {
                if (in.opcode == BbopOpcode::Init)
                    emit(LintRule::RedundantInit,
                         LintSeverity::Warning, n, in.dst,
                         toAsm(in) + " rebroadcasts constant " +
                             std::to_string(in.initImmediate()) +
                             " already in place (node " +
                             std::to_string(n) + ")");
                else
                    emit(LintRule::RedundantTrsp,
                         LintSeverity::Warning, n, in.dst,
                         toAsm(in) +
                             " images already coincide; the hoisting "
                             "pass should have elided this (node " +
                             std::to_string(n) + ")");
            }

            // Read rules + the per-read facts translation validation
            // compares across passes.
            for (size_t i = 0; i < eff.numReads; ++i) {
                const BbopAccess &r = eff.reads[i];
                const ObjState &s = st[r.obj];
                const LocState ls =
                    r.loc == BbopLoc::Vert ? s.vert : s.host;
                if (ls != LocState::Current) {
                    if (s.vert == LocState::Unwritten &&
                        s.host == LocState::Unwritten) {
                        emit(LintRule::ReadUnwritten,
                             LintSeverity::Error, n, r.obj,
                             toAsm(in) + " reads d" +
                                 std::to_string(r.obj) +
                                 ", which nothing ever wrote "
                                 "(node " +
                                 std::to_string(n) + ")");
                    } else {
                        emit(LintRule::LayoutMismatch,
                             LintSeverity::Error, n, r.obj,
                             toAsm(in) + " reads the " +
                                 locName(r.loc) + " image of d" +
                                 std::to_string(r.obj) +
                                 ", which is " +
                                 (ls == LocState::Unwritten
                                      ? "absent"
                                      : "stale") +
                                 " — the current value lives in "
                                 "the other layout (node " +
                                 std::to_string(n) + ")");
                    }
                }
                res.nodeReads[n].push_back(
                    ReadFact{r.obj, r.loc,
                             ls == LocState::Unwritten
                                 ? LocDefinedness::Absent
                                 : (ls == LocState::Stale
                                        ? LocDefinedness::Stale
                                        : LocDefinedness::Current),
                             layoutOf(s), s.fact.hasConst,
                             s.fact.hasConst ? s.fact.constVal : 0});
            }
        }

        // The shared validator is the single source of truth for ISA
        // malformedness: run it alongside (its layout scratch evolves
        // with the program) and wrap rejections. A node a specific
        // rule already flagged as an Error keeps that attribution.
        bool accepted = true;
        try {
            validator.check(in);
        } catch (const BbopError &e) {
            accepted = false;
            if (!node_error)
                emit(LintRule::Malformed, LintSeverity::Error, n,
                     in.dst, std::string(e.what()) + " (node " +
                                 std::to_string(n) + ")");
        }
        if (!ok || !accepted)
            continue; // optimistic: skip the transfer, keep walking

        // ---- Transfer function ----

        for (size_t i = 0; i < eff.numReads; ++i) {
            ObjState &s = st[eff.reads[i].obj];
            (eff.reads[i].loc == BbopLoc::Vert ? s.vertRead
                                               : s.hostRead) = true;
        }

        // Dead-write detection, with the DWE pass's exact liveness
        // rule: a node is dead once EVERY location it wrote is
        // overwritten before any read (end-of-program keeps both
        // locations live-out, so un-overwritten writes never die).
        for (size_t i = 0; i < eff.numWrites; ++i) {
            const BbopAccess &w = eff.writes[i];
            ObjState &s = st[w.obj];
            size_t &last = w.loc == BbopLoc::Vert ? s.lastWriterVert
                                                  : s.lastWriterHost;
            bool &read = w.loc == BbopLoc::Vert ? s.vertRead
                                                : s.hostRead;
            if (last != kNoNode && !read && pending[last] > 0 &&
                --pending[last] == 0) {
                emit(LintRule::DeadWrite, LintSeverity::Warning,
                     last, w.obj,
                     toAsm(ir.nodes[last].instr) +
                         " is overwritten before any read (by "
                         "node " +
                         std::to_string(n) + ") (node " +
                         std::to_string(last) + ")");
            }
            last = n;
            read = false;
            s.lastWriter = n;
        }
        pending[n] = eff.numWrites;

        // Per-opcode abstract state. Every bbop write covers the full
        // location, and the transposition opcodes SYNC the two
        // images, so after them both locations hold the (new) current
        // value — even when the source image was stale: the copy
        // makes that stale data the object's value. A redundant
        // instruction leaves the redundancy fact alone, so removing
        // it passes translation validation.
        ObjState &s = st[in.dst];
        applyFact(s.fact, in);
        s.vert = LocState::Current;
        switch (in.opcode) {
          case BbopOpcode::Trsp:
          case BbopOpcode::Init:
            s.host = LocState::Current;
            s.vflag = true;
            break;
          case BbopOpcode::TrspInv:
            s.host = LocState::Current;
            break;
          case BbopOpcode::Op:
          case BbopOpcode::ShiftL:
          case BbopOpcode::ShiftR:
            if (s.host == LocState::Current)
                s.host = LocState::Stale;
            s.vflag = true;
            break;
        }
    }

    res.exitState.resize(n_obj);
    for (size_t i = 0; i < n_obj; ++i) {
        const ObjState &s = st[i];
        res.exitState[i] = AbstractObjectState{
            definednessOf(s), layoutOf(s), s.fact.hasConst,
            s.fact.hasConst ? s.fact.constVal : 0, s.lastWriter};
    }
    return res;
}

namespace
{

/** Compares pre/post analyses of one pass; appends any violations. */
void
comparePass(const char *pass, const StreamIR &ir,
            const std::vector<bool> &pre_dead,
            const AnalysisResult &pre, const AnalysisResult &post,
            std::vector<PassValidationFailure> &failures)
{
    for (size_t n = 0; n < ir.nodes.size(); ++n) {
        if (ir.nodes[n].dead)
            continue;
        if (pre_dead[n]) {
            failures.push_back(PassValidationFailure{
                pass, n,
                std::string(pass) + " resurrected dead node " +
                    std::to_string(n)});
            continue;
        }
        if (pre.nodeReads[n] != post.nodeReads[n])
            failures.push_back(PassValidationFailure{
                pass, n,
                std::string(pass) +
                    " changed the state observed by node " +
                    std::to_string(n) + " (" +
                    toAsm(ir.nodes[n].instr) + ")"});
    }
    for (size_t i = 0; i < pre.exitState.size(); ++i) {
        if (!(pre.exitState[i].def == post.exitState[i].def &&
              pre.exitState[i].layout == post.exitState[i].layout &&
              pre.exitState[i].isConst ==
                  post.exitState[i].isConst &&
              pre.exitState[i].constVal ==
                  post.exitState[i].constVal)) {
            failures.push_back(PassValidationFailure{
                pass, kNoNode,
                std::string(pass) +
                    " changed the exit state of object d" +
                    std::to_string(i)});
        }
    }
}

std::vector<bool>
deadBits(const StreamIR &ir)
{
    std::vector<bool> dead(ir.nodes.size());
    for (size_t n = 0; n < ir.nodes.size(); ++n)
        dead[n] = ir.nodes[n].dead;
    return dead;
}

} // namespace

TranslationValidation
runPassesValidated(StreamIR &ir, const PassOptions &opts,
                   const BbopObjectView &view,
                   const AnalyzerOptions &aopts)
{
    TranslationValidation tv;

    // Single-pass configurations, in runPasses's fixed order. Running
    // them one runPasses() call each is equivalent to one combined
    // call: the passes communicate only through the dead bits and
    // segment ids of the shared IR.
    struct Stage
    {
        const char *name;
        bool enabled;
        PassOptions only;
    };
    const Stage stages[] = {
        {"trsp-hoist", opts.trspHoist, {true, false, false}},
        {"dead-write-elim", opts.deadWriteElim,
         {false, true, false}},
        {"fusion", opts.fusion, {false, false, true}},
    };

    AnalysisResult pre = analyzeStream(ir, view, aopts);
    for (const Stage &stage : stages) {
        if (!stage.enabled)
            continue;
        const std::vector<bool> pre_dead = deadBits(ir);
        const PassStats s = runPasses(ir, stage.only);
        tv.stats.hoisted += s.hoisted;
        tv.stats.deadEliminated += s.deadEliminated;
        tv.stats.fusedSegments += s.fusedSegments;

        AnalysisResult post = analyzeStream(ir, view, aopts);
        // Fact preservation is only claimed for programs that are
        // themselves coherent: with Error-level findings (reads of
        // stale or unwritten data), the abstract facts describe the
        // BUG, and removing a dead write can legitimately change
        // them without changing a single byte of memory. Such
        // programs are the lint rules' job, not the passes'.
        if (pre.errorCount() == 0)
            comparePass(stage.name, ir, pre_dead, pre, post,
                        tv.failures);
        pre = std::move(post);
    }
    return tv;
}

} // namespace simdram
