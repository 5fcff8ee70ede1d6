//! Intra-procedural durability-ordering dataflow with a call-graph
//! summary layer.
//!
//! For each function body the pass tracks two effect sets as it walks
//! statements in evaluation order:
//! - **must** — effects guaranteed on *every* path reaching this point
//!   (branch alternatives intersect);
//! - **may** — effects possible on *some* path (branch alternatives
//!   union).
//!
//! A call contributes the effects of its own name (the annotation
//! table in [`crate::ordering`]) plus the summary of every same-named
//! function defined in the linted tree, computed to a fixed point so
//! helpers like `fence_extent` (which calls `quarantine_extent`)
//! transitively provide `Fence`. Loop bodies are treated optimistically
//! for *must* — a loop that fences each damaged extent counts as a
//! fence even though the loop could run zero times; this is a lint, a
//! heuristic dominance check, not a verifier.
//!
//! Trigger checks are direct-call-site-only; see `DESIGN.md` §16 for
//! the rule catalogue.

use crate::ordering::{
    self, ACK_TRIGGERS, CHECKPOINT, DURABLE, FENCE, POINTER_MARKER, POINTER_WRITE_TRIGGERS,
    RECYCLE_TRIGGERS, REPAIR_TRIGGERS,
};
use crate::parser::{Block, CallSite, FnDef, Stmt};
use crate::rules::Rule;
use std::collections::BTreeMap;

/// Per-function effect summary: what a call to it guarantees (`must`)
/// and what it might do (`may`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct FnSummary {
    /// Effects present on every path through the function.
    must: u8,
    /// Effects present on at least one path.
    may: u8,
}

/// Call-graph summaries keyed by bare function name. Same-named
/// functions merge conservatively: `must` intersects, `may` unions.
#[derive(Clone, Debug, Default)]
pub(crate) struct Summaries {
    map: BTreeMap<String, FnSummary>,
}

impl Summaries {
    /// The summary for a bare callee name, if any function by that
    /// name was seen.
    pub(crate) fn get(&self, name: &str) -> Option<FnSummary> {
        self.map.get(name).copied()
    }
}

/// Computes fixed-point effect summaries for every parsed function.
pub(crate) fn summarize(fns: &[FnDef]) -> Summaries {
    let mut sums = Summaries::default();
    // Monotone iteration from bottom (no effects); the effect lattice
    // is tiny so this converges in a handful of rounds.
    for _ in 0..16 {
        let mut next: BTreeMap<String, FnSummary> = BTreeMap::new();
        for f in fns {
            let (must, may) = eval_fn(f, &sums);
            next.entry(f.name.clone())
                .and_modify(|s| {
                    s.must &= must;
                    s.may |= may;
                })
                .or_insert(FnSummary { must, may });
        }
        if next == sums.map {
            break;
        }
        sums.map = next;
    }
    sums
}

/// Walks one function, returning its (must, may) effect sets.
fn eval_fn(f: &FnDef, sums: &Summaries) -> (u8, u8) {
    let mut must = 0u8;
    let mut may = 0u8;
    walk_effects(&f.body, &mut must, &mut may, sums);
    (must, may)
}

fn walk_effects(block: &Block, must: &mut u8, may: &mut u8, sums: &Summaries) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Call(c) => {
                // Checkpoint credit does not propagate *through*
                // summaries: only a function that directly calls the
                // commit carries it (one level deep). Otherwise
                // ubiquitous names like `put` transitively inherit
                // `Checkpoint` via `write` → `commit_aux_state` and
                // the pointer rule can never fire.
                let direct = ordering::provides(&c.name);
                let (sm, sy) = sums
                    .get(&c.name)
                    .map_or((0, 0), |s| (s.must & !CHECKPOINT, s.may & !CHECKPOINT));
                *must |= direct | sm;
                *may |= direct | sy;
            }
            Stmt::Branch(arms) => {
                if arms.is_empty() {
                    continue;
                }
                let mut inter = u8::MAX;
                for arm in arms {
                    let mut am = *must;
                    let mut ay = *may;
                    walk_effects(arm, &mut am, &mut ay, sums);
                    inter &= am;
                    *may |= ay;
                }
                *must = inter;
            }
            Stmt::Loop(body) => {
                // Loop-optimistic: body effects count as guaranteed.
                walk_effects(body, must, may, sums);
            }
        }
    }
}

/// Effects contributed by calling `name`: its own annotation plus the
/// summary of any same-named function in the linted tree.
fn call_effects(name: &str, sums: &Summaries) -> (u8, u8) {
    let direct = ordering::provides(name);
    match sums.get(name) {
        Some(s) => (direct | s.must, direct | s.may),
        None => (direct, direct),
    }
}

/// Checks one function against the active ordering rules, emitting a
/// finding per violated trigger.
pub(crate) fn check_fn(
    f: &FnDef,
    sums: &Summaries,
    rules: &[Rule],
    emit: &mut dyn FnMut(u32, Rule, String),
) {
    let mut st = FlowState {
        must: 0,
        may: 0,
        pointer_pending: false,
    };
    let in_drop = f.is_drop && rules.contains(&Rule::NoDurabilityInDrop);
    walk_check(&f.body, &mut st, f, sums, rules, in_drop, emit);
}

struct FlowState {
    must: u8,
    may: u8,
    /// A direct `encode_pointer` call happened on some path with no
    /// checkpoint commit since function entry.
    pointer_pending: bool,
}

#[allow(clippy::too_many_arguments)]
fn walk_check(
    block: &Block,
    st: &mut FlowState,
    f: &FnDef,
    sums: &Summaries,
    rules: &[Rule],
    in_drop: bool,
    emit: &mut dyn FnMut(u32, Rule, String),
) {
    for stmt in &block.stmts {
        match stmt {
            Stmt::Call(c) => check_call(c, st, f, sums, rules, in_drop, emit),
            Stmt::Branch(arms) => {
                if arms.is_empty() {
                    continue;
                }
                let mut inter_must = u8::MAX;
                let mut union_may = st.may;
                let mut union_pending = false;
                for arm in arms {
                    let mut sub = FlowState {
                        must: st.must,
                        may: st.may,
                        pointer_pending: st.pointer_pending,
                    };
                    walk_check(arm, &mut sub, f, sums, rules, in_drop, emit);
                    inter_must &= sub.must;
                    union_may |= sub.may;
                    union_pending |= sub.pointer_pending;
                }
                st.must = inter_must;
                st.may = union_may;
                st.pointer_pending = union_pending;
            }
            Stmt::Loop(body) => {
                walk_check(body, st, f, sums, rules, in_drop, emit);
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn check_call(
    c: &CallSite,
    st: &mut FlowState,
    f: &FnDef,
    sums: &Summaries,
    rules: &[Rule],
    in_drop: bool,
    emit: &mut dyn FnMut(u32, Rule, String),
) {
    let name = c.name.as_str();
    let (cm, cy) = call_effects(name, sums);

    // Trigger checks run against the state *before* this call's own
    // effects land.
    if rules.contains(&Rule::SyncBeforeAck)
        && ACK_TRIGGERS.contains(&name)
        && st.must & DURABLE == 0
    {
        emit(
            c.line,
            Rule::SyncBeforeAck,
            format!(
                "`{}` acknowledges a write without a dominating durability \
                 barrier (guaranteed effects here: {}); call `sync_wal`/\
                 `append_durable` on every path first",
                name,
                ordering::effect_names(st.must)
            ),
        );
    }
    if rules.contains(&Rule::CheckpointBeforePointer)
        && POINTER_WRITE_TRIGGERS.contains(&name)
        && st.pointer_pending
        && st.may & CHECKPOINT == 0
    {
        emit(
            c.line,
            Rule::CheckpointBeforePointer,
            format!(
                "`{}` hands value-log pointers (`encode_pointer` above) to the \
                 LSM with no manifest checkpoint before it; commit the segment \
                 directory (`commit_aux_state`) before pointers reach the WAL",
                name
            ),
        );
    }
    if rules.contains(&Rule::FenceBeforeRepair)
        && REPAIR_TRIGGERS.contains(&name)
        && st.must & FENCE == 0
    {
        emit(
            c.line,
            Rule::FenceBeforeRepair,
            format!(
                "`{}` repairs or salvages damaged storage without a dominating \
                 fence (guaranteed effects here: {}); quarantine the damaged \
                 region (`quarantine_extent`/`seal`) on every path first",
                name,
                ordering::effect_names(st.must)
            ),
        );
    }
    if rules.contains(&Rule::RecycleAfterFixupsDurable)
        && RECYCLE_TRIGGERS.contains(&name)
        && st.must & DURABLE == 0
    {
        emit(
            c.line,
            Rule::RecycleAfterFixupsDurable,
            format!(
                "`{}` recycles a segment without a dominating durability barrier \
                 (guaranteed effects here: {}); `sync_wal` the pointer fixups on \
                 every path before the victim's bytes are freed",
                name,
                ordering::effect_names(st.must)
            ),
        );
    }
    if in_drop && cy & (DURABLE | CHECKPOINT) != 0 {
        emit(
            c.line,
            Rule::NoDurabilityInDrop,
            format!(
                "`{}` reaches durability work ({}) inside `impl Drop for {}`, \
                 where ordering at crash is undefined; make durability explicit \
                 in a named method instead",
                name,
                ordering::effect_names(cy & (DURABLE | CHECKPOINT)),
                f.impl_ty.as_deref().unwrap_or("_")
            ),
        );
    }

    // Now land this call's effects.
    st.must |= cm;
    st.may |= cy;
    if name == POINTER_MARKER {
        st.pointer_pending = true;
    }
    if cy & CHECKPOINT != 0 {
        // A checkpoint commit (even a conditional one, via `may`)
        // satisfies pending pointers encoded so far.
        st.pointer_pending = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::{lex, TokenKind};
    use crate::parser::parse;

    /// The ordering-rule family routed through this pass.
    const ORDERING_RULES: [Rule; 5] = [
        Rule::SyncBeforeAck,
        Rule::CheckpointBeforePointer,
        Rule::FenceBeforeRepair,
        Rule::RecycleAfterFixupsDurable,
        Rule::NoDurabilityInDrop,
    ];

    fn analyze(src: &str, rules: &[Rule]) -> Vec<(u32, Rule)> {
        let tokens = lex(src);
        let code: Vec<usize> = (0..tokens.len())
            .filter(|&i| !matches!(tokens[i].kind, TokenKind::Comment | TokenKind::DocComment))
            .collect();
        let fns = parse(&tokens, &code);
        let sums = summarize(&fns);
        let mut out = Vec::new();
        for f in &fns {
            check_fn(f, &sums, rules, &mut |line, rule, _msg| {
                out.push((line, rule));
            });
        }
        out
    }

    #[test]
    fn ack_requires_dominating_sync() {
        let bad = analyze("fn f(db: &mut Db) { db.ack_write(1); }", &ORDERING_RULES);
        assert_eq!(bad, [(1, Rule::SyncBeforeAck)]);
        let good = analyze(
            "fn f(db: &mut Db) { db.sync_wal(); db.ack_write(1); }",
            &ORDERING_RULES,
        );
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn branch_sync_must_cover_every_path() {
        let bad = analyze(
            "fn f(db: &mut Db, fast: bool) { if !fast { db.sync_wal(); } db.ack_write(1); }",
            &ORDERING_RULES,
        );
        assert_eq!(bad, [(1, Rule::SyncBeforeAck)]);
        let good = analyze(
            "fn f(db: &mut Db, fast: bool) { if fast { db.sync_wal(); } else { db.sync_all(); } \
             db.ack_write(1); }",
            &ORDERING_RULES,
        );
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn pointer_write_needs_checkpoint_in_may() {
        let bad = analyze(
            "fn f(db: &mut Db, b: Batch, p: Ptr) { let e = encode_pointer(p); db.write(b); }",
            &ORDERING_RULES,
        );
        assert_eq!(bad, [(1, Rule::CheckpointBeforePointer)]);
        // The real store commits conditionally: `may` suffices.
        let good = analyze(
            "fn f(db: &mut Db, v: &mut V, b: Batch, p: Ptr) { let e = encode_pointer(p); \
             if v.take_dirty() { db.commit_aux_state(v.checkpoint()); } db.write(b); }",
            &ORDERING_RULES,
        );
        assert!(good.is_empty(), "{good:?}");
        // No pointers encoded: plain writes never trigger.
        let plain = analyze(
            "fn f(db: &mut Db, b: Batch) { db.write(b); }",
            &ORDERING_RULES,
        );
        assert!(plain.is_empty(), "{plain:?}");
    }

    #[test]
    fn repair_needs_fence_possibly_via_helper() {
        let bad = analyze(
            "fn f(db: &mut Db, id: u64) { db.rebuild_file(id); }",
            &ORDERING_RULES,
        );
        assert_eq!(bad, [(1, Rule::FenceBeforeRepair)]);
        // The fence arrives transitively through a local helper: the
        // call-graph summary layer must see through it.
        let good = analyze(
            "fn fence_all(db: &mut Db, id: u64) { db.quarantine_extent(id); }\n\
             fn f(db: &mut Db, id: u64) { fence_all(db, id); db.rebuild_file(id); }",
            &ORDERING_RULES,
        );
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn loop_body_fence_counts_as_dominating() {
        let good = analyze(
            "fn f(db: &mut Db, bad: &[u64]) { for e in bad.iter() { db.quarantine_extent(e); } \
             db.rebuild_file(0); }",
            &ORDERING_RULES,
        );
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn recycle_needs_durable_fixups() {
        let bad = analyze(
            "fn f(db: &mut Db, v: &mut V, s: u64) { db.write_unaccounted(b); v.retire_segment(s); \
             db.sync_wal(); }",
            &ORDERING_RULES,
        );
        assert_eq!(bad, [(1, Rule::RecycleAfterFixupsDurable)]);
        let good = analyze(
            "fn f(db: &mut Db, v: &mut V, s: u64) { db.write_unaccounted(b); db.sync_wal(); \
             v.retire_segment(s); }",
            &ORDERING_RULES,
        );
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn checkpoint_credit_is_one_call_deep() {
        // `commit_dir` commits directly: calling it satisfies the rule.
        let good = analyze(
            "fn commit_dir(db: &mut Db, v: &mut V) { db.commit_aux_state(v.checkpoint()); }\n\
             fn f(db: &mut Db, v: &mut V, p: Ptr, b: Batch) { let e = encode_pointer(p); \
             commit_dir(db, v); db.write(b); }",
            &ORDERING_RULES,
        );
        assert!(good.is_empty(), "{good:?}");
        // ...but a helper that merely *calls* `commit_dir` does not
        // carry the checkpoint credit onward: ubiquitous names must
        // not transitively satisfy the pointer rule.
        let bad = analyze(
            "fn commit_dir(db: &mut Db, v: &mut V) { db.commit_aux_state(v.checkpoint()); }\n\
             fn maybe(db: &mut Db, v: &mut V) { commit_dir(db, v); }\n\
             fn f(db: &mut Db, v: &mut V, p: Ptr, b: Batch) { let e = encode_pointer(p); \
             maybe(db, v); db.write(b); }",
            &ORDERING_RULES,
        );
        assert_eq!(bad, [(3, Rule::CheckpointBeforePointer)]);
    }

    #[test]
    fn drop_impls_reject_durability_transitively() {
        let bad = analyze(
            "fn hidden(db: &mut Db) { db.commit_aux_state(v); }\n\
             impl Drop for C { fn drop(&mut self) { hidden(&mut self.db); } }",
            &ORDERING_RULES,
        );
        assert_eq!(bad, [(2, Rule::NoDurabilityInDrop)]);
        let direct = analyze(
            "impl Drop for F { fn drop(&mut self) { self.db.sync_wal(); } }",
            &ORDERING_RULES,
        );
        assert_eq!(direct, [(1, Rule::NoDurabilityInDrop)]);
        let good = analyze(
            "impl Drop for F { fn drop(&mut self) { self.stats.clear(); } }",
            &ORDERING_RULES,
        );
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn summaries_reach_fixed_point_through_chains() {
        let fns = {
            let src = "fn a(db: &mut Db) { db.sync_wal(); }\n\
                       fn b(db: &mut Db) { a(db); }\n\
                       fn c(db: &mut Db) { b(db); }";
            let tokens = lex(src);
            let code: Vec<usize> = (0..tokens.len()).collect();
            parse(&tokens, &code)
        };
        let sums = summarize(&fns);
        assert_eq!(sums.get("c").unwrap().must & DURABLE, DURABLE);
    }

    #[test]
    fn same_named_fns_merge_conservatively() {
        let src = "fn h(db: &mut Db) { db.sync_wal(); }\n\
                   mod other { fn h(db: &mut Db) { db.noop(); } }\n\
                   fn f(db: &mut Db) { h(db); db.ack_write(1); }";
        // One `h` syncs, the other does not: must-intersection means the
        // call to `h` cannot be trusted to sync, so the ack is flagged.
        let out = analyze(src, &ORDERING_RULES);
        assert_eq!(out, [(3, Rule::SyncBeforeAck)]);
    }
}
