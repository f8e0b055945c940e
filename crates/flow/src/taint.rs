//! Pass F1: certification-before-use taint analysis.
//!
//! Sources are message-ingress parameters (the envelope argument of
//! `on_message`) and `make_checkpoint` results — data whose content an
//! arbitrary-faulty process controls. Sinks are writes into replicated
//! state (certificate stores, estimate vectors, the decision evidence).
//! Sanitizers are the certification APIs (`admit`, `check_envelope`, the
//! per-kind `check_*` family): a call to one *clears* the taint of its
//! arguments, modeling the paper's obligation that every message crosses
//! the certification stack before it may influence replicated state.
//!
//! The analysis is a forward may-taint dataflow over the per-function
//! CFG (so a sanitizer on only one of two routes does not launder the
//! other), composed interprocedurally by a fixpoint over per-function
//! summaries: which parameters reach sinks inside the callee, and which
//! parameters flow into its return value.

use crate::ast::{Block, Expr, ExprKind, FnDef};
use crate::cfg::{Cfg, Step};
use std::collections::{BTreeMap, BTreeSet};

/// Certification APIs whose call clears taint from their arguments.
pub const SANITIZERS: [&str; 15] = [
    "admit",
    "check_envelope",
    "check_syntax",
    "check_cert_signatures",
    "check_init",
    "check_current",
    "check_next",
    "check_estimate",
    "check_propose",
    "check_ack",
    "check_nack",
    "check_decide",
    "check_checkpoint",
    "verify_envelopes_batched",
    "verify_digest",
];

/// `self` fields that constitute replicated state (taint sinks).
pub const SINK_FIELDS: [&str; 16] = [
    "est_vect",
    "est_cert",
    "current_cert",
    "next_cert",
    "entry_cert",
    "vote_cert",
    "decide_evidence",
    "ts",
    "ts_backing",
    "proposed",
    "coord_core",
    "estimates",
    "builder",
    "log",
    "evidence",
    "checkpoint",
];

/// Where a taint originated.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Origin {
    /// Adversary-controlled ingress (parameter name or API description).
    Ingress(String),
    /// The function's i-th non-`self` parameter (for summaries).
    Param(usize),
}

/// A set of origins, each carrying the path of steps taken so far.
pub type TaintSet = BTreeMap<Origin, Vec<String>>;

/// Abstract state: taints of locals and `self.<field>` pseudo-places.
pub type State = BTreeMap<String, TaintSet>;

/// A taint finding: adversary-controlled data reached replicated state
/// without passing a certification API on some path.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct TaintHit {
    /// Repo-relative path of the file containing the sink.
    pub file: String,
    /// Line of the sink.
    pub line: u32,
    /// Description of the sink (field or call).
    pub sink: String,
    /// The origin description.
    pub origin: String,
    /// The propagation path, source to sink.
    pub path: Vec<String>,
}

/// Per-function interprocedural summary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Summary {
    /// Parameters that reach sinks inside the callee, with the sink names
    /// (every one: same-named methods of different round modules join
    /// here, and each of their sinks must stay visible).
    pub param_sinks: BTreeMap<usize, BTreeSet<String>>,
    /// Parameters that flow into the return value.
    pub ret_params: BTreeSet<usize>,
}

const MAX_PATH: usize = 8;
const MAX_CFG_PASSES: usize = 20;
const MAX_GLOBAL_ROUNDS: usize = 10;

/// Extends every path in a set with one step (idempotent, capped).
fn extend(set: &TaintSet, note: &str) -> TaintSet {
    set.iter()
        .map(|(o, p)| {
            let mut p = p.clone();
            if p.last().map(String::as_str) != Some(note) && p.len() < MAX_PATH {
                p.push(note.to_string());
            }
            (o.clone(), p)
        })
        .collect()
}

fn union(a: &TaintSet, b: &TaintSet) -> TaintSet {
    let mut out = a.clone();
    for (o, p) in b {
        out.entry(o.clone()).or_insert_with(|| p.clone());
    }
    out
}

fn join_states(into: &mut State, from: &State) -> bool {
    let mut changed = false;
    for (k, set) in from {
        let entry = into.entry(k.clone()).or_default();
        for (o, p) in set {
            if !entry.contains_key(o) {
                entry.insert(o.clone(), p.clone());
                changed = true;
            }
        }
    }
    changed
}

/// The root place of an expression's text: `self . field` for field
/// accesses on `self`, the local name for plain locals.
fn root_place(e: &Expr) -> Option<String> {
    match &e.kind {
        ExprKind::Path(segs) if segs.len() == 1 => Some(segs[0].clone()),
        ExprKind::Field { base, name } => {
            if base.text == "self" {
                Some(format!("self.{name}"))
            } else {
                root_place(base)
            }
        }
        ExprKind::Method { recv, .. } | ExprKind::Index { base: recv, .. } => root_place(recv),
        _ => None,
    }
}

/// The sink a place text names, if any: the field chain up to the first
/// sink field, rooted at `self` or at a handle parameter in `handles`
/// (`self . est_vect` → `self.est_vect`, `self . round . est_vect` →
/// `self.round.est_vect`, `sh . est_vect` → `sh.est_vect`).
fn sink_field(place: &str, handles: &BTreeSet<String>) -> Option<String> {
    let mut it = place.split_whitespace();
    let mut chain = it.next()?.to_string();
    if chain != "self" && !handles.contains(&chain) {
        return None;
    }
    while it.next() == Some(".") {
        let field = it.next()?;
        chain = format!("{chain}.{field}");
        if SINK_FIELDS.contains(&field) {
            return Some(chain);
        }
    }
    None
}

struct Analyzer<'a> {
    summaries: &'a BTreeMap<String, Summary>,
    /// The current function's parameter names (handles whose fields are
    /// as much replicated state as `self`'s).
    handles: BTreeSet<String>,
    /// Summary being computed for the current function.
    out_summary: Summary,
    hits: BTreeSet<TaintHit>,
}

impl<'a> Analyzer<'a> {
    fn record_sink(&mut self, set: &TaintSet, sink: &str, line: u32) {
        for (origin, path) in set {
            match origin {
                Origin::Ingress(desc) => {
                    let mut path = path.clone();
                    path.push(format!("write into `{sink}` (line {line})"));
                    self.hits.insert(TaintHit {
                        file: String::new(), // attributed by run_fn
                        line,
                        sink: sink.to_string(),
                        origin: desc.clone(),
                        path,
                    });
                }
                Origin::Param(i) => {
                    self.out_summary
                        .param_sinks
                        .entry(*i)
                        .or_default()
                        .insert(sink.to_string());
                }
            }
        }
    }

    /// Evaluates an expression, returning its taint and mutating the
    /// state for sanitizer/propagation effects.
    #[allow(clippy::too_many_lines)]
    fn eval(&mut self, e: &Expr, state: &mut State) -> TaintSet {
        match &e.kind {
            ExprKind::Path(segs) => {
                if segs.len() == 1 {
                    state.get(&segs[0]).cloned().unwrap_or_default()
                } else {
                    TaintSet::new()
                }
            }
            ExprKind::Lit | ExprKind::Opaque => TaintSet::new(),
            ExprKind::Field { base, name } => {
                if base.text == "self" {
                    state
                        .get(&format!("self.{name}"))
                        .cloned()
                        .unwrap_or_default()
                } else {
                    self.eval(base, state)
                }
            }
            ExprKind::Method { recv, name, args } => {
                self.eval_call(Some(recv), name, args, e.line, state)
            }
            ExprKind::Call { callee, args } => {
                let name = match &callee.kind {
                    ExprKind::Path(segs) => segs.last().cloned().unwrap_or_default(),
                    _ => String::new(),
                };
                self.eval_call(None, &name, args, e.line, state)
            }
            ExprKind::Struct { fields, .. } => {
                let mut out = TaintSet::new();
                for (_, v) in fields {
                    out = union(&out, &self.eval(v, state));
                }
                extend(&out, &short(&e.text, e.line))
            }
            ExprKind::Macro { args, .. } | ExprKind::Tuple(args) => {
                let mut out = TaintSet::new();
                for a in args {
                    out = union(&out, &self.eval(a, state));
                }
                out
            }
            ExprKind::Closure { params, body } => {
                // Evaluate the body at the definition site with the
                // closure's own params shadowed clean; captured locals
                // keep their taint, so `|inner, ictx| inner.on_message(..)`
                // still routes argument taint through known callees.
                let mut inner = state.clone();
                for p in params {
                    inner.insert(p.clone(), TaintSet::new());
                }
                self.eval(body, &mut inner);
                TaintSet::new()
            }
            ExprKind::IfExpr {
                cond,
                binds,
                then_b,
                else_b,
            } => {
                let cond_taint = self.eval(cond, state);
                let mut then_state = state.clone();
                for b in binds {
                    then_state.insert(
                        b.clone(),
                        extend(&cond_taint, &format!("bound by `if let` (line {})", e.line)),
                    );
                }
                let t = self.eval_block_inline(then_b, &mut then_state);
                let mut else_state = state.clone();
                let f = match else_b {
                    Some(eb) => self.eval_block_inline(eb, &mut else_state),
                    None => TaintSet::new(),
                };
                join_states(state, &then_state);
                join_states(state, &else_state);
                union(&t, &f)
            }
            ExprKind::MatchExpr { scrutinee, arms } => {
                let scrut_taint = self.eval(scrutinee, state);
                let mut out = TaintSet::new();
                let base = state.clone();
                for arm in arms {
                    let mut arm_state = base.clone();
                    for b in &arm.binds {
                        arm_state.insert(
                            b.clone(),
                            extend(
                                &scrut_taint,
                                &format!("bound by match on `{}`", short_text(&scrutinee.text)),
                            ),
                        );
                    }
                    if let Some(g) = &arm.guard {
                        self.eval(g, &mut arm_state);
                    }
                    out = union(&out, &self.eval_block_inline(&arm.body, &mut arm_state));
                    join_states(state, &arm_state);
                }
                out
            }
            ExprKind::BlockExpr(b) => self.eval_block_inline(b, state),
            ExprKind::Index { base, index } => {
                let i = self.eval(index, state);
                union(&self.eval(base, state), &i)
            }
            ExprKind::Bin(parts) => {
                let mut out = TaintSet::new();
                for p in parts {
                    out = union(&out, &self.eval(p, state));
                }
                out
            }
        }
    }

    /// Shared call semantics for methods and free calls.
    fn eval_call(
        &mut self,
        recv: Option<&Expr>,
        name: &str,
        args: &[Expr],
        line: u32,
        state: &mut State,
    ) -> TaintSet {
        // Sanitizer: certification clears its arguments' roots.
        if SANITIZERS.contains(&name) {
            for a in args {
                if let Some(root) = root_place(a) {
                    state.remove(&root);
                }
            }
            if let Some(r) = recv {
                self.eval(r, state);
            }
            return TaintSet::new();
        }
        // `make_checkpoint` results are adversary-influencable ingress:
        // a faulty process feeds them back as CHK messages.
        if name == "make_checkpoint" {
            for a in args {
                self.eval(a, state);
            }
            return TaintSet::from([(
                Origin::Ingress("make_checkpoint result".to_string()),
                vec![format!("produced by `make_checkpoint` (line {line})")],
            )]);
        }
        let mut arg_taints: Vec<TaintSet> = Vec::with_capacity(args.len());
        for a in args {
            arg_taints.push(self.eval(a, state));
        }
        // Method on a replicated-state field: tainted arguments sink.
        if let Some(r) = recv {
            if let Some(sink) = sink_field(&flat_recv(r), &self.handles) {
                for t in &arg_taints {
                    self.record_sink(t, &format!("{sink}.{name}(…)"), line);
                }
            }
        }
        // `decide` finalizes the replicated decision value.
        if name == "decide" {
            for t in &arg_taints {
                self.record_sink(t, "decide(…)", line);
            }
        }
        // Known callee: apply its summary (union over same-named fns).
        if let Some(sum) = self.summaries.get(name) {
            let mut ret = TaintSet::new();
            for (i, t) in arg_taints.iter().enumerate() {
                for sink in sum.param_sinks.get(&i).into_iter().flatten() {
                    self.record_sink(
                        &extend(t, &format!("passed to `{name}` (line {line})")),
                        sink,
                        line,
                    );
                }
                if sum.ret_params.contains(&i) {
                    ret = union(
                        &ret,
                        &extend(t, &format!("returned from `{name}` (line {line})")),
                    );
                }
            }
            if let Some(r) = recv {
                self.eval(r, state);
            }
            return ret;
        }
        // Unknown call: taint unions through, and the receiver root is
        // weakly updated (models `cert.insert(env)`, `v.push(x)`).
        let mut out = TaintSet::new();
        for t in &arg_taints {
            out = union(&out, t);
        }
        if let Some(r) = recv {
            let recv_taint = self.eval(r, state);
            if !out.is_empty() {
                if let Some(root) = root_place(r) {
                    let noted = extend(&out, &format!("stored via `.{name}` (line {line})"));
                    let entry = state.entry(root).or_default();
                    let merged = union(entry, &noted);
                    *entry = merged;
                }
            }
            out = union(&out, &recv_taint);
        }
        out
    }

    /// Evaluates a nested block in expression position by running the
    /// worklist over its own CFG with the caller's state as entry; the
    /// block's value taint is the tail expression's taint at exit.
    fn eval_block_inline(&mut self, b: &Block, state: &mut State) -> TaintSet {
        let cfg = Cfg::build(b);
        let exit_state = self.run_cfg(&cfg, state.clone());
        let mut ret = TaintSet::new();
        if let Some(tail) = &b.tail {
            let mut s = exit_state.clone();
            ret = self.eval(tail.as_ref(), &mut s);
        }
        *state = exit_state;
        ret
    }

    /// Runs the worklist over a CFG from an entry state; returns the
    /// exit-block in-state.
    fn run_cfg(&mut self, cfg: &Cfg<'_>, entry_state: State) -> State {
        let n = cfg.blocks.len();
        let mut in_states: Vec<Option<State>> = vec![None; n];
        in_states[cfg.entry] = Some(entry_state);
        for _ in 0..MAX_CFG_PASSES {
            let mut changed = false;
            for bi in 0..n {
                let Some(mut state) = in_states[bi].clone() else {
                    continue;
                };
                for step in &cfg.blocks[bi].steps {
                    self.step(step, &mut state);
                }
                for &succ in &cfg.blocks[bi].succs {
                    match &mut in_states[succ] {
                        Some(existing) => {
                            if join_states(existing, &state) {
                                changed = true;
                            }
                        }
                        slot @ None => {
                            *slot = Some(state.clone());
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        in_states[cfg.exit].take().unwrap_or_default()
    }

    fn step(&mut self, step: &Step<'_>, state: &mut State) {
        match step {
            Step::Eval(e) => {
                self.eval(e, state);
            }
            Step::Bind { binds, from, line } => {
                let taint = match from {
                    Some(e) => self.eval(e, state),
                    None => TaintSet::new(),
                };
                for b in *binds {
                    if taint.is_empty() {
                        state.insert(b.clone(), TaintSet::new());
                    } else {
                        state.insert(
                            b.clone(),
                            extend(&taint, &format!("bound to `{b}` (line {line})")),
                        );
                    }
                }
            }
            Step::Assign {
                place,
                value,
                compound,
                line,
            } => {
                let taint = self.eval(value, state);
                if let Some(sink) = sink_field(place, &self.handles) {
                    self.record_sink(&taint, &sink, *line);
                }
                let words = place.split_whitespace().take(3).collect::<Vec<_>>();
                let key = if words.first() == Some(&"self") && words.get(1) == Some(&".") {
                    words.concat() // "self.field"
                } else {
                    words.first().map(ToString::to_string).unwrap_or_default()
                };
                if !key.is_empty() {
                    if *compound {
                        let entry = state.entry(key).or_default();
                        let merged = union(entry, &taint);
                        *entry = merged;
                    } else {
                        state.insert(key, taint);
                    }
                }
            }
            Step::Ret(value) => {
                if let Some(e) = value {
                    let taint = self.eval(e, state);
                    for origin in taint.keys() {
                        if let Origin::Param(i) = origin {
                            self.out_summary.ret_params.insert(*i);
                        }
                    }
                }
            }
        }
    }
}

fn short_text(t: &str) -> String {
    if t.len() > 40 {
        let cut = (1..=40).rev().find(|&i| t.is_char_boundary(i)).unwrap_or(0);
        format!("{}…", &t[..cut])
    } else {
        t.to_string()
    }
}

fn short(t: &str, line: u32) -> String {
    format!("carried in `{}` (line {line})", short_text(t))
}

fn flat_recv(r: &Expr) -> String {
    r.text.clone()
}

/// Whether a stripped parameter type marks message ingress.
fn is_ingress_type(ty: &str, deep: bool) -> bool {
    let stripped = ty
        .trim_start_matches('&')
        .trim_start_matches(' ')
        .trim_start_matches("mut ")
        .trim_start();
    let head = stripped.split([' ', '<']).next().unwrap_or("");
    if matches!(head, "Envelope" | "SlotMsg") {
        return true;
    }
    if deep {
        // Deep mode: any message-like on_message parameter is ingress
        // (covers the crash actors' CrashMsg / CtMsg, whose findings are
        // informative — crash actors trust their transport by design).
        return !matches!(
            head,
            "Context" | "ProcessId" | "TimerTag" | "VirtualTime" | ""
        );
    }
    false
}

/// Result of the taint pass over one file set.
pub struct TaintOutcome {
    /// All ingress-to-sink violations found.
    pub hits: Vec<TaintHit>,
}

/// Runs the interprocedural taint analysis over a set of functions.
pub fn analyze(fns: &[FnDef], deep: bool) -> TaintOutcome {
    let mut summaries: BTreeMap<String, Summary> = BTreeMap::new();
    // Global fixpoint over per-function summaries (monotone: sinks and
    // ret-params only grow).
    for _ in 0..MAX_GLOBAL_ROUNDS {
        let mut changed = false;
        for f in fns {
            if f.in_test {
                continue;
            }
            let (summary, _) = run_fn(f, &summaries, deep);
            let prev = summaries.get(&f.name);
            let merged = match prev {
                Some(p) => {
                    let mut m = p.clone();
                    for (k, v) in &summary.param_sinks {
                        m.param_sinks
                            .entry(*k)
                            .or_default()
                            .extend(v.iter().cloned());
                    }
                    m.ret_params.extend(summary.ret_params.iter().copied());
                    m
                }
                None => summary,
            };
            if prev != Some(&merged) {
                summaries.insert(f.name.clone(), merged);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Final pass: collect ingress findings with converged summaries.
    let mut hits = BTreeSet::new();
    for f in fns {
        if f.in_test {
            continue;
        }
        let (_, fn_hits) = run_fn(f, &summaries, deep);
        hits.extend(fn_hits);
    }
    TaintOutcome {
        hits: hits.into_iter().collect(),
    }
}

fn run_fn(
    f: &FnDef,
    summaries: &BTreeMap<String, Summary>,
    deep: bool,
) -> (Summary, BTreeSet<TaintHit>) {
    let mut entry_state = State::new();
    for (i, p) in f.params.iter().enumerate() {
        for b in &p.binds {
            let mut set = TaintSet::from([(
                Origin::Param(i),
                vec![format!("parameter `{b}` of `{}`", f.name)],
            )]);
            if f.name == "on_message" && f.has_self && is_ingress_type(&p.ty, deep) {
                set.insert(
                    Origin::Ingress(format!("message parameter `{b}`")),
                    vec![format!(
                        "ingress: `{b}: {}` of `{}::on_message` (line {})",
                        short_text(&p.ty),
                        f.owner.as_deref().unwrap_or("?"),
                        f.line
                    )],
                );
            }
            entry_state.insert(b.clone(), set);
        }
    }
    let mut az = Analyzer {
        summaries,
        handles: f
            .params
            .iter()
            .flat_map(|p| p.binds.iter().cloned())
            .collect(),
        out_summary: Summary::default(),
        hits: BTreeSet::new(),
    };
    let cfg = Cfg::build(&f.body);
    az.run_cfg(&cfg, entry_state);
    let hits = az
        .hits
        .into_iter()
        .map(|mut h| {
            h.file.clone_from(&f.file);
            h
        })
        .collect();
    (az.out_summary, hits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_file;

    fn hits(src: &str) -> Vec<TaintHit> {
        analyze(&parse_file(src), false).hits
    }

    #[test]
    fn unsanitized_ingress_to_sink_is_flagged() {
        let h = hits(
            "impl A { fn on_message(&mut self, from: ProcessId, env: &Envelope, ctx: &mut Context<'_, M, V>) { self.est_vect = env.value(); } }",
        );
        assert_eq!(h.len(), 1, "{h:?}");
        assert!(h[0].sink.contains("est_vect"));
        assert!(h[0].origin.contains("env"));
    }

    #[test]
    fn sanitizer_on_the_path_clears_the_taint() {
        let h = hits(
            "impl A { fn on_message(&mut self, from: ProcessId, env: &Envelope, ctx: &mut Context<'_, M, V>) { self.stack.admit(from, env, ctx.now()); self.est_vect = env.value(); } }",
        );
        assert!(h.is_empty(), "{h:?}");
    }

    #[test]
    fn sanitizer_on_one_branch_does_not_cover_the_other() {
        let h = hits(
            "impl A { fn on_message(&mut self, from: ProcessId, env: &Envelope, ctx: &mut Context<'_, M, V>) { if from.0 > 0 { self.stack.admit(from, env, ctx.now()); } self.est_vect = env.value(); } }",
        );
        assert_eq!(h.len(), 1, "the unsanitized branch must be found: {h:?}");
    }

    #[test]
    fn taint_flows_through_helper_functions() {
        let h = hits(
            "impl A {\
             fn on_message(&mut self, from: ProcessId, env: &Envelope, ctx: &mut Context<'_, M, V>) { self.store(env.value()); }\
             fn store(&mut self, v: Value) { self.est_vect = v; }\
             }",
        );
        assert_eq!(h.len(), 1, "{h:?}");
        assert!(h[0].path.iter().any(|s| s.contains("store")), "{h:?}");
    }

    #[test]
    fn make_checkpoint_results_are_sources() {
        let h = hits(
            "impl A { fn snapshot(&mut self) { let chk = self.inner.make_checkpoint(); self.log = chk; } }",
        );
        assert_eq!(h.len(), 1, "{h:?}");
        assert!(h[0].origin.contains("make_checkpoint"));
    }

    #[test]
    fn checkpoint_sanitizer_clears_checkpoint_taint() {
        let h = hits(
            "impl A { fn snapshot(&mut self) { let chk = self.inner.make_checkpoint(); self.checker.check_checkpoint(&chk); self.log = chk; } }",
        );
        assert!(h.is_empty(), "{h:?}");
    }

    #[test]
    fn method_sink_on_certificate_field_is_flagged() {
        let h = hits(
            "impl A { fn on_message(&mut self, from: ProcessId, env: &Envelope, ctx: &mut Context<'_, M, V>) { self.current_cert.insert(env.clone()); } }",
        );
        assert_eq!(h.len(), 1, "{h:?}");
        assert!(h[0].sink.contains("current_cert"));
    }

    #[test]
    fn nested_and_handle_held_sink_fields_are_flagged() {
        // A shell writing into its round module's state, and a round
        // module writing through the shell handle it was passed.
        let h = hits(
            "impl Shell {\
             fn on_message(&mut self, from: ProcessId, env: &Envelope, ctx: &mut Context<'_, M, V>) { self.round.est_vect = env.value(); self.round.deliver(&self.shell, env.clone()); }\
             }\
             impl Rounds { fn deliver(&mut self, sh: &Shell, env: Envelope) { sh.decide_evidence.insert(env.cert); } }",
        );
        let sinks: Vec<&str> = h.iter().map(|x| x.sink.as_str()).collect();
        assert!(sinks.contains(&"self.round.est_vect"), "{h:?}");
        assert!(sinks.contains(&"sh.decide_evidence.insert(…)"), "{h:?}");
    }

    #[test]
    fn closure_bodies_are_analyzed_at_definition_site() {
        let h = hits(
            "impl A {\
             fn on_message(&mut self, from: ProcessId, env: &Envelope, ctx: &mut Context<'_, M, V>) { let v = env.value(); self.drive(ctx, |inner, ictx| inner.keep(v)); }\
             fn keep(&mut self, v: Value) { self.est_vect = v; }\
             }",
        );
        assert_eq!(h.len(), 1, "captured taint must flow into closures: {h:?}");
    }

    #[test]
    fn match_binds_carry_scrutinee_taint() {
        let h = hits(
            "impl A { fn on_message(&mut self, from: ProcessId, env: &Envelope, ctx: &mut Context<'_, M, V>) { match env.core() { Core::Current { vector, .. } => { self.est_vect = vector; } _ => {} } } }",
        );
        assert_eq!(h.len(), 1, "{h:?}");
    }

    #[test]
    fn deep_mode_seeds_plain_message_params() {
        let src = "impl A { fn on_message(&mut self, from: ProcessId, msg: &CtMsg, ctx: &mut Context<'_, M, V>) { self.estimates = msg.clone(); } }";
        assert!(hits(src).is_empty(), "scoped mode trusts CtMsg");
        let deep = analyze(&parse_file(src), true).hits;
        assert_eq!(deep.len(), 1, "deep mode must not: {deep:?}");
    }

    #[test]
    fn paths_terminate_and_stay_bounded() {
        let h = hits(
            "impl A { fn on_message(&mut self, from: ProcessId, env: &Envelope, ctx: &mut Context<'_, M, V>) { let mut v = env.value(); loop { v = wrap(v); } } }",
        );
        assert!(h.is_empty());
    }
}
