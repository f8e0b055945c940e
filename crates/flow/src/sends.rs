//! Pass F2: spec conformance of the transformed actors' send behavior.
//!
//! Extracts every send site of a transformed protocol — its round module
//! plus the shared shell — which `Core` message kind is built, whether it
//! is broadcast or unicast, and the round carried — and diffs the observed
//! table against the send obligations declared by
//! `ProtocolSpec::transformed()` / `transformed_ct()`. A send the spec
//! does not allow, an obligation never discharged, or a round/route
//! mismatch is a finding.
//!
//! Extraction works in three phases: (1) classify which functions reach
//! the network (call `ctx.broadcast`/`ctx.send` directly or
//! transitively); (2) walk every function with a guard stack, recording
//! each call to a send-reaching function that carries a `Core::K { … }`
//! struct literal (directly, or via a local `let core = Core::K { … }`),
//! whether the call goes through `self`, a field of `self` or a handle
//! parameter (`sh.send_all(…)`); (3) match the per-kind site sets against
//! the spec using guard-text signatures when one kind has several
//! conditional obligations.

use crate::ast::{Arm, Block, Expr, ExprKind, FnDef, Stmt};
use ftm_core::spec::ProtocolSpec;
use std::collections::{BTreeMap, BTreeSet};

/// How a send leaves the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `ctx.broadcast(…)` — echoed to every process.
    Broadcast,
    /// `ctx.send(to, …)` — point-to-point.
    Unicast,
}

/// The round value a send carries, classified syntactically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundDelta {
    /// `round: self.r` — the current round.
    Same,
    /// `round: self.r + k` — a future round (always a violation).
    Jump,
    /// `round: r` for a bound variable — relayed from a received message.
    Relayed,
    /// The kind carries no round field.
    NoRound,
}

/// One extracted send site.
#[derive(Debug, Clone)]
pub struct SendSite {
    /// The `Core` variant name (e.g. `Current`).
    pub kind: String,
    /// Broadcast or unicast.
    pub route: Route,
    /// The round classification.
    pub round: RoundDelta,
    /// Name of the function containing the site.
    pub in_fn: String,
    /// Repo-relative path of the file containing the site.
    pub file: String,
    /// Source line of the site.
    pub line: u32,
    /// Conjunction of enclosing guard texts (if-conditions, match arms).
    pub guards: Vec<String>,
}

/// One call site of an actor method (for multiplicity expansion).
#[derive(Debug, Clone)]
pub struct CallSite {
    /// The calling function.
    pub in_fn: String,
    /// Repo-relative path of the calling file.
    pub file: String,
    /// Source line of the call.
    pub line: u32,
    /// Conjunction of enclosing guard texts.
    pub guards: Vec<String>,
}

/// The extracted send table of one actor file.
#[derive(Debug, Default)]
pub struct SendTable {
    /// All extracted send sites.
    pub sites: Vec<SendSite>,
    /// name → call sites of that method (within the same file).
    pub calls: BTreeMap<String, Vec<CallSite>>,
}

/// An F2 conformance finding.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct SpecFinding {
    /// File the finding anchors to (empty = the protocol as a whole).
    pub file: String,
    /// Source line the finding anchors to (0 = whole-protocol obligation).
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

fn is_ctx_recv(text: &str) -> bool {
    text == "ctx" || text.ends_with(" ctx") || text.contains("ctx .")
}

/// Whether a method receiver is the process itself or a module it sends
/// through: `self`, a field of `self` (`self.shell`), or a handle
/// parameter (`sh`) — never the runtime context.
fn is_actor_recv(text: &str) -> bool {
    match text.split_whitespace().collect::<Vec<_>>().as_slice() {
        ["self"] | ["self", ".", _] => true,
        [name] => !is_ctx_recv(name) && name.chars().all(|c| c.is_alphanumeric() || c == '_'),
        _ => false,
    }
}

/// Phase 1: which functions reach the network, and how.
fn classify_send_reaching(fns: &[FnDef]) -> BTreeMap<String, Route> {
    let mut routes: BTreeMap<String, Route> = BTreeMap::new();
    for f in fns {
        if f.in_test {
            continue;
        }
        let mut route = None;
        visit_exprs(&f.body, &mut |e| {
            if let ExprKind::Method { recv, name, .. } = &e.kind {
                if name == "broadcast" && is_ctx_recv(&recv.text) {
                    route = Some(match route {
                        Some(Route::Unicast) | None => Route::Broadcast,
                        Some(r) => r,
                    });
                }
                if name == "send" && is_ctx_recv(&recv.text) {
                    // Unicast dominates: a function that can unicast is
                    // reported as such so the route check stays strict.
                    route = Some(Route::Unicast);
                }
            }
        });
        if let Some(r) = route {
            routes.insert(f.name.clone(), r);
        }
    }
    // Transitive closure over calls through the process's own modules.
    loop {
        let mut changed = false;
        for f in fns {
            if f.in_test || routes.contains_key(&f.name) {
                continue;
            }
            let mut found = None;
            visit_exprs(&f.body, &mut |e| {
                if let ExprKind::Method { recv, name, .. } = &e.kind {
                    if is_actor_recv(&recv.text) {
                        if let Some(r) = routes.get(name) {
                            found = Some(match (found, *r) {
                                (Some(Route::Unicast), _) | (_, Route::Unicast) => Route::Unicast,
                                _ => Route::Broadcast,
                            });
                        }
                    }
                }
            });
            if let Some(r) = found {
                routes.insert(f.name.clone(), r);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    routes
}

/// Calls `f` on every expression in a block, recursively.
fn visit_exprs(b: &Block, f: &mut impl FnMut(&Expr)) {
    let mut walker = GuardWalker {
        guards: Vec::new(),
        on_expr: f,
        on_guarded: &mut |_, _| {},
    };
    walker.block(b);
}

/// Walks a block maintaining the stack of enclosing guard texts.
struct GuardWalker<'f> {
    guards: Vec<String>,
    on_expr: &'f mut dyn FnMut(&Expr),
    on_guarded: &'f mut dyn FnMut(&Expr, &[String]),
}

impl GuardWalker<'_> {
    fn block(&mut self, b: &Block) {
        for s in &b.stmts {
            self.stmt(s);
        }
        if let Some(t) = &b.tail {
            self.expr(t.as_ref());
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match s {
            Stmt::Let { init, .. } => {
                if let Some(e) = init {
                    self.expr(e);
                }
            }
            Stmt::Assign { value, .. } => self.expr(value),
            Stmt::If {
                cond,
                then_b,
                else_b,
                ..
            } => {
                self.expr(cond);
                self.guards.push(cond.text.clone());
                self.block(then_b);
                self.guards.pop();
                if let Some(eb) = else_b {
                    self.guards.push(format!("! ( {} )", cond.text));
                    self.block(eb);
                    self.guards.pop();
                }
            }
            Stmt::Match { scrutinee, arms } => {
                self.expr(scrutinee);
                self.arms(arms);
            }
            Stmt::While { cond, body, .. } => {
                self.expr(cond);
                self.guards.push(cond.text.clone());
                self.block(body);
                self.guards.pop();
            }
            Stmt::Loop { body } => self.block(body),
            Stmt::For { iter, body, .. } => {
                self.expr(iter);
                self.block(body);
            }
            Stmt::Return { value, .. } => {
                if let Some(e) = value {
                    self.expr(e);
                }
            }
            Stmt::Jump => {}
            Stmt::Expr(e) => self.expr(e),
        }
    }

    fn arms(&mut self, arms: &[Arm]) {
        for arm in arms {
            let mut g = arm.pat_text.clone();
            if let Some(guard) = &arm.guard {
                self.expr(guard);
                g.push_str(" if ");
                g.push_str(&guard.text);
            }
            self.guards.push(g);
            self.block(&arm.body);
            self.guards.pop();
        }
    }

    #[allow(clippy::too_many_lines)]
    fn expr(&mut self, e: &Expr) {
        (self.on_expr)(e);
        (self.on_guarded)(e, &self.guards);
        match &e.kind {
            ExprKind::Field { base, .. } => self.expr(base),
            ExprKind::Method { recv, args, .. } => {
                self.expr(recv);
                for a in args {
                    self.expr(a);
                }
            }
            ExprKind::Call { callee, args } => {
                self.expr(callee);
                for a in args {
                    self.expr(a);
                }
            }
            ExprKind::Struct { fields, .. } => {
                for (_, v) in fields {
                    self.expr(v);
                }
            }
            ExprKind::Macro { args, .. } | ExprKind::Tuple(args) | ExprKind::Bin(args) => {
                for a in args {
                    self.expr(a);
                }
            }
            ExprKind::Closure { body, .. } => self.expr(body),
            ExprKind::IfExpr {
                cond,
                then_b,
                else_b,
                ..
            } => {
                self.expr(cond);
                self.guards.push(cond.text.clone());
                self.block(then_b);
                self.guards.pop();
                if let Some(eb) = else_b {
                    self.guards.push(format!("! ( {} )", cond.text));
                    self.block(eb);
                    self.guards.pop();
                }
            }
            ExprKind::MatchExpr { scrutinee, arms } => {
                self.expr(scrutinee);
                self.arms(arms);
            }
            ExprKind::BlockExpr(b) => self.block(b),
            ExprKind::Index { base, index } => {
                self.expr(base);
                self.expr(index);
            }
            ExprKind::Path(_) | ExprKind::Lit | ExprKind::Opaque => {}
        }
    }
}

/// Classifies the `round:` field expression of a core literal.
fn classify_round(fields: &[(String, Expr)]) -> RoundDelta {
    let Some((_, v)) = fields.iter().find(|(n, _)| n == "round") else {
        return RoundDelta::NoRound;
    };
    let t = v.text.as_str();
    if t == "self . r" {
        return RoundDelta::Same;
    }
    if t.contains("self . r") && t.contains('+') {
        return RoundDelta::Jump;
    }
    let words: Vec<&str> = t.split_whitespace().collect();
    if words.len() == 1
        && words[0]
            .chars()
            .next()
            .is_some_and(|c| c.is_lowercase() || c == '_')
    {
        return RoundDelta::Relayed;
    }
    // Anything else (arithmetic on a relayed round, etc.) is treated as
    // a jump so it surfaces for review.
    RoundDelta::Jump
}

/// The `Core::K { … }` literal inside an expression, if any (does not
/// descend into nested calls — the literal must be a direct argument or
/// wrapped in references/`clone`).
fn core_literal(e: &Expr) -> Option<(&str, &[(String, Expr)])> {
    match &e.kind {
        ExprKind::Struct { path, fields } => {
            if path.len() >= 2 && path[path.len() - 2] == "Core" {
                Some((path.last().map_or("", String::as_str), fields))
            } else {
                None
            }
        }
        ExprKind::Method { recv, name, .. } if name == "clone" => core_literal(recv),
        _ => None,
    }
}

/// Phase 2: extracts the send table of one protocol's functions.
pub fn extract(fns: &[FnDef]) -> SendTable {
    let routes = classify_send_reaching(fns);
    let mut table = SendTable::default();
    for f in fns {
        if f.in_test {
            continue;
        }
        // Locals bound to core literals: `let core = Core::K { … };`.
        let mut locals: BTreeMap<String, (String, RoundDelta)> = BTreeMap::new();
        visit_stmts(&f.body, &mut |s| {
            if let Stmt::Let {
                binds,
                init: Some(e),
                ..
            } = s
            {
                if let [bind] = binds.as_slice() {
                    if let Some((kind, fields)) = core_literal(e) {
                        locals.insert(bind.clone(), (kind.to_string(), classify_round(fields)));
                    }
                }
            }
        });
        let sites = &mut table.sites;
        let calls = &mut table.calls;
        let fname = f.name.clone();
        let mut on_guarded = |e: &Expr, guards: &[String]| {
            let (name, args, line) = match &e.kind {
                ExprKind::Method { recv, name, args } if is_actor_recv(&recv.text) => {
                    (name.as_str(), args.as_slice(), e.line)
                }
                ExprKind::Call { callee, args } => match &callee.kind {
                    ExprKind::Path(segs) if segs.len() == 1 => {
                        (segs[0].as_str(), args.as_slice(), e.line)
                    }
                    _ => return,
                },
                _ => return,
            };
            // Record every process-method call site for later expansion.
            calls.entry(name.to_string()).or_default().push(CallSite {
                in_fn: fname.clone(),
                file: f.file.clone(),
                line,
                guards: guards.to_vec(),
            });
            let Some(route) = routes.get(name) else {
                return;
            };
            for a in args {
                let resolved = core_literal(a).map(|(k, f)| (k.to_string(), classify_round(f)));
                let resolved = resolved.or_else(|| match &a.kind {
                    ExprKind::Path(segs) if segs.len() == 1 => locals.get(&segs[0]).cloned(),
                    _ => None,
                });
                if let Some((kind, round)) = resolved {
                    sites.push(SendSite {
                        kind,
                        route: *route,
                        round,
                        in_fn: fname.clone(),
                        file: f.file.clone(),
                        line,
                        guards: guards.to_vec(),
                    });
                }
            }
        };
        let mut walker = GuardWalker {
            guards: Vec::new(),
            on_expr: &mut |_| {},
            on_guarded: &mut on_guarded,
        };
        walker.block(&f.body);
    }
    table
}

fn visit_stmts(b: &Block, f: &mut impl FnMut(&Stmt)) {
    for s in &b.stmts {
        f(s);
        match s {
            Stmt::If { then_b, else_b, .. } => {
                visit_stmts(then_b, f);
                if let Some(eb) = else_b {
                    visit_stmts(eb, f);
                }
            }
            Stmt::Match { arms, .. } => {
                for a in arms {
                    visit_stmts(&a.body, f);
                }
            }
            Stmt::While { body, .. } | Stmt::Loop { body } | Stmt::For { body, .. } => {
                visit_stmts(body, f);
            }
            _ => {}
        }
    }
}

/// A guard-text signature for one conditional-send obligation: all of
/// `must` appear in the guard conjunction, none of `must_not`.
struct GuardSig {
    id: &'static str,
    must: &'static [&'static str],
    must_not: &'static [&'static str],
}

/// Signatures distinguishing same-kind obligations of the HR protocol.
const HR_SIGS: [GuardSig; 5] = [
    GuardSig {
        id: "current-coordinator",
        must: &["coordinator", "=="],
        must_not: &["!="],
    },
    GuardSig {
        id: "current-relay",
        must: &["coordinator", "!="],
        must_not: &[],
    },
    GuardSig {
        id: "next-suspicion",
        must: &["suspected_or_faulty"],
        must_not: &[],
    },
    GuardSig {
        id: "next-change-mind",
        must: &["change_mind"],
        must_not: &[],
    },
    GuardSig {
        id: "next-end-of-round",
        must: &["quorum", ">"],
        must_not: &["change_mind", "suspected_or_faulty"],
    },
];

fn sig_matches(sig: &GuardSig, guards: &[String]) -> bool {
    let joined = guards.join(" && ");
    sig.must.iter().all(|m| joined.contains(m)) && sig.must_not.iter().all(|m| !joined.contains(m))
}

/// Phase 3: diffs an extracted table against a protocol spec.
#[allow(clippy::too_many_lines)]
pub fn conform(table: &SendTable, spec: &ProtocolSpec, use_hr_sigs: bool) -> Vec<SpecFinding> {
    let mut findings = BTreeSet::new();
    // Expected multiplicity per kind, with obligation ids.
    let mut expected: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for send in &spec.sends {
        expected
            .entry(format!("{:?}", send.kind))
            .or_default()
            .push(send.id.to_string());
    }
    // Round-class expectations per kind.
    let opening: Option<String> = spec.opening.map(|k| format!("{k:?}"));
    let slot_kinds: BTreeSet<String> = spec
        .round_slots
        .iter()
        .map(|s| format!("{:?}", s.kind))
        .collect();
    let terminal: String = format!("{:?}", spec.terminal);

    let mut observed: BTreeMap<String, Vec<&SendSite>> = BTreeMap::new();
    for site in &table.sites {
        observed.entry(site.kind.clone()).or_default().push(site);
    }

    // Route and round checks apply to every observed site.
    for site in &table.sites {
        if site.route == Route::Unicast {
            findings.insert(SpecFinding {
                file: site.file.clone(),
                line: site.line,
                message: format!(
                    "`Core::{}` sent point-to-point in `{}`; the transformation requires every protocol message to be broadcast so correct processes can certify and echo it",
                    site.kind, site.in_fn
                ),
            });
        }
        let round_ok = if Some(&site.kind) == opening.as_ref() {
            site.round == RoundDelta::NoRound
        } else if slot_kinds.contains(&site.kind) {
            site.round == RoundDelta::Same
        } else if site.kind == terminal {
            matches!(site.round, RoundDelta::Relayed | RoundDelta::Same)
        } else {
            true // unknown kind: flagged below as extra, not here
        };
        if !round_ok {
            findings.insert(SpecFinding {
                file: site.file.clone(),
                line: site.line,
                message: format!(
                    "`Core::{}` in `{}` carries round class {:?}, which the spec forbids for this kind",
                    site.kind, site.in_fn, site.round
                ),
            });
        }
    }

    // Per-kind multiplicity and signature matching.
    let empty: Vec<&SendSite> = Vec::new();
    for (kind, obligations) in &expected {
        let sites = observed.get(kind).unwrap_or(&empty);
        let m = obligations.len();
        let d = sites.len();
        if d == m && m == 1 {
            continue; // trivially matched
        }
        if d == m && m > 1 {
            if use_hr_sigs {
                // Require a perfect bijection via guard signatures
                // (failures are recorded inside).
                bijection_holds(obligations, sites, &mut findings);
            }
            continue;
        }
        if d == 1 && m > 1 {
            // One literal site, several obligations: the containing
            // function must be *called* from m distinct guarded sites.
            let site = sites[0];
            let call_sites = table.calls.get(&site.in_fn).cloned().unwrap_or_default();
            if call_sites.len() == m {
                if use_hr_sigs {
                    let expanded: Vec<SendSite> = call_sites
                        .iter()
                        .map(|c| SendSite {
                            kind: site.kind.clone(),
                            route: site.route,
                            round: site.round,
                            in_fn: c.in_fn.clone(),
                            file: c.file.clone(),
                            line: c.line,
                            guards: c.guards.clone(),
                        })
                        .collect();
                    let refs: Vec<&SendSite> = expanded.iter().collect();
                    bijection_holds(obligations, &refs, &mut findings);
                }
                continue;
            }
            findings.insert(SpecFinding {
                file: site.file.clone(),
                line: site.line,
                message: format!(
                    "spec declares {m} obligations for `Core::{kind}` but `{}` (its only send site) is called from {} site(s); obligations {:?} cannot all be discharged",
                    site.in_fn,
                    call_sites.len(),
                    obligations
                ),
            });
            continue;
        }
        if d == 0 {
            findings.insert(SpecFinding {
                file: String::new(),
                line: 0,
                message: format!(
                    "spec obligation(s) {obligations:?} for `Core::{kind}` have no send site in the actor: the message is never sent"
                ),
            });
        } else {
            findings.insert(SpecFinding {
                file: sites.first().map_or_else(String::new, |s| s.file.clone()),
                line: sites.first().map_or(0, |s| s.line),
                message: format!(
                    "`Core::{kind}` has {d} send site(s) but the spec declares {m} obligation(s) {obligations:?}"
                ),
            });
        }
    }
    // Kinds sent but absent from the spec alphabet.
    for (kind, sites) in &observed {
        if !expected.contains_key(kind) {
            findings.insert(SpecFinding {
                file: sites.first().map_or_else(String::new, |s| s.file.clone()),
                line: sites.first().map_or(0, |s| s.line),
                message: format!(
                    "`Core::{kind}` is sent (in `{}`) but the spec declares no obligation for it",
                    sites.first().map_or("?", |s| s.in_fn.as_str())
                ),
            });
        }
    }
    findings.into_iter().collect()
}

/// Checks that obligations and sites pair up one-to-one under the HR
/// guard signatures; records findings for any failure.
fn bijection_holds(
    obligations: &[String],
    sites: &[&SendSite],
    findings: &mut BTreeSet<SpecFinding>,
) -> bool {
    let mut used_sites = vec![false; sites.len()];
    let mut ok = true;
    for ob in obligations {
        let Some(sig) = HR_SIGS.iter().find(|s| s.id == ob) else {
            findings.insert(SpecFinding {
                file: String::new(),
                line: 0,
                message: format!(
                    "no guard signature known for obligation `{ob}`; cannot establish conformance"
                ),
            });
            ok = false;
            continue;
        };
        let matches: Vec<usize> = sites
            .iter()
            .enumerate()
            .filter(|(i, s)| !used_sites[*i] && sig_matches(sig, &s.guards))
            .map(|(i, _)| i)
            .collect();
        match matches.as_slice() {
            [i] => used_sites[*i] = true,
            [] => {
                findings.insert(SpecFinding {
                    file: String::new(),
                    line: 0,
                    message: format!(
                        "obligation `{ob}` has no send site whose guards match its signature; the conditional send is missing or its guard changed"
                    ),
                });
                ok = false;
            }
            many => {
                findings.insert(SpecFinding {
                    file: sites[many[0]].file.clone(),
                    line: sites[many[0]].line,
                    message: format!(
                        "obligation `{ob}` matches {} send sites; guards are ambiguous",
                        many.len()
                    ),
                });
                ok = false;
            }
        }
    }
    for (i, used) in used_sites.iter().enumerate() {
        if !used {
            findings.insert(SpecFinding {
                file: sites[i].file.clone(),
                line: sites[i].line,
                message: format!(
                    "send site of `Core::{}` in `{}` (line {}) matches no declared obligation",
                    sites[i].kind, sites[i].in_fn, sites[i].line
                ),
            });
            ok = false;
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_file;

    const MINI_HR: &str = r#"
impl HrActor {
    fn send_all(&mut self, core: Core, cert: Certificate, ctx: &mut Ctx) {
        ctx.broadcast(Envelope::make(self.me, core, cert, &self.keys));
    }
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.send_all(Core::Init { value: self.value }, Certificate::new(), ctx);
    }
    fn begin_round(&mut self, ctx: &mut Ctx) {
        if self.me == self.coordinator() {
            self.send_all(Core::Current { round: self.r, vector: self.est_vect.clone() }, self.cert(), ctx);
        }
    }
}
"#;

    #[test]
    fn broadcast_classification_is_transitive() {
        let fns = parse_file(MINI_HR);
        let routes = classify_send_reaching(&fns);
        assert_eq!(routes.get("send_all"), Some(&Route::Broadcast));
        assert_eq!(routes.get("on_start"), Some(&Route::Broadcast));
        assert_eq!(routes.get("begin_round"), Some(&Route::Broadcast));
    }

    #[test]
    fn extraction_finds_kinds_rounds_and_guards() {
        let table = extract(&parse_file(MINI_HR));
        assert_eq!(table.sites.len(), 2, "{:?}", table.sites);
        let init = table.sites.iter().find(|s| s.kind == "Init").unwrap();
        assert_eq!(init.round, RoundDelta::NoRound);
        assert!(init.guards.is_empty());
        let cur = table.sites.iter().find(|s| s.kind == "Current").unwrap();
        assert_eq!(cur.round, RoundDelta::Same);
        assert!(cur.guards.iter().any(|g| g.contains("coordinator")));
    }

    #[test]
    fn local_let_core_literals_resolve() {
        let src = r#"
impl A {
    fn send_all(&mut self, core: Core, ctx: &mut Ctx) { ctx.broadcast(core); }
    fn vote(&mut self, ctx: &mut Ctx) {
        let core = Core::Next { round: self.r };
        self.send_all(core, ctx);
    }
}
"#;
        let table = extract(&parse_file(src));
        assert_eq!(table.sites.len(), 1, "{:?}", table.sites);
        assert_eq!(table.sites[0].kind, "Next");
        assert_eq!(table.sites[0].round, RoundDelta::Same);
    }

    #[test]
    fn sends_through_a_shell_field_or_handle_resolve() {
        let src = r#"
impl Shell {
    fn send_all(&self, core: Core, ctx: &mut Ctx) { ctx.broadcast(core); }
}
impl Actor {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.shell.send_all(Core::Init { value: self.value }, ctx);
    }
}
impl Rounds {
    fn vote(&mut self, sh: &Shell, ctx: &mut Ctx) {
        sh.send_all(Core::Next { round: self.r }, ctx);
    }
    fn on_poll(&mut self, sh: &Shell, ctx: &mut Ctx) {
        if sh.stack.suspected_or_faulty(c) { self.vote(sh, ctx); }
    }
}
"#;
        let table = extract(&parse_file(src));
        let kinds: Vec<&str> = table.sites.iter().map(|s| s.kind.as_str()).collect();
        assert_eq!(kinds, ["Init", "Next"], "{:?}", table.sites);
        let calls = &table.calls["vote"];
        assert_eq!(calls.len(), 1);
        assert!(calls[0].guards[0].contains("suspected_or_faulty"));
    }

    #[test]
    fn round_jump_is_classified() {
        let src = r#"
impl A {
    fn send_all(&mut self, core: Core, ctx: &mut Ctx) { ctx.broadcast(core); }
    fn relay(&mut self, round: u64, ctx: &mut Ctx) {
        self.send_all(Core::Current { round: self.r + 1, vector: v() }, ctx);
        self.send_all(Core::Decide { round, vector: v() }, ctx);
    }
}
"#;
        let table = extract(&parse_file(src));
        let cur = table.sites.iter().find(|s| s.kind == "Current").unwrap();
        assert_eq!(cur.round, RoundDelta::Jump);
        let dec = table.sites.iter().find(|s| s.kind == "Decide").unwrap();
        assert_eq!(dec.round, RoundDelta::Relayed);
    }

    #[test]
    fn unicast_send_is_classified() {
        let src = r#"
impl A {
    fn leak(&mut self, to: ProcessId, ctx: &mut Ctx) {
        ctx.send(to, Envelope::wrap(Core::Init { value: self.value }));
    }
}
"#;
        let fns = parse_file(src);
        let routes = classify_send_reaching(&fns);
        assert_eq!(routes.get("leak"), Some(&Route::Unicast));
    }

    #[test]
    fn hr_signatures_are_mutually_exclusive_on_intended_guards() {
        let coord = vec!["self . me == self . coordinator ( )".to_string()];
        let relay = vec!["! self . sent_next && self . me != self . coordinator ( )".to_string()];
        let sig_c = &HR_SIGS[0];
        let sig_r = &HR_SIGS[1];
        assert!(sig_matches(sig_c, &coord));
        assert!(!sig_matches(sig_c, &relay));
        assert!(sig_matches(sig_r, &relay));
        assert!(!sig_matches(sig_r, &coord));
    }
}
