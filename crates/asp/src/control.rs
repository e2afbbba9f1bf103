//! The clingo-like front end: build a program from text and facts, ground it, solve it.
//!
//! [`Control`] mirrors the workflow described in Section V of the paper:
//!
//! 1. generate facts for the problem instance ([`Control::add_fact`]),
//! 2. load the logic program encoding the software model ([`Control::add_program`]),
//! 3. ground ([`Control::ground`]), and
//! 4. solve, retrieving the best stable model ([`Control::solve`]).
//!
//! Timing of the load / ground / solve phases is recorded in [`Stats`], matching the
//! phases instrumented in Section VII of the paper (setup is measured by the caller,
//! since fact generation happens outside the solver).

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::ast::Program;
use crate::ground::{
    BaseProgram, Facts, GroundError, GroundProgram, GroundStats, Grounder, PatchStats,
};
use crate::optimize::{
    build_solver, enumerate_models_with_stats, run_stable, solve_optimal_assuming, OptOutcome,
    OptimalModel, OptimizeError, RunStats, StableOutcome,
};
use crate::parser::{parse_program, ParseError};
use crate::sat::{Lit, SatConfig, SolveBudgetState};
use crate::stable::StabilityChecker;
use crate::symbols::{GroundAtom, SymbolId, SymbolTable, Val};
use crate::translate::{translate, Translation};

/// Errors surfaced by the [`Control`] API.
#[derive(Debug)]
pub enum AspError {
    /// The program text failed to parse.
    Parse(ParseError),
    /// Grounding failed.
    Ground(GroundError),
    /// Optimization failed.
    Optimize(OptimizeError),
    /// A method was called out of order (e.g. `solve` before `ground`).
    Usage(String),
}

impl std::fmt::Display for AspError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AspError::Parse(e) => write!(f, "{e}"),
            AspError::Ground(e) => write!(f, "{e}"),
            AspError::Optimize(e) => write!(f, "{e}"),
            AspError::Usage(m) => write!(f, "usage error: {m}"),
        }
    }
}

impl std::error::Error for AspError {}

impl From<ParseError> for AspError {
    fn from(e: ParseError) -> Self {
        AspError::Parse(e)
    }
}

impl From<GroundError> for AspError {
    fn from(e: GroundError) -> Self {
        AspError::Ground(e)
    }
}

impl From<OptimizeError> for AspError {
    fn from(e: OptimizeError) -> Self {
        AspError::Optimize(e)
    }
}

/// Configuration presets named after the clingo presets benchmarked in Fig. 7d of the
/// paper. Each preset maps to a different set of low-level search parameters; as in the
/// paper, the presets only affect the solving phase, never grounding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Preset {
    /// Geared towards typical ASP programs (the paper's default choice).
    #[default]
    Tweety,
    /// Geared towards industrial problems.
    Trendy,
    /// Geared towards large problems.
    Handy,
}

impl Preset {
    /// All presets, in the order used by the paper's Figure 7d.
    pub fn all() -> [Preset; 3] {
        [Preset::Tweety, Preset::Trendy, Preset::Handy]
    }

    /// The preset's name as used in clingo.
    pub fn name(&self) -> &'static str {
        match self {
            Preset::Tweety => "tweety",
            Preset::Trendy => "trendy",
            Preset::Handy => "handy",
        }
    }
}

/// A per-solve resource budget: a wall-clock deadline and/or a total conflict
/// limit. Installed through [`SolverConfig::budget`], it bounds every solve on the
/// control — a monitor thread arms a shared flag when the deadline passes, the
/// solvers count conflicts into a shared total, and the search loop checks the flag
/// once per iteration, so an expired budget interrupts the solve within one solver
/// check interval. The outcome degrades gracefully: if branch-and-bound had already
/// proven a model, [`AssumeOutcome::Budget`] returns it marked non-optimal instead
/// of returning nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveBudget {
    /// Maximum wall-clock time for one solve (`None` = no deadline).
    pub wall_deadline: Option<Duration>,
    /// Maximum total conflicts across all solver runs of one solve (`None` = no
    /// limit).
    pub conflict_limit: Option<u64>,
}

impl SolveBudget {
    /// A budget with both halves unset (no deadline, no conflict limit).
    pub fn unlimited() -> Self {
        SolveBudget::default()
    }

    /// Is any bound actually set?
    pub fn is_bounded(&self) -> bool {
        self.wall_deadline.is_some() || self.conflict_limit.is_some()
    }

    /// This budget with every set bound doubled — the retry policy's escalation:
    /// a retried solve gets twice the wall clock and twice the conflicts. Both
    /// saturate at their maximum instead of overflowing.
    pub fn doubled(&self) -> Self {
        SolveBudget {
            wall_deadline: self.wall_deadline.map(|d| d.saturating_mul(2)),
            conflict_limit: self.conflict_limit.map(|c| c.saturating_mul(2)),
        }
    }
}

/// Arms a shared [`SolveBudgetState`] when a wall deadline passes, via a monitor
/// thread parked on a channel: the drop of the guard (solve finished) disconnects
/// the channel and the monitor exits without arming. A zero deadline arms
/// synchronously — no thread, no scheduling race — which keeps "expire immediately"
/// deterministic for tests.
struct BudgetGuard {
    state: Arc<SolveBudgetState>,
    _cancel: Option<std::sync::mpsc::Sender<()>>,
    monitor: Option<std::thread::JoinHandle<()>>,
}

impl BudgetGuard {
    fn new(budget: &SolveBudget) -> Self {
        let state = Arc::new(SolveBudgetState::new(budget.conflict_limit));
        let (cancel, monitor) = match budget.wall_deadline {
            Some(deadline) if deadline.is_zero() => {
                state.arm();
                (None, None)
            }
            Some(deadline) => {
                let (tx, rx) = std::sync::mpsc::channel::<()>();
                let armed = Arc::clone(&state);
                let handle = std::thread::spawn(move || {
                    // Timeout = deadline passed with the guard still alive: arm.
                    // Disconnected = the guard dropped first: the solve finished
                    // within budget, exit without arming.
                    if rx.recv_timeout(deadline) == Err(std::sync::mpsc::RecvTimeoutError::Timeout)
                    {
                        armed.arm();
                    }
                });
                (Some(tx), Some(handle))
            }
            None => (None, None),
        };
        BudgetGuard { state, _cancel: cancel, monitor }
    }
}

impl Drop for BudgetGuard {
    fn drop(&mut self) {
        // Dropping the sender disconnects the monitor's channel; the join is then
        // immediate and keeps monitor threads from accumulating across a batch.
        self._cancel = None;
        if let Some(handle) = self.monitor.take() {
            let _ = handle.join();
        }
    }
}

/// Solver configuration: preset, RNG seed, nogood sharing and budget.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Search parameter preset.
    pub preset: Preset,
    /// Seed for randomized tie-breaking.
    pub seed: u64,
    /// Share loop nogoods between requests with an identical translation (same
    /// closure digest) through the session's [`crate::SharedClauseStore`]. Results
    /// are byte-identical either way.
    pub share_nogoods: bool,
    /// Optional per-solve resource budget (wall deadline and/or conflict limit);
    /// `None` means every solve runs to completion. See [`SolveBudget`].
    pub budget: Option<SolveBudget>,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig { preset: Preset::default(), seed: 0, share_nogoods: true, budget: None }
    }
}

impl SolverConfig {
    /// Create a configuration from a preset, with every other setting at its default.
    pub fn preset(preset: Preset) -> Self {
        SolverConfig { preset, ..Default::default() }
    }

    /// The low-level SAT parameters for this configuration.
    pub fn sat_config(&self) -> SatConfig {
        let mut cfg = match self.preset {
            Preset::Tweety => SatConfig {
                var_decay: 0.92,
                restart_base: 128,
                default_phase: false,
                random_polarity: 0.01,
                seed: 0x7eea,
                learned_limit: 4000,
                clause_decay: 0.999,
            },
            Preset::Trendy => SatConfig {
                var_decay: 0.97,
                restart_base: 512,
                default_phase: true,
                random_polarity: 0.05,
                seed: 0x7e2d,
                learned_limit: 8000,
                clause_decay: 0.999,
            },
            Preset::Handy => SatConfig {
                var_decay: 0.99,
                restart_base: 1024,
                default_phase: false,
                random_polarity: 0.0,
                seed: 0x4a2d,
                learned_limit: 16000,
                clause_decay: 0.9995,
            },
        };
        cfg.seed ^= self.seed;
        cfg
    }
}

/// A value in a fact argument or a model atom.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Value {
    /// A string / symbolic constant.
    Str(String),
    /// An integer.
    Int(i64),
}

impl Value {
    /// The string form (integers are rendered in decimal).
    pub fn as_str(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            Value::Int(i) => i.to_string(),
        }
    }

    /// The integer value, if this is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Str(_) => None,
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i as i64)
    }
}

/// A stable model returned by the solver: the true atoms, organised for extraction.
/// When the program has `#show` directives, only the atoms of the shown predicates
/// are listed; internal auxiliary atoms (names starting with `__`) never are.
#[derive(Debug, Clone, Default)]
pub struct Model {
    atoms: Vec<(String, Vec<Value>)>,
}

impl Model {
    /// All listed true atoms as `(predicate, arguments)` pairs.
    pub fn atoms(&self) -> &[(String, Vec<Value>)] {
        &self.atoms
    }

    /// Iterate over the argument tuples of every true atom with the given predicate.
    pub fn with_pred<'a>(&'a self, pred: &'a str) -> impl Iterator<Item = &'a [Value]> + 'a {
        self.atoms.iter().filter(move |(p, _)| p == pred).map(|(_, args)| args.as_slice())
    }

    /// Does the model contain this exact atom?
    pub fn contains(&self, pred: &str, args: &[Value]) -> bool {
        self.atoms.iter().any(|(p, a)| p == pred && a == args)
    }

    /// Number of true atoms.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// True when no atom is true.
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }
}

/// An assumption for [`Control::solve_with_assumptions`]: a ground atom, by predicate
/// and arguments, asserted true (`positive`) or false for the duration of one solve.
/// Assumptions are decisions, not clauses — the control object stays reusable, and a
/// failed solve reports the *unsat core*: the subset of assumptions that is jointly
/// refuted by the program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assumption {
    /// Predicate name of the assumed atom.
    pub pred: String,
    /// Ground arguments of the assumed atom.
    pub args: Vec<Value>,
    /// Assume the atom true (`true`) or false (`false`).
    pub positive: bool,
}

impl Assumption {
    /// Assume the atom `pred(args)` is true.
    pub fn holds(pred: &str, args: &[Value]) -> Self {
        Assumption { pred: pred.to_string(), args: args.to_vec(), positive: true }
    }

    /// Assume the atom `pred(args)` is false.
    pub fn fails(pred: &str, args: &[Value]) -> Self {
        Assumption { pred: pred.to_string(), args: args.to_vec(), positive: false }
    }
}

/// Outcome of an assumption-based optimizing solve.
#[derive(Debug, Clone)]
pub enum AssumeOutcome {
    /// An optimal stable model satisfying every assumption was found.
    Optimal {
        /// The model.
        model: Model,
        /// Objective vector as `(priority, value)`, highest priority first.
        cost: Vec<(i64, i64)>,
    },
    /// No stable model satisfies the assumptions.
    Unsatisfiable {
        /// Indices (into the assumption slice passed in) of an unsat core: a subset of
        /// the assumptions that cannot hold together. Empty when the program has no
        /// stable model at all, independent of any assumption.
        core: Vec<usize>,
    },
    /// The solve budget ([`SolverConfig::budget`]) expired before optimality was
    /// proven.
    Budget {
        /// The best model branch-and-bound had proven when the budget expired, with
        /// the objective vector it achieved — *not* guaranteed optimal, and (unlike
        /// the [`AssumeOutcome::Optimal`] model) not deterministic across runs.
        /// `None` when the budget expired before any model was found.
        partial: Option<(Model, Vec<(i64, i64)>)>,
    },
}

/// Outcome of an optimizing solve.
#[derive(Debug, Clone)]
pub enum SolveOutcome {
    /// An optimal stable model was found.
    Optimal {
        /// The model.
        model: Model,
        /// Objective vector as `(priority, value)`, highest priority first.
        cost: Vec<(i64, i64)>,
    },
    /// The problem has no stable model.
    Unsatisfiable,
}

impl SolveOutcome {
    /// The model, if the solve was satisfiable.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SolveOutcome::Optimal { model, .. } => Some(model),
            SolveOutcome::Unsatisfiable => None,
        }
    }

    /// True when a model was found.
    pub fn is_satisfiable(&self) -> bool {
        matches!(self, SolveOutcome::Optimal { .. })
    }
}

/// Timing and size statistics for one solve, mirroring the phases measured in the paper
/// (Section VII): load (parsing the logic program), ground, and solve.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    /// Time spent parsing program text.
    pub load_time: Duration,
    /// Time spent grounding.
    pub ground_time: Duration,
    /// Time spent solving (including optimization and stability checks).
    pub solve_time: Duration,
    /// Number of input facts.
    pub facts: usize,
    /// Grounding statistics.
    pub ground: GroundStats,
    /// Number of SAT variables after translation.
    pub variables: usize,
    /// Number of clauses after translation.
    pub clauses: usize,
    /// Candidate models examined (including unstable supported models rejected by the
    /// stability check), during optimization or enumeration.
    pub models_examined: u64,
    /// Solver invocations performed by the optimizer.
    pub solver_runs: u64,
    /// Total conflicts.
    pub conflicts: u64,
    /// Loop nogoods added by the stable-model check.
    pub loop_nogoods: u64,
    /// Is the current grounding tight (no positive loop, see [`crate::stable`])?
    /// Decided once by [`Control::ground`].
    pub tight: bool,
    /// Candidate models the stable-model check examined in full: every candidate of
    /// a non-tight grounding, none of a tight one, whose supported models are all
    /// stable.
    pub stability_checks: u64,
    /// Total decisions across all solver runs.
    pub decisions: u64,
    /// Total literal propagations across all solver runs.
    pub propagations: u64,
    /// Total restarts across all solver runs.
    pub restarts: u64,
    /// Total learned clauses across all solver runs.
    pub learned: u64,
    /// Total learned clauses deleted again by the reduction policy.
    pub deleted: u64,
    /// Clauses replayed from the session clause cache (the loop nogoods of earlier
    /// solves on this grounding) into the probe solver of the most recent
    /// [`Control::minimize_core`] call. Zero when that call adopted the failed solve's
    /// retired solver instead, and never set by a solve: optimizing descents start
    /// cold and replay nothing.
    pub warm_clauses: u64,
    /// Loop nogoods transferred into this control's clause cache from the
    /// cross-request [`crate::SharedClauseStore`] (zero without a store or on a store
    /// miss).
    pub transferred_clauses: u64,
    /// Did the most recent solve end because its [`SolveBudget`] expired?
    pub budget_exhausted: bool,
}

/// The solver front end.
pub struct Control {
    config: SolverConfig,
    symbols: SymbolTable,
    program: Program,
    facts: Facts,
    /// The current grounding and its translation, set by [`Control::ground`].
    grounding: Option<(GroundProgram, Translation)>,
    stats: Stats,
    /// The reusable solver of the last UNSAT [`Control::solve_with_assumptions`]
    /// call, with the fixed `#external` units it was built with: adopted by the next
    /// [`Control::minimize_core`] as its probe (same clause database, learned clauses
    /// included) instead of rebuilding a solver from scratch. Invalidated by
    /// [`Control::ground`].
    retired_unsat: Option<(crate::sat::Solver, Vec<Lit>)>,
    /// The frozen base this control was forked from ([`FrozenControl::request`]), if
    /// any: [`Control::ground`] then grounds the facts added since the fork as a
    /// *delta* on the base instead of re-grounding from scratch.
    base: Option<Arc<FrozenInner>>,
    /// Relevance restriction for the next delta grounding (session forks only): the
    /// excluded fact owners. See [`Control::restrict_symbols`].
    restricted: crate::hasher::FxHashSet<crate::symbols::SymbolId>,
    /// Excluded first-argument integer ranges (see [`Control::restrict_int_ranges`]).
    restricted_ints: Vec<(i64, i64)>,
    /// Was any restriction *requested* (even one whose symbols did not resolve)?
    /// Grounding a non-fork with a requested restriction is a usage error — silently
    /// returning unrestricted results would be worse than failing.
    restriction_requested: bool,
    /// The session clause cache for the *current grounding*: the loop nogoods found
    /// by every solve and core-minimization probe on this control (learned clauses
    /// are not kept). Solves only write to it (their descents start cold, so answers
    /// never depend on it); it warm-starts [`Control::minimize_core`] probes that
    /// cannot adopt a retired solver, and is published to the cross-request store.
    /// Invalidated by [`Control::ground`].
    clause_cache: crate::sat::ClauseCache,
    /// The `#show`n predicates of the programs added so far, as (name, arity); empty
    /// when there is no `#show`, and then every atom is shown. A fork reads its
    /// base's instead.
    shown: Vec<(SymbolId, usize)>,
    /// Cross-request clause store shared between the controls of one session (see
    /// [`Control::set_shared_store`]): [`Control::ground`] pre-seeds the clause cache
    /// from the shelf keyed by the translation's closure digest, and every solve
    /// publishes the cache back.
    shared_store: Option<Arc<crate::sat::SharedClauseStore>>,
    /// The shelf key of the current grounding (its translation's closure digest),
    /// once a store is attached and [`Control::ground`] has run on a non-tight
    /// grounding.
    store_key: Option<u64>,
}

/// A program plus its base facts, ground once and frozen — the shared half of a
/// multi-shot session. Created by [`Control::freeze_base`]; every
/// [`FrozenControl::request`] forks a cheap per-request [`Control`] whose
/// [`Control::ground`] call grounds only that request's delta facts on top of the
/// frozen base. Clones share the underlying base (`Arc`), and a `FrozenControl` is
/// `Send + Sync`, so independent requests may be answered from many threads at once.
#[derive(Clone)]
pub struct FrozenControl {
    inner: Arc<FrozenInner>,
}

struct FrozenInner {
    config: SolverConfig,
    symbols: SymbolTable,
    base: BaseProgram,
    load_time: Duration,
    shown: Vec<(SymbolId, usize)>,
}

impl FrozenControl {
    /// Fork a per-request control: the base program, facts, and symbols are shared
    /// (the symbol table is cloned so the request may intern new constants), and only
    /// facts added to the fork are ground — incrementally — by [`Control::ground`].
    pub fn request(&self) -> Control {
        Control::with_base(
            self.inner.config.clone(),
            self.inner.symbols.clone(),
            Some(self.inner.clone()),
        )
    }

    /// Statistics of the one-time base grounding.
    pub fn base_stats(&self) -> &GroundStats {
        &self.inner.base.stats
    }

    /// Time spent parsing the program text (paid once, amortized over all requests).
    pub fn load_time(&self) -> Duration {
        self.inner.load_time
    }

    /// Total frozen ground instances available for per-request reuse.
    pub fn frozen_instances(&self) -> usize {
        self.inner.base.frozen_instances()
    }

    /// Patch the frozen base **in place** so it answers subsequent requests exactly
    /// like a fresh [`Control::freeze_base`] of the post-delta universe
    /// would — without dropping the session or re-parsing the program.
    ///
    /// `staged` must be a [`FrozenControl::request`] fork *of this base* carrying the
    /// complete post-delta input fact stream (every base fact re-emitted, not just
    /// the changed ones — the grounder diffs the streams itself and applies the
    /// cheapest strategy: a semi-naive phase-1 continuation for pure additions, an
    /// id-exact closure rebuild with frozen-instance remapping when facts were
    /// removed; see [`Grounder::patch_base`]). The fork's symbol table — a superset
    /// clone of the base's, extended with whatever new names the delta interned — is
    /// adopted wholesale, so old symbol ids keep their meaning, and so are the fork's
    /// fact owners. The partition is ignored, as in
    /// [`Control::freeze_base_partitioned`].
    ///
    /// Fails with [`AspError::Usage`] when `staged` was forked from a different base,
    /// or when the base is still shared — another clone of this `FrozenControl`, or
    /// an in-flight request fork, holds a reference. Callers that cannot rule out
    /// sharing should treat that error as "evict and re-freeze".
    pub fn patch_base<S: AsRef<str>>(
        &mut self,
        staged: Control,
        _partition: &[S],
    ) -> Result<PatchStats, AspError> {
        match &staged.base {
            Some(inner) if Arc::ptr_eq(inner, &self.inner) => {}
            _ => {
                return Err(AspError::Usage(
                    "patch_base needs a request fork of this frozen base".into(),
                ))
            }
        }
        // Destructure the fork before checking exclusivity: only its symbols and
        // facts survive. Its `base` Arc must be dropped *explicitly* — fields
        // matched by `..` live to the end of the scope, which would keep the
        // refcount at 2 and make the exclusivity check below always fail.
        let Control { symbols, facts, base, .. } = staged;
        drop(base);
        let inner = Arc::get_mut(&mut self.inner).ok_or_else(|| {
            AspError::Usage(
                "the frozen base is shared (a clone or an in-flight request fork is still \
                 alive); cannot patch in place"
                    .into(),
            )
        })?;
        inner.symbols = symbols;
        Ok(Grounder::new(&mut inner.symbols).patch_base(&mut inner.base, facts)?)
    }
}

impl Control {
    /// Create a new, empty control object.
    pub fn new(config: SolverConfig) -> Self {
        Control::with_base(config, SymbolTable::new(), None)
    }

    /// An empty control over `symbols`, forked from `base` when there is one.
    fn with_base(
        config: SolverConfig,
        symbols: SymbolTable,
        base: Option<Arc<FrozenInner>>,
    ) -> Self {
        Control {
            config,
            symbols,
            program: Program::default(),
            facts: Facts::default(),
            grounding: None,
            stats: Stats::default(),
            retired_unsat: None,
            base,
            restricted: crate::hasher::FxHashSet::default(),
            restricted_ints: Vec::new(),
            restriction_requested: false,
            clause_cache: crate::sat::ClauseCache::default(),
            shared_store: None,
            store_key: None,
            shown: Vec::new(),
        }
    }

    /// Attach the cross-request clause store shared by a session: from the next
    /// [`Control::ground`] on, this control's clause cache is pre-seeded with the
    /// loop nogoods earlier requests found on an *identical* translation (same
    /// closure digest — same formula, variable ids included), and every solve
    /// publishes its own loop nogoods back. A tight grounding has none to share and
    /// skips the store. Must be called before
    /// [`Control::ground`] to take effect for that grounding. Results are
    /// byte-identical with or without a store: optimizing solves never read the
    /// cache, so a transfer can only warm-start a [`Control::minimize_core`] probe.
    pub fn set_shared_store(&mut self, store: Arc<crate::sat::SharedClauseStore>) {
        self.shared_store = Some(store);
    }

    /// Restrict this request's view of the frozen base (session forks only) by
    /// excluding fact owners: a base fact is kept when at least one of its emissions
    /// names none of these owners (see [`Control::set_fact_owners`]), and the request
    /// grounds exactly what the kept facts derive — the program a fresh [`Control`]
    /// given only the kept facts would ground. Callers use this for *relevance
    /// restriction*: excluding every package outside a request's dependency closure
    /// shrinks the per-request program from the whole-universe base to what a
    /// one-shot solve of the same roots grounds. Names the base never interned are
    /// ignored. Must be called before [`Control::ground`].
    pub fn restrict_symbols<I, S>(&mut self, names: I)
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        self.restriction_requested = true;
        for name in names {
            if let Some(id) = self.symbols.lookup(name.as_ref()) {
                self.restricted.insert(id);
            }
        }
    }

    /// Drop base atoms whose *first* argument is an integer in one of these
    /// half-open `[start, end)` ranges from this request's view of the frozen base,
    /// with everything only they derive. Its only remaining caller is the
    /// benchmark's mirror of the session path (`perfbench/src/trace.rs`), which
    /// passes the empty list it now gets from `BaseFacts::request_exclusions`; it
    /// goes when that mirror does.
    pub fn restrict_int_ranges(&mut self, ranges: impl IntoIterator<Item = (i64, i64)>) {
        self.restriction_requested = true;
        self.restricted_ints.extend(ranges.into_iter().filter(|&(s, e)| s < e));
    }

    /// Set the owners of the facts added from now on: a request that excludes any
    /// of them ([`Control::restrict_symbols`]) drops those emissions. An empty list
    /// means global — kept by every request. A fact emitted several times is kept
    /// when any one emission is.
    pub fn set_fact_owners<S: AsRef<str>>(&mut self, owners: &[S]) {
        let owners = owners.iter().map(|o| self.symbols.intern(o.as_ref())).collect();
        self.facts.set_owners(owners);
    }

    /// Parse and add a logic program.
    pub fn add_program(&mut self, text: &str) -> Result<(), AspError> {
        if self.base.is_some() {
            return Err(AspError::Usage(
                "the program is frozen; per-request controls only accept facts".into(),
            ));
        }
        let start = Instant::now();
        let parsed = parse_program(text)?;
        for (name, arity) in &parsed.shows {
            let shown = (self.symbols.intern(name), *arity);
            if !self.shown.contains(&shown) {
                self.shown.push(shown);
            }
        }
        self.program.extend(parsed);
        self.stats.load_time += start.elapsed();
        Ok(())
    }

    /// Ground the program and the facts added so far *once* and freeze the result:
    /// the returned [`FrozenControl`] answers many independent requests, each of which
    /// re-grounds only its own delta facts (clingo's multi-shot `ground`/`solve`
    /// amortization). The base grounding is complete — phase-1 closure, every rule
    /// instance and minimize condition recorded in full, filed by fact owner — so a
    /// request's [`Control::ground`] does work proportional to the part of the base
    /// it keeps and to what its facts touch, not to the whole base program.
    pub fn freeze_base(mut self) -> Result<FrozenControl, AspError> {
        if self.base.is_some() {
            return Err(AspError::Usage("cannot freeze a per-request control".into()));
        }
        let base = Grounder::new(&mut self.symbols).ground_base(&self.program, self.facts)?;
        Ok(FrozenControl {
            inner: Arc::new(FrozenInner {
                config: self.config,
                symbols: self.symbols,
                base,
                load_time: self.stats.load_time,
                shown: self.shown,
            }),
        })
    }

    /// [`Control::freeze_base`], for callers written against the owner partition
    /// this used to take. Owner buckets now come from the fact owners
    /// ([`Control::set_fact_owners`]), so the partition is ignored.
    pub fn freeze_base_partitioned<S: AsRef<str>>(
        self,
        _partition: &[S],
    ) -> Result<FrozenControl, AspError> {
        self.freeze_base()
    }

    /// Add one input fact.
    pub fn add_fact(&mut self, pred: &str, args: &[Value]) {
        let pred = self.symbols.intern(pred);
        let args = args
            .iter()
            .map(|v| match v {
                Value::Str(s) => Val::Sym(self.symbols.intern(s)),
                Value::Int(i) => Val::Int(*i),
            })
            .collect();
        self.facts.push(GroundAtom::new(pred, args));
    }

    /// Number of facts added so far.
    pub fn fact_count(&self) -> usize {
        self.facts.atoms.len()
    }

    /// An order-sensitive digest of every fact added so far, computed over predicate
    /// and argument *names* (not interned ids). Two controls fed the same fact stream
    /// produce the same digest, so this is the cache key for a frozen base program:
    /// a changed repository, site, or buildcache changes the digest.
    pub fn fact_digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = crate::hasher::FxHasher::default();
        for fact in &self.facts.atoms {
            self.symbols.name(fact.pred).hash(&mut hasher);
            for v in &fact.args {
                match v {
                    Val::Int(i) => {
                        0u8.hash(&mut hasher);
                        i.hash(&mut hasher);
                    }
                    Val::Sym(s) => {
                        1u8.hash(&mut hasher);
                        self.symbols.name(*s).hash(&mut hasher);
                    }
                }
            }
            0xFEu8.hash(&mut hasher);
        }
        hasher.finish()
    }

    /// Ground the program together with the facts added so far. On a per-request
    /// control ([`FrozenControl::request`]) this grounds the added facts as a delta on
    /// the frozen base instead of re-grounding from scratch.
    pub fn ground(&mut self) -> Result<(), AspError> {
        let start = Instant::now();
        if self.base.is_none() && self.restriction_requested {
            // Silently ignoring a requested restriction would hand back unrestricted
            // results; restriction only means something on a session fork.
            return Err(AspError::Usage(
                "restrict_symbols/restrict_int_ranges require a control forked from a \
                 frozen base"
                    .into(),
            ));
        }
        let ground = match &self.base {
            Some(inner) => Grounder::new(&mut self.symbols).ground_delta(
                &inner.base,
                &self.restricted,
                &self.restricted_ints,
                &self.facts,
            )?,
            None => Grounder::new(&mut self.symbols).ground(&self.program, &self.facts.atoms)?,
        };
        let translation = translate(&ground);
        self.stats.tight = ground.is_tight();
        self.stats.ground_time = start.elapsed();
        self.stats.facts = self.facts.atoms.len();
        self.stats.ground = ground.stats.clone();
        self.stats.variables = translation.num_vars;
        self.stats.clauses = translation.clauses.len();
        self.retired_unsat = None; // built against the previous translation
        self.clause_cache = crate::sat::ClauseCache::default(); // ditto
        self.stats.transferred_clauses = 0;
        self.store_key = None;
        // A tight grounding has no loop nogoods to share, so it skips the digest, the
        // fetch and the publish.
        if let Some(store) = self.shared_store.as_ref().filter(|_| !self.stats.tight) {
            // Cross-request transfer: pre-seed the fresh cache with the clauses
            // sibling requests found on an identical translation. Equal digest ⇒
            // identical formula ⇒ every loop nogood holds verbatim.
            let key = translation.digest();
            self.store_key = Some(key);
            self.stats.transferred_clauses = store.fetch_into(key, &mut self.clause_cache) as u64;
        }
        self.grounding = Some((ground, translation));
        Ok(())
    }

    /// Solve for the optimal stable model. Under an expired [`SolveBudget`] the best
    /// model proven so far is returned (marked by [`Stats::budget_exhausted`]); a
    /// budget that expired before any model was found is an [`AspError::Optimize`].
    pub fn solve(&mut self) -> Result<SolveOutcome, AspError> {
        match self.solve_with_assumptions(&[])? {
            AssumeOutcome::Optimal { model, cost } => Ok(SolveOutcome::Optimal { model, cost }),
            AssumeOutcome::Unsatisfiable { .. } => Ok(SolveOutcome::Unsatisfiable),
            AssumeOutcome::Budget { partial: Some((model, cost)) } => {
                Ok(SolveOutcome::Optimal { model, cost })
            }
            AssumeOutcome::Budget { partial: None } => Err(AspError::Optimize(OptimizeError {
                message: "solve budget exhausted before any model was found".into(),
            })),
        }
    }

    /// Mutable access to the solver configuration, for per-request tuning between
    /// solves (the durable batch runner's retry policy re-seeds the solver and
    /// enlarges the budget this way). Takes effect at the next solve; the grounding
    /// is unaffected.
    pub fn solver_config_mut(&mut self) -> &mut SolverConfig {
        &mut self.config
    }

    /// Solve for the optimal stable model under the given assumptions (clingo's
    /// `solve(assumptions=...)`). On UNSAT the outcome carries an *unsat core*: indices
    /// of a subset of `assumptions` that cannot hold together, extracted by tracking
    /// assumption decisions through conflict analysis. The core is sound (its members
    /// really are jointly unsatisfiable) but not necessarily minimal — pass it to
    /// [`Control::minimize_core`] for a minimal explanation.
    pub fn solve_with_assumptions(
        &mut self,
        assumptions: &[Assumption],
    ) -> Result<AssumeOutcome, AspError> {
        self.solve_with_assumptions_floor(assumptions, i64::MIN)
    }

    /// [`Control::solve_with_assumptions`] with a `priority_floor`: minimize levels
    /// below the floor are neither optimized nor reported in the objective vector.
    /// Together with `#external` guard atoms this makes one ground program serve
    /// differently-parameterized solves — e.g. the concretizer's diagnostics flip a
    /// `relax_mode` assumption and raise the floor to optimize only the error levels,
    /// with no regrounding and no solver rebuild between the phases.
    pub fn solve_with_assumptions_floor(
        &mut self,
        assumptions: &[Assumption],
        priority_floor: i64,
    ) -> Result<AssumeOutcome, AspError> {
        let (ground, translation) = grounded(&self.grounding, "solve")?;
        let start = Instant::now();
        // Map assumptions onto SAT literals. Atoms the grounder never saw are false in
        // every model: a positive assumption on one is trivially refuted by itself, a
        // negative one is trivially satisfied (and skipped). Assumptions on
        // `#external` guard atoms are split off as *fixed* literals — root-level unit
        // clauses in every solver of this solve (clingo's `assign_external`) — so the
        // guard's consequences propagate once at the root instead of being re-decided
        // per solver run, and guards never pollute unsat cores.
        let mut lits: Vec<Lit> = Vec::with_capacity(assumptions.len());
        let mut fixed: Vec<Lit> = Vec::new();
        let mut fixed_index: Vec<usize> = Vec::new();
        let mut lit_index: Vec<(Lit, usize)> = Vec::with_capacity(assumptions.len());
        for (i, a) in assumptions.iter().enumerate() {
            match self.assumption_lit(ground, a) {
                Some(lit) if ground.atoms.is_external(lit.var() as crate::symbols::AtomId) => {
                    // Contradictory guard assignments would turn into conflicting
                    // root units — an empty-core UNSAT indistinguishable from
                    // structural infeasibility. Blame the pair instead.
                    if let Some(j) = fixed.iter().position(|&f| f == lit.negate()) {
                        self.stats.solve_time += start.elapsed();
                        return Ok(AssumeOutcome::Unsatisfiable { core: vec![fixed_index[j], i] });
                    }
                    fixed.push(lit);
                    fixed_index.push(i);
                }
                Some(lit) => {
                    lits.push(lit);
                    lit_index.push((lit, i));
                }
                None if a.positive => {
                    self.stats.solve_time += start.elapsed();
                    return Ok(AssumeOutcome::Unsatisfiable { core: vec![i] });
                }
                None => {}
            }
        }
        let mut cache = std::mem::take(&mut self.clause_cache);
        self.stats.budget_exhausted = false;
        let mut retired = None;
        // The guard owns the deadline monitor; dropping it (on every exit path from
        // this call) cancels the monitor, so the budget is scoped to this one solve.
        let guard = self.config.budget.filter(|b| b.is_bounded()).map(|b| BudgetGuard::new(&b));
        let result = solve_optimal_assuming(
            ground,
            translation,
            &self.config.sat_config(),
            &lits,
            &fixed,
            priority_floor,
            &mut retired,
            &mut cache,
            guard.as_ref().map(|g| &g.state),
        );
        drop(guard);
        self.clause_cache = cache;
        self.publish_cache();
        let result = result?;
        self.stats.solve_time += start.elapsed();
        match result {
            OptOutcome::Optimal(optimal) => {
                // A satisfiable solve supersedes any stale retired solver: nothing
                // will minimize a core now, so don't hold a clause database alive.
                self.retired_unsat = None;
                self.record_opt_stats(&optimal);
                let model = self.extract_model(&optimal.model);
                Ok(AssumeOutcome::Optimal { model, cost: optimal.cost })
            }
            OptOutcome::Unsat { core, sat } => {
                // Keep the failed run's solver (and the guard units it was built
                // with) for the follow-up core minimization.
                self.retired_unsat = retired.map(|s| (s, fixed));
                self.record_sat_stats(&sat);
                let mut indices: Vec<usize> = core
                    .iter()
                    .filter_map(|l| lit_index.iter().find(|(cl, _)| cl == l).map(|&(_, i)| i))
                    .collect();
                indices.sort_unstable();
                indices.dedup();
                Ok(AssumeOutcome::Unsatisfiable { core: indices })
            }
            OptOutcome::Budget { partial, sat } => {
                // An interrupted solve leaves nothing worth minimizing a core from.
                self.retired_unsat = None;
                self.record_sat_stats(&sat);
                self.stats.budget_exhausted = true;
                let partial = partial.map(|opt| {
                    self.record_opt_stats(&opt);
                    (self.extract_model(&opt.model), opt.cost)
                });
                Ok(AssumeOutcome::Budget { partial })
            }
        }
    }

    /// Deletion-based minimization of an unsat core returned by
    /// [`Control::solve_with_assumptions`]: repeatedly drop one member and re-test
    /// satisfiability of the rest; members whose removal makes the problem satisfiable
    /// are *necessary* and kept, the others are deleted. Each test is a plain stable-
    /// model probe (no optimization) consuming only the SAT/UNSAT verdict — a fact
    /// about the formula — so the minimized core is a deterministic function of the
    /// input core, independent of warm starts and cross-request clause transfers.
    /// Returns the minimized core (indices into `assumptions`) and the number of probe
    /// solves performed.
    ///
    /// `pinned` assumptions are held in every probe but are never candidates for
    /// deletion and never appear in the result — the caller uses them for `#external`
    /// guard atoms (e.g. `relax_mode` pinned false) whose truth parameterizes the
    /// program rather than expressing a requirement worth blaming. Without the pin a
    /// probe could "satisfy" the remaining core merely by flipping the guard, deleting
    /// genuinely necessary members.
    pub fn minimize_core(
        &mut self,
        assumptions: &[Assumption],
        core: &[usize],
        pinned: &[Assumption],
    ) -> Result<(Vec<usize>, u64), AspError> {
        let retired = self.retired_unsat.take();
        let (ground, translation) = grounded(&self.grounding, "minimize_core")?;
        let start = Instant::now();
        let mut core: Vec<usize> = core.to_vec();
        if core.is_empty() {
            // Unsat without any assumption involved: nothing to minimize, and no
            // probe solver worth building.
            return Ok((core, 0));
        }
        let mut rounds = 0u64;
        // One solver serves every deletion probe: assumptions are decisions, not
        // clauses, so the clause database (and every learned clause and loop nogood)
        // carries over between probes instead of being rebuilt per round.
        // Pinned guards are asserted as root-level units in the probe solver itself —
        // held in every probe, never deletable, never blamed. When the preceding
        // UNSAT solve left its solver behind with the same guard units, adopt it
        // outright: same clause database, no rebuild, and the clauses learned while
        // refuting the assumptions prune the probes too. Otherwise the session
        // cache's loop nogoods warm-start a fresh one.
        let pinned_lits: Vec<Lit> =
            pinned.iter().filter_map(|a| self.assumption_lit(ground, a)).collect();
        let mut cache = std::mem::take(&mut self.clause_cache);
        self.stats.warm_clauses = 0;
        let mut solver = match retired {
            Some((solver, fixed)) if fixed == pinned_lits => solver,
            _ => {
                self.stats.warm_clauses = cache.len() as u64;
                build_solver(
                    translation,
                    &self.config.sat_config(),
                    &pinned_lits,
                    &[],
                    &cache,
                    None,
                )
            }
        };
        let mut checker = StabilityChecker::new(ground);
        // The diagnostics probes honour the same per-solve budget as the solves: an
        // expired budget aborts the minimization (keeping the current core — still a
        // sound explanation, merely not minimal) instead of probing unboundedly.
        let guard = self.config.budget.filter(|b| b.is_bounded()).map(|b| BudgetGuard::new(&b));
        if let Some(g) = &guard {
            solver.set_budget(Some(Arc::clone(&g.state)));
        }
        let mut i = 0;
        while i < core.len() {
            // Probe the core with member `i` removed (pinned guards always held).
            let mut trial_lits: Vec<Lit> = Vec::with_capacity(core.len() - 1);
            for (j, &idx) in core.iter().enumerate() {
                if j == i {
                    continue;
                }
                if let Some(lit) = self.assumption_lit(ground, &assumptions[idx]) {
                    trial_lits.push(lit);
                }
                // Trivially-failed members cannot be dropped by this probe path; they
                // were already singled out before a search-derived core existed.
            }
            rounds += 1;
            // Only the probe solver's own counters are reported, not the run counts.
            let mut runs = RunStats::default();
            let verdict = if ground.trivially_unsat {
                StableOutcome::Unsat
            } else {
                run_stable(&mut solver, ground, &mut checker, &trial_lits, &mut runs, &mut cache)
            };
            match verdict {
                StableOutcome::Unsat => {
                    // Still unsat without member `i`: it is redundant — drop it and
                    // probe the next candidate at the same position. Only the UNSAT
                    // *verdict* is consumed, never the probe's own sub-core: a
                    // final-conflict core depends on the probe's learned-clause
                    // trajectory (warm starts, cross-request transfers), while the
                    // verdict is a fact about the formula — so the minimized core is
                    // a deterministic function of the input core alone.
                    core.remove(i);
                }
                StableOutcome::Model(_) => i += 1, // member `i` is necessary
                StableOutcome::Interrupted => {
                    // Budget expired mid-minimization: keep the remaining core as-is
                    // (every member not yet probed stays). It is still sound.
                    self.stats.budget_exhausted = true;
                    break;
                }
            }
        }
        drop(guard);
        self.clause_cache = cache;
        self.publish_cache();
        self.record_sat_stats(&solver.stats);
        self.stats.solve_time += start.elapsed();
        Ok((core, rounds))
    }

    /// Publish the session clause cache to the cross-request store (no-op without an
    /// attached store or before grounding).
    fn publish_cache(&self) {
        if let (Some(store), Some(key)) = (&self.shared_store, self.store_key) {
            store.publish(key, &self.clause_cache);
        }
    }

    /// The SAT literal for an assumption, or `None` when the assumed atom does not
    /// exist in the ground program (it is then false in every model).
    fn assumption_lit(&self, ground: &GroundProgram, a: &Assumption) -> Option<Lit> {
        let pred = self.symbols.lookup(&a.pred)?;
        let mut args = Vec::with_capacity(a.args.len());
        for v in &a.args {
            args.push(match v {
                Value::Str(s) => Val::Sym(self.symbols.lookup(s)?),
                Value::Int(i) => Val::Int(*i),
            });
        }
        let id = ground.atoms.get(&GroundAtom::new(pred, args))?;
        Some(if a.positive {
            Translation::atom_lit(id)
        } else {
            Translation::atom_lit(id).negate()
        })
    }

    /// Enumerate up to `limit` stable models without optimization.
    pub fn solve_models(&mut self, limit: usize) -> Result<Vec<Model>, AspError> {
        let (ground, translation) = grounded(&self.grounding, "solve_models")?;
        let start = Instant::now();
        let (models, sat, examined) =
            enumerate_models_with_stats(ground, translation, &self.config.sat_config(), limit);
        self.stats.solve_time += start.elapsed();
        self.record_sat_stats(&sat);
        self.stats.models_examined = examined;
        // Enumeration checks every candidate in full unless the grounding is tight.
        self.stats.stability_checks = if self.stats.tight { 0 } else { examined };
        Ok(models.iter().map(|m| self.extract_model(m)).collect())
    }

    /// The symbol table the ground program's atoms are interned in (render an atom
    /// with [`GroundAtom::display`]).
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Statistics for the phases run so far.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Access to the ground program (available after [`Control::ground`]).
    pub fn ground_program(&self) -> Option<&GroundProgram> {
        self.grounding.as_ref().map(|(ground, _)| ground)
    }

    fn record_opt_stats(&mut self, optimal: &OptimalModel) {
        self.stats.models_examined = optimal.models_examined;
        self.stats.solver_runs = optimal.solver_runs;
        self.stats.loop_nogoods = optimal.loop_nogoods;
        self.stats.stability_checks = optimal.stability_checks;
        self.record_sat_stats(&optimal.sat);
    }

    /// Mirror a solver's aggregate statistics into the flat [`Stats`] fields (the one
    /// place to extend when [`crate::sat::SatStats`] grows a counter).
    fn record_sat_stats(&mut self, sat: &crate::sat::SatStats) {
        self.stats.conflicts = sat.conflicts;
        self.stats.decisions = sat.decisions;
        self.stats.propagations = sat.propagations;
        self.stats.restarts = sat.restarts;
        self.stats.learned = sat.learned;
        self.stats.deleted = sat.deleted;
    }

    /// The model's shown true atoms. Hidden atoms are skipped before any string is
    /// copied.
    fn extract_model(&self, model: &[bool]) -> Model {
        let (ground, _) = self.grounding.as_ref().expect("grounded");
        let shown = self.base.as_ref().map_or(&self.shown, |base| &base.shown);
        let mut atoms = Vec::new();
        for (id, atom) in ground.atoms.iter() {
            if !model[id as usize] {
                continue;
            }
            if !shown.is_empty() && !shown.contains(&(atom.pred, atom.args.len())) {
                continue;
            }
            let pred = self.symbols.name(atom.pred);
            if pred.starts_with("__") {
                continue; // internal auxiliary atoms
            }
            let pred = pred.to_string();
            let args = atom
                .args
                .iter()
                .map(|v| match v {
                    Val::Int(i) => Value::Int(*i),
                    Val::Sym(s) => Value::Str(self.symbols.name(*s).to_string()),
                })
                .collect();
            atoms.push((pred, args));
        }
        Model { atoms }
    }
}

/// The grounding and its translation, or the usage error of calling `call` before
/// [`Control::ground`].
fn grounded<'a>(
    grounding: &'a Option<(GroundProgram, Translation)>,
    call: &str,
) -> Result<(&'a GroundProgram, &'a Translation), AspError> {
    grounding
        .as_ref()
        .map(|(ground, translation)| (ground, translation))
        .ok_or_else(|| AspError::Usage(format!("ground() must be called before {call}()")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_fact_program_solve() {
        let mut ctl = Control::new(SolverConfig::default());
        ctl.add_fact("node", &["hdf5".into()]);
        ctl.add_fact("depends_on", &["hdf5".into(), "zlib".into()]);
        ctl.add_program("node(D) :- node(P), depends_on(P, D).").unwrap();
        ctl.ground().unwrap();
        let outcome = ctl.solve().unwrap();
        let model = outcome.model().expect("satisfiable");
        assert!(model.contains("node", &["zlib".into()]));
        assert!(ctl.stats().ground_time > Duration::ZERO);
    }

    #[test]
    fn optimization_cost_is_reported() {
        let mut ctl = Control::new(SolverConfig::default());
        ctl.add_program(
            r#"
            node(p).
            possible_version(p, "2.0", 0).
            possible_version(p, "1.0", 1).
            1 { version(P, V) : possible_version(P, V, W) } 1 :- node(P).
            version_weight(P, W) :- version(P, V), possible_version(P, V, W).
            #minimize{ W@3,P : version_weight(P, W) }.
            "#,
        )
        .unwrap();
        ctl.ground().unwrap();
        match ctl.solve().unwrap() {
            SolveOutcome::Optimal { model, cost } => {
                assert!(model.contains("version", &["p".into(), "2.0".into()]));
                assert_eq!(cost, vec![(3, 0)]);
            }
            SolveOutcome::Unsatisfiable => panic!("expected a model"),
        }
    }

    #[test]
    fn unsatisfiable_is_reported() {
        let mut ctl = Control::new(SolverConfig::default());
        ctl.add_program("p. :- p.").unwrap();
        ctl.ground().unwrap();
        assert!(!ctl.solve().unwrap().is_satisfiable());
    }

    #[test]
    fn presets_solve_the_same_problem() {
        for preset in Preset::all() {
            let mut ctl = Control::new(SolverConfig::preset(preset));
            ctl.add_program(
                r#"
                1 { pick(a); pick(b); pick(c) } 1.
                cost(a, 2). cost(b, 1). cost(c, 3).
                paid(W) :- pick(P), cost(P, W).
                #minimize{ W@1 : paid(W) }.
                "#,
            )
            .unwrap();
            ctl.ground().unwrap();
            match ctl.solve().unwrap() {
                SolveOutcome::Optimal { model, cost } => {
                    assert!(model.contains("pick", &["b".into()]), "preset {preset:?}");
                    assert_eq!(cost, vec![(1, 1)]);
                }
                SolveOutcome::Unsatisfiable => panic!("expected a model"),
            }
        }
    }

    #[test]
    fn assumptions_select_between_models() {
        let mut ctl = Control::new(SolverConfig::default());
        ctl.add_program("1 { pick(a); pick(b) } 1.").unwrap();
        ctl.ground().unwrap();
        let outcome =
            ctl.solve_with_assumptions(&[Assumption::holds("pick", &["b".into()])]).unwrap();
        match outcome {
            AssumeOutcome::Optimal { model, .. } => {
                assert!(model.contains("pick", &["b".into()]));
                assert!(!model.contains("pick", &["a".into()]));
            }
            AssumeOutcome::Unsatisfiable { .. } => panic!("expected a model"),
            AssumeOutcome::Budget { .. } => panic!("no budget installed"),
        }
    }

    #[test]
    fn failed_assumptions_report_a_core() {
        // Assuming both picks violates the exactly-one choice; the unrelated third
        // assumption must not be blamed.
        let mut ctl = Control::new(SolverConfig::default());
        ctl.add_program("1 { pick(a); pick(b) } 1. { free(c) }.").unwrap();
        ctl.ground().unwrap();
        let assumptions = [
            Assumption::holds("free", &["c".into()]),
            Assumption::holds("pick", &["a".into()]),
            Assumption::holds("pick", &["b".into()]),
        ];
        match ctl.solve_with_assumptions(&assumptions).unwrap() {
            AssumeOutcome::Unsatisfiable { core } => {
                assert_eq!(core, vec![1, 2]);
                let (minimized, rounds) = ctl.minimize_core(&assumptions, &core, &[]).unwrap();
                assert_eq!(minimized, vec![1, 2]);
                assert!(rounds >= 2, "each member must be probed: {rounds}");
            }
            AssumeOutcome::Optimal { .. } => panic!("expected unsat"),
            AssumeOutcome::Budget { .. } => panic!("no budget installed"),
        }
    }

    #[test]
    fn core_minimization_drops_redundant_members() {
        // q is forced by fact; assuming not q is unsat all by itself, so the other
        // assumptions must be minimized away.
        let mut ctl = Control::new(SolverConfig::default());
        ctl.add_program("q. { p(a); p(b) }.").unwrap();
        ctl.ground().unwrap();
        let assumptions = [
            Assumption::holds("p", &["a".into()]),
            Assumption::holds("p", &["b".into()]),
            Assumption::fails("q", &[]),
        ];
        match ctl.solve_with_assumptions(&assumptions).unwrap() {
            AssumeOutcome::Unsatisfiable { core } => {
                let (minimized, _rounds) = ctl.minimize_core(&assumptions, &core, &[]).unwrap();
                assert_eq!(minimized, vec![2], "only the ~q assumption is to blame");
            }
            AssumeOutcome::Optimal { .. } => panic!("expected unsat"),
            AssumeOutcome::Budget { .. } => panic!("no budget installed"),
        }
    }

    #[test]
    fn externally_supportable_loop_atom_is_satisfiable_under_assumption() {
        // Regression: a, b support each other but a is also externally supported by
        // the free choice x. Assuming a must find the stable model {x, a, b}; an
        // unsound bare loop nogood (no external-support witness) would report UNSAT
        // after rejecting the unstable {a, b} candidate.
        let mut ctl = Control::new(SolverConfig::default());
        ctl.add_program("a :- b. b :- a. a :- x. { x }.").unwrap();
        ctl.ground().unwrap();
        match ctl.solve_with_assumptions(&[Assumption::holds("a", &[])]).unwrap() {
            AssumeOutcome::Optimal { model, .. } => {
                assert!(model.contains("a", &[]));
                assert!(model.contains("x", &[]), "a is founded only through x");
            }
            AssumeOutcome::Unsatisfiable { core } => {
                panic!("satisfiable assumption reported unsat with core {core:?}")
            }
            AssumeOutcome::Budget { .. } => panic!("no budget installed"),
        }
        // And enumeration must see both stable models: {} and {x, a, b}.
        let mut ctl = Control::new(SolverConfig::default());
        ctl.add_program("a :- b. b :- a. a :- x. { x }.").unwrap();
        ctl.ground().unwrap();
        assert_eq!(ctl.solve_models(8).unwrap().len(), 2);
    }

    #[test]
    fn assuming_an_unknown_atom_true_is_a_singleton_core() {
        let mut ctl = Control::new(SolverConfig::default());
        ctl.add_program("p.").unwrap();
        ctl.ground().unwrap();
        let assumptions = [Assumption::holds("nonexistent", &["x".into()])];
        match ctl.solve_with_assumptions(&assumptions).unwrap() {
            AssumeOutcome::Unsatisfiable { core } => assert_eq!(core, vec![0]),
            AssumeOutcome::Optimal { .. } => panic!("expected unsat"),
            AssumeOutcome::Budget { .. } => panic!("no budget installed"),
        }
        // Assuming it *false* is trivially fine.
        let assumptions = [Assumption::fails("nonexistent", &["x".into()])];
        assert!(matches!(
            ctl.solve_with_assumptions(&assumptions).unwrap(),
            AssumeOutcome::Optimal { .. }
        ));
    }

    #[test]
    fn priority_floor_skips_low_priority_levels() {
        let mut ctl = Control::new(SolverConfig::default());
        ctl.add_program(
            r#"
            1 { pick(a); pick(b) } 1.
            important(a, 0). important(b, 1).
            minor(a, 1). minor(b, 0).
            icost(W) :- pick(P), important(P, W).
            mcost(W) :- pick(P), minor(P, W).
            #minimize{ W@200 : icost(W) }.
            #minimize{ W@1 : mcost(W) }.
            "#,
        )
        .unwrap();
        ctl.ground().unwrap();
        match ctl.solve_with_assumptions_floor(&[], 100).unwrap() {
            AssumeOutcome::Optimal { model, cost } => {
                assert!(model.contains("pick", &["a".into()]));
                // Only the level above the floor appears in the objective vector.
                assert_eq!(cost, vec![(200, 0)]);
            }
            other => panic!("expected a model, got {other:?}"),
        }
    }

    #[test]
    fn external_guard_flips_between_solves_without_regrounding() {
        // One grounding, two interpretations: with `relax` assumed false the guarded
        // constraint is active (picking the flagged option is unsat); with `relax`
        // assumed true the constraint is disabled and the violation is minimized.
        let mut ctl = Control::new(SolverConfig::default());
        ctl.add_program(
            r#"
            #external relax.
            1 { pick(a); pick(b) } 1.
            flagged(a).
            violation(P) :- pick(P), flagged(P).
            :- violation(P), not relax.
            #minimize{ 1@1000,P : violation(P), relax }.
            "#,
        )
        .unwrap();
        ctl.ground().unwrap();
        let pick_a = Assumption::holds("pick", &["a".into()]);
        // Hard mode: pick(a) violates, so it is refuted and the core names it.
        let hard = [pick_a.clone(), Assumption::fails("relax", &[])];
        match ctl.solve_with_assumptions(&hard).unwrap() {
            AssumeOutcome::Unsatisfiable { core } => assert!(core.contains(&0), "{core:?}"),
            AssumeOutcome::Optimal { .. } => panic!("hard mode must refute pick(a)"),
            AssumeOutcome::Budget { .. } => panic!("no budget installed"),
        }
        // Hard mode without the offending pick is satisfiable and must choose b.
        match ctl.solve_with_assumptions(&[Assumption::fails("relax", &[])]).unwrap() {
            AssumeOutcome::Optimal { model, cost } => {
                assert!(model.contains("pick", &["b".into()]));
                assert!(!model.contains("relax", &[]));
                assert_eq!(cost, vec![(1000, 0)]);
            }
            AssumeOutcome::Unsatisfiable { .. } => panic!("expected a model"),
            AssumeOutcome::Budget { .. } => panic!("no budget installed"),
        }
        // Relax mode on the SAME control (no second ground call): the violation is
        // admitted and reported by the minimize level.
        let ground_time = ctl.stats().ground_time;
        let relaxed = [pick_a, Assumption::holds("relax", &[])];
        match ctl.solve_with_assumptions_floor(&relaxed, 1000).unwrap() {
            AssumeOutcome::Optimal { model, cost } => {
                assert!(model.contains("violation", &["a".into()]));
                assert_eq!(cost, vec![(1000, 1)]);
            }
            AssumeOutcome::Unsatisfiable { .. } => panic!("relax mode must admit the model"),
            AssumeOutcome::Budget { .. } => panic!("no budget installed"),
        }
        assert_eq!(ctl.stats().ground_time, ground_time, "no regrounding may happen");
    }

    #[test]
    fn true_external_is_founded_not_unfounded() {
        // `a` is supported only through the external guard: assuming the guard true
        // must yield the stable model {g, a} — a stability check that treated g as
        // underivable would refute it with a loop nogood.
        let mut ctl = Control::new(SolverConfig::default());
        ctl.add_program("#external g. a :- g.").unwrap();
        ctl.ground().unwrap();
        match ctl.solve_with_assumptions(&[Assumption::holds("g", &[])]).unwrap() {
            AssumeOutcome::Optimal { model, .. } => {
                assert!(model.contains("g", &[]));
                assert!(model.contains("a", &[]));
            }
            AssumeOutcome::Unsatisfiable { core } => panic!("unexpected unsat, core {core:?}"),
            AssumeOutcome::Budget { .. } => panic!("no budget installed"),
        }
        // Unassumed, the guard stays free; both truth values admit stable models.
        assert_eq!(ctl.solve_models(8).unwrap().len(), 2);
    }

    #[test]
    fn solves_start_cold_and_only_core_probes_replay_the_cache() {
        // a and b support each other; a is also supported through the free choice x.
        // Solving under the assumption a must reject the unstable {a, b} candidate
        // with a loop nogood. The nogood lands in the session clause cache, but a
        // second solve on the SAME control must not replay it: it re-derives it along
        // the identical trajectory.
        let mut ctl = Control::new(SolverConfig::default());
        ctl.add_program("a :- b. b :- a. a :- x. { x; c }. :- a, c. #minimize{ 1@1 : x }.")
            .unwrap();
        ctl.ground().unwrap();
        let a = [Assumption::holds("a", &[])];
        let trajectory =
            |s: &Stats| (s.models_examined, s.conflicts, s.solver_runs, s.loop_nogoods);
        assert!(matches!(ctl.solve_with_assumptions(&a).unwrap(), AssumeOutcome::Optimal { .. }));
        let first = trajectory(ctl.stats());
        assert!(first.3 > 0, "the first solve must discover the loop nogood");
        assert!(matches!(ctl.solve_with_assumptions(&a).unwrap(), AssumeOutcome::Optimal { .. }));
        assert_eq!(trajectory(ctl.stats()), first, "the second solve must repeat the first");
        assert_eq!(ctl.stats().warm_clauses, 0, "a descent replays nothing");
        // The last solve was satisfiable, so no retired solver is left to adopt: the
        // core-minimization probe is built fresh and warm-starts from the cache.
        let ac = [Assumption::holds("a", &[]), Assumption::holds("c", &[])];
        let (core, _rounds) = ctl.minimize_core(&ac, &[0, 1], &[]).unwrap();
        assert_eq!(core, vec![0, 1]);
        assert!(ctl.stats().warm_clauses > 0, "a fresh probe must replay the cache");
    }

    #[test]
    fn pinned_assumptions_survive_core_minimization() {
        // Without the pin, every deletion probe could flip `g` true and disable the
        // guarded constraint, wrongly deleting the genuinely necessary member p.
        let mut ctl = Control::new(SolverConfig::default());
        ctl.add_program("#external g. { p; q }. :- p, not g.").unwrap();
        ctl.ground().unwrap();
        let assumptions = [Assumption::holds("p", &[]), Assumption::holds("q", &[])];
        let pinned = [Assumption::fails("g", &[])];
        let all: Vec<Assumption> =
            assumptions.iter().cloned().chain(pinned.iter().cloned()).collect();
        let core = match ctl.solve_with_assumptions(&all).unwrap() {
            AssumeOutcome::Unsatisfiable { core } => core,
            AssumeOutcome::Optimal { .. } => panic!("expected unsat"),
            AssumeOutcome::Budget { .. } => panic!("no budget installed"),
        };
        let search_core: Vec<usize> = core.into_iter().filter(|&i| i < 2).collect();
        let (minimized, _rounds) = ctl.minimize_core(&assumptions, &search_core, &pinned).unwrap();
        assert_eq!(minimized, vec![0], "only the p assumption is to blame");
    }

    #[test]
    fn contradictory_external_assumptions_are_blamed() {
        // Assigning a guard both ways must name the conflicting pair, not collapse
        // into an empty-core UNSAT that reads as structural infeasibility.
        let mut ctl = Control::new(SolverConfig::default());
        ctl.add_program("#external g. { p }.").unwrap();
        ctl.ground().unwrap();
        let a =
            [Assumption::holds("g", &[]), Assumption::holds("p", &[]), Assumption::fails("g", &[])];
        match ctl.solve_with_assumptions(&a).unwrap() {
            AssumeOutcome::Unsatisfiable { core } => assert_eq!(core, vec![0, 2]),
            AssumeOutcome::Optimal { .. } => panic!("expected unsat"),
            AssumeOutcome::Budget { .. } => panic!("no budget installed"),
        }
    }

    #[test]
    fn external_must_be_ground() {
        let mut ctl = Control::new(SolverConfig::default());
        assert!(matches!(ctl.add_program("#external g(X)."), Err(AspError::Parse(_))));
    }

    #[test]
    fn solve_before_ground_is_an_error() {
        let mut ctl = Control::new(SolverConfig::default());
        ctl.add_program("p.").unwrap();
        assert!(matches!(ctl.solve(), Err(AspError::Usage(_))));
    }

    /// A miniature concretizer-shaped program: base facts describe the universe,
    /// request facts pick roots; derivations, negation, conditions, choices, and
    /// minimize levels are all exercised so delta grounding is compared against
    /// one-shot grounding on every feature.
    const SESSION_LP: &str = r#"
        node(D) :- node(P), depends_on(P, D).
        needed(P) :- root(P).
        needed(D) :- node(P), depends_on(P, D).
        violation(P) :- node(P), not needed(P).
        :- violation(P).
        1 { version(P, V) : version_declared(P, V, W) } 1 :- node(P), has_version(P).
        has_version(P) :- version_declared(P, V, W).
        version_weight(P, W) :- version(P, V), version_declared(P, V, W).
        #minimize{ W@3,P : version_weight(P, W) }.
        #minimize{ 1@1,P : node(P), not root(P) }.
        node(P) :- root(P).
    "#;

    fn session_base_facts(ctl: &mut Control) {
        for (p, d) in [("a", "b"), ("b", "c"), ("x", "c")] {
            ctl.add_fact("depends_on", &[p.into(), d.into()]);
        }
        for (p, v, w) in [("a", "2.0", 0), ("a", "1.0", 1), ("b", "1.0", 0), ("c", "1.0", 0)] {
            ctl.add_fact("version_declared", &[p.into(), v.into(), w.into()]);
        }
    }

    fn solve_cost_and_atoms(outcome: SolveOutcome) -> (Vec<(i64, i64)>, Vec<String>) {
        match outcome {
            SolveOutcome::Optimal { model, cost } => {
                let mut atoms: Vec<String> = model
                    .atoms()
                    .iter()
                    .map(|(p, args)| {
                        let rendered: Vec<String> = args.iter().map(|a| a.as_str()).collect();
                        format!("{p}({})", rendered.join(","))
                    })
                    .collect();
                atoms.sort();
                (cost, atoms)
            }
            SolveOutcome::Unsatisfiable => (vec![], vec!["UNSAT".into()]),
        }
    }

    #[test]
    fn frozen_base_requests_match_one_shot_solves() {
        let mut base = Control::new(SolverConfig::default());
        base.add_program(SESSION_LP).unwrap();
        session_base_facts(&mut base);
        let frozen = base.freeze_base().unwrap();
        assert!(frozen.frozen_instances() > 0);

        for root in ["a", "b", "c", "x"] {
            let mut req = frozen.request();
            req.add_fact("root", &[root.into()]);
            req.ground().unwrap();
            assert!(req.stats().ground.delta, "request grounding must be incremental");
            assert!(req.stats().ground.reused_rules > 0, "base instances must be reused");
            let session = solve_cost_and_atoms(req.solve().unwrap());

            let mut one = Control::new(SolverConfig::default());
            one.add_program(SESSION_LP).unwrap();
            session_base_facts(&mut one);
            one.add_fact("root", &[root.into()]);
            one.ground().unwrap();
            let oneshot = solve_cost_and_atoms(one.solve().unwrap());
            assert_eq!(session, oneshot, "root {root}: session and one-shot must agree");
        }
    }

    #[test]
    fn delta_fact_on_derived_atom_becomes_certain() {
        // The request asserts node(c) directly — an atom the base already derives
        // (uncertain). The delta grounding must re-simplify the touched rules; the
        // solve then agrees with a from-scratch grounding. Without a root, node(c)
        // violates the needed() constraint: both paths must report UNSAT.
        let mut base = Control::new(SolverConfig::default());
        base.add_program(SESSION_LP).unwrap();
        session_base_facts(&mut base);
        let frozen = base.freeze_base().unwrap();
        let mut req = frozen.request();
        req.add_fact("node", &["c".into()]);
        req.ground().unwrap();
        assert!(!req.solve().unwrap().is_satisfiable());

        // With a root requiring it, the fact is redundant and both agree on SAT.
        let mut req = frozen.request();
        req.add_fact("node", &["c".into()]);
        req.add_fact("root", &["c".into()]);
        req.ground().unwrap();
        let session = solve_cost_and_atoms(req.solve().unwrap());
        let mut one = Control::new(SolverConfig::default());
        one.add_program(SESSION_LP).unwrap();
        session_base_facts(&mut one);
        one.add_fact("node", &["c".into()]);
        one.add_fact("root", &["c".into()]);
        one.ground().unwrap();
        assert_eq!(session, solve_cost_and_atoms(one.solve().unwrap()));
    }

    #[test]
    fn request_with_new_symbols_and_new_condition_facts() {
        // Delta facts intern brand-new symbols and extend a choice element's
        // condition (version_declared) — the phase-1 full re-join path.
        let mut base = Control::new(SolverConfig::default());
        base.add_program(SESSION_LP).unwrap();
        session_base_facts(&mut base);
        let frozen = base.freeze_base().unwrap();
        let mut req = frozen.request();
        req.add_fact("root", &["fresh".into()]);
        req.add_fact("depends_on", &["fresh".into(), "a".into()]);
        req.add_fact("version_declared", &["fresh".into(), "0.9".into(), 0.into()]);
        req.ground().unwrap();
        let session = solve_cost_and_atoms(req.solve().unwrap());
        assert!(session.1.iter().any(|a| a == "version(fresh,0.9)"), "{session:?}");

        let mut one = Control::new(SolverConfig::default());
        one.add_program(SESSION_LP).unwrap();
        session_base_facts(&mut one);
        one.add_fact("root", &["fresh".into()]);
        one.add_fact("depends_on", &["fresh".into(), "a".into()]);
        one.add_fact("version_declared", &["fresh".into(), "0.9".into(), 0.into()]);
        one.ground().unwrap();
        assert_eq!(session, solve_cost_and_atoms(one.solve().unwrap()));
    }

    #[test]
    fn restriction_on_a_non_fork_is_an_error() {
        // Restrictions only mean something on a session fork: silently returning
        // unrestricted results would be worse than failing.
        let mut ctl = Control::new(SolverConfig::default());
        ctl.add_program("p(a).").unwrap();
        ctl.restrict_symbols(["a"]);
        assert!(matches!(ctl.ground(), Err(AspError::Usage(_))));
    }

    #[test]
    fn int_range_restriction_drops_id_keyed_atoms() {
        // Id-keyed facts (ids from a dedicated range, first argument): excluding a
        // range drops those atoms and their derivations from the request's view.
        let mut base = Control::new(SolverConfig::default());
        base.add_fact("cond", &[10_000_001i64.into(), "a".into()]);
        base.add_fact("cond", &[10_000_002i64.into(), "b".into()]);
        base.add_program("holds(ID) :- cond(ID, P).").unwrap();
        let frozen = base.freeze_base().unwrap();
        let mut req = frozen.request();
        req.restrict_int_ranges([(10_000_002, 10_000_003)]);
        req.ground().unwrap();
        match req.solve().unwrap() {
            SolveOutcome::Optimal { model, .. } => {
                assert!(model.contains("holds", &[Value::Int(10_000_001)]));
                assert!(!model.contains("holds", &[Value::Int(10_000_002)]));
            }
            SolveOutcome::Unsatisfiable => panic!("expected a model"),
        }
    }

    #[test]
    fn frozen_control_rejects_programs_and_serves_many_requests() {
        let mut base = Control::new(SolverConfig::default());
        base.add_program(SESSION_LP).unwrap();
        session_base_facts(&mut base);
        let frozen = base.freeze_base().unwrap();
        let mut req = frozen.request();
        assert!(matches!(req.add_program("p."), Err(AspError::Usage(_))));
        // The same frozen base serves many requests, including after failures.
        for _ in 0..3 {
            let mut req = frozen.request();
            req.add_fact("root", &["a".into()]);
            req.ground().unwrap();
            assert!(req.solve().unwrap().is_satisfiable());
        }
    }

    const BASE_DEPS: [(&str, &str); 3] = [("a", "b"), ("b", "c"), ("x", "c")];
    const BASE_VERSIONS: [(&str, &str, i64); 4] =
        [("a", "2.0", 0), ("a", "1.0", 1), ("b", "1.0", 0), ("c", "1.0", 0)];

    /// Solve `root(<root>)` on a control freshly built from the given fact universe.
    fn one_shot(
        deps: &[(&str, &str)],
        versions: &[(&str, &str, i64)],
        root: &str,
    ) -> (Vec<(i64, i64)>, Vec<String>) {
        let mut one = Control::new(SolverConfig::default());
        one.add_program(SESSION_LP).unwrap();
        for (p, d) in deps {
            one.add_fact("depends_on", &[(*p).into(), (*d).into()]);
        }
        for (p, v, w) in versions {
            one.add_fact("version_declared", &[(*p).into(), (*v).into(), (*w).into()]);
        }
        one.add_fact("root", &[root.into()]);
        one.ground().unwrap();
        solve_cost_and_atoms(one.solve().unwrap())
    }

    /// Stage a complete post-delta fact stream on a fork of `frozen`.
    fn stage_facts(
        frozen: &FrozenControl,
        deps: &[(&str, &str)],
        versions: &[(&str, &str, i64)],
    ) -> Control {
        let mut staged = frozen.request();
        for (p, d) in deps {
            staged.add_fact("depends_on", &[(*p).into(), (*d).into()]);
        }
        for (p, v, w) in versions {
            staged.add_fact("version_declared", &[(*p).into(), (*v).into(), (*w).into()]);
        }
        staged
    }

    /// Solve `root(<root>)` on a fork of `frozen` and render the outcome.
    fn session_solve(frozen: &FrozenControl, root: &str) -> (Vec<(i64, i64)>, Vec<String>) {
        let mut req = frozen.request();
        req.add_fact("root", &[root.into()]);
        req.ground().unwrap();
        solve_cost_and_atoms(req.solve().unwrap())
    }

    #[test]
    fn patch_base_additions_then_solve_matches_fresh_freeze() {
        let mut base = Control::new(SolverConfig::default());
        base.add_program(SESSION_LP).unwrap();
        session_base_facts(&mut base);
        let mut frozen = base.freeze_base().unwrap();

        // Publish a brand-new package d that x now depends on: pure addition.
        let mut deps = BASE_DEPS.to_vec();
        deps.push(("x", "d"));
        let mut versions = BASE_VERSIONS.to_vec();
        versions.push(("d", "1.0", 0));
        let staged = stage_facts(&frozen, &deps, &versions);
        let stats = frozen.patch_base(staged, &[] as &[&str]).unwrap();
        assert!(!stats.rebuilt, "a pure addition must take the in-place path");
        assert!(stats.added_facts > 0 && stats.removed_facts == 0, "{stats:?}");

        let patched = session_solve(&frozen, "x");
        assert!(patched.1.iter().any(|a| a == "version(d,1.0)"), "{patched:?}");
        assert_eq!(patched, one_shot(&deps, &versions, "x"));
        // Untouched parts of the base answer exactly as before the patch.
        assert_eq!(session_solve(&frozen, "a"), one_shot(&deps, &versions, "a"));
    }

    #[test]
    fn patch_base_removal_then_re_add_round_trips() {
        let mut base = Control::new(SolverConfig::default());
        base.add_program(SESSION_LP).unwrap();
        session_base_facts(&mut base);
        let mut frozen = base.freeze_base().unwrap();

        // Yank a@2.0: the preferred version disappears, so solves must fall back.
        let after: Vec<_> =
            BASE_VERSIONS.iter().copied().filter(|(p, v, _)| !(*p == "a" && *v == "2.0")).collect();
        let staged = stage_facts(&frozen, &BASE_DEPS, &after);
        let stats = frozen.patch_base(staged, &[] as &[&str]).unwrap();
        assert!(stats.rebuilt, "a removal must rebuild");
        let yanked = session_solve(&frozen, "a");
        assert!(yanked.1.iter().any(|a| a == "version(a,1.0)"), "{yanked:?}");
        assert_eq!(yanked, one_shot(&BASE_DEPS, &after, "a"));

        // Re-publish it: the session must converge back to the original answers.
        let staged = stage_facts(&frozen, &BASE_DEPS, &BASE_VERSIONS);
        frozen.patch_base(staged, &[] as &[&str]).unwrap();
        assert_eq!(session_solve(&frozen, "a"), one_shot(&BASE_DEPS, &BASE_VERSIONS, "a"));
    }

    /// The cost and the listed atoms of one solve of `program` with the fact `item(a)`.
    fn shown_solve(program: &str) -> (Vec<(i64, i64)>, Vec<String>) {
        let mut ctl = Control::new(SolverConfig::default());
        ctl.add_fact("item", &["a".into()]);
        ctl.add_program(program).unwrap();
        ctl.ground().unwrap();
        solve_cost_and_atoms(ctl.solve().unwrap())
    }

    const SHOW_LP: &str = r#"
        { pick(X) } :- item(X).
        keep(X) :- pick(X).
        keep(X, 1) :- keep(X).
        cost(X, 3) :- item(X), not pick(X).
        #minimize{ W@1,X : cost(X, W) }.
    "#;

    #[test]
    fn show_lists_only_the_shown_predicates() {
        let (cost, all) = shown_solve(SHOW_LP);
        assert_eq!(all, ["item(a)", "keep(a)", "keep(a,1)", "pick(a)"]);
        // Showing changes what a model lists, never the search or its cost.
        let (shown_cost, shown) = shown_solve(&format!("{SHOW_LP} #show keep/2. #show pick/1."));
        assert_eq!(shown, ["keep(a,1)", "pick(a)"], "keep/1 has the wrong arity");
        assert_eq!(shown_cost, cost);
        // A shown predicate with no true atom, or none at all, leaves the model empty.
        let (_, none) = shown_solve(&format!("{SHOW_LP} #show cost/2. #show missing/0."));
        assert!(none.is_empty(), "{none:?}");
        // Showing the same predicate twice is showing it once.
        let (_, twice) = shown_solve(&format!("{SHOW_LP} #show pick/1. #show pick/1."));
        assert_eq!(twice, ["pick(a)"]);
    }

    #[test]
    fn frozen_bases_carry_their_shown_predicates_to_requests() {
        let mut base = Control::new(SolverConfig::default());
        base.add_program(SHOW_LP).unwrap();
        base.add_program("#show keep/1.").unwrap();
        let frozen = base.freeze_base().unwrap();
        let mut req = frozen.request();
        req.add_fact("item", &["a".into()]);
        req.ground().unwrap();
        let (_, atoms) = solve_cost_and_atoms(req.solve().unwrap());
        assert_eq!(atoms, ["keep(a)"]);
    }

    #[test]
    fn patch_base_rejects_foreign_forks_and_shared_bases() {
        let mut base = Control::new(SolverConfig::default());
        base.add_program(SESSION_LP).unwrap();
        session_base_facts(&mut base);
        let mut frozen = base.freeze_base().unwrap();

        // A fork of a *different* frozen base is not a valid delta carrier.
        let mut other = Control::new(SolverConfig::default());
        other.add_program(SESSION_LP).unwrap();
        session_base_facts(&mut other);
        let other_frozen = other.freeze_base().unwrap();
        let foreign = other_frozen.request();
        assert!(matches!(frozen.patch_base(foreign, &[] as &[&str]), Err(AspError::Usage(_))));

        // While another fork is alive the base is shared and cannot be mutated.
        let staged = stage_facts(&frozen, &BASE_DEPS, &BASE_VERSIONS);
        let in_flight = frozen.request();
        assert!(matches!(frozen.patch_base(staged, &[] as &[&str]), Err(AspError::Usage(_))));
        drop(in_flight);

        // Once the fork is gone, patching succeeds again.
        let staged = stage_facts(&frozen, &BASE_DEPS, &BASE_VERSIONS);
        assert!(frozen.patch_base(staged, &[] as &[&str]).is_ok());
    }

    #[test]
    fn model_query_api() {
        let mut ctl = Control::new(SolverConfig::default());
        ctl.add_fact("version_declared", &["zlib".into(), "1.2.11".into(), 0.into()]);
        ctl.add_program("chosen(P, V) :- version_declared(P, V, W).").unwrap();
        ctl.ground().unwrap();
        let outcome = ctl.solve().unwrap();
        let model = outcome.model().unwrap();
        let rows: Vec<_> = model.with_pred("chosen").collect();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0][0].as_str(), "zlib");
        assert_eq!(rows[0][1].as_str(), "1.2.11");
    }

    /// A program whose first model is found without a single conflict (flip
    /// `escape` on) but whose optimality proof ("no model avoids the escape
    /// hatch") is a pigeonhole UNSAT instance requiring well over a thousand
    /// conflicts. Any conflict limit between those two extremes deterministically
    /// interrupts branch and bound *after* the incumbent is proven stable.
    const PIGEON_DESCENT_LP: &str = r#"
        pigeon(p1). pigeon(p2). pigeon(p3). pigeon(p4). pigeon(p5). pigeon(p6). pigeon(p7).
        hole(h1). hole(h2). hole(h3). hole(h4). hole(h5). hole(h6).
        { escape }.
        1 { at(P, H) : hole(H) } 1 :- pigeon(P), not escape.
        :- at(P1, H), at(P2, H), P1 != P2.
        #minimize{ 1@1 : escape }.
    "#;

    #[test]
    fn zero_wall_deadline_interrupts_before_any_model() {
        // A zero deadline arms the budget synchronously (no monitor thread), so
        // the very first descent into the solver is interrupted: deterministic
        // coverage for the no-partial-model path.
        let mut ctl = Control::new(SolverConfig {
            budget: Some(SolveBudget { wall_deadline: Some(Duration::ZERO), conflict_limit: None }),
            ..SolverConfig::default()
        });
        ctl.add_program(PIGEON_DESCENT_LP).unwrap();
        ctl.ground().unwrap();
        match ctl.solve_with_assumptions(&[]).unwrap() {
            AssumeOutcome::Budget { partial: None } => {}
            other => panic!("expected an empty budget outcome, got {other:?}"),
        }
        assert!(ctl.stats().budget_exhausted);
        // The budget is per solve: clearing it restores normal optimal solving.
        ctl.solver_config_mut().budget = None;
        match ctl.solve_with_assumptions(&[]).unwrap() {
            AssumeOutcome::Optimal { cost, .. } => assert_eq!(cost, vec![(1, 1)]),
            other => panic!("expected optimal after clearing the budget, got {other:?}"),
        }
        assert!(!ctl.stats().budget_exhausted);
    }

    #[test]
    fn conflict_limit_degrades_to_best_proven_model() {
        let mut ctl = Control::new(SolverConfig {
            budget: Some(SolveBudget { wall_deadline: None, conflict_limit: Some(100) }),
            ..SolverConfig::default()
        });
        ctl.add_program(PIGEON_DESCENT_LP).unwrap();
        ctl.ground().unwrap();
        match ctl.solve_with_assumptions(&[]).unwrap() {
            AssumeOutcome::Budget { partial: Some((model, cost)) } => {
                // The incumbent stable model (escape hatch taken) survives the
                // interrupted optimality proof, marked non-optimal via stats.
                assert!(model.contains("escape", &[]));
                assert_eq!(cost, vec![(1, 1)]);
            }
            other => panic!("expected a partial budget outcome, got {other:?}"),
        }
        assert!(ctl.stats().budget_exhausted);
        assert!(ctl.stats().conflicts >= 100);
    }

    #[test]
    fn budget_partial_surfaces_as_non_optimal_solve_outcome() {
        // The plain solve() entry point folds a partial budget model into
        // SolveOutcome::Optimal; budget_exhausted records that optimality was
        // not proven.
        let mut ctl = Control::new(SolverConfig {
            budget: Some(SolveBudget { wall_deadline: None, conflict_limit: Some(100) }),
            ..SolverConfig::default()
        });
        ctl.add_program(PIGEON_DESCENT_LP).unwrap();
        ctl.ground().unwrap();
        match ctl.solve().unwrap() {
            SolveOutcome::Optimal { model, cost } => {
                assert!(model.contains("escape", &[]));
                assert_eq!(cost, vec![(1, 1)]);
            }
            SolveOutcome::Unsatisfiable => panic!("expected a model"),
        }
        assert!(ctl.stats().budget_exhausted);
    }

    #[test]
    fn doubled_budget_escalates_both_limits() {
        let b = SolveBudget {
            wall_deadline: Some(Duration::from_millis(250)),
            conflict_limit: Some(1000),
        };
        let d = b.doubled();
        assert_eq!(d.wall_deadline, Some(Duration::from_millis(500)));
        assert_eq!(d.conflict_limit, Some(2000));
        assert!(!SolveBudget::unlimited().is_bounded());
        assert!(b.is_bounded());
        // Near the maximum both limits saturate instead of overflowing. A wire
        // deadline of u64::MAX milliseconds overflows `Duration` on the tenth doubling.
        let near_max = SolveBudget {
            wall_deadline: Some(Duration::MAX - Duration::from_secs(1)),
            conflict_limit: Some(u64::MAX - 1),
        };
        let saturated =
            SolveBudget { wall_deadline: Some(Duration::MAX), conflict_limit: Some(u64::MAX) };
        assert_eq!(near_max.doubled(), saturated);
        assert_eq!(saturated.doubled(), saturated);
        let mut wire = SolveBudget {
            wall_deadline: Some(Duration::from_millis(u64::MAX)),
            conflict_limit: None,
        };
        for _ in 0..12 {
            wire = wire.doubled();
        }
        assert_eq!(wire.wall_deadline, Some(Duration::MAX));
    }
}
