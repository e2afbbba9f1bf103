//! Lexicographic multi-objective optimization over stable models.
//!
//! The paper relies on clasp's optimization to select the single best answer set under
//! Spack's 15+ prioritized criteria (Table II, Fig. 5). This module implements the
//! model-guided branch-and-bound strategy (clasp's `bb`): find a stable model, then
//! repeatedly demand a strictly better objective value at the highest not-yet-optimal
//! priority level (by adding a weighted-sum upper bound), level by level in decreasing
//! priority, until the optimum is proved for every level.
//!
//! # One stable-model loop
//!
//! Every search for a stable model goes through one loop, `run_stable`: search under
//! the assumptions, check the candidate for an unfounded set ([`crate::stable`]), add
//! the loop nogood and search again, until the candidate is stable or the search
//! fails. Each descent step of [`solve_optimal_assuming`], each model of
//! [`enumerate_models`] (which then blocks it) and each deletion probe of
//! [`crate::Control::minimize_core`] is one call of it.
//!
//! # Determinism
//!
//! Every solve starts cold. The descent replays no clause it did not derive itself in
//! the same call: between levels a rebuilt solver starts from the loop nogoods the
//! call found so far, kept in a clause cache local to the call that starts empty.
//! Learned clauses die with their solver. The caller's session cache is an output
//! only: it receives the call's loop nogoods at the end, and feeds the cross-request
//! store and core-minimization probes (which consume nothing but SAT/UNSAT verdicts,
//! so a warm start cannot change their answers either). The search trajectory is
//! therefore a function of the problem (translation, fixed literals, assumptions,
//! priority floor) and the solver configuration alone, so
//!
//! * the **cost vector** is the lexicographic optimum, unique whatever the trajectory;
//! * the **model** is the descent's final incumbent, the same on every repetition of
//!   the solve, whatever earlier solves on the grounding left in the session cache;
//! * an **unsat core** is the failed-assumption set of the initial (bound-free) run,
//!   by the same argument.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::ground::GroundProgram;
use crate::sat::{
    ClauseCache, LinearSpec, Lit, SatConfig, SatStats, SearchResult, SolveBudgetState, Solver, Var,
};
use crate::stable::StabilityChecker;
use crate::translate::Translation;

/// The outcome of an optimizing solve.
#[derive(Debug, Clone)]
pub struct OptimalModel {
    /// The stable model: truth values indexed by SAT variable (program atoms first).
    pub model: Vec<bool>,
    /// The objective vector: `(priority, value)` pairs sorted by decreasing priority.
    pub cost: Vec<(i64, i64)>,
    /// Number of candidate models examined on the way to the optimum, including
    /// unstable supported models rejected by the stability check.
    pub models_examined: u64,
    /// Number of solver invocations.
    pub solver_runs: u64,
    /// Total conflicts across all runs.
    pub conflicts: u64,
    /// Loop nogoods added by the stable-model check.
    pub loop_nogoods: u64,
    /// Candidate models the stable-model check examined in full: every candidate of a
    /// non-tight program, none of a tight one (see [`crate::stable`]).
    pub stability_checks: u64,
    /// Aggregated low-level solver statistics across all runs.
    pub sat: SatStats,
}

/// Outcome of an assumption-aware optimizing solve ([`solve_optimal_assuming`]).
#[derive(Debug, Clone)]
pub enum OptOutcome {
    /// A (lexicographically) optimal stable model was found.
    Optimal(OptimalModel),
    /// No stable model exists under the given assumptions.
    Unsat {
        /// The subset of the assumption literals refuted by the program (the *unsat
        /// core* from final-conflict analysis). Empty when the program has no stable
        /// model even without assumptions.
        core: Vec<Lit>,
        /// Aggregated solver statistics of the failed search.
        sat: SatStats,
    },
    /// The solve budget (wall deadline or conflict limit) expired before optimality
    /// was proven.
    Budget {
        /// The best stable model branch-and-bound had proven when the budget
        /// expired, with the costs it achieved — *not* guaranteed optimal. The
        /// descent is cold, so under a conflict limit the partial is reproducible;
        /// under a wall deadline it depends on how far the search got in time.
        /// `None` when the budget expired before any stable model was found.
        partial: Option<Box<OptimalModel>>,
        /// Aggregated solver statistics of the interrupted solve.
        sat: SatStats,
    },
}

/// Error produced by the optimizer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimizeError {
    /// Description.
    pub message: String,
}

impl std::fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "optimization error: {}", self.message)
    }
}

impl std::error::Error for OptimizeError {}

struct Level {
    priority: i64,
    /// Literal/weight pairs contributing to this level.
    lits: Vec<(Lit, u64)>,
    /// Constant contribution from unconditional minimize entries.
    base: i64,
}

/// Solve for the lexicographically optimal stable model.
///
/// Returns `Ok(None)` when the program has no stable model at all.
///
/// # Warm starts
///
/// Within one priority level, branch-and-bound only ever *tightens* the objective
/// bound, so a single solver instance is kept across all improving models of the
/// level: every learned clause, loop nogood, saved phase, and activity score carries
/// over, and each iteration merely adds one more linear bound. Only when a level is
/// proved optimal (its last bound is UNSAT, poisoning the solver) is a fresh solver
/// built for the next level — seeded with the frozen bounds of the finished levels,
/// the loop nogoods this solve found so far, and the incumbent model's phases (so the
/// search restarts in the neighbourhood of the best known assignment).
pub fn solve_optimal(
    ground: &GroundProgram,
    translation: &Translation,
    config: &SatConfig,
) -> Result<Option<OptimalModel>, OptimizeError> {
    let mut retired = None;
    let mut cache = ClauseCache::default();
    match solve_optimal_assuming(
        ground,
        translation,
        config,
        &[],
        &[],
        i64::MIN,
        &mut retired,
        &mut cache,
        None,
    )? {
        OptOutcome::Optimal(model) => Ok(Some(model)),
        OptOutcome::Unsat { .. } => Ok(None),
        OptOutcome::Budget { .. } => unreachable!("solve_optimal installs no budget"),
    }
}

/// [`solve_optimal`] under *assumption literals*: only stable models where every
/// assumption holds are considered, and on UNSAT the returned [`OptOutcome::Unsat`]
/// carries the core of assumptions responsible (tracked through conflict analysis by
/// [`Solver::search_with_assumptions`]).
///
/// `fixed` literals are asserted as root-level unit clauses in every solver this
/// solve builds — the realization of clingo's `assign_external`: an `#external`
/// guard's per-solve truth propagates once at the root instead of being re-decided
/// (and its consequences re-propagated) on every solver run of the optimization.
/// Fixed literals never appear in unsat cores; solvers do not outlive the solve, so
/// the units leak into nothing.
///
/// `priority_floor` bounds the optimization effort: minimize levels with a priority
/// *below* the floor are dropped entirely — neither optimized nor present in the
/// returned objective vector. The diagnostics path uses this to minimize only the
/// paper's `error(Priority, Msg, Args)` levels on the relaxed second-phase solve.
/// Pass `i64::MIN` to optimize every level.
///
/// On an UNSAT outcome the solver of the failed (bound-free) initial run is handed
/// back through `retired` — assumptions are plain decisions, so it is fully reusable,
/// and its learned clauses make it a warm probe for follow-up work such as
/// deletion-based core minimization (see [`crate::Control::minimize_core`]).
///
/// `cache` is the session clause cache shared by every solve on this grounding. It is
/// an output only: nothing in it is replayed here (see the module docs on
/// determinism), and every loop nogood the solve found is merged into it when the
/// solve ends.
///
/// `budget` is an optional shared solve budget (see [`SolveBudgetState`]): it is
/// installed into *every* solver this solve builds, so an armed budget interrupts the
/// solve within one solver check interval no matter which level it is on. An interrupted
/// solve returns [`OptOutcome::Budget`], carrying the incumbent model when
/// branch-and-bound had already proven one (graceful degradation).
#[allow(clippy::too_many_arguments)]
pub fn solve_optimal_assuming(
    ground: &GroundProgram,
    translation: &Translation,
    config: &SatConfig,
    assumptions: &[Lit],
    fixed: &[Lit],
    priority_floor: i64,
    retired: &mut Option<Solver>,
    cache: &mut ClauseCache,
    budget: Option<&Arc<SolveBudgetState>>,
) -> Result<OptOutcome, OptimizeError> {
    if ground.trivially_unsat {
        return Ok(OptOutcome::Unsat { core: Vec::new(), sat: SatStats::default() });
    }
    let levels: Vec<Level> =
        collect_levels(ground)?.into_iter().filter(|l| l.priority >= priority_floor).collect();
    let mut stats = RunStats::default();
    // The loop nogoods this solve finds: the only warm start its rebuilt solvers get,
    // loaded once per rebuild. Merged into the caller's `cache` on every exit, never
    // seeded from it.
    let mut nogoods = ClauseCache::default();
    // One checker serves every stability check of this solve; on a tight grounding
    // there are none.
    let mut checker = StabilityChecker::new(ground);

    // Initial model with no objective bounds. The solver stays live across levels: it
    // is only discarded when a level's final (UNSAT) bound poisons it, and only
    // rebuilt lazily when a later level actually needs another run — warm-started
    // from the loop nogoods found so far and the incumbent's phases. Every objective
    // literal starts phase-biased towards *false* (clasp's optimization sign
    // heuristic), so even the first model lands near the cheap end of the search space
    // and the per-level descents start close to the optimum.
    let mut live = Some(build_solver(translation, config, fixed, &[], &nogoods, budget));
    if let Some(solver) = live.as_mut() {
        for level in &levels {
            for &(l, _) in &level.lits {
                solver.set_phase(l.var(), !l.is_pos());
            }
        }
    }
    let mut best = {
        let solver = live.as_mut().expect("just built");
        match run_stable(solver, ground, &mut checker, assumptions, &mut stats, &mut nogoods) {
            StableOutcome::Model(m) => m,
            StableOutcome::Interrupted => {
                // The budget expired before even one stable model was found: there
                // is nothing to degrade to.
                stats.sat.absorb(&solver.stats);
                cache.merge(nogoods);
                return Ok(OptOutcome::Budget { partial: None, sat: stats.sat });
            }
            StableOutcome::Unsat => {
                // The *unbounded* program is unsatisfiable under the assumptions: the
                // failed-assumption set is a genuine unsat core (later UNSATs merely
                // prove an objective bound optimal and carry no core).
                stats.sat.absorb(&solver.stats);
                cache.merge(nogoods);
                let core = solver.failed_assumptions().to_vec();
                // Retired solvers become core-minimization probes: uninstall the
                // budget so an adopter can never observe a stale interrupt.
                *retired = live.take().map(|mut s| {
                    s.set_budget(None);
                    s
                });
                return Ok(OptOutcome::Unsat { core, sat: stats.sat });
            }
        }
    };
    let mut best_costs = level_costs(&levels, &best);

    // Optimize level by level, highest priority first. `live_bounds[li]` is the index
    // of level `li`'s objective bound inside the live solver (if added), so repeated
    // descents tighten one constraint in place instead of stacking superseded copies.
    let mut fixed_bounds: Vec<LinearSpec> = Vec::new();
    let mut live_bounds: Vec<Option<usize>> = vec![None; levels.len()];
    for (li, level) in levels.iter().enumerate() {
        // First attempt per level is an *optimistic zero-probe*: most levels of a
        // lexicographic cascade optimize to zero, and proving "a zero-cost model
        // exists" in one run beats walking the bound down one unit per model. Only
        // when the probe fails (UNSAT — which poisons the solver exactly like a
        // final optimality proof would) does the level fall back to classic
        // one-step descents from the incumbent.
        let mut optimistic_failed = false;
        // The level's optimum is known to be strictly greater than this (a failed
        // probe is a lower-bound proof): reaching `proven_above + 1` is optimal
        // without paying a final UNSAT run.
        let mut proven_above: i64 = -1;
        loop {
            let current = best_costs[li];
            if current == proven_above + 1 {
                break;
            }
            let solver = match live.as_mut() {
                Some(s) => s,
                None => {
                    // The previous run retired the solver (UNSAT bound). Rebuild with
                    // every frozen bound and the loop nogoods found so far,
                    // warm-started from the incumbent's phases.
                    let mut s =
                        build_solver(translation, config, fixed, &fixed_bounds, &nogoods, budget);
                    #[cfg(test)]
                    tests::record_rebuild(&s, &nogoods);
                    for (v, &val) in best.iter().enumerate() {
                        s.set_phase(v as Var, val);
                    }
                    // The frozen non-zero bounds occupy the linear slots after the
                    // translation's, in level order; zero bounds became root-level
                    // unit clauses inside build_solver and need no slot.
                    live_bounds = vec![None; levels.len()];
                    let mut slot = translation.linears.len();
                    for (lj, b) in fixed_bounds.iter().enumerate() {
                        if b.upper == 0 {
                            live_bounds[lj] = Some(ZERO_BOUND);
                        } else {
                            live_bounds[lj] = Some(slot);
                            slot += 1;
                        }
                    }
                    live.insert(s)
                }
            };
            // Probe only when the incumbent is far from zero: at `current <= 2` a
            // classic descent reaches a zero-cost model just as fast when one exists,
            // and a failed probe would waste a full UNSAT proof (plus a solver
            // rebuild) on levels whose optimum is small but nonzero.
            let optimistic = !optimistic_failed && current > 2 && live_bounds[li].is_none();
            let bound = if optimistic { 0 } else { current - 1 };
            set_level_bound(solver, &mut live_bounds, li, level, bound);
            match run_stable(solver, ground, &mut checker, assumptions, &mut stats, &mut nogoods) {
                StableOutcome::Model(m) => {
                    best_costs = level_costs(&levels, &m);
                    best = m;
                }
                StableOutcome::Interrupted => {
                    // Budget expired mid-descent: degrade gracefully to the incumbent
                    // — a genuine stable model satisfying every bound proven so far,
                    // just not necessarily optimal.
                    stats.sat.absorb(&solver.stats);
                    cache.merge(nogoods);
                    return Ok(budget_partial(&levels, &best_costs, best, stats));
                }
                StableOutcome::Unsat => {
                    // The bound that failed poisons the solver either way, so retire
                    // it (a later run rebuilds on demand from the loop nogoods). A
                    // failed one-step descent proves the level optimal; a failed
                    // zero-probe only proves the optimum is nonzero — fall back to
                    // classic descents.
                    stats.sat.absorb(&solver.stats);
                    live = None;
                    if optimistic {
                        optimistic_failed = true;
                        proven_above = 0;
                        continue;
                    }
                    break;
                }
            }
        }
        // Freeze this level at its optimum for the remaining levels — and mirror the
        // frozen bound into the still-live solver (a pure tightening the incumbent
        // satisfies), keeping it interchangeable with a freshly built one.
        fixed_bounds.push(level_bound(level, best_costs[li]));
        if let Some(solver) = live.as_mut() {
            set_level_bound(solver, &mut live_bounds, li, level, best_costs[li]);
        }
    }
    if let Some(solver) = live.as_ref() {
        stats.sat.absorb(&solver.stats);
    }
    cache.merge(nogoods);
    Ok(OptOutcome::Optimal(optimal_model(&levels, &best_costs, best, stats)))
}

/// Assemble the returned [`OptimalModel`] from the final model and the run's counters.
fn optimal_model(
    levels: &[Level],
    costs: &[i64],
    model: Vec<bool>,
    stats: RunStats,
) -> OptimalModel {
    let cost = levels.iter().zip(costs.iter()).map(|(l, &c)| (l.priority, c + l.base)).collect();
    OptimalModel {
        model,
        cost,
        models_examined: stats.models,
        solver_runs: stats.runs,
        conflicts: stats.sat.conflicts,
        loop_nogoods: stats.loop_nogoods,
        stability_checks: stats.stability_checks,
        sat: stats.sat,
    }
}

/// The [`OptOutcome::Budget`] degradation: the incumbent with the costs it achieved.
fn budget_partial(
    levels: &[Level],
    costs: &[i64],
    model: Vec<bool>,
    stats: RunStats,
) -> OptOutcome {
    let sat = stats.sat.clone();
    OptOutcome::Budget { partial: Some(Box::new(optimal_model(levels, costs, model, stats))), sat }
}

/// Enumerate stable models (without optimization), up to `limit`.
pub fn enumerate_models(
    ground: &GroundProgram,
    translation: &Translation,
    config: &SatConfig,
    limit: usize,
) -> Vec<Vec<bool>> {
    enumerate_models_with_stats(ground, translation, config, limit).0
}

/// [`enumerate_models`], additionally returning the solver's aggregate statistics and
/// the number of candidate models examined (including unstable ones rejected by the
/// stability check — the same meaning the counter has on the optimization path).
pub fn enumerate_models_with_stats(
    ground: &GroundProgram,
    translation: &Translation,
    config: &SatConfig,
    limit: usize,
) -> (Vec<Vec<bool>>, SatStats, u64) {
    let mut models = Vec::new();
    if ground.trivially_unsat {
        return (models, SatStats::default(), 0);
    }
    let mut solver = build_solver(translation, config, &[], &[], &ClauseCache::default(), None);
    let mut checker = StabilityChecker::new(ground);
    let mut stats = RunStats::default();
    let mut nogoods = ClauseCache::default();
    while models.len() < limit {
        match run_stable(&mut solver, ground, &mut checker, &[], &mut stats, &mut nogoods) {
            StableOutcome::Interrupted => unreachable!("enumeration solvers carry no solve budget"),
            StableOutcome::Unsat => break,
            StableOutcome::Model(model) => {
                // Block this model (projected on the program atoms).
                let blocking: Vec<Lit> = (0..translation.num_atoms)
                    .map(|a| if model[a] { Lit::neg(a as Var) } else { Lit::pos(a as Var) })
                    .collect();
                models.push(model);
                if !solver.add_clause(&blocking) {
                    break;
                }
            }
        }
    }
    (models, solver.stats, stats.models)
}

/// Counters of the [`run_stable`] calls of one solve, enumeration or core
/// minimization.
#[derive(Default)]
pub(crate) struct RunStats {
    runs: u64,
    models: u64,
    loop_nogoods: u64,
    stability_checks: u64,
    sat: SatStats,
}

fn collect_levels(ground: &GroundProgram) -> Result<Vec<Level>, OptimizeError> {
    let mut by_priority: BTreeMap<i64, Level> = BTreeMap::new();
    for m in &ground.minimize {
        if m.weight < 0 {
            return Err(OptimizeError {
                message: "negative minimize weights are not supported".into(),
            });
        }
        let level = by_priority.entry(m.priority).or_insert_with(|| Level {
            priority: m.priority,
            lits: Vec::new(),
            base: 0,
        });
        match m.condition {
            None => level.base += m.weight,
            Some(atom) => level.lits.push((Lit::pos(atom as Var), m.weight as u64)),
        }
    }
    // Highest priority first.
    Ok(by_priority.into_values().rev().collect())
}

fn level_costs(levels: &[Level], model: &[bool]) -> Vec<i64> {
    levels
        .iter()
        .map(|level| {
            level
                .lits
                .iter()
                .filter(|(lit, _)| model[lit.var() as usize] == lit.is_pos())
                .map(|&(_, w)| w as i64)
                .sum()
        })
        .collect()
}

fn level_bound(level: &Level, bound: i64) -> LinearSpec {
    let (lits, weights): (Vec<Lit>, Vec<u64>) = level.lits.iter().copied().unzip();
    LinearSpec { condition: None, lits, weights, lower: 0, upper: bound.max(0) as u64 }
}

/// Sentinel "slot" marking a level bound imposed at zero: a zero upper bound over
/// positive weights just forces every weighted literal false, so it is asserted as
/// root-level unit clauses instead of a watched linear constraint — cheaper to
/// propagate, nothing to tighten later, and no heuristic focus needed. This is the
/// common shape for levels that are trivially optimal at zero (e.g. the guarded error
/// levels of a hard-mode concretizer solve).
const ZERO_BOUND: usize = usize::MAX;

/// Assert a zero bound as unit clauses: every literal with a positive weight must be
/// false. (A zero-weight literal contributes nothing to the sum and must stay free.)
fn pin_zero(solver: &mut Solver, lits: impl Iterator<Item = (Lit, u64)>) {
    for (l, w) in lits {
        if w > 0 && !solver.add_clause(&[l.negate()]) {
            break;
        }
    }
}

/// Impose (or tighten) a level's objective bound on the live solver. The first time a
/// level is bounded, a linear constraint is added and its literals are bumped and
/// phase-biased towards *false* (clasp's optimization sign heuristic) — otherwise
/// phase saving would keep steering the search back to the just-outlawed incumbent.
/// Subsequent descents of the same level tighten that constraint's upper bound in
/// place, so the solver never accumulates superseded bounds. A level first bounded at
/// zero is pinned through unit clauses instead (see [`ZERO_BOUND`]).
fn set_level_bound(
    solver: &mut Solver,
    live_bounds: &mut [Option<usize>],
    li: usize,
    level: &Level,
    bound: i64,
) {
    let upper = bound.max(0) as u64;
    if live_bounds[li] == Some(ZERO_BOUND) {
        return; // already pinned at zero — no tighter bound exists
    }
    if live_bounds[li].is_none() && upper == 0 {
        pin_zero(solver, level.lits.iter().copied());
        live_bounds[li] = Some(ZERO_BOUND);
        return;
    }
    // Re-focus the heuristic on the objective at every descent, not only the first:
    // the activity bump and the false-bias refresh are what steer the next search
    // towards cheaper models once phase saving has locked onto the incumbent.
    for &(l, _) in &level.lits {
        solver.bump_variable(l.var(), 0.5);
        solver.set_phase(l.var(), !l.is_pos());
    }
    if let Some(idx) = live_bounds[li] {
        solver.tighten_linear_upper(idx, upper);
        return;
    }
    live_bounds[li] = Some(solver.num_linears());
    solver.add_linear(&level_bound(level, bound));
}

/// Build a solver from a translation: its clauses and linear constraints, the
/// `fixed` literals as root-level units, the loop nogoods of `nogoods`, and the
/// frozen level `bounds`, with the shared `budget` installed.
pub(crate) fn build_solver(
    translation: &Translation,
    config: &SatConfig,
    fixed: &[Lit],
    bounds: &[LinearSpec],
    nogoods: &ClauseCache,
    budget: Option<&Arc<SolveBudgetState>>,
) -> Solver {
    let mut solver = Solver::new(translation.num_vars, config.clone());
    solver.set_budget(budget.cloned());
    let (stored, cached) = (&translation.clauses, nogoods.clauses());
    solver.reserve_clauses(&[stored, cached]);
    // The translation (canonicalized once in `translate`) and every clause cache
    // (canonicalized on insert) both honour the trusted contract, so every rebuild
    // ingests them on the validation-free bulk path instead of re-sorting and
    // re-checking each clause.
    solver.load_trusted_clauses(stored);
    // Per-solve truths of `#external` guard atoms, as root-level units.
    for &l in fixed {
        if !solver.add_clause(&[l]) {
            break;
        }
    }
    for lin in &translation.linears {
        solver.add_linear(lin);
    }
    // Loop nogoods: for a descent, those this solve found so far; for a
    // core-minimization probe, the session cache (possibly transferred in from
    // sibling requests with the same closure digest).
    solver.load_trusted_clauses(cached);
    for b in bounds {
        if b.upper == 0 {
            // A frozen zero bound forces every weighted literal false: root-level
            // unit clauses propagate this far more cheaply than a watched linear
            // constraint, and the heuristic has nothing to decide about them.
            pin_zero(&mut solver, b.lits.iter().copied().zip(b.weights.iter().copied()));
            continue;
        }
        solver.add_linear(b);
        // Focus the heuristic on objective literals early.
        for &l in &b.lits {
            solver.bump_variable(l.var(), 0.5);
        }
    }
    solver
}

/// Outcome of driving a solver to the next stable model ([`run_stable`]).
pub(crate) enum StableOutcome {
    /// The next stable model under the solver's current bounds.
    Model(Vec<bool>),
    /// No stable model exists under the current bounds and assumptions.
    Unsat,
    /// The solve budget expired before a verdict.
    Interrupted,
}

/// Drive a live solver to the next *stable* model (adding loop nogoods for unstable
/// supported models along the way), or [`StableOutcome::Unsat`] when none exists
/// under the solver's current bounds and `assumptions`. The solver keeps all state
/// between calls; aggregate statistics are absorbed by the caller when the solver is
/// retired. Every loop nogood also goes into `nogoods`: it holds in every stable
/// model, so it stays valid for later calls and for solvers built later. Every
/// stable-model search of the crate goes through here (see the module docs).
pub(crate) fn run_stable(
    solver: &mut Solver,
    ground: &GroundProgram,
    checker: &mut StabilityChecker,
    assumptions: &[Lit],
    stats: &mut RunStats,
    nogoods: &mut ClauseCache,
) -> StableOutcome {
    stats.runs += 1;
    loop {
        match solver.search_with_assumptions(assumptions) {
            SearchResult::Unsat => return StableOutcome::Unsat,
            SearchResult::Interrupted => return StableOutcome::Interrupted,
            SearchResult::Sat => {
                let model = solver.model();
                stats.models += 1;
                stats.stability_checks += u64::from(!ground.is_tight());
                // Loop nogood: at least one unfounded atom must be false, or one of
                // the set's external supports must come true. It is a consequence of
                // the program (not of the bounds), so it persists and is replayed
                // into every future solver.
                let Some(nogood) = checker.unfounded_nogood(ground, &model) else {
                    return StableOutcome::Model(model);
                };
                stats.loop_nogoods += 1;
                nogoods.add(&nogood);
                if !solver.add_clause(&nogood) {
                    return StableOutcome::Unsat;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ground::Grounder;
    use crate::parser::parse_program;
    use crate::symbols::SymbolTable;
    use crate::translate::translate;

    fn setup(text: &str) -> (GroundProgram, Translation, SymbolTable) {
        let program = parse_program(text).unwrap();
        let mut symbols = SymbolTable::new();
        let ground = Grounder::new(&mut symbols).ground(&program, &[]).unwrap();
        let translation = translate(&ground);
        (ground, translation, symbols)
    }

    fn true_atoms(ground: &GroundProgram, symbols: &SymbolTable, model: &[bool]) -> Vec<String> {
        ground
            .atoms
            .iter()
            .filter(|(id, _)| model[*id as usize])
            .map(|(_, a)| a.display(symbols).to_string())
            .collect()
    }

    #[test]
    fn fig3_has_exactly_two_stable_models() {
        let (ground, translation, symbols) = setup(
            r#"
            depends_on(a, b).
            depends_on(a, c).
            depends_on(b, d).
            depends_on(c, d).
            node(Dep) :- node(Pkg), depends_on(Pkg, Dep).
            1 { node(a); node(b) }.
            "#,
        );
        let models = enumerate_models(&ground, &translation, &SatConfig::default(), 16);
        // Answer 1: node(b), node(d). Answer 2: node(a), node(b), node(c), node(d) —
        // and also the model where only node(a) is chosen, which derives b, c, d and is
        // identical to answer 2 as a set of atoms. Distinct atom sets: exactly 2.
        let mut sets: Vec<Vec<String>> = models
            .iter()
            .map(|m| {
                let mut v: Vec<String> = true_atoms(&ground, &symbols, m)
                    .into_iter()
                    .filter(|a| a.starts_with("node("))
                    .collect();
                v.sort();
                v
            })
            .collect();
        sets.sort();
        sets.dedup();
        assert_eq!(sets.len(), 2, "{sets:?}");
        assert!(sets.contains(&vec!["node(b)".to_string(), "node(d)".to_string()]));
        assert!(sets.contains(&vec![
            "node(a)".to_string(),
            "node(b)".to_string(),
            "node(c)".to_string(),
            "node(d)".to_string()
        ]));
    }

    #[test]
    fn optimization_prefers_lower_weights() {
        let (ground, translation, symbols) = setup(
            r#"
            node(p).
            possible_version(p, v_new, 0).
            possible_version(p, v_old, 1).
            1 { version(P, V) : possible_version(P, V, W) } 1 :- node(P).
            version_weight(P, V, W) :- version(P, V), possible_version(P, V, W).
            #minimize{ W@3,P,V : version_weight(P, V, W) }.
            "#,
        );
        let result = solve_optimal(&ground, &translation, &SatConfig::default())
            .unwrap()
            .expect("satisfiable");
        let atoms = true_atoms(&ground, &symbols, &result.model);
        assert!(atoms.contains(&"version(p,v_new)".to_string()), "{atoms:?}");
        assert_eq!(result.cost, vec![(3, 0)]);
    }

    #[test]
    fn lexicographic_priorities_are_respected() {
        // Two choices: a cheap option on the low-priority criterion conflicts with the
        // cheap option on the high-priority criterion. The high-priority one must win.
        let (ground, translation, symbols) = setup(
            r#"
            1 { pick(x); pick(y) } 1.
            high_cost(x, 0). high_cost(y, 5).
            low_cost(x, 7).  low_cost(y, 0).
            high(P, W) :- pick(P), high_cost(P, W).
            low(P, W) :- pick(P), low_cost(P, W).
            #minimize{ W@10,P : high(P, W) }.
            #minimize{ W@1,P : low(P, W) }.
            "#,
        );
        let result = solve_optimal(&ground, &translation, &SatConfig::default())
            .unwrap()
            .expect("satisfiable");
        let atoms = true_atoms(&ground, &symbols, &result.model);
        assert!(atoms.contains(&"pick(x)".to_string()));
        assert_eq!(result.cost, vec![(10, 0), (1, 7)]);
    }

    #[test]
    fn unstable_supported_models_are_rejected() {
        // p and q support each other; the only stable model is empty, so r (which needs
        // p) must be false, and minimizing not_r cannot pretend otherwise.
        let (ground, translation, symbols) = setup(
            r#"
            base(1).
            p :- q.
            q :- p.
            r :- p.
            "#,
        );
        let models = enumerate_models(&ground, &translation, &SatConfig::default(), 8);
        assert_eq!(models.len(), 1);
        let atoms = true_atoms(&ground, &symbols, &models[0]);
        assert_eq!(atoms, vec!["base(1)".to_string()]);
    }

    #[test]
    fn unsat_program_returns_none() {
        let (ground, translation, _symbols) = setup(
            r#"
            p(a).
            :- p(a).
            "#,
        );
        let result = solve_optimal(&ground, &translation, &SatConfig::default()).unwrap();
        assert!(result.is_none());
    }

    #[test]
    fn constant_minimize_contributions_are_reported() {
        let (ground, translation, _symbols) = setup(
            r#"
            always(a).
            #minimize{ 4@2,a : always(a) }.
            "#,
        );
        let result = solve_optimal(&ground, &translation, &SatConfig::default())
            .unwrap()
            .expect("satisfiable");
        assert_eq!(result.cost, vec![(2, 4)]);
    }

    /// One [`solve_optimal_assuming`] call under the default configuration, no
    /// fixed literals and no budget, on the given session cache.
    fn solve_on(
        ground: &GroundProgram,
        translation: &Translation,
        assumptions: &[Lit],
        cache: &mut ClauseCache,
    ) -> OptOutcome {
        let mut retired = None;
        let config = SatConfig::default();
        solve_optimal_assuming(
            ground,
            translation,
            &config,
            assumptions,
            &[],
            i64::MIN,
            &mut retired,
            cache,
            None,
        )
        .unwrap()
    }

    /// A program with positive loops (`r(a)`–`r(b)`–`r(c)`) and two minimize levels:
    /// its descents find loop nogoods, and proving the first level optimal retires
    /// the live solver, so the second level runs on a rebuilt one.
    const LOOPS: &str = r#"
        { pick(a); pick(b); pick(c); pick(d); pick(e); pick(f) }.
        r(a) :- pick(a).
        r(b) :- r(a), pick(b).
        r(a) :- r(b), pick(a).
        r(c) :- r(b), pick(c).
        r(b) :- r(c).
        r(d) :- pick(d).
        r(c) :- r(d), pick(c).
        r(e) :- pick(e), r(c).
        r(f) :- pick(f).
        ok :- r(c).
        ok :- r(f), r(e).
        :- not ok.
        cost(a, 1). cost(b, 0). cost(c, 1). cost(d, 1). cost(e, 0). cost(f, 1).
        paid(P, W) :- pick(P), cost(P, W).
        #minimize{ W@2,P : paid(P, W) }.
        #minimize{ 1@1,P : r(P) }.
    "#;

    fn optimum(outcome: OptOutcome) -> OptimalModel {
        match outcome {
            OptOutcome::Optimal(m) => m,
            other => panic!("expected an optimum, got {other:?}"),
        }
    }

    thread_local! {
        /// One entry per solver the descent rebuilt on this thread: for each loop
        /// nogood found before the rebuild that the solver must store (not satisfied
        /// and not a unit at the root), how many stored clauses equal it.
        static REBUILDS: std::cell::RefCell<Vec<Vec<usize>>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }

    /// Called by [`solve_optimal_assuming`] on every solver it rebuilds, before its
    /// first search: a stored clause is its source clause minus the literals false
    /// at the root.
    pub(super) fn record_rebuild(solver: &Solver, nogoods: &ClauseCache) {
        let stored = solver.stored_clauses();
        let mut copies = Vec::new();
        for nogood in nogoods.clauses() {
            if nogood.iter().any(|&l| solver.lit_is_true(l)) {
                continue;
            }
            let open: Vec<Lit> =
                nogood.iter().copied().filter(|&l| !solver.lit_is_true(l.negate())).collect();
            if open.len() > 1 {
                copies.push(stored.iter().filter(|&c| c == open.as_slice()).count());
            }
        }
        REBUILDS.with(|r| r.borrow_mut().push(copies));
    }

    /// A rebuilt solver starts with every loop nogood found so far exactly once: the
    /// per-solve cache is its only source, and it is loaded once per rebuild.
    #[test]
    fn rebuilt_solver_loads_each_loop_nogood_once() {
        let (ground, translation, _symbols) = setup(LOOPS);
        REBUILDS.with(|r| r.borrow_mut().clear());
        let solved = optimum(solve_on(&ground, &translation, &[], &mut ClauseCache::default()));
        assert!(solved.loop_nogoods > 0, "the solve must find loop nogoods");
        let rebuilds = REBUILDS.with(|r| r.take());
        assert!(
            rebuilds.iter().any(|copies| !copies.is_empty()),
            "a solver must be rebuilt after a loop nogood was found: {rebuilds:?}"
        );
        for copies in &rebuilds {
            assert!(copies.iter().all(|&n| n == 1), "loop nogood copies per rebuild: {copies:?}");
        }
    }

    /// Pins the cold descent: on a program with several optimal models, neither the
    /// returned model nor the search trajectory may depend on what earlier solves left
    /// in the session cache. The positive loops make the first solve cache loop
    /// nogoods, so a repeated solve on the same cache (a session answering the same
    /// request twice) would descend along a different path — and return a different
    /// optimal model — if the descent replayed the cache.
    #[test]
    fn optimal_model_is_independent_of_warm_cache() {
        let (ground, translation, symbols) = setup(LOOPS);
        let trajectory = |m: &OptimalModel| {
            (m.models_examined, m.solver_runs, m.conflicts, m.loop_nogoods, m.sat.decisions)
        };
        let mut cache = ClauseCache::default();
        let cold = optimum(solve_on(&ground, &translation, &[], &mut cache));
        assert!(cold.loop_nogoods > 0, "the cold solve must find loop nogoods");
        assert!(!cache.is_empty(), "the cold solve must hand its clauses to the cache");
        let warm = optimum(solve_on(&ground, &translation, &[], &mut cache));
        assert_eq!(
            (true_atoms(&ground, &symbols, &warm.model), &warm.cost),
            (true_atoms(&ground, &symbols, &cold.model), &cold.cost),
            "a warm cache changed the optimal model"
        );
        assert_eq!(trajectory(&warm), trajectory(&cold), "a warm cache changed the descent");
    }

    /// Pins the cold refutation at the [`Control`] level: an unsat core taken after
    /// earlier solves on the same control warmed its session cache must equal a fresh
    /// control's core. `a` needs `p`, whose only external support is `y`; `p` and `q`
    /// also support each other, so the first candidate with `a` is the unstable
    /// `{a, p, q}` and its loop nogood lands in the cache. Assuming `[a, b, c]`, a
    /// cold search blames `[a, c]` (`c` is refuted by propagation from `a` alone),
    /// while a search that replayed the nogood would refute `b` first (`a` forces
    /// `y`, which `b` forbids) and blame `[a, b]`.
    ///
    /// [`Control`]: crate::control::Control
    #[test]
    fn unsat_core_is_independent_of_warm_cache() {
        use crate::control::{AssumeOutcome, Assumption, Control, SolverConfig};
        let program = "{ a; b; c; y }. p :- q. q :- p. p :- y. :- a, not p. :- b, y. :- a, c.";
        let control = || {
            let mut ctl = Control::new(SolverConfig::default());
            ctl.add_program(program).unwrap();
            ctl.ground().unwrap();
            ctl
        };
        let holds = |names: &[&str]| names.iter().map(|n| Assumption::holds(n, &[])).collect();
        let abc: Vec<Assumption> = holds(&["a", "b", "c"]);
        let core = |ctl: &mut Control, assumptions: &[Assumption]| {
            let outcome = ctl.solve_with_assumptions(assumptions).unwrap();
            match outcome {
                AssumeOutcome::Unsatisfiable { core } => core,
                other => panic!("expected UNSAT, got {other:?}"),
            }
        };
        let cold = core(&mut control(), &abc);
        assert_eq!(cold, vec![0, 2], "the cold search blames a and c");

        let mut warm = control();
        let a: Vec<Assumption> = holds(&["a"]);
        assert!(matches!(warm.solve_with_assumptions(&a).unwrap(), AssumeOutcome::Optimal { .. }));
        assert!(warm.stats().loop_nogoods > 0, "solving a must cache the loop nogood");
        assert_eq!(core(&mut warm, &holds(&["a", "b"])), vec![0, 1]);
        assert_eq!(core(&mut warm, &abc), cold, "a warm cache changed the unsat core");
    }
}
