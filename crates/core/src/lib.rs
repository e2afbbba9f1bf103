//! The ASP-based concretizer — the primary contribution of *Using Answer Set Programming
//! for HPC Dependency Solving* (SC'22), reproduced in Rust.
//!
//! The concretizer turns abstract specs (user requests such as `hdf5@1.10.2 +mpi
//! ^zlib@1.2.8:`) into concrete installation DAGs, considering every package recipe's
//! versions, variants, conditional dependencies, virtual providers, conflicts, the site's
//! compilers/OS/targets, and — optionally — the database of already-installed packages
//! for build reuse. It follows the pipeline of Section V of the paper:
//!
//! 1. **Setup** ([`facts`]) — generate facts for all possible dependencies and installed
//!    packages (10k–100k facts for realistic instances),
//! 2. **Load** — the declarative software model, `concretize.lp` ([`CONCRETIZE_LP`]),
//! 3. **Ground & solve** — delegated to the [`asp`] engine (the clingo substitute),
//!    optimizing the 15 criteria of Table II ([`criteria`]) with the build/reuse buckets
//!    of Fig. 5,
//! 4. **Extract** ([`extract`]) — build the optimal concrete DAG from the best model.
//!
//! The old greedy concretizer the paper compares against is in [`greedy`].
//!
//! # Example
//!
//! ```
//! use spack_concretizer::Concretizer;
//! use spack_repo::builtin_repo;
//!
//! let repo = builtin_repo();
//! let result = Concretizer::new(&repo).concretize_str("zlib@1.2.11").unwrap();
//! assert_eq!(result.spec.node("zlib").unwrap().version.to_string(), "1.2.11");
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod criteria;
pub mod diagnose;
pub mod durable;
pub mod extract;
pub mod facts;
pub mod greedy;
pub mod json;
pub mod options;
pub mod server;
pub mod session;

use std::fmt;
use std::time::{Duration, Instant};

use asp::{AssumeOutcome, Assumption, SolverConfig, Value};
use spack_repo::Repository;
use spack_spec::{parse_spec, ConcreteSpec, Spec};
use spack_store::Database;

pub use config::SiteConfig;
pub use criteria::{criterion, describe_priority, Criterion, CRITERIA};
pub use diagnose::{Diagnostic, DiagnosticsStats, Severity};
pub use durable::{BatchCounters, BatchOutcome, ItemClass, ItemRecord, StateDir};
pub use extract::Extraction;
pub use facts::{setup_problem, BaseFacts, FactBuilder, SetupInfo};
pub use greedy::{GreedyConcretizer, GreedyError, GreedyResult};
pub use options::SolveOptions;
pub use session::{BaseDelta, ConcretizerSession, SessionStats};

/// The concretization logic program (the analogue of the ~800-line ASP program the paper
/// describes in Section V). Violations derive `error(Priority, Msg, Args)`-scheme atoms
/// interpreted by [`ERROR_GUARD_LP`].
pub const CONCRETIZE_LP: &str = include_str!("logic/concretize.lp");

/// Companion of [`CONCRETIZE_LP`]: both interpretations of the error atoms — hard
/// integrity constraints for the normal solve, minimized explanations for the relaxed
/// diagnostics solve — in one program, switched by the `#external` guard atom
/// `relax_mode` whose truth each solve fixes through an assumption. One grounding
/// therefore serves both phases (the fold of the old `error_hard.lp` /
/// `error_relax.lp` split).
pub const ERROR_GUARD_LP: &str = include_str!("logic/error_guard.lp");

/// Objective priority of the lowest error level in [`ERROR_GUARD_LP`]; the relaxed
/// solve optimizes only levels at or above this floor, and the normal solve's reported
/// cost vector is truncated below it (error levels are trivially zero in hard mode).
const ERROR_PRIORITY_FLOOR: i64 = 1000;

/// The `#external` guard atom of [`ERROR_GUARD_LP`], pinned false on the normal solve
/// and true on the relaxed diagnostics solve.
const RELAX_MODE: &str = "relax_mode";

/// The `#external` grounding-universe seed of [`CONCRETIZE_LP`], pinned false on
/// every solve (it exists only so a frozen session base can pre-ground the per-node
/// decision cascade for every package).
const NODE_SEED: &str = "node_seed";

/// Errors produced by the concretizer.
#[derive(Debug)]
pub enum ConcretizeError {
    /// A root spec or dependency references a package that is not in the repository.
    UnknownPackage(String),
    /// Fact generation failed.
    Setup(String),
    /// The constraints admit no valid solution. Carries the rendered explanation of
    /// *why* (see [`diagnose`]) and the cost accounting of producing it.
    Unsatisfiable {
        /// Why no configuration exists, most severe first — never empty.
        diagnostics: Vec<Diagnostic>,
        /// Unsat-core sizes, minimization rounds, combined per-phase accounting, and
        /// second-phase solve time (boxed: the accounting is bulky and the error is
        /// returned through many `Result`s).
        stats: Box<DiagnosticsStats>,
    },
    /// The solver failed.
    Solver(asp::AspError),
    /// The model could not be converted back into a concrete spec.
    Extraction(String),
    /// The solve budget (wall deadline and/or conflict limit) was exhausted before
    /// optimality was proven. Degrades gracefully: when branch and bound had already
    /// proven some stable model, it is carried here, marked non-optimal
    /// ([`Concretization::optimal`] is `false`), instead of being thrown away.
    Budget {
        /// The best model proven before the budget ran out, if any.
        partial_best: Option<Box<Concretization>>,
        /// Solver statistics of the interrupted solve (boxed: bulky, and the error is
        /// returned through many `Result`s).
        stats: Box<asp::Stats>,
    },
    /// A panic escaped a per-request solve (isolated by the batch paths so one
    /// poisoned request cannot kill its siblings). Carries the panic message.
    Internal(String),
}

impl fmt::Display for ConcretizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConcretizeError::UnknownPackage(p) => write!(f, "unknown package: {p}"),
            ConcretizeError::Setup(m) => write!(f, "setup error: {m}"),
            ConcretizeError::Unsatisfiable { diagnostics, .. } => {
                // Never empty: enforced at construction by `ConcretizeError::
                // unsatisfiable`, so the report always leads with a specific message.
                debug_assert!(!diagnostics.is_empty(), "Unsatisfiable without diagnostics");
                write!(f, "no valid configuration exists")?;
                if let Some(first) = diagnostics.first() {
                    write!(f, ": {}", first.message)?;
                    if diagnostics.len() > 1 {
                        write!(f, " (+{} more diagnostics)", diagnostics.len() - 1)?;
                    }
                }
                Ok(())
            }
            ConcretizeError::Solver(e) => write!(f, "solver error: {e}"),
            ConcretizeError::Extraction(m) => write!(f, "extraction error: {m}"),
            ConcretizeError::Budget { partial_best: Some(c), .. } => write!(
                f,
                "solve budget exhausted; best proven (non-optimal) model has {} packages",
                c.spec.len()
            ),
            ConcretizeError::Budget { partial_best: None, .. } => {
                write!(f, "solve budget exhausted before any model was found")
            }
            ConcretizeError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}

impl ConcretizeError {
    /// The single construction site of [`ConcretizeError::Unsatisfiable`], enforcing
    /// the documented "diagnostics never empty" invariant: when neither the relaxed
    /// solve nor the unsat core produced an explanation, the structural fallback
    /// diagnostic is inserted — no error path can fabricate an empty report.
    fn unsatisfiable(
        mut diagnostics: Vec<Diagnostic>,
        stats: DiagnosticsStats,
        roots: &[Spec],
    ) -> Self {
        if diagnostics.is_empty() {
            let roots_text = roots.iter().map(|r| r.to_string()).collect::<Vec<_>>().join(", ");
            diagnostics.push(diagnose::structural_diagnostic(&roots_text));
        }
        ConcretizeError::Unsatisfiable { diagnostics, stats: Box::new(stats) }
    }
}

impl std::error::Error for ConcretizeError {}

/// The worst-class result taxonomy every front end shares: the batch runner's
/// per-item class, the DLQ record's `status`, the server's [`server::wire::SolveResponse`]
/// `status` field, and the process exit code all map through this one enum.
///
/// Ordering is by exit-code severity (a batch exits with the *worst* class
/// observed): `Ok` < `Unsat` < `Parse` < `Budget` < `Internal`. Exit code `1` is
/// reserved for pipeline errors (bad arguments, I/O) and never produced by a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ResultClass {
    /// Concretized to an optimal DAG (exit code 0).
    Ok,
    /// Well-formed but unsatisfiable; carries diagnostics (exit code 2).
    Unsat,
    /// The spec text did not parse, or fact setup rejected the request (exit code 3).
    Parse,
    /// The solve budget ran out before optimality was proven (exit code 4).
    Budget,
    /// An internal error or an isolated panic (exit code 5).
    Internal,
}

impl ResultClass {
    /// The exit code this class contributes under the worst-class-wins contract.
    pub fn exit_code(self) -> u8 {
        match self {
            ResultClass::Ok => 0,
            ResultClass::Unsat => 2,
            ResultClass::Parse => 3,
            ResultClass::Budget => 4,
            ResultClass::Internal => 5,
        }
    }

    /// Stable wire name, used in checkpoint records, DLQ entries, and the server's
    /// `status` response field.
    pub fn as_str(self) -> &'static str {
        match self {
            ResultClass::Ok => "ok",
            ResultClass::Unsat => "unsat",
            ResultClass::Parse => "parse",
            ResultClass::Budget => "budget",
            ResultClass::Internal => "internal",
        }
    }

    /// Parse a wire name produced by [`ResultClass::as_str`].
    pub fn from_wire(s: &str) -> Option<Self> {
        Some(match s {
            "ok" => ResultClass::Ok,
            "unsat" => ResultClass::Unsat,
            "parse" => ResultClass::Parse,
            "budget" => ResultClass::Budget,
            "internal" => ResultClass::Internal,
            _ => return None,
        })
    }

    /// Classify a whole concretization result (`Ok` for a success).
    pub fn of(result: &Result<Concretization, ConcretizeError>) -> Self {
        match result {
            Ok(_) => ResultClass::Ok,
            Err(e) => e.class(),
        }
    }
}

impl fmt::Display for ResultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl ConcretizeError {
    /// The worst-class taxonomy of this error — the one source of truth behind the
    /// batch exit-code contract, DLQ records, and the server's `status` field.
    ///
    /// `Setup` and `UnknownPackage` classify as [`ResultClass::Parse`]: both mean
    /// "your request is malformed", distinct from "the constraints are
    /// unsatisfiable" and from "the tool broke".
    pub fn class(&self) -> ResultClass {
        match self {
            ConcretizeError::UnknownPackage(_) | ConcretizeError::Setup(_) => ResultClass::Parse,
            ConcretizeError::Unsatisfiable { .. } => ResultClass::Unsat,
            ConcretizeError::Budget { .. } => ResultClass::Budget,
            ConcretizeError::Solver(_)
            | ConcretizeError::Extraction(_)
            | ConcretizeError::Internal(_) => ResultClass::Internal,
        }
    }
}

impl From<asp::AspError> for ConcretizeError {
    fn from(e: asp::AspError) -> Self {
        ConcretizeError::Solver(e)
    }
}

/// Wall-clock timings of the concretization phases, matching the instrumentation of
/// Section VII (setup, load, ground, solve).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Fact generation.
    pub setup: Duration,
    /// Parsing the logic program.
    pub load: Duration,
    /// Grounding.
    pub ground: Duration,
    /// Solving (including optimization).
    pub solve: Duration,
}

impl PhaseTimings {
    /// Total time across all phases.
    pub fn total(&self) -> Duration {
        self.setup + self.load + self.ground + self.solve
    }
}

/// The result of a successful concretization.
#[derive(Debug, Clone)]
pub struct Concretization {
    /// The optimal concrete DAG.
    pub spec: ConcreteSpec,
    /// Packages reused from the installed database, as `(package, hash)`.
    pub reused: Vec<(String, String)>,
    /// Packages that must be built from source.
    pub built: Vec<String>,
    /// The objective vector: `(priority, value)`, highest priority first. Levels with
    /// a value of zero are omitted (an absent level means "cost 0"), so the vector is
    /// identical whether the solve ran one-shot or on a session.
    pub cost: Vec<(i64, i64)>,
    /// Phase timings.
    pub timings: PhaseTimings,
    /// Problem-instance summary (possible packages, facts, conditions, installed).
    pub setup: SetupInfo,
    /// Solver statistics.
    pub stats: asp::Stats,
    /// Was this DAG proven optimal? `true` on every normal solve; `false` only for
    /// the partial model carried by [`ConcretizeError::Budget`] — the best model
    /// proven before the solve budget ran out.
    pub optimal: bool,
}

impl Concretization {
    /// The number of packages that will be built from source.
    pub fn build_count(&self) -> usize {
        self.built.len()
    }

    /// The number of packages reused from the store/buildcache.
    pub fn reuse_count(&self) -> usize {
        self.reused.len()
    }
}

/// The ASP-based concretizer.
pub struct Concretizer<'a> {
    repo: &'a Repository,
    site: SiteConfig,
    database: Option<&'a Database>,
    solver: SolverConfig,
}

impl<'a> Concretizer<'a> {
    /// Create a concretizer over a repository with the default (Quartz-like) site
    /// configuration and no installed-package reuse.
    pub fn new(repo: &'a Repository) -> Self {
        Concretizer {
            repo,
            site: SiteConfig::default(),
            database: None,
            solver: SolverConfig::default(),
        }
    }

    /// Configure every option at once from a [`SolveOptions`] value — the site
    /// model, the optional reuse database, and the full solver configuration
    /// (budget, nogood store, seed).
    pub fn with_options(mut self, options: SolveOptions<'a>) -> Self {
        self.site = options.site;
        self.database = options.database;
        self.solver = options.solver;
        self
    }

    /// The options currently configured, as one [`SolveOptions`] value.
    pub fn options(&self) -> SolveOptions<'a> {
        SolveOptions {
            site: self.site.clone(),
            database: self.database,
            solver: self.solver.clone(),
        }
    }

    /// The site configuration in use.
    pub fn site(&self) -> &SiteConfig {
        &self.site
    }

    /// Concretize a single spec given as text.
    pub fn concretize_str(&self, text: &str) -> Result<Concretization, ConcretizeError> {
        let spec = parse_spec(text).map_err(|e| ConcretizeError::Setup(e.to_string()))?;
        self.concretize(&[spec])
    }

    /// Concretize one or more abstract root specs into a single concrete DAG.
    ///
    /// On infeasible input this runs the single-grounding diagnostics pipeline (see
    /// [`diagnose`]): the normal solve pins every root-spec condition through solver
    /// assumptions (and the `relax_mode` guard false) so UNSAT yields an unsat core,
    /// the core is minimized by deletion, and a relaxed re-solve *on the same ground
    /// program* — `relax_mode` flipped true — minimizes the
    /// `error(Priority, Msg, Args)` atoms to produce per-rule explanations. The
    /// returned [`ConcretizeError::Unsatisfiable`] always carries at least one
    /// diagnostic.
    pub fn concretize(&self, roots: &[Spec]) -> Result<Concretization, ConcretizeError> {
        if roots.is_empty() {
            return Err(ConcretizeError::Setup("at least one root spec is required".into()));
        }
        // Phase 1: setup (fact generation).
        let setup_start = Instant::now();
        let (mut ctl, setup_info) =
            setup_problem(self.repo, &self.site, self.database, roots, self.solver.clone())?;
        let setup_time = setup_start.elapsed();

        // Phase 2: load the software model plus both guarded error interpretations.
        ctl.add_program(CONCRETIZE_LP)?;
        ctl.add_program(ERROR_GUARD_LP)?;

        solve_prepared(self.repo, roots, ctl, setup_info, setup_time)
    }
}

/// The shared back half of a concretization — phases 3 and 4 — used by both the
/// one-shot [`Concretizer::concretize`] and [`ConcretizerSession`] requests: ground
/// (incrementally, when `ctl` is a session fork), solve in hard mode with the
/// root-spec conditions pinned true and the `relax_mode` guard pinned false, and
/// either extract the optimal DAG or run the diagnostics pipeline.
pub(crate) fn solve_prepared(
    repo: &Repository,
    roots: &[Spec],
    mut ctl: asp::Control,
    setup_info: SetupInfo,
    setup_time: Duration,
) -> Result<Concretization, ConcretizeError> {
    ctl.ground()?;
    let root_assumptions: Vec<Assumption> = setup_info
        .root_conditions
        .iter()
        .map(|(id, _)| Assumption::holds("assumed", &[Value::Int(*id)]))
        .collect();
    // The guards go FIRST — `explain_unsat` decodes core indices under the
    // invariant that indices 0 and 1 are the relax_mode and node_seed guards and
    // index i>1 is root i-2. (The engine realizes an external assumption as a
    // root-level unit clause wherever it sits, and it never appears in cores, so
    // only the index mapping depends on this position.)
    let mut assumptions = Vec::with_capacity(root_assumptions.len() + 2);
    assumptions.push(Assumption::fails(RELAX_MODE, &[]));
    assumptions.push(Assumption::fails(NODE_SEED, &[]));
    assumptions.extend(root_assumptions.iter().cloned());
    let outcome = ctl.solve_with_assumptions(&assumptions)?;

    let stats = ctl.stats().clone();
    let timings = PhaseTimings {
        setup: setup_time,
        load: stats.load_time,
        ground: stats.ground_time,
        solve: stats.solve_time,
    };

    match outcome {
        AssumeOutcome::Unsatisfiable { core } => {
            Err(explain_unsat(roots, &setup_info, &mut ctl, &root_assumptions, core, setup_time))
        }
        AssumeOutcome::Optimal { model, cost } => {
            build_concretization(repo, roots, model, cost, timings, setup_info, stats, true)
        }
        AssumeOutcome::Budget { partial } => {
            // Graceful degradation: branch and bound may have proven a stable model
            // before the budget ran out — carry it, marked non-optimal, instead of
            // returning nothing. An extraction hiccup on the partial degrades to
            // "no partial" rather than masking the budget outcome.
            let partial_best = partial.and_then(|(model, cost)| {
                build_concretization(
                    repo,
                    roots,
                    model,
                    cost,
                    timings,
                    setup_info.clone(),
                    stats.clone(),
                    false,
                )
                .ok()
                .map(Box::new)
            });
            Err(ConcretizeError::Budget { partial_best, stats: Box::new(stats) })
        }
    }
}

/// Phase 4 (extract): turn the winning model and objective vector into a
/// [`Concretization`]. Shared by the optimal path and the budget path's partial
/// model (which differs only in the `optimal` marker).
#[allow(clippy::too_many_arguments)]
fn build_concretization(
    repo: &Repository,
    roots: &[Spec],
    model: asp::Model,
    cost: Vec<(i64, i64)>,
    timings: PhaseTimings,
    setup_info: SetupInfo,
    stats: asp::Stats,
    optimal: bool,
) -> Result<Concretization, ConcretizeError> {
    // The error levels of ERROR_GUARD_LP are trivially zero in hard mode;
    // they are an implementation detail of the diagnostics fold, not part
    // of the Table II objective vector. Zero-valued Table II levels are
    // dropped too: which levels *materialize* depends on how much of the
    // package universe was ground (a session base covers the whole repo,
    // a one-shot solve only the roots' closure), while an absent level
    // means exactly "cost 0" — normalizing to the nonzero levels makes the
    // objective vector identical across both modes.
    let cost: Vec<(i64, i64)> =
        cost.into_iter().filter(|&(p, v)| p < ERROR_PRIORITY_FLOOR && v != 0).collect();
    let root_names: Vec<String> = roots.iter().filter_map(|r| r.name.clone()).collect();
    let extraction = extract::extract(&model, &root_names)?;
    // Sanity check: every named (non-virtual) root must be present.
    for root in roots {
        if let Some(name) = &root.name {
            if !repo.is_virtual(name) && !extraction.spec.contains(name) {
                return Err(ConcretizeError::Extraction(format!(
                    "root {name} missing from the solution"
                )));
            }
        }
    }
    Ok(Concretization {
        spec: extraction.spec,
        reused: extraction.reused,
        built: extraction.built,
        cost,
        timings,
        setup: setup_info,
        stats,
        optimal,
    })
}

/// The second phase of the diagnostics pipeline, run on the *same* control as the
/// failed normal solve: minimize the unsat core, flip the `relax_mode` guard true
/// and re-solve (errors minimized instead of forbidden — no second setup, no
/// second grounding), and render both into [`Diagnostic`]s. The core minimization
/// adopts the failed hard solve's retired solver, or warm-starts a fresh probe from
/// the control's session clause cache ([`DiagnosticsStats::warm_clauses`] reports how
/// many clauses it replayed). The relaxed solve starts cold, like every solve, so its
/// explanation never depends on what the hard solve happened to learn.
fn explain_unsat(
    roots: &[Spec],
    setup_info: &SetupInfo,
    ctl: &mut asp::Control,
    root_assumptions: &[Assumption],
    core: Vec<usize>,
    setup_time: Duration,
) -> ConcretizeError {
    let second_phase_start = Instant::now();
    let ground_before = ctl.stats().ground_time;
    // The search core indexes the combined assumption slice (the pinned relax_mode
    // and node_seed guards at indices 0 and 1, then the roots). The guards are solve
    // parameterization, not blameable user requirements — strip them (and shift
    // the root indices back) before minimizing and reporting.
    let search_core: Vec<usize> = core.into_iter().filter(|&i| i > 1).map(|i| i - 2).collect();
    let core_size = search_core.len();
    let relax_off = [Assumption::fails(RELAX_MODE, &[]), Assumption::fails(NODE_SEED, &[])];
    let (min_core, rounds) = match ctl.minimize_core(root_assumptions, &search_core, &relax_off) {
        Ok(r) => r,
        Err(e) => return ConcretizeError::Solver(e),
    };
    // The minimized core, as the user wrote the requirements.
    let core_texts: Vec<String> = min_core
        .iter()
        .filter_map(|&i| setup_info.root_conditions.get(i).map(|(_, t)| t.clone()))
        .collect();

    // Relaxed re-solve, reusing the first control's ground program: same facts,
    // same root assumptions, only the relax_mode guard flips true. The priority
    // floor skips the Table II levels entirely — only the explanation matters
    // here. Engine failures propagate as real errors; they are never degraded
    // into an empty (fabricated) report.
    let mut relaxed_assumptions = root_assumptions.to_vec();
    relaxed_assumptions.push(Assumption::holds(RELAX_MODE, &[]));
    relaxed_assumptions.push(Assumption::fails(NODE_SEED, &[]));
    let mut diagnostics =
        match ctl.solve_with_assumptions_floor(&relaxed_assumptions, ERROR_PRIORITY_FLOOR) {
            Ok(AssumeOutcome::Optimal { model, .. }) => diagnose::diagnostics_from_model(&model),
            // Structurally infeasible even with errors relaxed (e.g. two root
            // requirements pinning one decision both ways): the core explains it.
            Ok(AssumeOutcome::Unsatisfiable { .. }) => Vec::new(),
            // The solve budget ran out during the explanation phase: a partial
            // error model still names real violations (possibly more than the
            // minimal set); with no partial the core-only explanation below stands.
            Ok(AssumeOutcome::Budget { partial }) => partial
                .map(|(model, _)| diagnose::diagnostics_from_model(&model))
                .unwrap_or_default(),
            Err(e) => return ConcretizeError::Solver(e),
        };

    // Attach the core as provenance to every model-level diagnostic, and as its own
    // leading diagnostic naming the user requirements that cannot hold together —
    // a supporting Note when model-level errors carry the specifics, the primary
    // Error when the core is the only explanation (structural infeasibility).
    for d in &mut diagnostics {
        d.provenance = core_texts.clone();
    }
    if let Some(mut core_diag) = diagnose::core_diagnostic(&core_texts) {
        if !diagnostics.is_empty() {
            core_diag.severity = Severity::Note;
        }
        diagnostics.insert(0, core_diag);
    }

    let stats = ctl.stats();
    ConcretizeError::unsatisfiable(
        diagnostics,
        DiagnosticsStats {
            core_size,
            minimized_core_size: min_core.len(),
            minimization_rounds: rounds,
            second_phase: second_phase_start.elapsed(),
            phases: PhaseTimings {
                setup: setup_time,
                load: stats.load_time,
                ground: stats.ground_time,
                solve: stats.solve_time,
            },
            second_phase_ground: stats.ground_time.saturating_sub(ground_before),
            warm_clauses: stats.warm_clauses,
            ground_delta: stats.ground.delta,
        },
        roots,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use spack_repo::builtin_repo;
    use spack_spec::VariantValue;

    fn concretize(text: &str) -> Result<Concretization, ConcretizeError> {
        let repo = builtin_repo();
        Concretizer::new(&repo)
            .with_options(SolveOptions::new().site(SiteConfig::minimal()))
            .concretize_str(text)
    }

    #[test]
    fn result_class_is_the_single_exit_code_source_of_truth() {
        // The worst-class contract (batch exit codes, DLQ records, server status)
        // all routes through ConcretizeError::class(); pin every mapping.
        let unsat =
            ConcretizeError::Unsatisfiable { diagnostics: Vec::new(), stats: Box::default() };
        assert_eq!(unsat.class(), ResultClass::Unsat);
        assert_eq!(ConcretizeError::Setup("x".into()).class(), ResultClass::Parse);
        assert_eq!(ConcretizeError::UnknownPackage("x".into()).class(), ResultClass::Parse);
        let solver = ConcretizeError::Solver(asp::AspError::Usage("x".into()));
        assert_eq!(solver.class(), ResultClass::Internal);
        assert_eq!(ConcretizeError::Extraction("x".into()).class(), ResultClass::Internal);
        assert_eq!(ConcretizeError::Internal("x".into()).class(), ResultClass::Internal);

        for (class, code, name) in [
            (ResultClass::Ok, 0, "ok"),
            (ResultClass::Unsat, 2, "unsat"),
            (ResultClass::Parse, 3, "parse"),
            (ResultClass::Budget, 4, "budget"),
            (ResultClass::Internal, 5, "internal"),
        ] {
            assert_eq!(class.exit_code(), code);
            assert_eq!(class.as_str(), name);
            assert_eq!(ResultClass::from_wire(name), Some(class));
            assert_eq!(class.to_string(), name);
        }
        assert_eq!(ResultClass::from_wire("bogus"), None);
        // Worst-class ordering: later variants are worse (batch takes the max).
        assert!(ResultClass::Ok < ResultClass::Unsat);
        assert!(ResultClass::Unsat < ResultClass::Parse);
        assert!(ResultClass::Parse < ResultClass::Budget);
        assert!(ResultClass::Budget < ResultClass::Internal);
        // ResultClass::of classifies whole results.
        assert_eq!(
            ResultClass::of(&Err(ConcretizeError::Internal("x".into()))),
            ResultClass::Internal
        );
    }

    #[test]
    fn zlib_concretizes_to_newest_version() {
        let result = concretize("zlib").unwrap();
        assert_eq!(result.spec.len(), 1);
        let zlib = result.spec.node("zlib").unwrap();
        assert_eq!(zlib.version.to_string(), "1.2.12");
        assert_eq!(zlib.compiler.name, "gcc");
        assert_eq!(zlib.os, "centos8");
        assert_eq!(result.built, vec!["zlib".to_string()]);
        assert!(result.timings.total() > Duration::ZERO);
    }

    #[test]
    fn version_constraints_are_honoured() {
        let result = concretize("zlib@1.2.8").unwrap();
        assert_eq!(result.spec.node("zlib").unwrap().version.to_string(), "1.2.8");
    }

    #[test]
    fn unsatisfiable_version_is_reported() {
        let err = concretize("zlib@9.9").unwrap_err();
        match &err {
            ConcretizeError::Unsatisfiable { diagnostics, stats } => {
                assert!(!diagnostics.is_empty(), "diagnostics must never be empty");
                assert!(diagnostics.iter().any(|d| d.message.contains("zlib")), "{diagnostics:?}");
                assert!(stats.minimized_core_size <= stats.core_size.max(1));
            }
            other => panic!("expected Unsatisfiable, got {other:?}"),
        }
    }

    #[test]
    fn conditional_dependency_follows_variant() {
        // bzip2 is only a dependency of example when +bzip (the default) is on.
        let with = concretize("example").unwrap();
        assert!(with.spec.contains("bzip2"));
        let without = concretize("example~bzip").unwrap();
        assert!(!without.spec.contains("bzip2"));
        assert_eq!(
            without.spec.node("example").unwrap().variants.get("bzip"),
            Some(&VariantValue::Bool(false))
        );
    }

    #[test]
    fn virtual_dependencies_get_exactly_one_provider() {
        let repo = builtin_repo();
        let result = concretize("example").unwrap();
        let providers: Vec<&str> = repo
            .providers("mpi")
            .iter()
            .map(|s| s.as_str())
            .filter(|p| result.spec.contains(p))
            .collect();
        assert_eq!(providers.len(), 1, "exactly one mpi provider expected: {providers:?}");
        let provider_node = result.spec.node(providers[0]).unwrap();
        assert!(provider_node.provides.contains(&"mpi".to_string()));
    }

    #[test]
    fn hpctoolkit_mpich_is_solved_by_flipping_the_variant() {
        // The completeness example of Section V-B1: the ASP concretizer finds that
        // setting +mpi is the only way for mpich to be in the solution.
        let result = concretize("hpctoolkit ^mpich").unwrap();
        assert!(result.spec.contains("mpich"));
        let hpctoolkit = result.spec.node("hpctoolkit").unwrap();
        assert_eq!(hpctoolkit.variants.get("mpi"), Some(&VariantValue::Bool(true)));
    }
}
