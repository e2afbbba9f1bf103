//! The traced run: per-layer numbers for a workload.
//!
//! It replays the workload's requests twice:
//!
//! 1. **Direct replay.** Each request is solved by the real `Concretizer::concretize`
//!    and `ConcretizerSession::concretize` (untimed by spans), and by a *mirror* of
//!    each path built from the same public calls — `setup_problem` or
//!    `FrozenControl::request` + `BaseFacts::request` + `restrict_*`, then
//!    `Control::ground`, `Control::solve_with_assumptions`, `extract::extract` and
//!    the diagnostics calls. Spans are recorded around every call, in memory, and
//!    written to `perfbench/traces/` at the end. The mirror must render responses
//!    byte-identical to the real path (the drift guard); a mismatch fails the run.
//! 2. **Server replay.** The same traffic through `serve_pipe`, with periodic `stats`
//!    requests, for the queue and shard counters, then idle updates.
//!
//! The mirrors re-run `asp::translate::translate` after `Control::ground` to time
//! it (the real path translates inside `ground`); `ground.ms` is the ground span
//! minus that translate time. Tracing overhead is the mirror's median request time
//! minus the real path's, over the same requests.

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use asp::{AssumeOutcome, Assumption, FrozenControl, SharedClauseStore, SolverConfig, Value};
use spack_concretizer::server::wire::{self, SolveResponse};
use spack_concretizer::{
    diagnose, extract, setup_problem, BaseFacts, Concretization, ConcretizeError, Concretizer,
    ConcretizerSession, DiagnosticsStats, FactBuilder, SetupInfo, Severity, SiteConfig,
    SolveOptions, CONCRETIZE_LP, ERROR_GUARD_LP,
};
use spack_repo::Repository;
use spack_spec::{parse_spec, Spec};
use spack_store::Database;

use crate::gen::{self, Event, Mix, UpdateCycle, CYCLE};
use crate::service::{self, References};
use crate::stats;
use crate::{Metric, Outcome};

/// The guard atom of `ERROR_GUARD_LP` (pinned false on the normal solve).
const RELAX_MODE: &str = "relax_mode";
/// The grounding-universe seed of `CONCRETIZE_LP` (pinned false on every solve).
const NODE_SEED: &str = "node_seed";
/// Lowest objective priority of the error levels.
const ERROR_PRIORITY_FLOOR: i64 = 1000;
/// Update cycle positions replayed after the direct phase: the first publish and
/// the yank, one of each patch path.
const PROBE_UPDATES: [usize; 2] = [0, 3];
/// Idle updates at the end of the server replay, each sent when the previous one is
/// answered: the update cycle twice (six publishes, two yanks), ending on the
/// starting universe.
const IDLE_UPDATES: usize = 2 * CYCLE;
/// The server replay asks for `stats` after every this many events.
const STATS_EVERY: usize = 16;

/// One recorded span.
struct Span {
    request: String,
    name: &'static str,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// In-memory span recorder; spans nest by call order.
struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    fn new() -> Self {
        Recorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn enter(&mut self, request: &str, name: &'static str) {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            request: request.to_string(),
            name,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span; returns its duration in milliseconds.
    fn exit(&mut self) -> f64 {
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end = self.origin.elapsed();
        (self.spans[i].end - self.spans[i].start).as_secs_f64() * 1e3
    }

    /// Close every span opened at or below `depth` (after an early error return).
    fn unwind(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.exit();
        }
    }

    /// Self time of every span: its duration minus the part its children cover.
    fn self_times(&self) -> Vec<Duration> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        self.spans.iter().zip(child).map(|(s, c)| (s.end - s.start).saturating_sub(c)).collect()
    }

    /// Median self time, in milliseconds, of the spans named `name` on `path`
    /// (the name of their root span), or 0 without any.
    fn median_self_ms(&self, self_times: &[Duration], path: &str, name: &str) -> f64 {
        let mut values = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name && self.root_name(i) == path {
                values.push(self_times[i].as_secs_f64() * 1e3);
            }
        }
        stats::median(&stats::sorted(values)).unwrap_or(0.0)
    }

    fn root_name(&self, mut i: usize) -> &'static str {
        while let Some(p) = self.spans[i].parent {
            i = p;
        }
        self.spans[i].name
    }

    /// Write every span as one JSON line.
    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_times = self.self_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"request\": \"{}\", \"span\": \"{}\", \"parent\": {parent}, \
                 \"start_us\": {}, \"end_us\": {}, \"self_us\": {}}}",
                s.request,
                s.name,
                s.start.as_micros(),
                s.end.as_micros(),
                self_times[i].as_micros()
            )?;
        }
        out.flush()
    }
}

/// Counters of one mirrored request.
#[derive(Default, Clone)]
struct Probe {
    wall_ms: f64,
    ground_ms: f64,
    translate_ms: f64,
    stats: asp::Stats,
    facts: usize,
    unsat: Option<(usize, u64)>,
}

/// The session half the mirror keeps: a frozen base of its own, its base facts, and
/// its own cross-request clause store.
struct MirrorSession {
    frozen: FrozenControl,
    base: BaseFacts,
    store: Arc<SharedClauseStore>,
}

impl MirrorSession {
    /// Freeze a base the way `Concretizer::session` does.
    fn freeze(repo: &Repository, db: Option<&Database>) -> Result<Self, ConcretizeError> {
        let site = SiteConfig::quartz();
        let mut ctl = asp::Control::new(SolverConfig::default());
        let base = FactBuilder::new(repo, &site, db).base(&mut ctl)?;
        ctl.add_program(CONCRETIZE_LP)?;
        ctl.add_program(ERROR_GUARD_LP)?;
        let frozen = ctl.freeze_base_partitioned(&base.partition_symbols())?;
        Ok(MirrorSession { frozen, base, store: Arc::new(SharedClauseStore::new()) })
    }

    /// Patch the frozen base onto a new universe, as `apply_base_delta` does.
    fn patch(
        &mut self,
        rec: &mut Recorder,
        id: &str,
        repo: &Repository,
        db: Option<&Database>,
    ) -> Result<(), String> {
        let site = SiteConfig::quartz();
        rec.enter(id, "session.patch");
        rec.enter(id, "facts.base");
        let mut staged = self.frozen.request();
        let new_base =
            FactBuilder::new(repo, &site, db).base(&mut staged).map_err(|e| e.to_string())?;
        rec.exit();
        rec.enter(id, "ground.patch");
        self.frozen.patch_base(staged, &new_base.partition_symbols()).map_err(|e| e.to_string())?;
        rec.exit();
        rec.exit();
        self.base = new_base;
        Ok(())
    }
}

fn parse_roots(spec: &str) -> Result<Vec<Spec>, ConcretizeError> {
    parse_spec(spec).map(|s| vec![s]).map_err(|e| ConcretizeError::Setup(e.to_string()))
}

/// The mirror of `Concretizer::concretize_str` (one-shot).
fn mirror_oneshot(
    rec: &mut Recorder,
    id: &str,
    repo: &Repository,
    db: Option<&Database>,
    spec: &str,
    probe: &mut Probe,
) -> Result<Concretization, ConcretizeError> {
    let depth = rec.open.len();
    rec.enter(id, "oneshot.request");
    let result = (|| {
        rec.enter(id, "spec.parse");
        let roots = parse_roots(spec)?;
        rec.exit();
        rec.enter(id, "facts.setup");
        let (mut ctl, info) =
            setup_problem(repo, &SiteConfig::quartz(), db, &roots, SolverConfig::default())?;
        rec.exit();
        rec.enter(id, "parser.load");
        ctl.add_program(CONCRETIZE_LP)?;
        ctl.add_program(ERROR_GUARD_LP)?;
        rec.exit();
        solve_prepared(rec, id, repo, &roots, ctl, info, probe)
    })();
    rec.unwind(depth + 1);
    probe.wall_ms = rec.exit();
    result
}

/// The mirror of `ConcretizerSession::concretize_str`.
fn mirror_session(
    rec: &mut Recorder,
    id: &str,
    session: &MirrorSession,
    repo: &Repository,
    spec: &str,
    probe: &mut Probe,
) -> Result<Concretization, ConcretizeError> {
    let depth = rec.open.len();
    rec.enter(id, "session.request");
    let result = (|| {
        rec.enter(id, "spec.parse");
        let roots = parse_roots(spec)?;
        rec.exit();
        rec.enter(id, "facts.request");
        let mut ctl = session.frozen.request();
        if ctl.solver_config_mut().share_nogoods {
            ctl.set_shared_store(Arc::clone(&session.store));
        }
        let info = session.base.request(repo, &mut ctl, &roots)?;
        let (symbols, ranges) = session.base.request_exclusions(repo, &roots);
        ctl.restrict_symbols(symbols);
        ctl.restrict_int_ranges(ranges);
        rec.exit();
        solve_prepared(rec, id, repo, &roots, ctl, info, probe)
    })();
    rec.unwind(depth + 1);
    probe.wall_ms = rec.exit();
    result
}

/// The shared back half of both paths: ground, solve with the root conditions and
/// guards assumed, then extract or explain.
fn solve_prepared(
    rec: &mut Recorder,
    id: &str,
    repo: &Repository,
    roots: &[Spec],
    mut ctl: asp::Control,
    info: SetupInfo,
    probe: &mut Probe,
) -> Result<Concretization, ConcretizeError> {
    probe.facts = info.facts;
    rec.enter(id, "ground");
    ctl.ground()?;
    probe.ground_ms = rec.exit();
    rec.enter(id, "translate");
    let translation = asp::translate::translate(ctl.ground_program().expect("ground() just ran"));
    std::hint::black_box(&translation);
    probe.translate_ms = rec.exit();
    let root_assumptions: Vec<Assumption> = info
        .root_conditions
        .iter()
        .map(|(cid, _)| Assumption::holds("assumed", &[Value::Int(*cid)]))
        .collect();
    let mut assumptions =
        vec![Assumption::fails(RELAX_MODE, &[]), Assumption::fails(NODE_SEED, &[])];
    assumptions.extend(root_assumptions.iter().cloned());
    rec.enter(id, "optimize");
    let outcome = ctl.solve_with_assumptions(&assumptions)?;
    rec.exit();
    probe.stats = ctl.stats().clone();
    match outcome {
        AssumeOutcome::Optimal { model, cost } => {
            rec.enter(id, "extract");
            let cost: Vec<(i64, i64)> =
                cost.into_iter().filter(|&(p, v)| p < ERROR_PRIORITY_FLOOR && v != 0).collect();
            let names: Vec<String> = roots.iter().filter_map(|r| r.name.clone()).collect();
            let extraction = extract::extract(&model, &names)?;
            for name in &names {
                if !repo.is_virtual(name) && !extraction.spec.contains(name) {
                    return Err(ConcretizeError::Extraction(format!(
                        "root {name} missing from the solution"
                    )));
                }
            }
            rec.exit();
            Ok(Concretization {
                spec: extraction.spec,
                reused: extraction.reused,
                built: extraction.built,
                cost,
                timings: Default::default(),
                setup: info,
                stats: probe.stats.clone(),
                optimal: true,
            })
        }
        AssumeOutcome::Unsatisfiable { core } => {
            rec.enter(id, "diagnose");
            let err = explain_unsat(&mut ctl, roots, &info, &root_assumptions, core, probe);
            rec.exit();
            Err(err)
        }
        AssumeOutcome::Budget { .. } => {
            Err(ConcretizeError::Internal("unexpected budget outcome".into()))
        }
    }
}

/// The mirror of the diagnostics pipeline: minimize the core, re-solve relaxed on
/// the same grounding, render the explanation.
fn explain_unsat(
    ctl: &mut asp::Control,
    roots: &[Spec],
    info: &SetupInfo,
    root_assumptions: &[Assumption],
    core: Vec<usize>,
    probe: &mut Probe,
) -> ConcretizeError {
    let search_core: Vec<usize> = core.into_iter().filter(|&i| i > 1).map(|i| i - 2).collect();
    let relax_off = [Assumption::fails(RELAX_MODE, &[]), Assumption::fails(NODE_SEED, &[])];
    let (min_core, rounds) = match ctl.minimize_core(root_assumptions, &search_core, &relax_off) {
        Ok(r) => r,
        Err(e) => return ConcretizeError::Solver(e),
    };
    probe.unsat = Some((search_core.len(), rounds));
    let core_texts: Vec<String> = min_core
        .iter()
        .filter_map(|&i| info.root_conditions.get(i).map(|(_, t)| t.clone()))
        .collect();
    let mut relaxed = root_assumptions.to_vec();
    relaxed.push(Assumption::holds(RELAX_MODE, &[]));
    relaxed.push(Assumption::fails(NODE_SEED, &[]));
    let mut diagnostics = match ctl.solve_with_assumptions_floor(&relaxed, ERROR_PRIORITY_FLOOR) {
        Ok(AssumeOutcome::Optimal { model, .. }) => diagnose::diagnostics_from_model(&model),
        Ok(AssumeOutcome::Unsatisfiable { .. }) => Vec::new(),
        Ok(AssumeOutcome::Budget { partial }) => {
            partial.map(|(model, _)| diagnose::diagnostics_from_model(&model)).unwrap_or_default()
        }
        Err(e) => return ConcretizeError::Solver(e),
    };
    for d in &mut diagnostics {
        d.provenance = core_texts.clone();
    }
    if let Some(mut core_diag) = diagnose::core_diagnostic(&core_texts) {
        if !diagnostics.is_empty() {
            core_diag.severity = Severity::Note;
        }
        diagnostics.insert(0, core_diag);
    }
    if diagnostics.is_empty() {
        let text = roots.iter().map(|r| r.to_string()).collect::<Vec<_>>().join(", ");
        diagnostics.push(diagnose::structural_diagnostic(&text));
    }
    let stats = DiagnosticsStats {
        core_size: search_core.len(),
        minimized_core_size: min_core.len(),
        minimization_rounds: rounds,
        ..DiagnosticsStats::default()
    };
    ConcretizeError::Unsatisfiable { diagnostics, stats: Box::new(stats) }
}

/// The universe states a traced workload visits, and its traffic.
struct Setup {
    mix: Mix,
    /// The seed's update cycle.
    updates: UpdateCycle,
    /// Universe states (see [`UpdateCycle::states`]); the solves see the first.
    states: Vec<(Repository, Database)>,
    /// The solves of the direct replay.
    events: Vec<Event>,
    /// Whether the server replay is open loop (service) or closed loop (sweep).
    open_loop: bool,
    /// The service workload's universe, for reference renders.
    service: Option<service::Universe>,
}

fn setup(workload: &str, seed: u64, seconds: f64) -> Setup {
    if workload == "oneshot_sweep" {
        let u = crate::oneshot::Universe::new();
        let updates = u.catalog.update_cycle(&u.mix, seed);
        let states = updates.states(&u.repo, &u.cache);
        let events =
            u.mix.sequence(seed).take(4096).map(|req| Event { due: Duration::ZERO, req }).collect();
        return Setup { mix: u.mix, updates, states, events, open_loop: false, service: None };
    }
    let (u, _) = service::Universe::new(seed);
    Setup {
        mix: u.mix.clone(),
        updates: u.updates.clone(),
        states: u.updates.states(&u.repo, &u.cache),
        events: gen::open_loop(&u.mix, seed, service::RATE, seconds),
        open_loop: true,
        service: Some(u),
    }
}

/// Per-request records of the direct replay.
#[derive(Default)]
struct Direct {
    oneshot: Vec<Probe>,
    session: Vec<Probe>,
    oneshot_direct_ms: Vec<f64>,
    session_direct_ms: Vec<f64>,
    /// Direct session time per request index (for the server's wait).
    session_ms_by_req: HashMap<usize, Vec<f64>>,
    /// One-shot renders by request, reused as server references.
    renders: HashMap<usize, String>,
    patch_add_ms: Vec<f64>,
    patch_remove_ms: Vec<f64>,
    patch_rebuilds: u64,
    rules_reinstantiated: Vec<f64>,
    freeze_ms: f64,
    base_facts: usize,
    spec_parse_us: Vec<f64>,
    render_us: Vec<f64>,
    solves: usize,
    updates: usize,
}

/// Run the traced replay of `workload`.
pub fn run(workload: &str, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let s = setup(workload, seed, seconds);
    let oneshot_primary = workload == "oneshot_sweep";
    let mut rec = Recorder::new();
    let mut failures = Vec::new();
    let mut attempted = 0usize;
    let mut d = Direct::default();

    // Direct replay: real paths and their mirrors, request by request.
    let (repo0, cache0) = (&s.states[0].0, &s.states[0].1);
    let t = Instant::now();
    let real_plain =
        Concretizer::new(repo0).with_options(SolveOptions::new().site(SiteConfig::quartz()));
    let real_reuse = Concretizer::new(repo0)
        .with_options(SolveOptions::new().site(SiteConfig::quartz()).database(cache0));
    let mut sessions: [ConcretizerSession<'_>; 2] = [
        real_plain.session().map_err(|e| e.to_string())?,
        real_reuse.session().map_err(|e| e.to_string())?,
    ];
    d.freeze_ms = t.elapsed().as_secs_f64() * 1e3;
    d.base_facts = sessions.iter().map(|x| x.stats().base_facts).sum();
    let mut mirrors = [
        MirrorSession::freeze(repo0, None).map_err(|e| e.to_string())?,
        MirrorSession::freeze(repo0, Some(cache0)).map_err(|e| e.to_string())?,
    ];

    let mut done: HashSet<usize> = HashSet::new();
    let start = Instant::now();
    for (n, e) in s.events.iter().enumerate() {
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        if !done.insert(e.req) {
            continue;
        }
        attempted += 1;
        if let Some(f) =
            replay_solve(&mut rec, &mut d, &s, &sessions, &mirrors, e.req, &format!("e{n}"))
        {
            failures.push(f);
        }
    }
    for pos in PROBE_UPDATES {
        apply_update(&mut rec, &mut d, &s, &mut sessions, &mut mirrors, pos, &format!("p{pos}"))?;
    }
    let direct_s = start.elapsed().as_secs_f64();
    drop(sessions);
    drop(mirrors);

    // Server replay with periodic stats requests.
    let server = replay_server(&s, seed, seconds, &d, &mut failures, &mut attempted);

    let path = std::path::PathBuf::from(format!("perfbench/traces/{workload}-seed{seed}.jsonl"));
    rec.write(&path).map_err(|e| format!("writing {}: {e}", path.display()))?;

    let self_times = rec.self_times();
    let primary = if oneshot_primary { "oneshot.request" } else { "session.request" };
    let probes = if oneshot_primary { &d.oneshot } else { &d.session };
    let med = |values: Vec<f64>| stats::median(&stats::sorted(values)).unwrap_or(0.0);
    let avg = |values: Vec<f64>| stats::mean(&values);
    let unsat: Vec<(usize, u64)> = probes.iter().filter_map(|p| p.unsat).collect();
    let ratio: Vec<f64> = d
        .session
        .iter()
        .zip(&d.oneshot)
        .map(|(se, on)| se.stats.ground.atoms as f64 / (on.stats.ground.atoms.max(1)) as f64)
        .collect();
    let counter =
        |f: fn(&asp::Stats) -> u64| avg(probes.iter().map(|p| f(&p.stats) as f64).collect());
    let span = |path: &str, name: &str| rec.median_self_ms(&self_times, path, name);
    let metrics = vec![
        Metric::new("spec.parse_us", med(d.spec_parse_us.clone()), "us"),
        Metric::new("wire.parse_us", server.parse_us, "us"),
        Metric::new("wire.render_us", med(d.render_us.clone()), "us"),
        Metric::new("server.wait_p50_ms", server.wait_p50_ms, "ms"),
        Metric::new("server.wait_p90_ms", server.wait_p90_ms, "ms"),
        Metric::new("server.shards", server.shards, "count"),
        Metric::new("server.base_grounds", server.base_grounds, "count"),
        Metric::new("server.patches", server.patches, "count"),
        Metric::new("server.refreezes", server.refreezes, "count"),
        Metric::new("server.evictions", server.evictions, "count"),
        Metric::new("server.update_p50_ms", server.update_p50_ms, "ms"),
        Metric::new("session.freeze_ms", d.freeze_ms, "ms"),
        Metric::new("session.request_ms", med(d.session_direct_ms.clone()), "ms"),
        Metric::new("session.patch_add_ms", med(d.patch_add_ms.clone()), "ms"),
        Metric::new("session.patch_remove_ms", med(d.patch_remove_ms.clone()), "ms"),
        Metric::new("session.patch_rebuilds", d.patch_rebuilds as f64, "count"),
        Metric::new("session.rules_reinstantiated", avg(d.rules_reinstantiated.clone()), "count"),
        Metric::new("session.store_hits", server.store_hits, "count"),
        Metric::new("session.store_misses", server.store_misses, "count"),
        Metric::new("session.store_transferred", server.store_transferred, "count"),
        Metric::new("session.frozen_instances", server.frozen_instances, "count"),
        Metric::new(
            "facts.setup_ms",
            span(primary, if oneshot_primary { "facts.setup" } else { "facts.request" }),
            "ms",
        ),
        Metric::new("facts.count", avg(probes.iter().map(|p| p.facts as f64).collect()), "count"),
        Metric::new("facts.base_count", d.base_facts as f64, "count"),
        Metric::new("parser.load_ms", span("oneshot.request", "parser.load"), "ms"),
        Metric::new(
            "ground.ms",
            med(d.oneshot.iter().map(|p| p.ground_ms - p.translate_ms).collect()),
            "ms",
        ),
        Metric::new(
            "ground.atoms",
            avg(d.oneshot.iter().map(|p| p.stats.ground.atoms as f64).collect()),
            "count",
        ),
        Metric::new(
            "ground.rules",
            avg(d.oneshot.iter().map(|p| p.stats.ground.rules as f64).collect()),
            "count",
        ),
        Metric::new(
            "ground.rounds",
            avg(d.oneshot.iter().map(|p| p.stats.ground.rounds as f64).collect()),
            "count",
        ),
        Metric::new(
            "ground.delta_ms",
            med(d.session.iter().map(|p| p.ground_ms - p.translate_ms).collect()),
            "ms",
        ),
        Metric::new(
            "ground.delta_atoms",
            avg(d.session.iter().map(|p| p.stats.ground.atoms as f64).collect()),
            "count",
        ),
        Metric::new(
            "ground.delta_rules",
            avg(d.session.iter().map(|p| p.stats.ground.delta_rules as f64).collect()),
            "count",
        ),
        Metric::new("ground.delta_vs_oneshot_atoms", avg(ratio), "ratio"),
        Metric::new("translate.ms", med(probes.iter().map(|p| p.translate_ms).collect()), "ms"),
        Metric::new(
            "translate.variables",
            avg(probes.iter().map(|p| p.stats.variables as f64).collect()),
            "count",
        ),
        Metric::new(
            "translate.clauses",
            avg(probes.iter().map(|p| p.stats.clauses as f64).collect()),
            "count",
        ),
        Metric::new("optimize.solve_ms", span(primary, "optimize"), "ms"),
        Metric::new("optimize.solver_runs", counter(|s| s.solver_runs), "count"),
        Metric::new("optimize.models_examined", counter(|s| s.models_examined), "count"),
        Metric::new("optimize.conflicts", counter(|s| s.conflicts), "count"),
        Metric::new("optimize.decisions", counter(|s| s.decisions), "count"),
        Metric::new("optimize.propagations", counter(|s| s.propagations), "count"),
        Metric::new("optimize.learned", counter(|s| s.learned), "count"),
        Metric::new("optimize.loop_nogoods", counter(|s| s.loop_nogoods), "count"),
        Metric::new("optimize.warm_clauses", counter(|s| s.warm_clauses), "count"),
        Metric::new("optimize.transferred_clauses", counter(|s| s.transferred_clauses), "count"),
        Metric::new("extract.ms", span(primary, "extract"), "ms"),
        Metric::new("diagnose.ms", span(primary, "diagnose"), "ms"),
        Metric::new("diagnose.core_size", avg(unsat.iter().map(|u| u.0 as f64).collect()), "count"),
        Metric::new(
            "diagnose.minimize_rounds",
            avg(unsat.iter().map(|u| u.1 as f64).collect()),
            "count",
        ),
        Metric::new("loadgen.late_p90_ms", server.late_p90_ms, "ms"),
        Metric::new("loadgen.sent", server.sent, "count"),
        Metric::new("loadgen.answered", server.answered, "count"),
        Metric::new(
            "trace.oneshot_overhead_ms",
            med(d.oneshot.iter().map(|p| p.wall_ms).collect()) - med(d.oneshot_direct_ms.clone()),
            "ms",
        ),
        Metric::new(
            "trace.session_overhead_ms",
            med(d.session.iter().map(|p| p.wall_ms).collect()) - med(d.session_direct_ms.clone()),
            "ms",
        ),
    ];
    let report = vec![
        format!(
            "traffic (server replay): {}",
            gen::traffic_report(&s.mix, &server.solves, &server.updates)
        ),
        format!(
            "direct replay: {} distinct solves and {} updates in {direct_s:.1} s, {} spans written to {}",
            d.solves,
            d.updates,
            rec.spans.len(),
            path.display()
        ),
        format!(
            "server replay: {} sent, {} answered, {} waits measured, {} stats snapshots (patches over time: {:?})",
            server.sent, server.answered, server.waits, server.snapshots.len(), server.snapshots
        ),
        format!(
            "real one-shot {:.1} ms vs session {:.1} ms per request (median over the same requests)",
            med(d.oneshot_direct_ms.clone()),
            med(d.session_direct_ms.clone())
        ),
    ];
    Ok(Outcome { attempted, failures, metrics, report })
}

/// Solve one request four ways — real and mirrored, one-shot and session — and
/// check that all four render the same response.
fn replay_solve(
    rec: &mut Recorder,
    d: &mut Direct,
    s: &Setup,
    sessions: &[ConcretizerSession<'_>; 2],
    mirrors: &[MirrorSession; 2],
    req: usize,
    id: &str,
) -> Option<String> {
    let r = &s.mix.reqs[req];
    let (repo, cache) = (&s.states[0].0, &s.states[0].1);
    let db = r.reuse.then_some(cache);
    d.solves += 1;

    let t = Instant::now();
    let parsed = parse_spec(&r.spec);
    d.spec_parse_us.push(t.elapsed().as_secs_f64() * 1e6);
    std::hint::black_box(&parsed);

    let mut options = SolveOptions::new().site(SiteConfig::quartz());
    if let Some(db) = db {
        options = options.database(db);
    }
    let t = Instant::now();
    let real_oneshot = Concretizer::new(repo).with_options(options).concretize_str(&r.spec);
    d.oneshot_direct_ms.push(t.elapsed().as_secs_f64() * 1e3);
    let real_oneshot = SolveResponse::from_result("", &r.spec, &real_oneshot, 0).render();

    let mut probe = Probe::default();
    let mirrored = mirror_oneshot(rec, id, repo, db, &r.spec, &mut probe);
    let t = Instant::now();
    rec.enter(id, "wire.render");
    let mirrored = SolveResponse::from_result("", &r.spec, &mirrored, 0).render();
    rec.exit();
    d.render_us.push(t.elapsed().as_secs_f64() * 1e6);
    d.oneshot.push(probe);

    let shard = usize::from(r.reuse);
    let t = Instant::now();
    let real_session = sessions[shard].concretize_str(&r.spec);
    let ms = t.elapsed().as_secs_f64() * 1e3;
    d.session_direct_ms.push(ms);
    d.session_ms_by_req.entry(req).or_default().push(ms);
    let real_session = SolveResponse::from_result("", &r.spec, &real_session, 0).render();

    let mut probe = Probe::default();
    let session_mirrored = mirror_session(rec, id, &mirrors[shard], repo, &r.spec, &mut probe);
    let session_mirrored = SolveResponse::from_result("", &r.spec, &session_mirrored, 0).render();
    d.session.push(probe);

    d.renders.insert(req, real_oneshot.clone());
    if mirrored != real_oneshot {
        return Some(format!(
            "{id} ({}): one-shot mirror drifted from Concretizer::concretize: {}",
            r.spec,
            crate::loadgen::first_difference(&mirrored, &real_oneshot)
        ));
    }
    if session_mirrored != real_session {
        return Some(format!(
            "{id} ({}): session mirror drifted from ConcretizerSession::concretize: {}",
            r.spec,
            crate::loadgen::first_difference(&session_mirrored, &real_session)
        ));
    }
    if real_session != real_oneshot {
        return Some(format!(
            "{id} ({}): session answer differs from one-shot: {}",
            r.spec,
            crate::loadgen::first_difference(&real_session, &real_oneshot)
        ));
    }
    None
}

/// Apply update `pos` of the cycle to both real sessions (timed) and both mirrors
/// (traced).
fn apply_update<'a>(
    rec: &mut Recorder,
    d: &mut Direct,
    s: &'a Setup,
    sessions: &mut [ConcretizerSession<'a>; 2],
    mirrors: &mut [MirrorSession; 2],
    pos: usize,
    id: &str,
) -> Result<(), String> {
    let (repo, cache) = &s.states[(pos + 1) % CYCLE];
    d.updates += 1;
    for shard in 0..2 {
        let db = (shard == 1).then_some(cache);
        let t = Instant::now();
        let patch = sessions[shard].apply_base_delta(repo, db).map_err(|e| format!("{id}: {e}"))?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if UpdateCycle::is_addition(pos) {
            d.patch_add_ms.push(ms)
        } else {
            d.patch_remove_ms.push(ms)
        }
        d.patch_rebuilds += u64::from(patch.rebuilt);
        d.rules_reinstantiated.push(patch.rules_reinstantiated as f64);
        mirrors[shard].patch(rec, id, repo, db)?;
    }
    Ok(())
}

/// What the server replay measured.
#[derive(Default)]
struct ServerReplay {
    parse_us: f64,
    wait_p50_ms: f64,
    wait_p90_ms: f64,
    waits: usize,
    shards: f64,
    base_grounds: f64,
    patches: f64,
    refreezes: f64,
    evictions: f64,
    update_p50_ms: f64,
    store_hits: f64,
    store_misses: f64,
    store_transferred: f64,
    frozen_instances: f64,
    late_p90_ms: f64,
    sent: f64,
    answered: f64,
    snapshots: Vec<u64>,
    /// Request indices of the solves answered.
    solves: Vec<usize>,
    /// Cycle positions of the updates sent.
    updates: Vec<usize>,
}

/// One line of the server replay: due time, id, request line, and for a solve its
/// request index.
type ReplayLine = (Duration, String, String, Option<usize>);

/// Sum a numeric field over every occurrence in a stats response line.
fn sum_field(line: &str, key: &str) -> u64 {
    let pattern = format!("\"{key}\": ");
    line.match_indices(&pattern)
        .filter_map(|(at, _)| {
            let rest = &line[at + pattern.len()..];
            let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
            rest[..end].parse::<u64>().ok()
        })
        .sum()
}

/// Replay the workload's traffic through `serve_pipe`: open loop for the service
/// workload, closed loop for the sweep, with a `stats` request every
/// [`STATS_EVERY`] solves, then [`IDLE_UPDATES`] idle updates. Server waits are
/// latency minus the same request's direct session time.
fn replay_server(
    s: &Setup,
    seed: u64,
    seconds: f64,
    d: &Direct,
    failures: &mut Vec<String>,
    attempted: &mut usize,
) -> ServerReplay {
    let mut out = ServerReplay::default();
    let (repo, cache) = (&s.states[0].0, &s.states[0].1);
    let stats_line = |k: usize| format!("{{\"v\": 1, \"id\": \"t{k}\", \"cmd\": \"stats\"}}");

    // Lines of the replay: (due, id, line, request index for solves).
    let mut lines: Vec<ReplayLine> = Vec::new();
    let events: Vec<Event> = if s.open_loop {
        s.events.clone()
    } else {
        let seq = s.mix.sequence(seed ^ 0x5EED);
        seq.take(4096).map(|req| Event { due: Duration::ZERO, req }).collect()
    };
    for (i, e) in events.iter().enumerate() {
        let id = format!("e{i}");
        lines.push((e.due, id.clone(), service::solve_line(&id, &s.mix.reqs[e.req]), Some(e.req)));
        if (i + 1) % STATS_EVERY == 0 {
            lines.push((e.due, format!("t{}", i / STATS_EVERY), stats_line(i / STATS_EVERY), None));
        }
    }
    let mut parse_us = Vec::new();
    for (_, _, line, _) in lines.iter().take(512) {
        let t = Instant::now();
        let parsed = wire::parse_request(line);
        parse_us.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(&parsed);
    }
    out.parse_us = stats::median(&stats::sorted(parse_us)).unwrap_or(0.0);

    let ((sent, answered_ids, idle), server_stats, responses) =
        service::with_server(repo, cache, |c| {
            service::warm_up(c);
            let (sent, answered_ids) = if s.open_loop {
                let schedule: Vec<(Duration, String)> =
                    lines.iter().map(|(due, _, l, _)| (*due, l.clone())).collect();
                let start = Instant::now() + Duration::from_millis(20);
                let sent = c.open_loop(start, &schedule);
                c.wait_for(lines.iter().map(|(_, id, _, _)| id), service::DRAIN_TIMEOUT);
                (sent, lines.len())
            } else {
                // Closed loop: one client, the next request when the answer is back.
                let mut sent = Vec::new();
                let start = Instant::now();
                let mut k = 0;
                while start.elapsed().as_secs_f64() < seconds && k < lines.len() {
                    let at = Instant::now();
                    c.send(lines[k].2.clone());
                    c.wait_for([&lines[k].1], service::DRAIN_TIMEOUT);
                    sent.push(crate::loadgen::Sent { due: at, sent: at });
                    k += 1;
                }
                (sent, k)
            };
            // Idle updates, each sent when the previous one is answered: the update
            // path without contention, for the shard patch counters.
            let mut idle = Vec::new();
            for i in 0..IDLE_UPDATES {
                let id = format!("p{i}");
                let due = Instant::now();
                c.send(s.updates.line(&id, i));
                c.wait_for([&id], service::DRAIN_TIMEOUT);
                idle.push((id, due));
            }
            (sent, answered_ids, idle)
        });
    let stats_ids: Vec<String> = (0..lines.len()).map(|k| format!("t{k}")).collect();
    for id in &stats_ids {
        if let Some((_, line)) = responses.get(id) {
            out.snapshots.push(sum_field(line, "patches"));
        }
    }
    let mut update_ms = Vec::new();
    for (i, (id, due)) in idle.iter().enumerate() {
        *attempted += 1;
        out.updates.push(i);
        match responses.get(id) {
            Some((at, line)) if service::status(line) == Some("ok") => {
                update_ms.push(at.saturating_duration_since(*due).as_secs_f64() * 1e3)
            }
            _ => failures.push(format!("{id}: update failed in the server replay")),
        }
    }
    out.update_p50_ms = stats::median(&stats::sorted(update_ms)).unwrap_or(0.0);
    let mut waits = Vec::new();
    let mut refs = s.service.as_ref().map(References::new);
    for (k, (_, id, _, solve)) in lines.iter().enumerate().take(answered_ids) {
        *attempted += 1;
        let Some((at, line)) = responses.get(id) else {
            failures.push(format!("{id}: no response in the server replay"));
            continue;
        };
        out.answered += 1.0;
        let Some(req) = solve else {
            if service::status(line) != Some("ok") {
                failures.push(format!("{id}: stats request failed in the server replay"));
            }
            continue;
        };
        out.solves.push(*req);
        let latency = at.saturating_duration_since(sent[k].due).as_secs_f64() * 1e3;
        if let Some(direct) = d.session_ms_by_req.get(req) {
            let direct = stats::median(&stats::sorted(direct.clone())).unwrap_or(0.0);
            waits.push((latency - direct).max(0.0));
        }
        if !matches!(service::status(line), Some("ok") | Some("unsat")) {
            failures.push(format!("{id}: status {:?} in the server replay", service::status(line)));
            continue;
        }
        // Against the direct replay's one-shot render, or a fresh one-shot
        // reference on the service universe.
        let got = crate::loadgen::without_id(line, id);
        let want = match (d.renders.get(req), refs.as_mut()) {
            (Some(w), _) => w.clone(),
            (None, Some(refs)) => refs.get(*req).to_string(),
            (None, None) => continue,
        };
        if got != want {
            failures.push(format!(
                "{id}: server answer differs from the one-shot reference: {}",
                crate::loadgen::first_difference(&got, &want)
            ));
        }
    }
    out.waits = waits.len();
    let waits = stats::sorted(waits);
    out.wait_p50_ms = stats::median(&waits).unwrap_or(0.0);
    out.wait_p90_ms = stats::nearest_rank(&waits, 0.9);
    let late = stats::sorted(sent.iter().map(crate::loadgen::Sent::late_ms).collect());
    out.late_p90_ms = stats::nearest_rank(&late, 0.9);
    out.sent = sent.len() as f64;
    out.shards = server_stats.shards.len() as f64;
    let sum = |f: fn(&spack_concretizer::server::ShardStats) -> u64| {
        server_stats.shards.iter().map(f).sum::<u64>() as f64
    };
    out.base_grounds = sum(|x| x.base_grounds);
    out.patches = sum(|x| x.patches);
    out.refreezes = sum(|x| x.refreezes);
    out.evictions = sum(|x| x.evictions);
    out.store_hits = sum(|x| x.store_hits);
    out.store_misses = sum(|x| x.store_misses);
    out.store_transferred = sum(|x| x.store_transferred);
    out.frozen_instances = sum(|x| x.frozen_instances as u64);
    out
}
