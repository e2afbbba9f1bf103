//! `bench` — the perf-regression harness behind `BENCH_baseline_small.json` and the CI gate.
//!
//! ```text
//! cargo run --release -p bench --bin bench -- [--scale medium] [--full] \
//!     [--label after] [--out bench.json] [--compare BENCH_baseline_small.json] \
//!     [--threshold 1.25]
//! ```
//!
//! Runs the hot-path benchmark groups of the paper's evaluation (few samples, fixed
//! workloads) and writes a JSON report with, per benchmark, the wall-clock mean/min,
//! the per-stage times (setup / load / ground / solve), and the engine's
//! `GroundStats` / `SatStats` counters — plus, for the `unsat_diagnostics` group, the
//! unsat-core size, minimization rounds, and second-phase time, so the cost of
//! explanations is tracked like any other hot path.
//!
//! The `session_throughput` group measures the multi-shot service scenario: a mixed
//! request stream (including an unsatisfiable request) solved one-shot versus on a
//! long-lived `ConcretizerSession` (steady state: the base is ground once, outside
//! the measurement), sequentially and as a parallel batch. Its counters carry the
//! summed per-request stage times in microseconds (`ground_us`, `setup_us`,
//! `solve_us`) next to the usual engine counters.
//!
//! The `base_update` group prices the live-update path behind `spack-solved`'s
//! `update` request: freezing a post-delta universe from scratch (`full_refreeze`)
//! versus absorbing a publish + yank round trip on a frozen session in place via
//! `apply_base_delta` (`incremental_patch`, digest-checked to round-trip), plus the
//! request latency on a patched session (`patched_solve`, every answer asserted
//! byte-identical to a fresh freeze of the same universe).
//!
//! `--compare <baseline>` turns the run into a **regression gate** (the verdict logic
//! lives in [`bench::gate`], where it is unit-tested): per benchmark group, the
//! summed means of the benches present in both reports are compared, and the process
//! exits non-zero when any group's mean regressed by more than the threshold (default
//! 1.25×, overridable via `--threshold` or the `BENCH_GATE_THRESHOLD` environment
//! variable for slower runner fleets). Next to the wall clock, the gate also compares
//! the machine-independent engine counters (grounder atoms/rules, solver
//! conflicts/propagations) with their own fixed threshold
//! ([`bench::gate::COUNTER_THRESHOLD`], 1.6×) — an algorithmic
//! regression trips this even on hardware whose absolute speed no longer matches the
//! machine that recorded the baseline. Groups absent from the committed baseline are
//! warned about and skipped, never failed, so adding a group needs no flag-day
//! baseline refresh. Finally, the gate asserts — within the current run, so no
//! baseline or machine speed is involved — that session-mode per-request grounding
//! stays below one-shot grounding by [`bench::gate::SESSION_RATIO`] (0.75×), and that
//! one incremental base patch stays below a full re-freeze by
//! [`bench::gate::PATCH_RATIO`] (0.5×). CI runs the small tier against
//! the committed `BENCH_baseline_small.json` and fails the job on regression.
//!
//! The workloads are sized for the *medium* tier by default — large enough that the
//! grounder's join/delta behaviour and the solver's propagation dominate, small enough
//! to finish in seconds.

use std::time::{Duration, Instant};

use asp::SolverConfig;
use bench::gate::{
    base_patch_gate, compare_against_baseline, parse_report, render_json, session_ground_gate,
    Record, COUNTER_THRESHOLD, PATCH_RATIO, SESSION_RATIO,
};
use bench::{
    chain_closure_program, service_buildcache, wide_join_program, workload_buildcache,
    workload_repo, Scale,
};
use spack_concretizer::{
    BaseDelta, ConcretizeError, Concretizer, ConcretizerSession, SiteConfig, SolveOptions,
};
use spack_repo::builtin_repo;
use spack_store::BuildcacheConfig;

/// A stage breakdown plus engine counters describing one measured run.
type RunDetail = (Vec<(&'static str, f64)>, Vec<(&'static str, u64)>);

struct Runner {
    samples: usize,
    budget: Duration,
    records: Vec<Record>,
}

impl Runner {
    /// Run `f` repeatedly (up to the sample/budget limits), recording wall times; `f`
    /// returns the stage breakdown and counters describing the run.
    fn measure<F>(&mut self, group: &'static str, bench: &str, mut f: F)
    where
        F: FnMut() -> RunDetail,
    {
        let mut times = Vec::new();
        let mut detail = (Vec::new(), Vec::new());
        let started = Instant::now();
        while times.len() < self.samples {
            let t = Instant::now();
            detail = f();
            times.push(t.elapsed());
            if started.elapsed() >= self.budget && !times.is_empty() {
                break;
            }
        }
        // With enough samples, drop the single slowest one before averaging: the first
        // iteration routinely eats cold caches / page faults, and one descheduling
        // blip should not move a regression-gate verdict.
        if times.len() >= 5 {
            let slowest = times.iter().enumerate().max_by_key(|(_, t)| **t).map(|(i, _)| i);
            if let Some(i) = slowest {
                times.remove(i);
            }
        }
        let total: Duration = times.iter().sum();
        let mean = total / times.len() as u32;
        let min = *times.iter().min().unwrap();
        eprintln!(
            "  {group}/{bench:<28} mean {mean:>10.3?}  min {min:>10.3?}  ({} samples)",
            times.len()
        );
        self.records.push(Record {
            group,
            bench: bench.to_string(),
            samples: times.len(),
            mean,
            min,
            stages: detail.0,
            counters: detail.1,
        });
    }
}

fn asp_stats_detail(stats: &asp::Stats) -> RunDetail {
    let stages = vec![
        ("load", stats.load_time.as_secs_f64()),
        ("ground", stats.ground_time.as_secs_f64()),
        ("solve", stats.solve_time.as_secs_f64()),
    ];
    let counters = ground_and_sat_counters(stats);
    (stages, counters)
}

fn ground_and_sat_counters(stats: &asp::Stats) -> Vec<(&'static str, u64)> {
    vec![
        ("atoms", stats.ground.atoms as u64),
        ("rules", stats.ground.rules as u64),
        ("choices", stats.ground.choices as u64),
        ("minimize", stats.ground.minimize as u64),
        ("rounds", stats.ground.rounds as u64),
        ("variables", stats.variables as u64),
        ("clauses", stats.clauses as u64),
        ("conflicts", stats.conflicts),
        ("decisions", stats.decisions),
        ("propagations", stats.propagations),
        ("restarts", stats.restarts),
        ("learned", stats.learned),
        ("deleted", stats.deleted),
        ("models_examined", stats.models_examined),
        ("solver_runs", stats.solver_runs),
        ("loop_nogoods", stats.loop_nogoods),
    ]
}

fn concretize_detail(result: &spack_concretizer::Concretization) -> RunDetail {
    let mut stages = vec![("setup", result.timings.setup.as_secs_f64())];
    let (more, counters) = asp_stats_detail(&result.stats);
    stages.extend(more);
    (stages, counters)
}

/// Ground + enumerate a pure-ASP program, as in the Fig. 3 bench group.
fn ground_and_enumerate(program: &str, limit: usize) -> RunDetail {
    let mut ctl = asp::Control::new(SolverConfig::default());
    ctl.add_program(program).unwrap();
    ctl.ground().unwrap();
    let models = ctl.solve_models(limit).unwrap();
    std::hint::black_box(models.len());
    asp_stats_detail(ctl.stats())
}

/// Aggregate accounting for a mixed request stream (the `session_throughput` group):
/// summed stage times plus the engine counters the gate compares.
#[derive(Default)]
struct MixAggregate {
    specs: u64,
    unsat: u64,
    setup: Duration,
    ground: Duration,
    solve: Duration,
    atoms: u64,
    rules: u64,
    conflicts: u64,
    propagations: u64,
}

impl MixAggregate {
    fn add(&mut self, result: Result<spack_concretizer::Concretization, ConcretizeError>) {
        self.specs += 1;
        match result {
            Ok(r) => {
                self.setup += r.timings.setup;
                self.ground += r.timings.ground;
                self.solve += r.timings.solve;
                self.atoms += r.stats.ground.atoms as u64;
                self.rules += r.stats.ground.rules as u64;
                self.conflicts += r.stats.conflicts;
                self.propagations += r.stats.propagations;
            }
            Err(ConcretizeError::Unsatisfiable { stats, .. }) => {
                self.unsat += 1;
                self.setup += stats.phases.setup;
                self.ground += stats.phases.ground;
                self.solve += stats.phases.solve;
            }
            Err(other) => panic!("mix spec failed: {other}"),
        }
    }

    fn detail(&self, wall: Duration) -> RunDetail {
        let specs_per_sec = self.specs as f64 / wall.as_secs_f64().max(1e-9);
        (
            vec![
                ("setup", self.setup.as_secs_f64()),
                ("ground", self.ground.as_secs_f64()),
                ("solve", self.solve.as_secs_f64()),
                ("specs_per_sec", specs_per_sec),
            ],
            vec![
                ("specs", self.specs),
                ("unsat", self.unsat),
                ("setup_us", self.setup.as_micros() as u64),
                ("ground_us", self.ground.as_micros() as u64),
                ("solve_us", self.solve.as_micros() as u64),
                ("atoms", self.atoms),
                ("rules", self.rules),
                ("conflicts", self.conflicts),
                ("propagations", self.propagations),
            ],
        )
    }
}

/// Render the observable result of a request — DAG identity, objective vector,
/// reuse/build partition, or the full diagnostics — for the byte-equality
/// cross-check of the `base_update` group (the same shape
/// `tests/store_cross_check.rs` pins under proptest).
fn render_outcome(result: &Result<spack_concretizer::Concretization, ConcretizeError>) -> String {
    match result {
        Ok(c) => {
            let mut reused = c.reused.clone();
            reused.sort();
            let mut built = c.built.clone();
            built.sort();
            format!("OK\n{}\ncost={:?}\nreused={reused:?}\nbuilt={built:?}", c.spec, c.cost)
        }
        Err(ConcretizeError::Unsatisfiable { diagnostics, .. }) => {
            let lines: Vec<String> = diagnostics
                .iter()
                .map(|d| {
                    format!(
                        "{:?}|{}|{}|{}|{:?}",
                        d.severity, d.priority, d.code, d.message, d.provenance
                    )
                })
                .collect();
            format!("UNSAT\n{}", lines.join("\n"))
        }
        Err(e) => format!("ERR {e}"),
    }
}

/// The request mix of the `session_throughput` group: a realistic stream across the
/// workload repo — small and large closures, the deep chain, a virtual-heavy app, and
/// one unsatisfiable request (whose single-grounding diagnostics both modes pay for).
fn session_mix(repo: &spack_repo::Repository) -> Vec<String> {
    ["zlib", "hdf5", "mpileaks", "chain-root", "vapp-00", "example", "bzip2", "zlib@9.9"]
        .iter()
        .filter(|s| {
            let name = s.split(['@', '~', '+', '^', ' ']).next().unwrap();
            repo.get(name).is_some()
        })
        .map(|s| s.to_string())
        .collect()
}

fn main() -> std::process::ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let get = |flag: &str| -> Option<String> {
        args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
    };
    let scale = get("--scale").and_then(|s| Scale::parse(&s)).unwrap_or(Scale::Medium);
    let full = args.iter().any(|a| a == "--full");
    let label = get("--label").unwrap_or_else(|| "after".to_string());
    let out = get("--out").unwrap_or_else(|| "bench.json".to_string());
    let compare = get("--compare");
    // Wall-clock threshold resolution: CLI flag > environment > default. The env
    // override lets a slower (or noisier) runner fleet widen the wall-clock gate
    // without editing the workflow; the counter and within-run ratio gates are
    // machine-independent and fixed (`bench::gate` constants).
    let threshold: f64 = get("--threshold")
        .and_then(|t| t.parse().ok())
        .or_else(|| std::env::var("BENCH_GATE_THRESHOLD").ok().and_then(|t| t.parse().ok()))
        .unwrap_or(1.25);

    // Gate runs (--compare) take more samples: the mean of 3 is too noisy to hold a
    // 1.25x threshold, and the gate's verdict must be worth trusting.
    let mut runner = Runner {
        samples: if full || compare.is_some() { 9 } else { 3 },
        budget: Duration::from_secs(if full || compare.is_some() { 90 } else { 40 }),
        records: Vec::new(),
    };
    eprintln!("# bench harness: scale {scale:?}, label {label:?}, quick={}", !full);
    let started = Instant::now();

    // ---- fig3_ground_and_enumerate: the grounder hot path --------------------------------
    let fig3 = r#"
        depends_on(a, b).
        depends_on(a, c).
        depends_on(b, d).
        depends_on(c, d).
        node(Dep) :- node(Pkg), depends_on(Pkg, Dep).
        1 { node(a); node(b) }.
    "#;
    runner.measure("fig3_ground_and_enumerate", "paper_example", || ground_and_enumerate(fig3, 8));
    let chain = chain_closure_program(256);
    runner.measure("fig3_ground_and_enumerate", "chain_closure_256", || {
        ground_and_enumerate(&chain, 4)
    });
    let wide = wide_join_program(1200);
    runner
        .measure("fig3_ground_and_enumerate", "wide_join_1200", || ground_and_enumerate(&wide, 2));

    // ---- fig7a_grounding: setup + ground on the curated repo ------------------------------
    let builtin = builtin_repo();
    let site = SiteConfig::quartz();
    for package in ["zlib", "hdf5"] {
        runner.measure("fig7a_grounding", package, || {
            let spec = spack_spec::parse_spec(package).unwrap();
            let (mut ctl, _info) = spack_concretizer::setup_problem(
                &builtin,
                &site,
                None,
                std::slice::from_ref(&spec),
                SolverConfig::default(),
            )
            .unwrap();
            ctl.add_program(spack_concretizer::CONCRETIZE_LP).unwrap();
            ctl.ground().unwrap();
            asp_stats_detail(ctl.stats())
        });
    }

    // ---- table2_optimization: the full optimizing solve -----------------------------------
    for package in ["example", "mpileaks"] {
        runner.measure("table2_optimization", package, || {
            let result = Concretizer::new(&builtin)
                .with_options(SolveOptions::new().site(site.clone()))
                .concretize_str(package)
                .unwrap();
            concretize_detail(&result)
        });
    }

    // ---- fig6_reuse: optimization against a buildcache ------------------------------------
    let builtin_cache = spack_store::synthesize_buildcache(
        &builtin,
        &BuildcacheConfig {
            architectures: vec![(
                spack_spec::Platform::Linux,
                "centos8".to_string(),
                "icelake".to_string(),
            )],
            compilers: vec![spack_spec::Compiler::new("gcc", "11.2.0")],
            replicas: 2,
            seed: 11,
        },
    );
    runner.measure("fig6_reuse", "hdf5_no_reuse", || {
        let result = Concretizer::new(&builtin)
            .with_options(SolveOptions::new().site(site.clone()))
            .concretize_str("hdf5")
            .unwrap();
        concretize_detail(&result)
    });
    runner.measure("fig6_reuse", "hdf5_with_reuse", || {
        let result = Concretizer::new(&builtin)
            .with_options(SolveOptions::new().site(site.clone()).database(&builtin_cache))
            .concretize_str("hdf5")
            .unwrap();
        concretize_detail(&result)
    });

    // Medium-tier reuse: the synthetic workload repo with a populated buildcache.
    let medium = workload_repo(scale);
    let medium_cache = workload_buildcache(&medium, scale);
    let medium_roots = ["hdf5", "chain-root", "vapp-00"];
    for root in medium_roots {
        if medium.get(root).is_none() {
            continue;
        }
        runner.measure("fig6_reuse", &format!("{root}_{}_cache", scale_name(scale)), || {
            let result = Concretizer::new(&medium)
                .with_options(SolveOptions::new().site(site.clone()).database(&medium_cache))
                .concretize_str(root)
                .unwrap();
            concretize_detail(&result)
        });
    }

    // ---- unsat_diagnostics: the single-grounding explanation pipeline ---------------------
    // Deliberately infeasible requests: wall-clock covers the failed solve plus core
    // minimization and the relaxed re-solve (which reuses the first solve's ground
    // program — second-phase grounding must be zero — and, like every solve, starts
    // cold); the stages and counters expose the diagnostics cost per phase.
    for (name, spec) in [("version_pin", "zlib@9.9"), ("variant_pin", "netcdf-c ^hdf5~mpi")] {
        runner.measure("unsat_diagnostics", name, || {
            match Concretizer::new(&builtin)
                .with_options(SolveOptions::new().site(site.clone()))
                .concretize_str(spec)
            {
                Ok(_) => panic!("{spec} must be unsatisfiable"),
                Err(ConcretizeError::Unsatisfiable { diagnostics, stats }) => {
                    assert_eq!(
                        stats.second_phase_ground,
                        Duration::ZERO,
                        "{spec}: the relaxed solve must not reground"
                    );
                    (
                        vec![
                            ("setup", stats.phases.setup.as_secs_f64()),
                            ("load", stats.phases.load.as_secs_f64()),
                            ("ground", stats.phases.ground.as_secs_f64()),
                            ("solve", stats.phases.solve.as_secs_f64()),
                            ("second_phase", stats.second_phase.as_secs_f64()),
                            ("second_phase_ground", stats.second_phase_ground.as_secs_f64()),
                        ],
                        vec![
                            ("core_size", stats.core_size as u64),
                            ("minimized_core", stats.minimized_core_size as u64),
                            ("minimize_rounds", stats.minimization_rounds),
                            ("diagnostics", diagnostics.len() as u64),
                            ("warm_clauses", stats.warm_clauses),
                        ],
                    )
                }
                Err(other) => panic!("{spec}: unexpected error {other}"),
            }
        });
    }

    // ---- session_throughput: multi-shot sessions vs one-shot solves -----------------------
    // The ROADMAP's service scenario: a mixed request stream against the workload repo
    // with its buildcache, answered (a) one-shot — full setup + load + ground per
    // request, (b) on a long-lived session, sequentially, and (c) on the same session
    // as a parallel batch. The session is built once, before measurement: the group
    // measures steady-state serving, and the base build cost is reported separately
    // below. Results are cross-checked: both modes must agree on which requests are
    // satisfiable.
    let mix = session_mix(&medium);
    let service_cache = service_buildcache(&medium, scale);
    let oneshot = Concretizer::new(&medium)
        .with_options(SolveOptions::new().site(site.clone()).database(&service_cache));
    let session: ConcretizerSession<'_> = oneshot.session().expect("session build");
    {
        let s = session.stats();
        eprintln!(
            "# session base: {} packages, {} facts, ground once in {:.2?} ({} frozen instances)",
            s.possible_packages,
            s.base_facts,
            s.base_setup + s.base_load + s.base_ground,
            s.frozen_instances
        );
    }
    runner.measure("session_throughput", "oneshot_mix", || {
        let started = Instant::now();
        let mut agg = MixAggregate::default();
        for spec in &mix {
            agg.add(oneshot.concretize_str(spec));
        }
        agg.detail(started.elapsed())
    });
    runner.measure("session_throughput", "session_mix", || {
        let started = Instant::now();
        let mut agg = MixAggregate::default();
        for spec in &mix {
            agg.add(session.concretize_str(spec));
        }
        agg.detail(started.elapsed())
    });
    let batch_requests: Vec<Vec<spack_spec::Spec>> =
        mix.iter().map(|s| vec![spack_spec::parse_spec(s).unwrap()]).collect();
    runner.measure("session_throughput", "session_batch", || {
        let started = Instant::now();
        let mut agg = MixAggregate::default();
        for result in session.concretize_batch(&batch_requests) {
            agg.add(result);
        }
        agg.detail(started.elapsed())
    });
    report_specs_per_sec(&runner.records);

    // ---- batch_durable: checkpoint overhead of the durable batch pipeline -----------------
    // The same request mix, run through `durable::run_batch` on the long-lived session,
    // without and with a state directory. The checkpointed bench pays the full
    // durability tax — manifest validation, one atomic temp+rename per item record,
    // and the final DLQ regeneration — against a fresh state dir every iteration (a
    // reused dir would resume instead of solving). Target: <5% overhead on the
    // medium tier; the headline line below prints the measured ratio.
    let batch_items: Vec<(usize, String)> =
        mix.iter().enumerate().map(|(i, s)| (i + 1, s.clone())).collect();
    let batch_options = format!("bench batch_durable scale={}", scale_name(scale));
    let batch_detail = |outcome: &spack_concretizer::BatchOutcome| -> RunDetail {
        (
            Vec::new(),
            vec![
                ("items", outcome.records.len() as u64),
                ("solved", outcome.counters.solved),
                ("unsat", outcome.counters.unsat),
                ("dead_lettered", outcome.counters.dead_lettered),
            ],
        )
    };
    runner.measure("batch_durable", "mix_no_state", || {
        let outcome = spack_concretizer::durable::run_batch(&session, &batch_items, 0, None, false)
            .expect("batch without state dir");
        batch_detail(&outcome)
    });
    let mut state_seq = 0u64;
    runner.measure("batch_durable", "mix_checkpointed", || {
        state_seq += 1;
        let dir = std::env::temp_dir()
            .join(format!("spack-bench-durable-{}-{state_seq}", std::process::id()));
        let digest = spack_concretizer::durable::batch_digest(&batch_items, &batch_options);
        let state =
            spack_concretizer::StateDir::open(&dir, digest, batch_items.len(), &batch_options)
                .expect("open state dir");
        let outcome =
            spack_concretizer::durable::run_batch(&session, &batch_items, 0, Some(&state), false)
                .expect("checkpointed batch");
        let detail = batch_detail(&outcome);
        let _ = std::fs::remove_dir_all(&dir);
        detail
    });
    report_checkpoint_overhead(&runner.records);

    // ---- server_throughput: the spack-solved serving layer, in process --------------------
    // The same mix as NDJSON requests through `server::serve_pipe` — request parsing,
    // admission, shard routing, the bounded queue, and response rendering all included.
    // Each iteration starts a cold server (one base ground on its quartz shard) and
    // feeds the mix three times, so steady-state serving dominates without hiding the
    // startup cost. Two variants: one worker (fully serialized) and four workers
    // (out-of-order streaming through the shared sink).
    let request_lines: String = (0..3)
        .flat_map(|round| {
            mix.iter().enumerate().map(move |(i, s)| {
                format!("{{\"v\": 1, \"id\": \"{round}-{i}\", \"specs\": [\"{s}\"]}}\n")
            })
        })
        .collect();
    for (bench, workers) in [("pipe_1worker", 1usize), ("pipe_4workers", 4)] {
        runner.measure("server_throughput", bench, || {
            let config = spack_concretizer::server::ServerConfig { workers, ..Default::default() };
            let mut out: Vec<u8> = Vec::new();
            let stats = spack_concretizer::server::serve_pipe(
                &medium,
                Some(&service_cache),
                &config,
                std::io::Cursor::new(request_lines.clone()),
                &mut out,
            );
            let responses = out.iter().filter(|b| **b == b'\n').count();
            assert_eq!(responses as u64, stats.jobs_completed, "every request must be answered");
            (
                Vec::new(),
                vec![
                    ("responses", responses as u64),
                    ("jobs_completed", stats.jobs_completed),
                    ("shards", stats.shards.len() as u64),
                    ("base_grounds", stats.shards.iter().map(|s| s.base_grounds).sum()),
                ],
            )
        });
    }

    // ---- base_update: live base churn, in-place patch vs full re-freeze -------------------
    // The live-update path behind `spack-solved`'s `update` request: the repository
    // churns and a frozen session absorbs the delta in place via `apply_base_delta`
    // instead of being torn down. `full_refreeze` prices the teardown path — a fresh
    // session of a post-delta universe per sample. `incremental_patch` applies one
    // delta per patch path per sample: publishing an ancient version (the
    // additions-only semi-naive continuation) and yanking it again (the
    // removal-forced id-exact rebuild), asserting the paths taken and that the base
    // digest round-trips — so every sample does identical, state-restoring work.
    // `patched_solve` prices request latency on a session patched to a universe with
    // a new newest zlib, every answer asserted byte-identical to a fresh freeze of
    // the same universe — the observational-identity contract is part of the
    // measurement. Under `--compare`, `base_patch_gate` holds the per-patch mean
    // below the re-freeze mean by `PATCH_RATIO` (0.5x).
    let ancient = BaseDelta {
        add_versions: vec![("zlib".to_string(), "0.0.1".to_string())],
        ..BaseDelta::default()
    };
    let (ancient_repo, _) = ancient.apply(&medium, None);
    let publish = BaseDelta {
        add_versions: vec![("zlib".to_string(), "2.0".to_string())],
        ..BaseDelta::default()
    };
    let (published_repo, _) = publish.apply(&medium, None);
    runner.measure("base_update", "full_refreeze", || {
        let solver =
            Concretizer::new(&published_repo).with_options(SolveOptions::new().site(site.clone()));
        let fresh = solver.session().expect("re-freeze session build");
        let s = fresh.stats();
        (
            vec![
                ("setup", s.base_setup.as_secs_f64()),
                ("load", s.base_load.as_secs_f64()),
                ("ground", s.base_ground.as_secs_f64()),
            ],
            vec![
                ("base_facts", s.base_facts as u64),
                ("base_atoms", s.base_atoms as u64),
                ("frozen_instances", s.frozen_instances as u64),
            ],
        )
    });
    let patch_solver =
        Concretizer::new(&medium).with_options(SolveOptions::new().site(site.clone()));
    let mut patch_session = patch_solver.session().expect("patch session build");
    let original_digest = patch_session.base_digest();
    runner.measure("base_update", "incremental_patch", || {
        let published =
            patch_session.apply_base_delta(&ancient_repo, None).expect("ancient publish patch");
        assert!(!published.rebuilt, "an ancient publish must take the additions-only path");
        let yanked = patch_session.apply_base_delta(&medium, None).expect("yank patch");
        assert!(yanked.rebuilt, "a yank must take the rebuild path");
        assert_eq!(
            patch_session.base_digest(),
            original_digest,
            "publish + yank must round-trip the base digest"
        );
        (
            vec![
                ("publish", published.duration.as_secs_f64()),
                ("yank", yanked.duration.as_secs_f64()),
            ],
            vec![
                ("patches", 2),
                ("added_facts", published.added_facts as u64),
                ("removed_facts", yanked.removed_facts as u64),
                (
                    "rules_reinstantiated",
                    (published.rules_reinstantiated + yanked.rules_reinstantiated) as u64,
                ),
                ("rules_reused", (published.rules_reused + yanked.rules_reused) as u64),
                ("rebuilds", u64::from(published.rebuilt) + u64::from(yanked.rebuilt)),
            ],
        )
    });
    // Leave the session patched to the published universe and price its request
    // latency against the fresh-freeze oracle of that same universe.
    patch_session.apply_base_delta(&published_repo, None).expect("patch to published universe");
    let fresh_solver =
        Concretizer::new(&published_repo).with_options(SolveOptions::new().site(site.clone()));
    let fresh_published = fresh_solver.session().expect("fresh published session build");
    let expected_published: Vec<String> =
        mix.iter().map(|s| render_outcome(&fresh_published.concretize_str(s))).collect();
    runner.measure("base_update", "patched_solve", || {
        let run = Instant::now();
        let mut agg = MixAggregate::default();
        for (spec, want) in mix.iter().zip(&expected_published) {
            let result = patch_session.concretize_str(spec);
            assert_eq!(
                &render_outcome(&result),
                want,
                "patched session answer for `{spec}` differs from a fresh freeze"
            );
            agg.add(result);
        }
        agg.detail(run.elapsed())
    });
    report_patch_ratio(&runner.records);

    eprintln!("# harness finished in {:.1?}", started.elapsed());
    let json = render_json(&label, scale_name(scale), &runner.records);
    std::fs::write(&out, json).expect("write report");
    eprintln!("# wrote {out}");

    if let Some(baseline_path) = compare {
        let text = match std::fs::read_to_string(&baseline_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("# cannot read baseline {baseline_path}: {e}");
                return std::process::ExitCode::FAILURE;
            }
        };
        let baseline = match parse_report(&text) {
            Ok(baseline) => baseline,
            Err(e) => {
                eprintln!("# cannot parse baseline {baseline_path}: {e}");
                return std::process::ExitCode::FAILURE;
            }
        };
        if baseline.is_empty() {
            eprintln!("# baseline {baseline_path} contains no results");
            return std::process::ExitCode::FAILURE;
        }
        eprintln!(
            "# regression gate vs {baseline_path} (wall {threshold:.2}x, counters {COUNTER_THRESHOLD:.2}x, session ground {SESSION_RATIO:.2}x, base patch {PATCH_RATIO:.2}x)"
        );
        let wall = compare_against_baseline(&baseline, &runner.records, threshold);
        let sess = session_ground_gate(&runner.records);
        let patch = base_patch_gate(&runner.records);
        if let Err(e) = wall.and(sess).and(patch) {
            eprintln!("# FAIL: {e}");
            return std::process::ExitCode::FAILURE;
        }
        eprintln!("# gate passed");
    }
    std::process::ExitCode::SUCCESS
}

/// Print the headline specs/sec comparison of the session_throughput group.
fn report_specs_per_sec(records: &[Record]) {
    let rate = |bench: &str| -> Option<f64> {
        records.iter().find(|r| r.group == "session_throughput" && r.bench == bench).and_then(|r| {
            r.counters
                .iter()
                .find(|(n, _)| *n == "specs")
                .map(|&(_, specs)| specs as f64 / r.mean.as_secs_f64().max(1e-9))
        })
    };
    if let (Some(one), Some(sess), Some(batch)) =
        (rate("oneshot_mix"), rate("session_mix"), rate("session_batch"))
    {
        eprintln!(
            "# session_throughput: one-shot {one:.1} specs/s, session {sess:.1} specs/s \
             ({:.2}x), parallel batch {batch:.1} specs/s ({:.2}x)",
            sess / one,
            batch / one
        );
    }
}

/// Print the headline checkpoint-overhead comparison of the batch_durable group.
fn report_checkpoint_overhead(records: &[Record]) {
    let mean = |bench: &str| -> Option<f64> {
        records
            .iter()
            .find(|r| r.group == "batch_durable" && r.bench == bench)
            .map(|r| r.mean.as_secs_f64())
    };
    if let (Some(plain), Some(durable)) = (mean("mix_no_state"), mean("mix_checkpointed")) {
        eprintln!(
            "# batch_durable: no state {:.1}ms, checkpointed {:.1}ms ({:+.1}% overhead, \
             target <5%)",
            plain * 1e3,
            durable * 1e3,
            (durable / plain.max(1e-9) - 1.0) * 100.0
        );
    }
}

/// Print the headline patch-vs-refreeze comparison of the base_update group.
fn report_patch_ratio(records: &[Record]) {
    let find = |bench: &str| records.iter().find(|r| r.group == "base_update" && r.bench == bench);
    if let (Some(patch), Some(refreeze)) = (find("incremental_patch"), find("full_refreeze")) {
        let patches = patch
            .counters
            .iter()
            .find(|(n, _)| *n == "patches")
            .map(|&(_, v)| v)
            .unwrap_or(1)
            .max(1);
        let per_patch = patch.mean.as_secs_f64() / patches as f64;
        let full = refreeze.mean.as_secs_f64();
        eprintln!(
            "# base_update: full re-freeze {:.1}ms, incremental patch {:.1}ms \
             ({:.2}x, target <=0.50x, byte-identical answers)",
            full * 1e3,
            per_patch * 1e3,
            per_patch / full.max(1e-9)
        );
    }
}

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Smoke => "smoke",
        Scale::Small => "small",
        Scale::Medium => "medium",
        Scale::Wide => "wide",
        Scale::Deep => "deep",
        Scale::ManyVirtuals => "manyvirtuals",
        Scale::Paper => "paper",
    }
}
