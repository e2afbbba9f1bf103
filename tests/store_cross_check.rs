//! The determinism harness for the cross-request nogood store.
//!
//! A session's shared nogood store transfers loop nogoods across requests with the
//! same closure digest. The transfer is a *pure acceleration*: the
//! engine re-derives every returned model (and re-proves every returned core) on a
//! cold-started solver, so results must be **byte-identical** with the store on and
//! off — same DAG, same objective vector, same reuse/build partition, same
//! diagnostics — whatever the store happens to contain. These tests pin that
//! contract:
//!
//! * a store on-vs-off proptest over random synthetic repositories and solver seeds,
//!   SAT and UNSAT interleaved on one session, every request solved twice so the
//!   store-on session actually transfers clauses;
//! * a check that repeated identical requests on a program with a positive loop hit
//!   the store and transfer its loop nogoods;
//! * a mutation-style test that a deliberately-corrupted transferred clause is
//!   caught by the debug-mode canonical-form assertion in the trusted bulk loader;
//! * a threaded stress test — several OS threads hammering one store-on session —
//!   cross-checked against the one-shot oracle under a watchdog timeout.

use proptest::prelude::*;

use spack_concretizer::{Concretization, ConcretizeError, Concretizer, SiteConfig, SolveOptions};
use spack_repo::{builtin_repo, synth_repo, SynthConfig};

/// Render everything a caller can observe about a result, for equality comparison
/// (the same shape `tests/session_cross_check.rs` uses).
fn render(result: &Result<Concretization, ConcretizeError>) -> String {
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

/// The request list for a synthetic repository: plain roots, a pinned version that
/// never exists (UNSAT), and an always-satisfiable version range, interleaved.
fn requests_for(repo: &spack_repo::Repository, picks: &[usize]) -> Vec<String> {
    let names: Vec<String> = repo.names().map(str::to_string).collect();
    let mut specs = Vec::new();
    for (i, pick) in picks.iter().enumerate() {
        let name = &names[pick % names.len()];
        match i % 3 {
            0 => specs.push(name.clone()),
            1 => specs.push(format!("{name}@9999.0")), // never declared: UNSAT
            _ => specs.push(format!("{name}@0:")),     // satisfied by every version
        }
    }
    specs
}

/// Soundness of the cross-request transfer: a session with the shared store
/// disabled must produce exactly what the default (store-on) session produces.
fn assert_store_changes_nothing(repo: &spack_repo::Repository, seed: u64, specs: &[String]) {
    let options = SolveOptions::new().site(SiteConfig::minimal()).seed(seed);
    let with_store =
        Concretizer::new(repo).with_options(options.clone()).session().expect("session build");
    let without_store = Concretizer::new(repo)
        .with_options(options.nogood_store(false))
        .session()
        .expect("session build");
    for spec in specs {
        // Solve every spec twice so the store-on session actually transfers clauses
        // between identical requests (first publishes, second fetches).
        for round in 0..2 {
            let on = render(&with_store.concretize_str(spec));
            let off = render(&without_store.concretize_str(spec));
            assert_eq!(
                on, off,
                "spec `{spec}` (seed {seed}, round {round}): nogood store changed the result"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Cross-request nogood transfer is invisible: store-on and store-off sessions
    /// agree on every request, including repeats that actually hit the store.
    #[test]
    fn nogood_store_changes_no_observable_result(
        repo_seed in 0u64..200,
        solver_seed in 0u64..8,
        picks in proptest::collection::vec(0usize..50, 3..5),
    ) {
        let repo = synth_repo(&SynthConfig {
            packages: 48,
            chain_depth: 10,
            extra_virtuals: 2,
            seed: repo_seed,
            ..Default::default()
        });
        let specs = requests_for(&repo, &picks);
        assert_store_changes_nothing(&repo, solver_seed, &specs);
    }
}

/// Repeated identical requests on one frozen base must hit the shared store and
/// transfer the loop nogoods the first request found — and still answer
/// identically. In this program `a` and `b` support each other, so the first solve
/// rejects the unstable candidate `{a, b}` with a loop nogood (concretizer requests
/// find none, which is why the check runs below the concretizer).
#[test]
fn nogood_store_transfers_between_identical_requests() {
    use asp::{Control, SharedClauseStore, SolveOutcome, SolverConfig};
    use std::sync::Arc;
    let mut base = Control::new(SolverConfig::default());
    base.add_program("a :- b. b :- a. a :- x. { x; c }. :- not a. :- a, c. #minimize{ 1@1 : x }.")
        .expect("program parses");
    let frozen = base.freeze_base().expect("base freezes");
    let store = Arc::new(SharedClauseStore::new());
    let answer = || {
        let mut ctl = frozen.request();
        ctl.set_shared_store(Arc::clone(&store));
        ctl.ground().expect("request grounds");
        let rendered = match ctl.solve().expect("request solves") {
            SolveOutcome::Optimal { model, cost } => format!("{:?} {cost:?}", model.atoms()),
            SolveOutcome::Unsatisfiable => "UNSAT".to_string(),
        };
        (rendered, ctl.stats().loop_nogoods, ctl.stats().transferred_clauses)
    };
    let (first, nogoods, first_transferred) = answer();
    assert!(nogoods > 0, "the first request must find a loop nogood");
    assert_eq!(
        (store.hits(), store.misses(), first_transferred),
        (0, 1, 0),
        "the first request must miss the empty store"
    );
    let (second, _, transferred) = answer();
    assert_eq!(first, second, "repeated request must be byte-identical");
    assert_eq!((store.hits(), store.misses()), (1, 1), "the repeated request must hit the store");
    assert!(transferred > 0, "loop nogoods must transfer across requests");
    assert_eq!(store.transferred(), transferred);
}

/// A tight grounding has no positive loop, so it can never find a loop nogood: its
/// requests neither look the store up nor publish to it.
#[test]
fn tight_requests_skip_the_nogood_store() {
    use asp::{Control, SharedClauseStore, SolveOutcome, SolverConfig};
    use std::sync::Arc;
    let mut base = Control::new(SolverConfig::default());
    base.add_program("a :- x. { x; c }. :- not a. :- a, c. #minimize{ 1@1 : x }.")
        .expect("program parses");
    let frozen = base.freeze_base().expect("base freezes");
    let store = Arc::new(SharedClauseStore::new());
    for _ in 0..2 {
        let mut ctl = frozen.request();
        ctl.set_shared_store(Arc::clone(&store));
        ctl.ground().expect("request grounds");
        assert!(ctl.stats().tight, "the program has no positive loop");
        let outcome = ctl.solve().expect("request solves");
        assert!(matches!(outcome, SolveOutcome::Optimal { .. }), "{outcome:?}");
        assert_eq!(ctl.stats().transferred_clauses, 0);
    }
    assert_eq!((store.hits(), store.misses()), (0, 0), "tight requests must not touch the store");
}

/// Mutation-style soundness check at the public-API level: corrupt a shelved clause
/// behind the store's back (duplicate literal — a shape no canonicalized cache can
/// contain); the raw transfer hands it through and the trusted bulk loader's
/// debug-mode canonical-form assertion must fire rather than silently absorbing it.
#[test]
#[cfg(debug_assertions)]
fn corrupted_transferred_clause_is_caught_in_debug() {
    use asp::sat::{ClauseCache, Lit, SatConfig, Solver};
    let store = asp::SharedClauseStore::new();
    store.inject_raw_for_tests(7, vec![Lit::pos(1), Lit::pos(1), Lit::pos(0)]);
    let mut cache = ClauseCache::default();
    assert_eq!(store.fetch_into(7, &mut cache), 1, "the raw clause must transfer verbatim");
    let outcome = std::panic::catch_unwind(move || {
        let mut solver = Solver::new(4, SatConfig::default());
        solver.load_trusted_clauses(cache.clauses())
    });
    assert!(outcome.is_err(), "debug-mode trusted load must reject a non-canonical clause");
}

/// Threaded stress: several OS threads hammer one session (shared store on) with a
/// mixed SAT/UNSAT request stream; every result must equal the one-shot oracle, with
/// no panic or deadlock. A watchdog thread bounds the test — a deadlock fails loudly
/// instead of hanging the suite.
#[test]
fn threaded_stress_matches_serial_oracle() {
    const THREADS: usize = 4;
    const ROUNDS: usize = 3;
    let (tx, rx) = std::sync::mpsc::channel::<()>();
    std::thread::spawn(move || {
        let repo = builtin_repo();
        let oneshot =
            Concretizer::new(&repo).with_options(SolveOptions::new().site(SiteConfig::quartz()));
        let specs = ["zlib", "hdf5", "zlib@9.9", "mpileaks", "example", "netcdf-c ^hdf5~mpi"];
        let oracle: Vec<String> =
            specs.iter().map(|s| render(&oneshot.concretize_str(s))).collect();
        let session = oneshot.session().expect("session build");
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (session, specs, oracle) = (&session, &specs, &oracle);
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        for (i, spec) in specs.iter().enumerate() {
                            let got = render(&session.concretize_str(spec));
                            assert_eq!(
                                got, oracle[i],
                                "thread {t} round {round} spec `{spec}`: differs from oracle"
                            );
                        }
                    }
                });
            }
        });
        tx.send(()).ok();
    });
    // Generous: the stress solves THREADS * ROUNDS * 6 full requests on one core in
    // the worst scheduling; well under a minute in practice.
    match rx.recv_timeout(std::time::Duration::from_secs(600)) {
        Ok(()) => {}
        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
            panic!("threaded stress timed out — possible deadlock in the session path")
        }
        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
            panic!("a stress thread panicked; see the assertion output above")
        }
    }
}
