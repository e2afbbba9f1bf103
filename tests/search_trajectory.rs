//! Pins the search trajectory of the CDCL solver on a fixed set of requests.
//!
//! Each request's solver counters (`asp::Stats`: solver runs, models examined,
//! decisions, propagations, conflicts, learned clauses) are exact and deterministic
//! for a fixed spec, site and seed. They move only when the search itself changes:
//! a different decision, propagation order, conflict or learned clause. A change
//! meant to make the solver faster without changing what it does (a leaner watch
//! list, a smaller reason or heap entry) must leave every value here as it is. A
//! change meant to alter the search updates these values deliberately, in the same
//! change that alters it.

use asp::{AssumeOutcome, Assumption, SolverConfig, Value};
use spack_concretizer::{
    setup_problem, ConcretizeError, Concretizer, SiteConfig, SolveOptions, CONCRETIZE_LP,
    ERROR_GUARD_LP,
};
use spack_repo::builtin_repo;
use spack_spec::parse_spec;
use spack_store::{synthesize_buildcache, BuildcacheConfig};

/// The counters a trajectory is pinned by, in the order
/// `solver_runs, models_examined, decisions, propagations, conflicts, learned`.
type Counts = [u64; 6];

fn counts(stats: &asp::Stats) -> Counts {
    [
        stats.solver_runs,
        stats.models_examined,
        stats.decisions,
        stats.propagations,
        stats.conflicts,
        stats.learned,
    ]
}

#[test]
fn satisfiable_requests_keep_their_search_counters() {
    let repo = builtin_repo();
    let cache = synthesize_buildcache(&repo, &BuildcacheConfig::default());
    let plain = Concretizer::new(&repo);
    let reuse = Concretizer::new(&repo).with_options(SolveOptions::new().database(&cache));
    // `hpctoolkit ^mpich` with reuse is the case of the four that moves when a
    // conflict on a binary clause is analysed in another literal order.
    let cases = [
        (&reuse, "hdf5"),
        (&plain, "mpileaks"),
        (&plain, "hpctoolkit ^mpich"),
        (&reuse, "hpctoolkit ^mpich"),
    ];
    let observed: Vec<Counts> = cases
        .iter()
        .map(|(concretizer, spec)| counts(&concretizer.concretize_str(spec).expect(spec).stats))
        .collect();
    let expected: [Counts; 4] = [
        [16, 14, 1404, 104922, 29, 28],
        [12, 10, 2449, 65341, 13, 12],
        [12, 8, 766, 57107, 4, 4],
        [18, 11, 1304, 168817, 39, 37],
    ];
    assert_eq!(observed, expected, "hdf5 --reuse, mpileaks, hpctoolkit ^mpich (plain, --reuse)");
}

/// The pinned `relax_mode` and `node_seed` guards and the error-level floor of the
/// diagnostics pipeline (`spack_concretizer::concretize` keeps them private).
const RELAX_MODE: &str = "relax_mode";
const NODE_SEED: &str = "node_seed";
const ERROR_PRIORITY_FLOOR: i64 = 1000;

#[test]
fn unsatisfiable_request_keeps_its_search_counters() {
    // The failed hard solve, the core minimization and the relaxed re-solve of
    // `Concretizer::concretize`, step by step through the public calls, so the
    // counters of every stage are visible.
    let repo = builtin_repo();
    let roots = [parse_spec("zlib@9.9").unwrap()];
    let (mut ctl, info) =
        setup_problem(&repo, &SiteConfig::default(), None, &roots, SolverConfig::default())
            .expect("setup succeeds");
    ctl.add_program(CONCRETIZE_LP).unwrap();
    ctl.add_program(ERROR_GUARD_LP).unwrap();
    ctl.ground().unwrap();
    let root_assumptions: Vec<Assumption> = info
        .root_conditions
        .iter()
        .map(|(id, _)| Assumption::holds("assumed", &[Value::Int(*id)]))
        .collect();
    let relax_off = [Assumption::fails(RELAX_MODE, &[]), Assumption::fails(NODE_SEED, &[])];
    let mut assumptions = relax_off.to_vec();
    assumptions.extend(root_assumptions.iter().cloned());
    let core = match ctl.solve_with_assumptions(&assumptions).unwrap() {
        AssumeOutcome::Unsatisfiable { core } => core,
        _ => panic!("zlib@9.9 must be unsatisfiable"),
    };
    let hard = counts(ctl.stats());
    let search_core: Vec<usize> = core.into_iter().filter(|&i| i > 1).map(|i| i - 2).collect();
    let (_, rounds) = ctl.minimize_core(&root_assumptions, &search_core, &relax_off).unwrap();
    let minimized = counts(ctl.stats());
    let mut relaxed = root_assumptions.clone();
    relaxed.push(Assumption::holds(RELAX_MODE, &[]));
    relaxed.push(Assumption::fails(NODE_SEED, &[]));
    let outcome = ctl.solve_with_assumptions_floor(&relaxed, ERROR_PRIORITY_FLOOR).unwrap();
    assert!(matches!(outcome, AssumeOutcome::Optimal { .. }), "the relaxed solve explains");
    let explained = counts(ctl.stats());

    let observed = [hard, minimized, explained];
    let expected: [Counts; 3] =
        [[0, 0, 0, 192, 1, 1], [0, 0, 15, 278, 1, 1], [2, 1, 15, 287, 1, 1]];
    assert_eq!(observed, expected, "hard solve, after core minimization, after relaxed solve");

    // The steps above are the path `Concretizer::concretize` takes.
    match Concretizer::new(&repo).concretize_str("zlib@9.9") {
        Err(ConcretizeError::Unsatisfiable { stats, .. }) => {
            assert_eq!((stats.core_size, stats.minimization_rounds), (search_core.len(), rounds));
        }
        other => panic!("zlib@9.9 must be unsatisfiable, got {other:?}"),
    }
}
