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
//!
//! The same requests also pin the size of what is searched: the ground program's
//! atoms, rules and choices and the translation's variables and clauses. A change to
//! how the ground program or its translation is stored must leave these as they are
//! too.

use spack_concretizer::{ConcretizeError, Concretizer, SolveOptions};
use spack_repo::builtin_repo;
use spack_store::{synthesize_buildcache, BuildcacheConfig};

/// The counters a trajectory is pinned by, in the order
/// `solver_runs, models_examined, decisions, propagations, conflicts, learned`.
type Counts = [u64; 6];

/// The sizes a request's problem is pinned by, in the order
/// `ground.atoms, ground.rules, ground.choices, variables, clauses`.
type Sizes = [usize; 5];

fn sizes(stats: &asp::Stats) -> Sizes {
    let ground = &stats.ground;
    [ground.atoms, ground.rules, ground.choices, stats.variables, stats.clauses]
}

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
    let (observed, observed_sizes): (Vec<Counts>, Vec<Sizes>) = cases
        .iter()
        .map(|(concretizer, spec)| {
            let stats = concretizer.concretize_str(spec).expect(spec).stats;
            (counts(&stats), sizes(&stats))
        })
        .unzip();
    let expected: [Counts; 4] = [
        [16, 14, 1404, 104922, 29, 28],
        [12, 10, 2449, 65341, 13, 12],
        [12, 8, 766, 57107, 4, 4],
        [18, 11, 1304, 168817, 39, 37],
    ];
    assert_eq!(observed, expected, "hdf5 --reuse, mpileaks, hpctoolkit ^mpich (plain, --reuse)");
    let expected_sizes: [Sizes; 4] = [
        [6215, 8975, 134, 10557, 30467],
        [4928, 7766, 178, 10462, 32670],
        [4752, 7223, 176, 9812, 30196],
        [8337, 12491, 176, 14528, 42659],
    ];
    assert_eq!(observed_sizes, expected_sizes, "atoms, rules, choices, variables, clauses");
}

#[test]
fn unsatisfiable_request_keeps_its_search_counters() {
    // A failed concretization reports the counters summed over its failed hard
    // solve, its core minimization and its relaxed re-solve.
    let repo = builtin_repo();
    match Concretizer::new(&repo).concretize_str("zlib@9.9") {
        Err(ConcretizeError::Unsatisfiable { stats, .. }) => {
            let observed = (counts(&stats.solver), stats.core_size, stats.minimization_rounds);
            assert_eq!(observed, ([2, 1, 15, 287, 1, 1], 1, 1), "counters, core size, rounds");
        }
        other => panic!("zlib@9.9 must be unsatisfiable, got {other:?}"),
    }
}
