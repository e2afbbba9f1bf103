//! Cross-checks of multi-shot sessions against one-shot solves.
//!
//! A [`spack_concretizer::ConcretizerSession`] answers requests from a frozen,
//! whole-repository base through relevance-restricted delta grounding — an entirely
//! different code path from a one-shot [`spack_concretizer::Concretizer::concretize`]
//! call, which grounds the request's closure from scratch. These tests pin the
//! contract that the two are *observationally identical*: same DAG (rendered), same
//! reuse/build partition, same objective vector, and — for unsatisfiable requests —
//! the same diagnostics, over randomized synthetic repositories shaped like the
//! bench's `Medium` and `Wide` tiers and across solver seeds, with SAT and UNSAT
//! requests interleaved on one session and batch mode cross-checked against both.
//! The generated repositories are widened with what restriction by symbol spelling
//! once got wrong: conflicts on packages outside the conflicting package's closure,
//! and package names that collide with variant names and values. The `#[ignore]`d
//! exhaustive test compares every package of the bench's medium repository.

use proptest::prelude::*;

use asp::SolverConfig;
use spack_concretizer::server::wire::{SolveResponse, SolveStatus};
use spack_concretizer::{
    durable, Concretization, ConcretizeError, Concretizer, SiteConfig, SolveOptions,
};
use spack_repo::{builtin_repo, synth_repo, Conflict, PackageBuilder, Repository, SynthConfig};
use spack_spec::parse_spec;
use spack_store::{synthesize_buildcache, BuildcacheConfig};

/// Render everything a caller can observe about a result, for equality comparison.
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

/// The request list for a synthetic repository: a mix of plain roots, a pinned
/// version that usually exists, and a pinned version that never does (UNSAT).
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

/// Session-mode, batch-mode, and one-shot solves must be observationally identical
/// under the given solver seed, including interleaved SAT and UNSAT requests on one
/// long-lived session.
fn assert_session_matches_one_shot(repo: &spack_repo::Repository, seed: u64, specs: &[String]) {
    let options = SolveOptions::new().site(SiteConfig::minimal()).seed(seed);
    let concretizer = Concretizer::new(repo).with_options(options);
    let session = concretizer.session().expect("session build");
    // Interleaved sequential requests on ONE session.
    for spec in specs {
        let one = render(&concretizer.concretize_str(spec));
        let ses = render(&session.concretize_str(spec));
        assert_eq!(one, ses, "spec `{spec}` (seed {seed}): session result differs from one-shot");
    }
    // Batch mode on the same session, cross-checked against the one-shot renderings.
    let parsed: Vec<Vec<spack_spec::Spec>> =
        specs.iter().filter_map(|s| parse_spec(s).ok().map(|p| vec![p])).collect();
    let batch = session.concretize_batch(&parsed);
    assert_eq!(batch.len(), parsed.len());
    for (request, result) in parsed.iter().zip(&batch) {
        let text = request[0].to_string();
        let one = render(&concretizer.concretize(request));
        assert_eq!(one, render(result), "spec `{text}`: batch result differs from one-shot");
    }
    let stats = session.stats();
    assert_eq!(stats.base_grounds, 1, "the base must be ground exactly once");
    assert_eq!(stats.requests, (specs.len() + parsed.len()) as u64);
}

/// A synthetic repository with the bench `Scale::Medium` structure (dependency chain
/// + extra virtuals) at test-friendly size.
fn medium_shaped_repo(seed: u64) -> Repository {
    widen(
        synth_repo(&SynthConfig {
            packages: 48,
            chain_depth: 10,
            extra_virtuals: 2,
            seed,
            ..Default::default()
        }),
        seed,
    )
}

/// A synthetic repository with the bench `Scale::Wide` structure (high fan-out,
/// virtual-heavy) at test-friendly size.
fn wide_shaped_repo(seed: u64) -> Repository {
    widen(
        synth_repo(&SynthConfig {
            packages: 40,
            max_deps: 8,
            mpi_fraction: 0.6,
            seed,
            ..Default::default()
        }),
        seed,
    )
}

/// Add what the synthetic generator never produces:
///
/// * on every third package (offset by `seed`), a conflict on a package *outside*
///   its possible closure, pinned to a version that exists and gated on the
///   package's newest version — mpich's `conflicts_when("^bzip2@1.0.7", "@3.1")`
///   shape, which a one-shot solve can never trigger;
/// * packages named after a variant name and a variant value of the repository, and
///   a variant named after a package.
fn widen(mut repo: Repository, seed: u64) -> Repository {
    let names: Vec<String> =
        repo.names().filter(|n| repo.get(n).is_some()).map(str::to_string).collect();
    for (i, name) in names.iter().enumerate() {
        if !(i as u64 + seed).is_multiple_of(3) {
            continue;
        }
        let closure = repo.possible_dependencies(&[name.as_str()]);
        let pick = (i + seed as usize) % names.len();
        let Some(other) =
            names.iter().cycle().skip(pick).take(names.len()).find(|n| {
                !closure.contains(*n) && repo.get(n).is_some_and(|p| !p.versions.is_empty())
            })
        else {
            continue;
        };
        let mut def = repo.get(name).expect("listed").clone();
        let (Some(newest), Some(theirs)) =
            (def.versions.first(), repo.get(other).and_then(|p| p.versions.last()))
        else {
            continue;
        };
        let spec = parse_spec(&format!("^{other}@{}", theirs.version)).expect("valid");
        let when = parse_spec(&format!("@{}", newest.version)).expect("valid");
        def.conflicts.push(Conflict { spec, when });
        repo.add(def);
    }
    let variant = repo.packages().flat_map(|p| p.variants.iter()).next().cloned();
    if let Some(variant) = variant {
        let value = match variant.values.first() {
            Some(v) => v.clone(),
            None => "true".to_string(),
        };
        for collided in [variant.name.clone(), value] {
            if repo.get(&collided).is_none() && !repo.is_virtual(&collided) {
                repo.add(PackageBuilder::new(&collided).version("1.0").build());
            }
        }
    }
    if let Some(first) = names.first() {
        let mut def = repo.get(first).expect("listed").clone();
        let other = names.last().expect("non-empty");
        def.variants.extend(
            PackageBuilder::new(first)
                .variant_bool(other, true, "collides with a package")
                .build()
                .variants,
        );
        repo.add(def);
    }
    repo
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Medium-shaped synthetic repositories (dependency chain + extra virtuals, the
    /// bench `Scale::Medium` structure at test-friendly size).
    #[test]
    fn session_matches_one_shot_on_medium_shaped_repos(
        seed in 0u64..200,
        picks in proptest::collection::vec(0usize..50, 4..7),
    ) {
        let repo = medium_shaped_repo(seed);
        let specs = requests_for(&repo, &picks);
        assert_session_matches_one_shot(&repo, SolverConfig::default().seed, &specs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Wide-shaped synthetic repositories (high fan-out, virtual-heavy — the bench
    /// `Scale::Wide` structure at test-friendly size).
    #[test]
    fn session_matches_one_shot_on_wide_shaped_repos(
        seed in 0u64..200,
        picks in proptest::collection::vec(0usize..50, 4..7),
    ) {
        let repo = wide_shaped_repo(seed);
        let specs = requests_for(&repo, &picks);
        assert_session_matches_one_shot(&repo, SolverConfig::default().seed, &specs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Medium-shaped repositories across solver seeds: whatever seed drives the
    /// descent, session, batch and one-shot solves stay identical.
    #[test]
    fn session_matches_one_shot_across_solver_seeds_on_medium_shaped_repos(
        repo_seed in 0u64..200,
        solver_seed in 0u64..8,
        picks in proptest::collection::vec(0usize..50, 3..6),
    ) {
        let repo = medium_shaped_repo(repo_seed);
        let specs = requests_for(&repo, &picks);
        assert_session_matches_one_shot(&repo, solver_seed, &specs);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Wide-shaped repositories across solver seeds.
    #[test]
    fn session_matches_one_shot_across_solver_seeds_on_wide_shaped_repos(
        repo_seed in 0u64..200,
        solver_seed in 0u64..8,
        picks in proptest::collection::vec(0usize..50, 3..6),
    ) {
        let repo = wide_shaped_repo(repo_seed);
        let specs = requests_for(&repo, &picks);
        assert_session_matches_one_shot(&repo, solver_seed, &specs);
    }
}

/// Reuse coverage: with an installed database behind the session, results (including
/// the reused/built partition and the reuse criteria in the objective vector) stay
/// identical to one-shot solves.
#[test]
fn session_matches_one_shot_with_buildcache() {
    let repo = builtin_repo();
    let cache = synthesize_buildcache(&repo, &BuildcacheConfig::default());
    let concretizer = Concretizer::new(&repo)
        .with_options(SolveOptions::new().site(SiteConfig::quartz()).database(&cache));
    let session = concretizer.session().expect("session build");
    for spec in ["zlib", "hdf5", "mpileaks", "zlib@9.9", "example~bzip", "netcdf-c ^hdf5~mpi"] {
        let one = render(&concretizer.concretize_str(spec));
        let ses = render(&session.concretize_str(spec));
        assert_eq!(one, ses, "spec `{spec}` (with reuse): session differs from one-shot");
    }
}

/// The requests a session once answered worse than one-shot on the bench's medium
/// repository with the service buildcache: through a session and through a durable
/// batch, every answer must render exactly like the one-shot solve's.
#[test]
fn session_and_durable_batch_match_one_shot_on_the_medium_buildcache() {
    let repo = bench::workload_repo(bench::Scale::Medium);
    let cache = bench::service_buildcache(&repo, bench::Scale::Medium);
    let concretizer = Concretizer::new(&repo)
        .with_options(SolveOptions::new().site(SiteConfig::quartz()).database(&cache));
    let session = concretizer.session().expect("session build");
    let specs = ["lib-054+feat0", "lib-085@1.4.0", "netcdf-c~mpi"];
    let one_shot: Vec<String> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let result = concretizer.concretize_str(spec);
            SolveResponse::from_result(&i.to_string(), spec, &result, 0).render()
        })
        .collect();
    for (i, spec) in specs.iter().enumerate() {
        let result = session.concretize_str(spec);
        let rendered = SolveResponse::from_result(&i.to_string(), spec, &result, 0).render();
        assert_eq!(rendered, one_shot[i], "spec `{spec}`: session differs from one-shot");
    }
    let items: Vec<(usize, String)> =
        specs.iter().enumerate().map(|(i, s)| (i + 1, s.to_string())).collect();
    let outcome = durable::run_batch(&session, &items, 0, None, true).expect("batch runs");
    for (record, expected) in outcome.records.iter().zip(&one_shot) {
        assert_eq!(&record.output, expected, "spec `{}`: durable batch differs", record.spec);
    }
}

/// Every package of the bench's medium repository, bare, with a version pin and with
/// a variant pin, with and without reuse of the service buildcache: session answers
/// must render exactly like one-shot answers. Minutes in release mode, so ignored in
/// tier-1; CI runs it with `--ignored`.
#[test]
#[ignore]
fn every_medium_package_matches_one_shot() {
    let repo = bench::workload_repo(bench::Scale::Medium);
    let cache = bench::service_buildcache(&repo, bench::Scale::Medium);
    let mut specs: Vec<String> = Vec::new();
    for package in repo.packages() {
        specs.push(package.name.clone());
        if let Some(decl) = package.versions.get(1).or(package.versions.first()) {
            specs.push(format!("{}@{}", package.name, decl.version));
        }
        if let Some(variant) = package.variants.first() {
            let pin = match (&variant.default, variant.values.last()) {
                (spack_spec::VariantValue::Bool(on), _) => {
                    format!("{}{}", if *on { "~" } else { "+" }, variant.name)
                }
                (_, Some(value)) => format!(" {}={value}", variant.name),
                (_, None) => continue,
            };
            specs.push(format!("{}{pin}", package.name));
        }
    }
    let mut failures: Vec<String> = Vec::new();
    for database in [None, Some(&cache)] {
        let options = SolveOptions::new().site(SiteConfig::quartz());
        let options = match database {
            Some(db) => options.database(db),
            None => options,
        };
        let concretizer = Concretizer::new(&repo).with_options(options);
        let session = concretizer.session().expect("session build");
        let parsed: Vec<Vec<spack_spec::Spec>> =
            specs.iter().map(|s| vec![parse_spec(s).expect("generated specs parse")]).collect();
        let answers = session.concretize_batch(&parsed);
        for ((spec, roots), answer) in specs.iter().zip(&parsed).zip(&answers) {
            let one = SolveResponse::from_result("", spec, &concretizer.concretize(roots), 0);
            let ses = SolveResponse::from_result("", spec, answer, 0);
            if one.render() != ses.render() {
                failures.push(format!(
                    "{spec} (reuse: {}): one-shot {:?}, session {:?}",
                    database.is_some(),
                    one.status,
                    ses.status
                ));
            }
            assert_ne!(one.status, SolveStatus::Internal, "{spec}: {:?}", one.message);
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} answers differ:\n{}",
        failures.len(),
        2 * specs.len(),
        failures.join("\n")
    );
}

/// A session answering many requests (>= 8, SAT and UNSAT interleaved) grounds the
/// base exactly once; every request grounding is an incremental delta that reuses
/// frozen base instances and pays no program-parsing time.
#[test]
fn session_grounds_base_once_across_many_requests() {
    let repo = builtin_repo();
    let concretizer =
        Concretizer::new(&repo).with_options(SolveOptions::new().site(SiteConfig::quartz()));
    let session = concretizer.session().expect("session build");
    let specs = [
        "zlib",
        "zlib@9.9",
        "bzip2",
        "hdf5",
        "example",
        "netcdf-c ^hdf5~mpi",
        "mpileaks",
        "example~bzip",
        "hdf5@1.10:",
    ];
    assert!(specs.len() >= 8);
    for spec in specs {
        match session.concretize_str(spec) {
            Ok(result) => {
                assert!(result.stats.ground.delta, "{spec}: must ground incrementally");
                assert!(result.stats.ground.reused_rules > 0, "{spec}: must reuse the base");
                assert_eq!(
                    result.timings.load,
                    std::time::Duration::ZERO,
                    "{spec}: program parsing is amortized into the session"
                );
            }
            Err(ConcretizeError::Unsatisfiable { stats, .. }) => {
                assert_eq!(
                    stats.second_phase_ground,
                    std::time::Duration::ZERO,
                    "{spec}: diagnostics must not reground"
                );
            }
            Err(other) => panic!("{spec}: unexpected error {other}"),
        }
    }
    let stats = session.stats();
    assert_eq!(stats.base_grounds, 1);
    assert_eq!(stats.requests, specs.len() as u64);
}
