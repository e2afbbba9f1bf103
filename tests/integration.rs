//! Cross-crate integration tests: repository + store + ASP engine + concretizer working
//! together on realistic requests, with solution *validity* checked independently of the
//! solver (the checks of Section III-C1 of the paper: virtuals replaced, dependencies
//! resolved, all parameters assigned, all input constraints satisfied).

use std::collections::BTreeSet;

use spack_concretizer::{Concretization, Concretizer, SiteConfig, SolveOptions};
use spack_repo::{builtin_repo, synth_repo, Repository, SynthConfig};
use spack_spec::{parse_spec, Compiler, Platform, VariantValue};
use spack_store::{synthesize_buildcache, BuildcacheConfig, Database};

/// Independently validate a concrete spec against the repository: every node fully
/// assigned, every unconditional dependency present, every conditional dependency
/// consistent with the chosen variants, every conflict avoided, and the DAG acyclic.
fn validate(repo: &Repository, result: &Concretization) {
    let spec = &result.spec;
    assert!(!spec.is_empty(), "solution must not be empty");
    // Acyclicity.
    let order = spec.topological_order();
    assert_eq!(order.len(), spec.len());
    for (i, node) in spec.nodes.iter().enumerate() {
        let pkg = repo.get(&node.name);
        // Every node has all parameters assigned.
        assert!(!node.version.to_string().is_empty());
        assert!(!node.compiler.name.is_empty());
        assert!(!node.os.is_empty());
        assert!(!node.target.is_empty());
        if let Some(pkg) = pkg {
            // The chosen version must be a declared one unless the node was reused.
            let reused = result.reused.iter().any(|(name, _)| name == &node.name);
            if !reused {
                assert!(
                    pkg.versions.iter().any(|v| v.version == node.version),
                    "{}@{} is not a declared version",
                    node.name,
                    node.version
                );
                // Every declared variant has a value.
                for variant in &pkg.variants {
                    assert!(
                        node.variants.contains_key(&variant.name),
                        "{} is missing a value for variant {}",
                        node.name,
                        variant.name
                    );
                }
            }
            // Unconditional dependencies must be present (resolved through providers for
            // virtuals).
            for dep in &pkg.dependencies {
                if !dep.when.is_empty() {
                    continue;
                }
                let dep_name = dep.spec.name.as_deref().unwrap();
                let target_names: Vec<String> = if repo.is_virtual(dep_name) {
                    repo.providers(dep_name).to_vec()
                } else {
                    vec![dep_name.to_string()]
                };
                let satisfied =
                    node.deps.iter().any(|&(d, _)| target_names.contains(&spec.nodes[d].name));
                assert!(
                    satisfied,
                    "{} is missing its unconditional dependency {}",
                    node.name, dep_name
                );
            }
            // No conflict directive may match.
            for conflict in &pkg.conflicts {
                let mut when = conflict.when.clone();
                when.name = None;
                let mut conflicting = conflict.spec.clone();
                if conflicting.dependencies.is_empty() {
                    conflicting.name = None;
                }
                let when_matches = conflict.when.is_empty() || spec.node_satisfies(i, &when);
                let spec_matches = spec.node_satisfies(i, &conflicting);
                assert!(
                    !(when_matches && spec_matches),
                    "conflict {} (when {}) triggered on {}",
                    conflict.spec,
                    conflict.when,
                    node.name
                );
            }
        }
    }
}

fn quartz_concretizer(repo: &Repository) -> Concretizer<'_> {
    Concretizer::new(repo).with_options(SolveOptions::new().site(SiteConfig::quartz()))
}

#[test]
fn hdf5_full_stack_is_valid() {
    let repo = builtin_repo();
    let result = quartz_concretizer(&repo).concretize_str("hdf5").unwrap();
    validate(&repo, &result);
    assert!(result.spec.len() >= 10, "hdf5 pulls in a real stack");
    for required in ["zlib", "cmake", "pkgconf"] {
        assert!(result.spec.contains(required), "missing {required}");
    }
    // The solution satisfies the abstract input spec.
    assert!(result.spec.satisfies(&parse_spec("hdf5").unwrap()));
    assert!(result.spec.satisfies(&parse_spec("hdf5+mpi").unwrap()));
}

#[test]
fn user_constraints_flow_to_dependencies() {
    let repo = builtin_repo();
    let result = quartz_concretizer(&repo)
        .concretize_str("hdf5@1.10.8 ^zlib@1.2.8 ^cmake@3.21.1~ssl")
        .unwrap();
    validate(&repo, &result);
    assert_eq!(result.spec.node("hdf5").unwrap().version.to_string(), "1.10.8");
    assert_eq!(result.spec.node("zlib").unwrap().version.to_string(), "1.2.8");
    let cmake = result.spec.node("cmake").unwrap();
    assert_eq!(cmake.version.to_string(), "3.21.1");
    assert_eq!(cmake.variants.get("ssl"), Some(&VariantValue::Bool(false)));
    // cmake~ssl must not depend on openssl.
    let openssl_dep = cmake.deps.iter().any(|&(d, _)| result.spec.nodes[d].name == "openssl");
    assert!(!openssl_dep, "cmake~ssl must not link openssl");
}

#[test]
fn defaults_follow_table2_preferences() {
    let repo = builtin_repo();
    let result = quartz_concretizer(&repo).concretize_str("example").unwrap();
    validate(&repo, &result);
    let example = result.spec.node("example").unwrap();
    // Newest version, default variant values, preferred compiler, best target.
    assert_eq!(example.version.to_string(), "1.1.0");
    assert_eq!(example.variants.get("bzip"), Some(&VariantValue::Bool(true)));
    assert_eq!(example.compiler, Compiler::new("gcc", "11.2.0"));
    assert_eq!(example.target, "icelake");
    assert_eq!(example.platform, Platform::Linux);
    // The conditional zlib version bump for @1.1.0: applies.
    let zlib = result.spec.node("zlib").unwrap();
    assert!(parse_spec("zlib@1.2.8:").unwrap().versions.satisfies(&zlib.version));
}

#[test]
fn compiler_choice_limits_the_target() {
    // With only an old gcc available, the paper's example: skylake and newer cannot be
    // targeted, so the solver must fall back to an older microarchitecture.
    let repo = builtin_repo();
    let site =
        SiteConfig { compilers: vec![Compiler::new("gcc", "4.8.5")], ..SiteConfig::minimal() };
    let result = Concretizer::new(&repo)
        .with_options(SolveOptions::new().site(site))
        .concretize_str("zlib")
        .unwrap();
    let zlib = result.spec.node("zlib").unwrap();
    assert_eq!(zlib.compiler, Compiler::new("gcc", "4.8.5"));
    assert_ne!(zlib.target, "skylake");
    assert_ne!(zlib.target, "icelake");
    let catalog = spack_spec::TargetCatalog::builtin();
    assert!(catalog.compiler_supports("gcc", &Compiler::new("gcc", "4.8.5").version, &zlib.target));
}

#[test]
fn conflicts_prune_the_search_space() {
    // example conflicts with %intel: requesting it must be unsatisfiable, and the default
    // solve must avoid intel even though it is available.
    let repo = builtin_repo();
    let err = quartz_concretizer(&repo).concretize_str("example%intel");
    assert!(err.is_err(), "example%intel must be rejected");
    let ok = quartz_concretizer(&repo).concretize_str("example").unwrap();
    assert_ne!(ok.spec.node("example").unwrap().compiler.name, "intel");
}

#[test]
fn multiple_roots_share_one_dag() {
    let repo = builtin_repo();
    let roots = vec![parse_spec("mpileaks").unwrap(), parse_spec("hdf5").unwrap()];
    let result = quartz_concretizer(&repo).concretize(&roots).unwrap();
    validate(&repo, &result);
    assert_eq!(result.spec.roots.len(), 2);
    assert!(result.spec.contains("mpileaks"));
    assert!(result.spec.contains("hdf5"));
    // Exactly one MPI provider serves both roots.
    let providers: Vec<&str> = repo
        .providers("mpi")
        .iter()
        .map(|s| s.as_str())
        .filter(|p| result.spec.contains(p))
        .collect();
    assert_eq!(providers.len(), 1, "one provider shared across roots: {providers:?}");
}

#[test]
fn reuse_prefers_installed_packages_and_respects_constraints() {
    let repo = builtin_repo();
    let site = SiteConfig::quartz();
    // Cache the result of a previous concretization — reuse should then be total.
    let mut db = Database::new();
    let previous = Concretizer::new(&repo)
        .with_options(SolveOptions::new().site(site.clone()))
        .concretize_str("hdf5")
        .unwrap();
    db.add_concrete_spec(&previous.spec);

    let with_reuse = Concretizer::new(&repo)
        .with_options(SolveOptions::new().site(site.clone()).database(&db))
        .concretize_str("hdf5")
        .unwrap();
    assert_eq!(with_reuse.build_count(), 0, "identical request must be fully reused");
    assert_eq!(with_reuse.reuse_count(), with_reuse.spec.len());

    // A conflicting constraint forces a (partial) rebuild.
    let constrained = Concretizer::new(&repo)
        .with_options(SolveOptions::new().site(site).database(&db))
        .concretize_str("hdf5~shared")
        .unwrap();
    assert!(constrained.build_count() >= 1);
    assert_eq!(
        constrained.spec.node("hdf5").unwrap().variants.get("shared"),
        Some(&VariantValue::Bool(false))
    );
}

#[test]
fn buildcache_scopes_affect_fact_count_not_correctness() {
    let repo = builtin_repo();
    let site = SiteConfig::quartz();
    let cache = synthesize_buildcache(&repo, &BuildcacheConfig::default());
    let scopes = BuildcacheConfig::paper_scopes();
    let mut previous_facts = 0usize;
    for (name, scope) in scopes {
        let scoped = scope.apply(&cache);
        let result = Concretizer::new(&repo)
            .with_options(SolveOptions::new().site(site.clone()).database(&scoped))
            .concretize_str("hdf5")
            .unwrap_or_else(|e| panic!("scope {name}: {e}"));
        validate(&repo, &result);
        // Bigger caches mean more facts (the effect measured in Fig. 7e).
        assert!(result.setup.facts >= previous_facts);
        previous_facts = result.setup.facts;
    }
}

#[test]
fn synthetic_repository_concretizes_cleanly() {
    let repo = synth_repo(&SynthConfig::small());
    let site = SiteConfig::minimal();
    let concretizer = Concretizer::new(&repo).with_options(SolveOptions::new().site(site));
    let mut solved = 0;
    for root in spack_repo::e4s_roots(&repo).iter().take(4) {
        let result = concretizer.concretize_str(root).unwrap_or_else(|e| panic!("{root}: {e}"));
        validate(&repo, &result);
        assert!(result.spec.contains(root));
        solved += 1;
    }
    assert!(solved > 0);
}

#[test]
fn cost_vector_is_lexicographically_consistent() {
    // Concretizing with an explicit non-default variant must cost more at the
    // "non-default variants (roots)" level and never less at higher levels.
    let repo = builtin_repo();
    let default = quartz_concretizer(&repo).concretize_str("hdf5").unwrap();
    let tweaked = quartz_concretizer(&repo).concretize_str("hdf5~shared").unwrap();
    let get = |c: &Concretization, prio: i64| {
        c.cost.iter().find(|(p, _)| *p == prio).map(|(_, v)| *v).unwrap_or(0)
    };
    // Criterion 3 (non-default variant values on roots) in the build bucket is 213.
    assert!(get(&tweaked, 213) > get(&default, 213));
    // Deprecated-version criterion stays zero in both.
    assert_eq!(get(&default, 215), 0);
    assert_eq!(get(&tweaked, 215), 0);
}

#[test]
fn identical_requests_are_deterministic() {
    let repo = builtin_repo();
    let a = quartz_concretizer(&repo).concretize_str("mpileaks").unwrap();
    let b = quartz_concretizer(&repo).concretize_str("mpileaks").unwrap();
    let names = |c: &Concretization| -> BTreeSet<String> {
        c.spec.nodes.iter().map(|n| n.format_node()).collect()
    };
    assert_eq!(names(&a), names(&b));
    assert_eq!(a.cost, b.cost);
    // And the DAG hash of the root is identical, too.
    let ra = a.spec.roots[0];
    let rb = b.spec.roots[0];
    assert_eq!(a.spec.node_hash(ra), b.spec.node_hash(rb));
}

/// Build a concrete spec by hand and check the store round-trip used by the reuse path.
#[test]
fn store_roundtrip_preserves_reusability() {
    let repo = builtin_repo();
    let site = SiteConfig::quartz();
    let result = Concretizer::new(&repo)
        .with_options(SolveOptions::new().site(site.clone()))
        .concretize_str("example")
        .unwrap();
    let mut db = Database::new();
    let roots = db.add_concrete_spec(&result.spec);
    assert_eq!(roots.len(), 1);
    // The stored root must be findable by exact hash from an identical concretization.
    let again = Concretizer::new(&repo)
        .with_options(SolveOptions::new().site(site))
        .concretize_str("example")
        .unwrap();
    let root_index = again.spec.roots[0];
    assert!(db.query_exact(&again.spec, root_index).is_some());
}

#[test]
fn unsatisfiable_combinations_are_detected_not_mis_solved() {
    let repo = builtin_repo();
    // netcdf-c requires hdf5+mpi; force ~mpi through the command line: no valid solution.
    let err = quartz_concretizer(&repo).concretize_str("netcdf-c ^hdf5~mpi");
    assert!(err.is_err());
    // And the error is Unsatisfiable (not a crash or a wrong answer), carrying an
    // actionable explanation.
    match err {
        Err(spack_concretizer::ConcretizeError::Unsatisfiable { diagnostics, .. }) => {
            assert!(!diagnostics.is_empty(), "unsat errors must carry diagnostics");
        }
        other => panic!("expected Unsatisfiable, got {other:?}"),
    }
}

#[test]
fn concrete_spec_display_round_trips_through_store() {
    let repo = builtin_repo();
    let result = quartz_concretizer(&repo).concretize_str("callpath").unwrap();
    let text = result.spec.to_string();
    assert!(text.contains("callpath@"));
    assert!(text.contains("arch=linux-"));
    let mut db = Database::new();
    db.add_concrete_spec(&result.spec);
    assert_eq!(db.with_name("callpath").len(), 1, "exactly one callpath record stored");
}
