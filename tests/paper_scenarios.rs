//! Scenario tests: every worked example in the paper, end to end.
//!
//! * Section III-B / Fig. 2 — the `example` package,
//! * Section III-C — the concrete spec shown for `example@1.0.0 ^zlib@1.2.11`, and the
//!   backtracking scenario ("imagine that mpich had a conflict with bzip2@1.0.7"),
//! * Section V-B1 — `hpctoolkit ^mpich` (completeness),
//! * Section V-B2 — conflicts as constraints rather than post-hoc validation,
//! * Section V-B3 — `berkeleygw` forcing `openblas threads=openmp`,
//! * Section V (target selection) — compiler-limited targets,
//! * Section VI — cmake keeps networking (openssl) even when minimizing builds,
//! * Fig. 4 — the mpileaks DAG and per-node hashes.

use spack_concretizer::{Concretizer, GreedyConcretizer, GreedyError, SiteConfig, SolveOptions};
use spack_repo::builtin_repo;
use spack_spec::{parse_spec, VariantValue};
use spack_store::{synthesize_buildcache, BuildcacheConfig, Database};

fn concretizer(repo: &spack_repo::Repository) -> Concretizer<'_> {
    Concretizer::new(repo).with_options(SolveOptions::new().site(SiteConfig::quartz()))
}

#[test]
fn section3c_example_with_zlib_constraint() {
    // The paper's walk-through: `example@1.0.0 ^zlib@1.2.11`.
    let repo = builtin_repo();
    let result = concretizer(&repo).concretize_str("example@1.0.0 ^zlib@1.2.11").unwrap();
    let example = result.spec.node("example").unwrap();
    assert_eq!(example.version.to_string(), "1.0.0");
    // +bzip default on, bzip2 at 1.0.7-or-higher, zlib pinned, some MPI provider chosen.
    assert_eq!(example.variants.get("bzip"), Some(&VariantValue::Bool(true)));
    let bzip2 = result.spec.node("bzip2").unwrap();
    assert!(parse_spec("bzip2@1.0.7:").unwrap().versions.satisfies(&bzip2.version));
    assert_eq!(result.spec.node("zlib").unwrap().version.to_string(), "1.2.11");
    let repo2 = builtin_repo();
    let mpi_provider = repo2.providers("mpi").iter().find(|p| result.spec.contains(p));
    assert!(mpi_provider.is_some(), "a concrete MPI implementation must be selected");
    // All node parameters assigned (validity, Section III-C1).
    for node in &result.spec.nodes {
        assert!(!node.target.is_empty() && !node.os.is_empty());
    }
}

#[test]
fn section3c_backtracking_over_bzip2_versions() {
    // "Imagine that mpich had a conflict with bzip2@1.0.7": the builtin mpich@3.1
    // declares exactly that conflict. Forcing example to use mpich@3.1 and bzip2@:1.0.7
    // leaves bzip2@1.0.7 as the only version in range, so a complete solver must detect
    // unsatisfiability, while with a free bzip2 it must pick a different version rather
    // than fail.
    let repo = builtin_repo();
    let ok = concretizer(&repo).concretize_str("example ^mpich@3.1 ^bzip2@1.0.7:").unwrap();
    let bzip2 = ok.spec.node("bzip2").unwrap();
    assert!(
        bzip2.version > spack_spec::Version::new("1.0.7"),
        "the solver must back off bzip2 1.0.7 to satisfy mpich@3.1's conflict"
    );

    let unsat = concretizer(&repo).concretize_str("example ^mpich@3.1 ^bzip2@1.0.7");
    assert!(unsat.is_err(), "bzip2 pinned to 1.0.7 with mpich@3.1 cannot be satisfied");

    // The greedy baseline cannot recover in the first case: it picks bzip2@1.0.8 (newest
    // in range) only by luck of preference order; when the range forces 1.0.7 it simply
    // errors after the fact.
    let greedy = GreedyConcretizer::new(&repo, SiteConfig::quartz());
    let err =
        greedy.concretize(&parse_spec("example ^mpich@3.1 ^bzip2@1.0.7").unwrap()).unwrap_err();
    assert!(matches!(
        err,
        GreedyError::ConflictTriggered { .. } | GreedyError::ConflictingDecision { .. }
    ));
}

#[test]
fn section5b1_hpctoolkit_completeness() {
    let repo = builtin_repo();
    // Old concretizer: fails, demands over-constraining.
    let greedy = GreedyConcretizer::new(&repo, SiteConfig::quartz());
    let err = greedy.concretize(&parse_spec("hpctoolkit ^mpich").unwrap()).unwrap_err();
    assert_eq!(err.to_string(), "Package hpctoolkit does not depend on mpich");
    // ASP concretizer: finds the +mpi flip on its own.
    let result = concretizer(&repo).concretize_str("hpctoolkit ^mpich").unwrap();
    assert_eq!(
        result.spec.node("hpctoolkit").unwrap().variants.get("mpi"),
        Some(&VariantValue::Bool(true))
    );
    assert!(result.spec.contains("mpich"));
    // And without the ^mpich request the default (no MPI) is kept.
    let default = concretizer(&repo).concretize_str("hpctoolkit").unwrap();
    assert_eq!(
        default.spec.node("hpctoolkit").unwrap().variants.get("mpi"),
        Some(&VariantValue::Bool(false))
    );
    assert!(!default.spec.contains("mpich"));
}

#[test]
fn section5b2_conflicts_are_constraints_not_postmortems() {
    let repo = builtin_repo();
    // dyninst conflicts with %intel. Asking for hpctoolkit%intel must still succeed for
    // the parts that can use intel… but dyninst is a mandatory dependency, so the solver
    // must give dyninst a different compiler rather than fail (the greedy baseline would
    // have errored only after computing an invalid solution).
    let result = concretizer(&repo).concretize_str("hpctoolkit%intel").unwrap();
    assert_eq!(result.spec.node("hpctoolkit").unwrap().compiler.name, "intel");
    assert_ne!(result.spec.node("dyninst").unwrap().compiler.name, "intel");

    let greedy = GreedyConcretizer::new(&repo, SiteConfig::quartz());
    // The greedy algorithm propagates nothing across the conflict: whatever it decides,
    // it cannot produce the mixed-compiler solution above in one pass.
    // Erroring is acceptable too; either way it needed the ASP solver to do better.
    if let Ok(result) = greedy.concretize(&parse_spec("hpctoolkit%intel").unwrap()) {
        // If it "succeeds" it has silently used intel everywhere except where the
        // validation would have caught it — i.e. it did not mix compilers.
        assert_eq!(result.spec.node("dyninst").unwrap().compiler.name, "gcc");
    }
}

#[test]
fn section5b3_berkeleygw_provider_specialization() {
    let repo = builtin_repo();
    // `berkeleygw+openmp ^openblas`: openblas (as the chosen lapack provider) must get
    // threads=openmp, a conditional constraint on a virtual provider that the old
    // concretizer could not express.
    let result = concretizer(&repo).concretize_str("berkeleygw+openmp ^openblas").unwrap();
    let openblas = result.spec.node("openblas").unwrap();
    assert_eq!(openblas.variants.get("threads"), Some(&VariantValue::Value("openmp".into())));
    assert!(openblas.provides.contains(&"lapack".to_string()));
    // fftw+openmp is imposed by the same condition chain.
    let fftw = result.spec.node("fftw").unwrap();
    assert_eq!(fftw.variants.get("openmp"), Some(&VariantValue::Bool(true)));

    // Without +openmp (default is true in the recipe, so disable it): openblas keeps its
    // default threading model.
    let result = concretizer(&repo).concretize_str("berkeleygw~openmp ^openblas").unwrap();
    let openblas = result.spec.node("openblas").unwrap();
    assert_eq!(openblas.variants.get("threads"), Some(&VariantValue::Value("none".into())));
}

#[test]
fn section5_target_selection_respects_compiler_support() {
    let repo = builtin_repo();
    // With the full Quartz compiler set the preferred compiler is a recent gcc and the
    // best target (icelake) is chosen; pinning the old gcc forces an older target.
    let new = concretizer(&repo).concretize_str("zlib").unwrap();
    assert_eq!(new.spec.node("zlib").unwrap().target, "icelake");
    let old = concretizer(&repo).concretize_str("zlib%gcc@4.8.5").unwrap();
    let node = old.spec.node("zlib").unwrap();
    assert_eq!(node.compiler.version.to_string(), "4.8.5");
    assert!(
        ["haswell", "broadwell", "x86_64_v2", "x86_64"].contains(&node.target.as_str()),
        "old gcc cannot target skylake-or-newer, got {}",
        node.target
    );
}

#[test]
fn section6_built_packages_keep_their_defaults() {
    // The cmake example of Section VI: when minimizing builds, a *built* cmake must still
    // get its default (+ssl → openssl in the graph), because the criteria for built
    // packages rank above the number of builds (Fig. 5).
    let repo = builtin_repo();
    let site = SiteConfig::quartz();
    // Cache that contains cmake's dependencies but not cmake itself, and no openssl —
    // a pure build-minimizer would be tempted to drop the ssl variant.
    let cache = synthesize_buildcache(
        &repo,
        &BuildcacheConfig {
            architectures: vec![(
                spack_spec::Platform::Linux,
                "centos8".to_string(),
                "icelake".to_string(),
            )],
            compilers: vec![spack_spec::Compiler::new("gcc", "11.2.0")],
            replicas: 1,
            seed: 3,
        },
    )
    .filter(|r| r.name != "cmake" && r.name != "openssl");
    let result = Concretizer::new(&repo)
        .with_options(SolveOptions::new().site(site).database(&cache))
        .concretize_str("cmake")
        .unwrap();
    let cmake = result.spec.node("cmake").unwrap();
    assert_eq!(
        cmake.variants.get("ssl"),
        Some(&VariantValue::Bool(true)),
        "a built cmake must keep its networking default"
    );
    assert!(result.spec.contains("openssl"));
    assert!(result.built.contains(&"cmake".to_string()));
    assert!(result.reuse_count() > 0, "dependencies available in the cache are reused");
}

#[test]
fn fig4_mpileaks_dag_and_hashes() {
    let repo = builtin_repo();
    let result = concretizer(&repo).concretize_str("mpileaks").unwrap();
    // The DAG of Fig. 4: mpileaks -> callpath -> dyninst -> libdwarf -> libelf, plus mpi.
    for name in ["mpileaks", "callpath", "dyninst", "libdwarf", "libelf"] {
        assert!(result.spec.contains(name), "missing {name}");
    }
    let mpileaks = result.spec.find("mpileaks").unwrap();
    let callpath = result.spec.find("callpath").unwrap();
    assert!(result.spec.nodes[mpileaks].deps.iter().any(|&(d, _)| d == callpath));
    // Per-node hashes: distinct packages get distinct hashes, and the same node hashed
    // twice gets the same value (step 2 of Fig. 4).
    let mut db = Database::new();
    db.add_concrete_spec(&result.spec);
    assert_eq!(db.len(), result.spec.len(), "every node stored under a unique hash");
    let h1 = result.spec.node_hash(mpileaks);
    let h2 = result.spec.node_hash(mpileaks);
    assert_eq!(h1, h2);
    assert_ne!(h1, result.spec.node_hash(callpath));
}

#[test]
fn spec_strings_from_the_paper_parse() {
    // Abstract and concrete spec strings that appear verbatim in the paper.
    for text in [
        "hdf5",
        "hdf5@1.10.2 ^zlib%gcc ^cmake target=aarch64",
        "example@1.0.0 ^zlib@1.2.11",
        "example@1.0.0+bzip%gcc@11.2.0 arch=linux-centos8-skylake",
        "bzip2@1.0.8+pic%gcc@11.2.0 arch=linux-centos8-skylake",
        "mpich@3.1 pmi=pmix %gcc@11.2.0 arch=linux-centos8-skylake",
        "hpctoolkit ^mpich",
        "hpctoolkit+mpi ^mpich",
        "openblas threads=openmp",
        "+openmp ^openblas",
        "png@1.6.0:",
        "zlib@1.2.11",
    ] {
        parse_spec(text).unwrap_or_else(|e| panic!("'{text}' failed to parse: {e}"));
    }
}

#[test]
fn logic_program_is_declarative_and_compact() {
    // The paper reports ~800 lines of ASP for the full software model; our reproduction's
    // model is a faithful subset and must stay in the same order of magnitude.
    let lines = spack_concretizer::CONCRETIZE_LP
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.trim().starts_with('%'))
        .count();
    assert!(lines > 60, "the model should be non-trivial, got {lines} lines");
    assert!(lines < 800, "the model should stay compact, got {lines} lines");
    // And it contains the signature rules shown in the paper.
    for fragment in [
        "condition_holds(ID)",
        "imposed_constraint",
        "path(A, B)",
        "#minimize",
        "build_priority",
        "installed_hash",
    ] {
        assert!(
            spack_concretizer::CONCRETIZE_LP.contains(fragment),
            "logic program is missing '{fragment}'"
        );
    }
}
