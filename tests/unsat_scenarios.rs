//! Golden corpus of deliberately unsolvable requests, asserting the *exact* diagnostic
//! messages the single-grounding unsat pipeline produces (see
//! `spack_concretizer::diagnose`) — byte-identical to the output of the pre-fold
//! two-grounding pipeline, per the full-report corpus below.
//!
//! Every scenario must yield at least one specific, human-readable diagnostic — never a
//! bare "no valid configuration exists". The corpus covers the scenario classes of the
//! paper's error scheme: version conflicts, conflicting roots in one call, incompatible
//! variants (including the Section V-B `^hdf5~mpi` example), invalid/unknown variant
//! values, conflict directives, compiler/target constraints, compiler–target support,
//! unjustified `^dep` requirements, unusable providers, and exhausted reuse.

use spack_concretizer::{ConcretizeError, Concretizer, Diagnostic, SiteConfig, SolveOptions};
use spack_repo::{builtin_repo, PackageBuilder, Repository};
use spack_spec::parse_spec;
use spack_store::{synthesize_buildcache, BuildcacheConfig};

/// Concretize `roots` against `repo` under the quartz site and return the diagnostics,
/// panicking when the request is (unexpectedly) satisfiable.
fn diagnose_with(
    repo: &Repository,
    site: SiteConfig,
    roots: &[&str],
    reuse: bool,
) -> Vec<Diagnostic> {
    let specs: Vec<_> =
        roots.iter().map(|r| parse_spec(r).expect("scenario specs parse")).collect();
    let cache;
    let mut options = SolveOptions::new().site(site);
    if reuse {
        cache = synthesize_buildcache(repo, &BuildcacheConfig::default());
        options = options.database(&cache);
    }
    match Concretizer::new(repo).with_options(options).concretize(&specs) {
        Ok(result) => panic!("scenario {roots:?} unexpectedly solved: {}", result.spec),
        Err(ConcretizeError::Unsatisfiable { diagnostics, stats }) => {
            assert!(
                !diagnostics.is_empty(),
                "{roots:?}: unsat errors must always carry diagnostics"
            );
            assert_eq!(
                stats.minimized_core_size,
                diagnostics.iter().map(|d| d.provenance.len()).max().unwrap_or(0),
                "{roots:?}: provenance must reflect the minimized core"
            );
            diagnostics
        }
        Err(other) => panic!("scenario {roots:?}: expected Unsatisfiable, got {other:?}"),
    }
}

fn diagnose(roots: &[&str]) -> Vec<Diagnostic> {
    diagnose_with(&builtin_repo(), SiteConfig::quartz(), roots, false)
}

fn messages(diags: &[Diagnostic]) -> Vec<&str> {
    diags.iter().map(|d| d.message.as_str()).collect()
}

/// Assert the exact message is present, and that nothing in the report is the bare
/// unhelpful fallback.
fn assert_message(diags: &[Diagnostic], expected: &str) {
    assert!(
        diags.iter().any(|d| d.message == expected),
        "expected message {expected:?} in {:?}",
        messages(diags)
    );
    assert!(
        diags.iter().all(|d| d.message != "no valid configuration exists"),
        "bare fallback message in {:?}",
        messages(diags)
    );
}

#[test]
fn version_constraint_no_known_version() {
    let diags = diagnose(&["zlib@9.9"]);
    assert_message(&diags, "the requirement `zlib@9.9` cannot be satisfied");
    assert_message(&diags, "zlib: no known version satisfies the constraint @9.9");
    // The paper-scheme metadata rides along: code, priority, package, provenance.
    let d = diags.iter().find(|d| d.code == "version-constraint").unwrap();
    assert_eq!(d.priority, 90);
    assert_eq!(d.package.as_deref(), Some("zlib"));
    assert_eq!(d.provenance, vec!["zlib@9.9".to_string()]);
}

#[test]
fn conflicting_roots_in_one_call() {
    // Two roots in a single concretize() call pin zlib to two disjoint versions: the
    // minimized unsat core names both requirements.
    let diags = diagnose(&["zlib@1.2.8", "zlib@1.2.12"]);
    assert_message(&diags, "the requirements `zlib@1.2.8`, `zlib@1.2.12` cannot all hold together");
    assert!(diags.iter().any(|d| d.code == "conflicting-requirements"), "{:?}", messages(&diags));
}

#[test]
fn incompatible_variant_roots() {
    // +bzip and ~bzip on the same package across two roots of one call.
    let diags = diagnose(&["example+bzip", "example~bzip"]);
    assert_message(
        &diags,
        "the requirements `example+bzip`, `example~bzip` cannot all hold together",
    );
    assert_message(
        &diags,
        "conflicting values imposed on variant 'bzip' of example: false vs true",
    );
}

#[test]
fn section5b_dependency_variant_conflict() {
    // The paper's flagship diagnostic: netcdf-c needs hdf5+mpi, the user demands ~mpi.
    let diags = diagnose(&["netcdf-c ^hdf5~mpi"]);
    assert_message(&diags, "the requirement `^hdf5~mpi` cannot be satisfied");
    assert_message(&diags, "conflicting values imposed on variant 'mpi' of hdf5: false vs true");
    // The model-level error carries the specifics, so the core summary is a Note;
    // the variant conflict itself is the Error.
    let core = diags.iter().find(|d| d.code == "unsat-requirement").unwrap();
    assert_eq!(core.severity, spack_concretizer::Severity::Note);
    let conflict = diags.iter().find(|d| d.code == "variant-conflict").unwrap();
    assert_eq!(conflict.severity, spack_concretizer::Severity::Error);
}

#[test]
fn invalid_variant_value() {
    let diags = diagnose(&["example bzip=maybe"]);
    assert_message(&diags, "invalid value 'maybe' for variant 'bzip' of example");
}

#[test]
fn unknown_variant() {
    let diags = diagnose(&["zlib+bogus"]);
    assert_message(&diags, "package zlib has no variant 'bogus'");
}

#[test]
fn conflict_directive_triggered() {
    // example conflicts("%intel"); requesting %intel trips the directive.
    let diags = diagnose(&["example%intel"]);
    assert_message(&diags, "example: conflicts with %intel");
    let d = diags.iter().find(|d| d.code == "conflict").unwrap();
    assert_eq!(d.priority, 75);
}

#[test]
fn compiler_constraint_unsatisfiable() {
    let diags = diagnose(&["zlib%gcc@99.9"]);
    assert_message(&diags, "zlib: no available compiler satisfies %gcc@99.9");
}

#[test]
fn target_constraint_unsatisfiable() {
    let diags = diagnose(&["zlib target=rv64gc"]);
    assert_message(&diags, "zlib: no available target satisfies target=rv64gc");
}

#[test]
fn old_compiler_cannot_emit_new_target() {
    // Section V's gcc/skylake example, pinned both ways: the specific incompatibility
    // is reported, not a generic constraint mismatch.
    let diags = diagnose(&["zlib%gcc@4.8.5 target=skylake"]);
    assert_message(&diags, "compiler gcc@4.8.5 cannot build zlib for target skylake");
}

#[test]
fn unjustified_root_requirement() {
    // zlib has no bzip2 dependency, so `^bzip2` can never be justified by an edge.
    let diags = diagnose(&["zlib ^bzip2"]);
    assert_message(&diags, "bzip2 was requested but nothing in the solution depends on it");
}

#[test]
fn os_conflict_names_both_systems() {
    // The minimal site has exactly one OS, so the message is fully deterministic.
    let diags =
        diagnose_with(&builtin_repo(), SiteConfig::minimal(), &["zlib os=windowsxp"], false);
    assert_message(&diags, "conflicting operating systems imposed on zlib: centos8 vs windowsxp");
}

#[test]
fn exhausted_reuse_still_explains() {
    // A populated buildcache cannot rescue an impossible version pin — the diagnostic
    // must be just as specific with reuse enabled.
    let diags = diagnose_with(&builtin_repo(), SiteConfig::quartz(), &["zlib@9.9"], true);
    assert_message(&diags, "zlib: no known version satisfies the constraint @9.9");
}

#[test]
fn provider_that_cannot_provide() {
    // A virtual whose only provider's provides() condition can never hold: the chosen
    // provider is called out, not just "unsat".
    let mut repo = Repository::new();
    repo.add(PackageBuilder::new("mockblas").version("1.0").provides_when("blas", "@2:").build());
    repo.add(PackageBuilder::new("app").version("1.0").depends_on("blas").build());
    let diags = diagnose_with(&repo, SiteConfig::minimal(), &["app"], false);
    assert_message(&diags, "mockblas cannot provide 'blas' under the chosen configuration");
}

/// The full diagnostic reports of every golden scenario, byte for byte, captured from
/// the pre-fold (two-grounding) pipeline and asserted unchanged across the
/// single-grounding fold: one line per diagnostic as
/// `scenario|severity|priority|code|message|provenance(;-joined)`, in report order.
const GOLDEN_REPORTS: &str = "\
version_constraint|Note|110|unsat-requirement|the requirement `zlib@9.9` cannot be satisfied|zlib@9.9
version_constraint|Error|90|version-constraint|zlib: no known version satisfies the constraint @9.9|zlib@9.9
conflicting_roots|Note|110|conflicting-requirements|the requirements `zlib@1.2.8`, `zlib@1.2.12` cannot all hold together|zlib@1.2.8;zlib@1.2.12
conflicting_roots|Error|90|version-constraint|zlib: no known version satisfies the constraint @1.2.8|zlib@1.2.8;zlib@1.2.12
incompatible_variant_roots|Note|110|conflicting-requirements|the requirements `example+bzip`, `example~bzip` cannot all hold together|example+bzip;example~bzip
incompatible_variant_roots|Error|85|variant-conflict|conflicting values imposed on variant 'bzip' of example: false vs true|example+bzip;example~bzip
section5b|Note|110|unsat-requirement|the requirement `^hdf5~mpi` cannot be satisfied|^hdf5~mpi
section5b|Error|85|variant-conflict|conflicting values imposed on variant 'mpi' of hdf5: false vs true|^hdf5~mpi
invalid_variant_value|Note|110|unsat-requirement|the requirement `example bzip=maybe` cannot be satisfied|example bzip=maybe
invalid_variant_value|Error|83|variant-value|invalid value 'maybe' for variant 'bzip' of example|example bzip=maybe
unknown_variant|Note|110|unsat-requirement|the requirement `zlib+bogus` cannot be satisfied|zlib+bogus
unknown_variant|Error|80|unknown-variant|package zlib has no variant 'bogus'|zlib+bogus
conflict_directive|Note|110|unsat-requirement|the requirement `example%intel` cannot be satisfied|example%intel
conflict_directive|Error|75|conflict|example: conflicts with %intel|example%intel
compiler_constraint|Note|110|unsat-requirement|the requirement `zlib%gcc@99.9` cannot be satisfied|zlib%gcc@99.9
compiler_constraint|Error|68|compiler-constraint|zlib: no available compiler satisfies %gcc@99.9|zlib%gcc@99.9
target_constraint|Note|110|unsat-requirement|the requirement `zlib target=rv64gc` cannot be satisfied|zlib target=rv64gc
target_constraint|Error|60|target-constraint|zlib: no available target satisfies target=rv64gc|zlib target=rv64gc
compiler_target|Note|110|unsat-requirement|the requirement `zlib%gcc@4.8.5 target=skylake` cannot be satisfied|zlib%gcc@4.8.5 target=skylake
compiler_target|Error|59|compiler-target|compiler gcc@4.8.5 cannot build zlib for target skylake|zlib%gcc@4.8.5 target=skylake
unjustified_root|Error|40|not-needed|bzip2 was requested but nothing in the solution depends on it|
os_conflict|Note|110|unsat-requirement|the requirement `zlib os=windowsxp` cannot be satisfied|zlib os=windowsxp
os_conflict|Error|55|os-conflict|conflicting operating systems imposed on zlib: centos8 vs windowsxp|zlib os=windowsxp
exhausted_reuse|Note|110|unsat-requirement|the requirement `zlib@9.9` cannot be satisfied|zlib@9.9
exhausted_reuse|Error|90|version-constraint|zlib: no known version satisfies the constraint @9.9|zlib@9.9
provider_cannot_provide|Error|50|provider-invalid|mockblas cannot provide 'blas' under the chosen configuration|
";

fn render_report(name: &str, diags: &[Diagnostic]) -> String {
    diags
        .iter()
        .map(|d| {
            format!(
                "{name}|{:?}|{}|{}|{}|{}\n",
                d.severity,
                d.priority,
                d.code,
                d.message,
                d.provenance.join(";")
            )
        })
        .collect()
}

#[test]
fn full_reports_match_the_prefold_golden_corpus() {
    // Every scenario's complete report — severity, priority, code, message, and
    // provenance of every diagnostic, in order — must be byte-identical to the
    // two-grounding pipeline's output captured before the single-grounding fold.
    let builtin = builtin_repo();
    let mut actual = String::new();
    let quartz_scenarios: [(&str, &[&str]); 11] = [
        ("version_constraint", &["zlib@9.9"]),
        ("conflicting_roots", &["zlib@1.2.8", "zlib@1.2.12"]),
        ("incompatible_variant_roots", &["example+bzip", "example~bzip"]),
        ("section5b", &["netcdf-c ^hdf5~mpi"]),
        ("invalid_variant_value", &["example bzip=maybe"]),
        ("unknown_variant", &["zlib+bogus"]),
        ("conflict_directive", &["example%intel"]),
        ("compiler_constraint", &["zlib%gcc@99.9"]),
        ("target_constraint", &["zlib target=rv64gc"]),
        ("compiler_target", &["zlib%gcc@4.8.5 target=skylake"]),
        ("unjustified_root", &["zlib ^bzip2"]),
    ];
    for (name, roots) in quartz_scenarios {
        let diags = diagnose_with(&builtin, SiteConfig::quartz(), roots, false);
        actual.push_str(&render_report(name, &diags));
    }
    let os = diagnose_with(&builtin, SiteConfig::minimal(), &["zlib os=windowsxp"], false);
    actual.push_str(&render_report("os_conflict", &os));
    let reuse = diagnose_with(&builtin, SiteConfig::quartz(), &["zlib@9.9"], true);
    actual.push_str(&render_report("exhausted_reuse", &reuse));
    let mut repo = Repository::new();
    repo.add(PackageBuilder::new("mockblas").version("1.0").provides_when("blas", "@2:").build());
    repo.add(PackageBuilder::new("app").version("1.0").depends_on("blas").build());
    let provider = diagnose_with(&repo, SiteConfig::minimal(), &["app"], false);
    actual.push_str(&render_report("provider_cannot_provide", &provider));
    assert_eq!(actual, GOLDEN_REPORTS, "diagnostic reports drifted from the golden corpus");
}

#[test]
fn diagnostics_order_is_most_severe_first() {
    let diags = diagnose(&["zlib@9.9"]);
    let priorities: Vec<i64> = diags.iter().map(|d| d.priority).collect();
    let mut sorted = priorities.clone();
    sorted.sort_by(|a, b| b.cmp(a));
    assert_eq!(priorities, sorted, "diagnostics must be ordered most severe first");
}

#[test]
fn second_phase_performs_no_setup_and_no_grounding() {
    // The single-grounding fold: the relaxed diagnostics solve reuses the normal
    // solve's control, so the second phase's grounding time must be exactly zero and
    // the combined per-phase accounting must carry the (single) grounding.
    let repo = builtin_repo();
    let err = Concretizer::new(&repo)
        .with_options(SolveOptions::new().site(SiteConfig::quartz()))
        .concretize_str("netcdf-c ^hdf5~mpi")
        .unwrap_err();
    match err {
        ConcretizeError::Unsatisfiable { stats, .. } => {
            assert_eq!(
                stats.second_phase_ground,
                std::time::Duration::ZERO,
                "the relaxed solve must not reground"
            );
            assert!(stats.phases.ground > std::time::Duration::ZERO, "combined grounding time");
            assert!(stats.phases.solve > std::time::Duration::ZERO, "combined solve time");
            assert!(
                stats.second_phase <= stats.phases.total(),
                "second phase is part of the combined accounting"
            );
        }
        other => panic!("expected Unsatisfiable, got {other:?}"),
    }
}

#[test]
fn unsat_errors_never_fabricate_emptiness() {
    // Regression for the old relaxed-phase error swallowing (`Err(_) => Ok(vec![])`):
    // every Unsatisfiable carries at least one diagnostic (the construction-site
    // invariant inserts the structural fallback), and engine failures — were any to
    // occur — surface as ConcretizeError::Solver, never as an empty report. Exercise
    // the invariant across every scenario class of this corpus plus the structural
    // Display path.
    let repo = builtin_repo();
    for spec in ["zlib@9.9", "netcdf-c ^hdf5~mpi", "zlib ^bzip2", "example%intel"] {
        match Concretizer::new(&repo)
            .with_options(SolveOptions::new().site(SiteConfig::quartz()))
            .concretize_str(spec)
        {
            Err(ConcretizeError::Unsatisfiable { diagnostics, .. }) => {
                assert!(!diagnostics.is_empty(), "{spec}: fabricated empty report");
                let text =
                    ConcretizeError::Unsatisfiable { diagnostics, stats: Default::default() }
                        .to_string();
                assert_ne!(
                    text, "no valid configuration exists",
                    "{spec}: Display lost the leading diagnostic"
                );
            }
            other => panic!("{spec}: expected Unsatisfiable, got {other:?}"),
        }
    }
}

#[test]
fn satisfiable_costs_carry_no_error_levels() {
    // The guarded error levels (priority 1000+) are an implementation detail of the
    // diagnostics fold: the reported objective vector of a satisfiable solve must
    // contain only the Table II levels, exactly as before the fold.
    let repo = builtin_repo();
    let result = Concretizer::new(&repo)
        .with_options(SolveOptions::new().site(SiteConfig::quartz()))
        .concretize_str("hdf5")
        .unwrap();
    assert!(
        result.cost.iter().all(|&(p, _)| p < 1000),
        "error levels leaked into the cost vector: {:?}",
        result.cost
    );
    assert!(result.cost.iter().any(|&(p, _)| p == 100), "build-count level present");
}

#[test]
fn display_of_unsatisfiable_carries_the_first_message() {
    let repo = builtin_repo();
    let err = Concretizer::new(&repo)
        .with_options(SolveOptions::new().site(SiteConfig::quartz()))
        .concretize_str("zlib@9.9")
        .unwrap_err();
    let text = err.to_string();
    assert!(
        text.contains("the requirement `zlib@9.9` cannot be satisfied"),
        "Display must lead with a specific diagnostic: {text}"
    );
}
