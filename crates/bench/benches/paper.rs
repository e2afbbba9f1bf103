//! Criterion benchmarks, one group per table/figure of the paper's evaluation.
//!
//! These benches measure the cost of the pipeline stages the paper instruments
//! (setup / ground / solve, Section VII) on fixed representative workloads, so changes to
//! the engine or the encoding are caught as regressions. The full figure *data* (scatter
//! plots, CDFs over many packages and buildcache sizes) is produced by the `figures`
//! binary; see EXPERIMENTS.md.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use asp::{Preset, SolverConfig};
use bench::{chain_closure_program, wide_join_program, workload_buildcache, workload_repo, Scale};
use spack_concretizer::{
    setup_problem, Concretizer, GreedyConcretizer, SiteConfig, SolveOptions, CONCRETIZE_LP,
};
use spack_repo::builtin_repo;
use spack_spec::parse_spec;
use spack_store::BuildcacheConfig;

/// Table I: parsing the spec sigil syntax.
fn table1_spec_parsing(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_spec_parsing");
    for text in [
        "hdf5",
        "hdf5@1.10.2+mpi%gcc@10.3.1 target=skylake",
        "hdf5@1.10.2 ^zlib%gcc ^cmake target=aarch64",
        "example@1.0.0+bzip%gcc@11.2.0 arch=linux-centos8-skylake",
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(text), text, |b, text| {
            b.iter(|| parse_spec(std::hint::black_box(text)).unwrap())
        });
    }
    group.finish();
}

/// Table II: the full optimizing solve of a root with every criterion active.
fn table2_optimization(c: &mut Criterion) {
    let repo = builtin_repo();
    let site = SiteConfig::quartz();
    let mut group = c.benchmark_group("table2_optimization");
    group.sample_size(10).measurement_time(Duration::from_secs(10));
    for spec in ["example", "mpileaks"] {
        group.bench_with_input(BenchmarkId::from_parameter(spec), spec, |b, spec| {
            let concretizer =
                Concretizer::new(&repo).with_options(SolveOptions::new().site(site.clone()));
            b.iter(|| concretizer.concretize_str(std::hint::black_box(spec)).unwrap())
        });
    }
    group.finish();
}

/// Fig. 3: grounding and enumerating the stable models of the illustrative program.
fn fig3_ground_and_enumerate(c: &mut Criterion) {
    let program = r#"
        depends_on(a, b).
        depends_on(a, c).
        depends_on(b, d).
        depends_on(c, d).
        node(Dep) :- node(Pkg), depends_on(Pkg, Dep).
        1 { node(a); node(b) }.
    "#;
    let mut group = c.benchmark_group("fig3_ground_and_enumerate");
    group.sample_size(10).measurement_time(Duration::from_secs(10));
    let chain = chain_closure_program(256);
    let wide = wide_join_program(1200);
    for (name, text, limit) in [
        ("paper_example", program, 8usize),
        // The medium grounder tiers: transitive closure (delta handling) and a
        // pessimally-ordered three-way join (join planning). See `bench`'s docs.
        ("chain_closure_256", chain.as_str(), 4),
        ("wide_join_1200", wide.as_str(), 2),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut ctl = asp::Control::new(SolverConfig::default());
                ctl.add_program(std::hint::black_box(text)).unwrap();
                ctl.ground().unwrap();
                ctl.solve_models(limit).unwrap().len()
            })
        });
    }
    group.finish();
}

/// Fig. 5 / Fig. 6: reuse optimization against a populated buildcache.
fn fig6_reuse(c: &mut Criterion) {
    let repo = builtin_repo();
    let site = SiteConfig::quartz();
    let cache = spack_store::synthesize_buildcache(
        &repo,
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
    let mut group = c.benchmark_group("fig6_reuse");
    group.sample_size(10).measurement_time(Duration::from_secs(12));
    group.bench_function("hdf5_no_reuse", |b| {
        let concretizer =
            Concretizer::new(&repo).with_options(SolveOptions::new().site(site.clone()));
        b.iter(|| concretizer.concretize_str("hdf5").unwrap())
    });
    group.bench_function("hdf5_with_reuse", |b| {
        let concretizer = Concretizer::new(&repo)
            .with_options(SolveOptions::new().site(site.clone()).database(&cache));
        b.iter(|| concretizer.concretize_str("hdf5").unwrap())
    });
    // The medium workload tier: the synthetic stack (deep chain + extra virtuals) with
    // a populated buildcache — the default tier of the `bench` binary's quick mode.
    let medium = workload_repo(Scale::Medium);
    let medium_cache = workload_buildcache(&medium, Scale::Medium);
    for root in ["hdf5", "chain-root", "vapp-00"] {
        group.bench_function(format!("{root}_medium_cache"), |b| {
            let concretizer = Concretizer::new(&medium)
                .with_options(SolveOptions::new().site(site.clone()).database(&medium_cache));
            b.iter(|| concretizer.concretize_str(root).unwrap())
        });
    }
    group.finish();
}

/// Fig. 7a: the grounding phase in isolation (setup + load + ground, no solving).
fn fig7a_grounding(c: &mut Criterion) {
    let repo = builtin_repo();
    let site = SiteConfig::quartz();
    let mut group = c.benchmark_group("fig7a_grounding");
    group.sample_size(20);
    for package in ["zlib", "cmake", "hdf5"] {
        group.bench_with_input(BenchmarkId::from_parameter(package), package, |b, package| {
            let spec = parse_spec(package).unwrap();
            b.iter(|| {
                let (mut ctl, _info) = setup_problem(
                    &repo,
                    &site,
                    None,
                    std::slice::from_ref(&spec),
                    SolverConfig::default(),
                )
                .unwrap();
                ctl.add_program(CONCRETIZE_LP).unwrap();
                ctl.ground().unwrap();
                ctl.stats().ground.rules
            })
        });
    }
    group.finish();
}

/// Fig. 7b/7c: the full pipeline for packages of increasing possible-dependency count.
fn fig7bc_full_solve(c: &mut Criterion) {
    let repo = builtin_repo();
    let site = SiteConfig::quartz();
    let mut group = c.benchmark_group("fig7bc_full_solve");
    group.sample_size(10).measurement_time(Duration::from_secs(12));
    for package in ["zlib", "openssl", "hdf5"] {
        let deps = repo.possible_dependency_count(package);
        group.bench_with_input(BenchmarkId::new(package, deps), package, |b, package| {
            let concretizer =
                Concretizer::new(&repo).with_options(SolveOptions::new().site(site.clone()));
            b.iter(|| concretizer.concretize_str(std::hint::black_box(package)).unwrap())
        });
    }
    group.finish();
}

/// Fig. 7d: the same solve under the three solver presets.
fn fig7d_presets(c: &mut Criterion) {
    let repo = builtin_repo();
    let site = SiteConfig::quartz();
    let mut group = c.benchmark_group("fig7d_presets");
    group.sample_size(10).measurement_time(Duration::from_secs(10));
    for preset in Preset::all() {
        group.bench_with_input(
            BenchmarkId::from_parameter(preset.name()),
            &preset,
            |b, &preset| {
                let concretizer = Concretizer::new(&repo).with_options(
                    SolveOptions::new().site(site.clone()).solver(SolverConfig::preset(preset)),
                );
                b.iter(|| concretizer.concretize_str("callpath").unwrap())
            },
        );
    }
    group.finish();
}

/// Fig. 7e: the setup phase as the buildcache grows (fact generation only).
fn fig7e_setup_scaling(c: &mut Criterion) {
    let repo = workload_repo(Scale::Smoke);
    let site = SiteConfig::quartz();
    let full = workload_buildcache(&repo, Scale::Smoke);
    let mut group = c.benchmark_group("fig7e_setup_scaling");
    group.sample_size(20);
    for (name, scope) in BuildcacheConfig::paper_scopes() {
        let cache = scope.apply(&full);
        group.bench_with_input(
            BenchmarkId::new("hdf5_setup", format!("{name}:{}", cache.len())),
            &cache,
            |b, cache| {
                let spec = parse_spec("hdf5").unwrap();
                b.iter(|| {
                    let (ctl, info) = setup_problem(
                        &repo,
                        &site,
                        Some(cache),
                        std::slice::from_ref(&spec),
                        SolverConfig::default(),
                    )
                    .unwrap();
                    (ctl.fact_count(), info.installed)
                })
            },
        );
    }
    group.finish();
}

/// Fig. 7f/7g: solve and total time with the largest buildcache scope.
fn fig7fg_reuse_solve(c: &mut Criterion) {
    let repo = workload_repo(Scale::Smoke);
    let site = SiteConfig::quartz();
    let cache = workload_buildcache(&repo, Scale::Smoke);
    let mut group = c.benchmark_group("fig7fg_reuse_solve");
    group.sample_size(10).measurement_time(Duration::from_secs(12));
    group.bench_function("hdf5_full_cache", |b| {
        let concretizer = Concretizer::new(&repo)
            .with_options(SolveOptions::new().site(site.clone()).database(&cache));
        b.iter(|| concretizer.concretize_str("hdf5").unwrap())
    });
    group.finish();
}

/// Fig. 7h: the old concretizer vs. the ASP concretizer on the same spec.
fn fig7h_old_vs_new(c: &mut Criterion) {
    let repo = builtin_repo();
    let site = SiteConfig::quartz();
    let mut group = c.benchmark_group("fig7h_old_vs_new");
    group.sample_size(10).measurement_time(Duration::from_secs(10));
    group.bench_function("old_concretizer_hdf5", |b| {
        let greedy = GreedyConcretizer::new(&repo, site.clone());
        let spec = parse_spec("hdf5").unwrap();
        b.iter(|| greedy.concretize(std::hint::black_box(&spec)).unwrap())
    });
    group.bench_function("asp_concretizer_hdf5", |b| {
        let concretizer =
            Concretizer::new(&repo).with_options(SolveOptions::new().site(site.clone()));
        b.iter(|| concretizer.concretize_str("hdf5").unwrap())
    });
    group.finish();
}

criterion_group!(
    benches,
    table1_spec_parsing,
    table2_optimization,
    fig3_ground_and_enumerate,
    fig6_reuse,
    fig7a_grounding,
    fig7bc_full_solve,
    fig7d_presets,
    fig7e_setup_scaling,
    fig7fg_reuse_solve,
    fig7h_old_vs_new,
);
criterion_main!(benches);
