//! Regenerate the data behind every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p bench --bin figures -- [--scale smoke|small|paper] [--only fig7d,...]
//! ```
//!
//! For each experiment the harness prints the same rows/series the paper reports (scatter
//! rows for Figures 7a–7c, CDF series for Figures 7d–7h, the build/reuse counts of
//! Fig. 6, the criteria of Table II). Absolute times are not expected to match the
//! paper's (the substrate is a from-scratch ASP engine, not clingo on an LLNL cluster);
//! the *shape* of each result is what is reproduced — see EXPERIMENTS.md.

use std::collections::BTreeSet;
use std::time::Instant;

use rayon::prelude::*;

use asp::{Preset, SolverConfig};
use bench::{cdf, measure_one, summarize, workload_buildcache, workload_repo, Scale, SolveRecord};
use spack_concretizer::{Concretizer, GreedyConcretizer, SiteConfig, SolveOptions, CRITERIA};
use spack_repo::Repository;
use spack_spec::parse_spec;
use spack_store::{BuildcacheConfig, Database};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = args
        .iter()
        .position(|a| a == "--scale")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| Scale::parse(s))
        .unwrap_or(Scale::Smoke);
    let only: Option<BTreeSet<String>> = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.split(',').map(|x| x.trim().to_string()).collect());
    let want = |id: &str| only.as_ref().map(|o| o.contains(id)).unwrap_or(true);

    println!("# spack-asp-rs figure harness (scale: {scale:?})");
    let started = Instant::now();

    let repo = workload_repo(scale);
    let site = SiteConfig::quartz();
    println!(
        "# repository: {} packages, {} mpi providers",
        repo.len(),
        repo.providers("mpi").len()
    );

    if want("table1") {
        table1();
    }
    if want("table2") {
        table2(&repo, &site);
    }
    if want("fig3") {
        fig3();
    }
    if want("fig6") {
        fig6(&repo, &site);
    }
    let sweep: Vec<SolveRecord> =
        if want("fig7a") || want("fig7b") || want("fig7c") || want("fig7h") {
            sweep_all_packages(&repo, &site, scale)
        } else {
            Vec::new()
        };
    if want("fig7a") {
        scatter("fig7a", "ground time vs possible dependencies", &sweep, |r| {
            r.ground.as_secs_f64()
        });
    }
    if want("fig7b") {
        scatter("fig7b", "solve time vs possible dependencies", &sweep, |r| r.solve.as_secs_f64());
    }
    if want("fig7c") {
        scatter("fig7c", "total time vs possible dependencies", &sweep, |r| r.total.as_secs_f64());
    }
    if want("fig7d") {
        fig7d(&repo, &site, scale);
    }
    if want("fig7e") || want("fig7f") || want("fig7g") {
        fig7efg(&repo, &site, scale);
    }
    if want("fig7h") {
        fig7h(&repo, &site, &sweep);
    }

    println!("\n# harness finished in {:.1?}", started.elapsed());
}

/// Table I: the spec sigil grammar.
fn table1() {
    println!("\n## Table I — spec sigils");
    let rows = [
        ("%", "hdf5%gcc", "Use a particular compiler"),
        ("@", "hdf5@1.10.2", "Require version(s)"),
        ("%@", "hdf5%gcc@10.3.1", "Require compiler version(s)"),
        ("+", "hdf5+mpi", "Enable variant"),
        ("~", "hdf5~mpi", "Disable variant"),
        ("key=value", "hdf5 mpi=true", "Require a variant value"),
        ("key=value", "hdf5 api=default", "Require a multi-valued variant value"),
        ("key=value", "hdf5 target=skylake", "Require a build target"),
        ("^", "hdf5@1.10.2 ^zlib%gcc ^cmake target=aarch64", "Constrain dependencies"),
    ];
    for (sigil, example, meaning) in rows {
        let parsed = parse_spec(example).expect("table I specs parse");
        let round_trip = parse_spec(&parsed.to_string()).expect("round trip");
        assert_eq!(parsed, round_trip);
        println!("  {sigil:<10} {example:<45} {meaning}  [parse+round-trip ok]");
    }
}

/// Table II: the optimization criteria and a concrete objective vector.
fn table2(repo: &Repository, site: &SiteConfig) {
    println!("\n## Table II — optimization criteria (priority order)");
    for c in CRITERIA {
        println!(
            "  {:>2}. {:<42} [reuse bucket prio {:>3}, build bucket prio {:>3}]",
            c.rank,
            c.description,
            c.reuse_priority(),
            c.build_priority()
        );
    }
    let result = Concretizer::new(repo)
        .with_options(SolveOptions::new().site(site.clone()))
        .concretize_str("hdf5")
        .expect("hdf5 concretizes");
    println!("  objective vector for `hdf5` (priority, value), non-zero entries:");
    for (priority, value) in result.cost.iter().filter(|(_, v)| *v != 0) {
        let (bucket, desc) = spack_concretizer::describe_priority(*priority);
        println!("    @{priority:<4} {value:>4}  [{bucket}] {desc}");
    }
}

/// Fig. 3: grounding and solving the four-fact example program; exactly two answer sets.
fn fig3() {
    println!("\n## Fig. 3 — grounding and solving");
    let mut ctl = asp::Control::new(SolverConfig::default());
    ctl.add_program(
        r#"
        depends_on(a, b).
        depends_on(a, c).
        depends_on(b, d).
        depends_on(c, d).
        node(Dep) :- node(Pkg), depends_on(Pkg, Dep).
        1 { node(a); node(b) }.
        "#,
    )
    .unwrap();
    ctl.ground().unwrap();
    let models = ctl.solve_models(16).unwrap();
    let mut sets: Vec<Vec<String>> = models
        .iter()
        .map(|m| {
            let mut v: Vec<String> = m.with_pred("node").map(|args| args[0].as_str()).collect();
            v.sort();
            v
        })
        .collect();
    sets.sort();
    sets.dedup();
    println!(
        "  ground program: {} atoms, {} rules",
        ctl.stats().ground.atoms,
        ctl.stats().ground.rules
    );
    for (i, set) in sets.iter().enumerate() {
        println!("  Answer {}: node({})", i + 1, set.join("), node("));
    }
    assert_eq!(sets.len(), 2, "the paper's example has exactly two stable models");
}

/// Fig. 4 / Fig. 6: hash-based reuse vs. reuse as an optimization target.
fn fig6(repo: &Repository, site: &SiteConfig) {
    println!("\n## Fig. 6 — concretization with and without reuse (hdf5)");
    // A buildcache of the stack as previously installed: same toolchain, slightly older
    // versions, hdf5 itself absent — configurations close to, but not identical to, what
    // a fresh solve would choose (so exact-hash reuse misses).
    let cache = spack_store::synthesize_buildcache(
        repo,
        &BuildcacheConfig {
            architectures: vec![(
                spack_spec::Platform::Linux,
                site.default_os().name().to_string(),
                "icelake".to_string(),
            )],
            compilers: vec![site.default_compiler().clone()],
            replicas: 2,
            seed: 11,
        },
    )
    .filter(|r| {
        r.name != "hdf5"
            && repo
                .get(&r.name)
                .and_then(|p| p.preferred_version())
                .map(|v| *v != r.version)
                .unwrap_or(true)
    });
    println!("  buildcache: {} installed packages", cache.len());

    // (a) hash-based reuse: concretize without the cache, then query exact hashes.
    let plain = Concretizer::new(repo)
        .with_options(SolveOptions::new().site(site.clone()))
        .concretize_str("hdf5")
        .expect("hdf5 concretizes");
    let hits =
        (0..plain.spec.len()).filter(|&i| cache.query_exact(&plain.spec, i).is_some()).count();
    println!(
        "  fig6a (hash-based reuse): {:>2} packages, {:>2} hash hits, {:>2} new installs",
        plain.spec.len(),
        hits,
        plain.spec.len() - hits
    );

    // (b) solving for reuse.
    let reused = Concretizer::new(repo)
        .with_options(SolveOptions::new().site(site.clone()).database(&cache))
        .concretize_str("hdf5")
        .expect("hdf5 concretizes with reuse");
    println!(
        "  fig6b (reuse optimization): {:>2} packages, {:>2} reused, {:>2} to build ({})",
        reused.spec.len(),
        reused.reuse_count(),
        reused.build_count(),
        reused.built.join(", ")
    );
    assert!(reused.reuse_count() > hits, "reuse optimization must beat exact-hash matching");
}

/// The per-package sweep behind Figures 7a–7c and 7h.
fn sweep_all_packages(repo: &Repository, site: &SiteConfig, scale: Scale) -> Vec<SolveRecord> {
    let mut names: Vec<String> = repo.names().map(|s| s.to_string()).collect();
    // Deterministic spread across the size spectrum: sort by possible-dependency count
    // and take every k-th package up to the sweep limit.
    names.sort_by_key(|n| repo.possible_dependency_count(n));
    let limit = scale.sweep_limit().min(names.len());
    let step = (names.len() / limit.max(1)).max(1);
    let selected: Vec<String> = names.iter().step_by(step).take(limit).cloned().collect();
    println!("\n# sweeping {} packages (of {})", selected.len(), names.len());
    selected
        .par_iter()
        .map(|name| measure_one(repo, site, None, SolverConfig::default(), name))
        .collect()
}

fn scatter(id: &str, title: &str, records: &[SolveRecord], metric: impl Fn(&SolveRecord) -> f64) {
    println!("\n## {id} — {title}");
    println!("  package, possible_dependencies, seconds");
    let mut rows: Vec<&SolveRecord> = records.iter().filter(|r| r.ok).collect();
    rows.sort_by_key(|r| r.possible_deps);
    for r in &rows {
        println!("  {}, {}, {:.4}", r.package, r.possible_deps, metric(r));
    }
    // The paper's observation: times grow with the number of possible dependencies and
    // the population splits into a small-dependency and a large-dependency cluster.
    if rows.len() >= 4 {
        let mid = rows.len() / 2;
        let small: f64 = rows[..mid].iter().map(|r| metric(r)).sum::<f64>() / mid as f64;
        let large: f64 =
            rows[mid..].iter().map(|r| metric(r)).sum::<f64>() / (rows.len() - mid) as f64;
        println!("  # mean({id}) small-half {small:.4}s vs large-half {large:.4}s");
    }
}

/// Fig. 7d: CDF of total solve times under the three solver presets.
fn fig7d(repo: &Repository, site: &SiteConfig, scale: Scale) {
    println!("\n## fig7d — CDF of total time per solver preset (tweety/trendy/handy)");
    let mut names: Vec<String> = repo.names().map(|s| s.to_string()).collect();
    names.sort_by_key(|n| repo.possible_dependency_count(n));
    let limit = (scale.sweep_limit() / 2).max(6).min(names.len());
    let step = (names.len() / limit.max(1)).max(1);
    let selected: Vec<String> = names.iter().step_by(step).take(limit).cloned().collect();
    for preset in Preset::all() {
        let records: Vec<SolveRecord> = selected
            .par_iter()
            .map(|name| measure_one(repo, site, None, SolverConfig::preset(preset), name))
            .collect();
        let totals: Vec<_> = records.iter().filter(|r| r.ok).map(|r| r.total).collect();
        let s = summarize(&totals);
        println!(
            "  {:<7} solved {:>3}/{:<3} median {:.3}s p90 {:.3}s max {:.3}s",
            preset.name(),
            totals.len(),
            selected.len(),
            s.median,
            s.p90,
            s.max
        );
        for (secs, count) in cdf(&totals) {
            println!("    cdf, {}, {:.4}, {}", preset.name(), secs, count);
        }
    }
}

/// Figures 7e–7g: CDFs of setup / solve / total time for increasing buildcache sizes.
fn fig7efg(repo: &Repository, site: &SiteConfig, scale: Scale) {
    println!("\n## fig7e/fig7f/fig7g — reuse with increasing buildcache sizes");
    let full = workload_buildcache(repo, scale);
    let scopes = BuildcacheConfig::paper_scopes();
    let caches: Vec<(String, Database)> =
        scopes.iter().map(|(name, scope)| (name.to_string(), scope.apply(&full))).collect();

    // The E4S-like roots: application-layer packages plus the curated apps.
    let mut roots: Vec<String> =
        repo.names().filter(|n| n.starts_with("app-")).map(|s| s.to_string()).collect();
    for extra in ["hdf5", "petsc", "mpileaks", "berkeleygw", "hpctoolkit"] {
        if repo.get(extra).is_some() {
            roots.push(extra.to_string());
        }
    }
    roots.sort();
    roots.truncate(scale.sweep_limit() / 2 + 5);

    for (name, cache) in &caches {
        let records: Vec<SolveRecord> = roots
            .par_iter()
            .map(|root| measure_one(repo, site, Some(cache), SolverConfig::default(), root))
            .collect();
        let ok: Vec<&SolveRecord> = records.iter().filter(|r| r.ok).collect();
        let setups: Vec<_> = ok.iter().map(|r| r.setup).collect();
        let solves: Vec<_> = ok.iter().map(|r| r.solve).collect();
        let totals: Vec<_> = ok.iter().map(|r| r.total).collect();
        let reused_total: usize = ok.iter().map(|r| r.reused).sum();
        println!(
            "  cache {:<14} ({:>5} pkgs): solved {:>2}/{:<2} reused {:>3} | setup med {:.3}s | solve med {:.3}s | total med {:.3}s",
            name,
            cache.len(),
            ok.len(),
            roots.len(),
            reused_total,
            summarize(&setups).median,
            summarize(&solves).median,
            summarize(&totals).median,
        );
        for (figure, series) in [("fig7e", &setups), ("fig7f", &solves), ("fig7g", &totals)] {
            for (secs, count) in cdf(series) {
                println!("    cdf, {figure}, {name}, {secs:.4}, {count}");
            }
        }
    }
}

/// Fig. 7h: CDF of old-concretizer times vs. ASP total times.
fn fig7h(repo: &Repository, site: &SiteConfig, sweep: &[SolveRecord]) {
    println!("\n## fig7h — old concretizer vs ASP concretizer (CDF of total time)");
    let greedy = GreedyConcretizer::new(repo, site.clone());
    let mut greedy_times = Vec::new();
    let mut greedy_failures = 0usize;
    for record in sweep {
        match greedy.concretize(&parse_spec(&record.package).unwrap()) {
            Ok(result) => greedy_times.push(result.duration),
            Err(_) => greedy_failures += 1,
        }
    }
    let asp_times: Vec<_> = sweep.iter().filter(|r| r.ok).map(|r| r.total).collect();
    let og = summarize(&greedy_times);
    let asp_summary = summarize(&asp_times);
    println!(
        "  old concretizer: {} solved, {} failed (incomplete), median {:.4}s max {:.4}s",
        greedy_times.len(),
        greedy_failures,
        og.median,
        og.max
    );
    println!(
        "  ASP concretizer: {} solved, median {:.4}s max {:.4}s",
        asp_times.len(),
        asp_summary.median,
        asp_summary.max
    );
    for (secs, count) in cdf(&greedy_times) {
        println!("    cdf, old, {secs:.5}, {count}");
    }
    for (secs, count) in cdf(&asp_times) {
        println!("    cdf, clingo, {secs:.5}, {count}");
    }
}
