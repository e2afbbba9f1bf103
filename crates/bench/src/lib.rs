//! Shared infrastructure for the benchmark harness.
//!
//! The binaries in `src/bin` reproduce every table and figure of the paper's
//! evaluation (Section VII): `figures` regenerates their data, and `bench` times the
//! hot-path groups and gates regressions against a committed baseline ([`gate`]).
//! This library provides the pieces they share: workload construction (synthetic
//! repositories and buildcaches at several scales), single-solve measurement records,
//! and the cumulative-distribution helper used for Figures 7d–7h.

#![warn(missing_docs)]

pub mod gate;

use std::time::Duration;

use spack_concretizer::{Concretizer, SiteConfig, SolveOptions};
use spack_repo::{builtin_repo, synth_repo, Repository, SynthConfig};
use spack_spec::{Compiler, Platform};
use spack_store::{synthesize_buildcache, BuildcacheConfig, Database};

/// How large a workload to generate. The paper's full scale (6,000 packages, a 63k-entry
/// buildcache) is impractical for a laptop-scale reproduction of the *solver itself*;
/// the scales below preserve the relationships the figures are about (scaling with the
/// number of possible dependencies, reuse behaviour, preset comparisons).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// A few dozen packages; used by unit tests and CI smoke runs.
    Smoke,
    /// Around a hundred packages; the default for `cargo run --bin figures`.
    Small,
    /// ~160 packages plus a deep dependency chain and extra virtuals — the tier the
    /// perf-regression harness (`cargo run -p bench --bin bench`) reports on.
    Medium,
    /// Wide dependency fan-out: fewer packages but up to 10 direct deps each.
    Wide,
    /// A 48-package-deep linear chain on top of a small base (fixpoint depth stress).
    Deep,
    /// Eight extra virtuals with two providers each (provider-selection stress).
    ManyVirtuals,
    /// Several hundred packages (E4S-sized); closest to the paper, slowest.
    Paper,
}

impl Scale {
    /// Parse from a command-line string.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "smoke" => Some(Scale::Smoke),
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "wide" => Some(Scale::Wide),
            "deep" => Some(Scale::Deep),
            "manyvirtuals" | "many-virtuals" => Some(Scale::ManyVirtuals),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// The synthetic-repository size for this scale.
    pub fn packages(&self) -> usize {
        self.synth_config().packages
    }

    /// The synthetic-repository shape for this scale: besides raw package count, the
    /// larger tiers exercise the structures the grounder and solver hot paths are
    /// sensitive to — wide fan-out (join width), deep chains (fixpoint rounds), and
    /// many virtuals (choice-rule density).
    pub fn synth_config(&self) -> SynthConfig {
        match self {
            Scale::Smoke => SynthConfig { packages: 40, ..Default::default() },
            Scale::Small => SynthConfig { packages: 90, ..Default::default() },
            Scale::Medium => SynthConfig {
                packages: 160,
                chain_depth: 24,
                extra_virtuals: 4,
                ..Default::default()
            },
            Scale::Wide => {
                SynthConfig { packages: 140, max_deps: 10, mpi_fraction: 0.6, ..Default::default() }
            }
            Scale::Deep => SynthConfig { packages: 60, chain_depth: 48, ..Default::default() },
            Scale::ManyVirtuals => {
                SynthConfig { packages: 110, extra_virtuals: 8, ..Default::default() }
            }
            Scale::Paper => SynthConfig { packages: 300, ..Default::default() },
        }
    }

    /// Number of packages to concretize in "all packages" sweeps.
    pub fn sweep_limit(&self) -> usize {
        match self {
            Scale::Smoke => 10,
            Scale::Small => 40,
            Scale::Medium | Scale::Wide | Scale::Deep | Scale::ManyVirtuals => 60,
            Scale::Paper => 150,
        }
    }
}

/// The repository used by a workload: the curated builtin stack merged with a synthetic
/// E4S-like layer, so both realistic recipes and scale are represented.
pub fn workload_repo(scale: Scale) -> Repository {
    let mut repo = builtin_repo();
    let synth = synth_repo(&scale.synth_config());
    repo.add_all(synth.packages().cloned());
    repo
}

/// A pure-ASP transitive-closure workload (`path/2` over a `depends_on` chain of
/// `n` edges plus a choice over the roots). Grounding it takes `n` semi-naive rounds
/// and produces O(n²) `path` atoms, which makes it the canonical stress test for the
/// grounder's delta handling — exactly the shape of the paper's Fig. 3 program, scaled.
pub fn chain_closure_program(n: usize) -> String {
    use std::fmt::Write;
    let mut p = String::new();
    for i in 0..n {
        writeln!(p, "depends_on(p{i}, p{next}).", next = i + 1).unwrap();
    }
    p.push_str(
        "path(A, B) :- depends_on(A, B).\n\
         path(A, C) :- path(A, B), depends_on(B, C).\n\
         node(Dep) :- node(Pkg), depends_on(Pkg, Dep).\n",
    );
    writeln!(p, "1 {{ node(p0); node(p{mid}) }}.", mid = n / 2).unwrap();
    writeln!(p, ":- path(X, X).").unwrap();
    p
}

/// A pure-ASP join-ordering workload: a three-way join where the literal order as
/// written (`big1 ⋈ big2 ⋈ tiny`) is pessimal and a selectivity-aware planner (tiny
/// first, then indexed lookups) wins by orders of magnitude.
pub fn wide_join_program(width: usize) -> String {
    use std::fmt::Write;
    let mut p = String::new();
    for i in 0..width {
        writeln!(p, "big1(a{i}, b{m}).", m = i % 7).unwrap();
        writeln!(p, "big2(b{m}, c{i}).", m = i % 7).unwrap();
    }
    for i in 0..3.min(width) {
        writeln!(p, "tiny(a{i}).").unwrap();
    }
    p.push_str("joined(X, Z) :- big1(X, Y), big2(Y, Z), tiny(X).\n");
    p.push_str("{ keep(X) : tiny(X) }.\n");
    p
}

/// The buildcache used by the reuse experiments, at four sizes mirroring the paper's
/// scopes (full / one arch / one OS / both restrictions).
pub fn workload_buildcache(repo: &Repository, scale: Scale) -> Database {
    let replicas = match scale {
        Scale::Smoke | Scale::Small => 1,
        Scale::Medium | Scale::Wide | Scale::Deep | Scale::ManyVirtuals | Scale::Paper => 2,
    };
    synthesize_buildcache(
        repo,
        &BuildcacheConfig {
            architectures: vec![
                (Platform::Linux, "rhel7".to_string(), "ppc64le".to_string()),
                (Platform::Linux, "rhel7".to_string(), "skylake".to_string()),
                (Platform::Linux, "centos8".to_string(), "ppc64le".to_string()),
                (Platform::Linux, "centos8".to_string(), "icelake".to_string()),
            ],
            compilers: vec![Compiler::new("gcc", "11.2.0"), Compiler::new("gcc", "8.3.1")],
            replicas,
            seed: 0xCAFE,
        },
    )
}

/// The buildcache of the `session_throughput` group: the *service* regime — a
/// production-scale cache (several replicas per package across every architecture),
/// where per-request setup and grounding dominate a one-shot solve (the paper's
/// Fig. 7e observation) and a multi-shot session's amortization pays the most. The
/// small tiers keep the replica count low so the CI gate stays fast.
pub fn service_buildcache(repo: &Repository, scale: Scale) -> Database {
    let replicas = match scale {
        Scale::Smoke | Scale::Small => 2,
        Scale::Medium | Scale::Wide | Scale::Deep | Scale::ManyVirtuals | Scale::Paper => 4,
    };
    synthesize_buildcache(
        repo,
        &BuildcacheConfig {
            architectures: vec![
                (Platform::Linux, "rhel7".to_string(), "ppc64le".to_string()),
                (Platform::Linux, "rhel7".to_string(), "skylake".to_string()),
                (Platform::Linux, "centos8".to_string(), "ppc64le".to_string()),
                (Platform::Linux, "centos8".to_string(), "icelake".to_string()),
            ],
            compilers: vec![Compiler::new("gcc", "11.2.0"), Compiler::new("gcc", "8.3.1")],
            replicas,
            seed: 0xCAFE,
        },
    )
}

/// One measured concretization, the record behind every point of Figures 7a–7h.
#[derive(Debug, Clone)]
pub struct SolveRecord {
    /// The package that was concretized.
    pub package: String,
    /// Number of *possible* dependencies (the x-axis of Figures 7a–7c).
    pub possible_deps: usize,
    /// Nodes in the solved DAG.
    pub solved_nodes: usize,
    /// Fact-generation time.
    pub setup: Duration,
    /// Grounding time.
    pub ground: Duration,
    /// Solving time.
    pub solve: Duration,
    /// Total time (setup + load + ground + solve).
    pub total: Duration,
    /// Packages reused (0 when reuse is disabled).
    pub reused: usize,
    /// Packages to build.
    pub built: usize,
    /// Whether the solve succeeded.
    pub ok: bool,
}

/// Concretize one package and record the measurements of Fig. 7.
pub fn measure_one(
    repo: &Repository,
    site: &SiteConfig,
    database: Option<&Database>,
    solver: asp::SolverConfig,
    package: &str,
) -> SolveRecord {
    let possible_deps = repo.possible_dependency_count(package);
    let options = SolveOptions { site: site.clone(), database, solver };
    match Concretizer::new(repo).with_options(options).concretize_str(package) {
        Ok(result) => SolveRecord {
            package: package.to_string(),
            possible_deps,
            solved_nodes: result.spec.len(),
            setup: result.timings.setup,
            ground: result.timings.ground,
            solve: result.timings.solve,
            total: result.timings.total(),
            reused: result.reuse_count(),
            built: result.build_count(),
            ok: true,
        },
        Err(_) => SolveRecord {
            package: package.to_string(),
            possible_deps,
            solved_nodes: 0,
            setup: Duration::ZERO,
            ground: Duration::ZERO,
            solve: Duration::ZERO,
            total: Duration::ZERO,
            reused: 0,
            built: 0,
            ok: false,
        },
    }
}

/// A cumulative distribution over durations: returns `(seconds, count_at_or_below)`
/// pairs, one per sample, sorted — the format of Figures 7d–7h.
pub fn cdf(samples: &[Duration]) -> Vec<(f64, usize)> {
    let mut secs: Vec<f64> = samples.iter().map(|d| d.as_secs_f64()).collect();
    secs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    secs.iter().enumerate().map(|(i, &s)| (s, i + 1)).collect()
}

/// Summary statistics used in the textual figure reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Minimum value in seconds.
    pub min: f64,
    /// Median value in seconds.
    pub median: f64,
    /// 90th percentile in seconds.
    pub p90: f64,
    /// Maximum value in seconds.
    pub max: f64,
}

/// Summarize a set of durations.
pub fn summarize(samples: &[Duration]) -> Summary {
    if samples.is_empty() {
        return Summary { min: 0.0, median: 0.0, p90: 0.0, max: 0.0 };
    }
    let mut secs: Vec<f64> = samples.iter().map(|d| d.as_secs_f64()).collect();
    secs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pick = |q: f64| secs[((secs.len() - 1) as f64 * q).round() as usize];
    Summary { min: secs[0], median: pick(0.5), p90: pick(0.9), max: secs[secs.len() - 1] }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_parse_and_grow() {
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("nonsense"), None);
        assert!(Scale::Smoke.packages() < Scale::Small.packages());
        assert!(Scale::Small.packages() < Scale::Paper.packages());
    }

    #[test]
    fn workload_repo_merges_builtin_and_synthetic() {
        let repo = workload_repo(Scale::Smoke);
        assert!(repo.get("hdf5").is_some(), "builtin packages present");
        assert!(repo.names().any(|n| n.starts_with("app-")), "synthetic packages present");
        assert!(repo.providers("mpi").len() >= 4, "providers from both sources");
    }

    #[test]
    fn cdf_is_monotone() {
        let samples =
            vec![Duration::from_millis(5), Duration::from_millis(1), Duration::from_millis(3)];
        let curve = cdf(&samples);
        assert_eq!(curve.len(), 3);
        assert!(curve.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 < w[1].1));
        assert_eq!(curve.last().unwrap().1, 3);
    }

    #[test]
    fn summary_percentiles_are_ordered() {
        let samples: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        let s = summarize(&samples);
        assert!(s.min <= s.median && s.median <= s.p90 && s.p90 <= s.max);
        assert!((s.max - 0.1).abs() < 1e-9);
        assert_eq!(summarize(&[]).max, 0.0);
    }

    #[test]
    fn measure_one_records_failures_gracefully() {
        let repo = builtin_repo();
        let record =
            measure_one(&repo, &SiteConfig::minimal(), None, asp::SolverConfig::default(), "zlib");
        assert!(record.ok);
        assert_eq!(record.package, "zlib");
        assert_eq!(record.possible_deps, 0);
        assert!(record.total > Duration::ZERO);
    }
}
