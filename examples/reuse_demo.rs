//! Build-reuse demo (Section VI and Fig. 6 of the paper).
//!
//! A buildcache is populated with installations of a slightly *older* software stack
//! (as a real site would have). Concretizing `hdf5` then shows:
//!
//! * with hash-based reuse only (the old scheme, Fig. 6a): every package misses and must
//!   be built, because small configuration differences change the DAG hash;
//! * with the ASP reuse optimization (Fig. 6b): most packages are reused and only a
//!   handful must be built, and reuse takes precedence over defaults for the reused
//!   packages (e.g. an older cmake is acceptable) while *built* packages still get their
//!   preferred defaults.
//!
//! Run with:
//! ```text
//! cargo run --release --example reuse_demo
//! ```

use spack_concretizer::{Concretizer, SiteConfig, SolveOptions};
use spack_repo::builtin_repo;
use spack_spec::{Compiler, Platform};
use spack_store::{synthesize_buildcache, BuildcacheConfig, Database};

fn main() {
    let repo = builtin_repo();
    let site = SiteConfig::quartz();

    // A buildcache holding the stack as it was installed a little while ago: the same
    // toolchain, but slightly older package versions, and hdf5 itself not yet installed —
    // the situation of Fig. 6 in the paper.
    let cache_config = BuildcacheConfig {
        architectures: vec![(Platform::Linux, "centos8".to_string(), "icelake".to_string())],
        compilers: vec![Compiler::new("gcc", "11.2.0")],
        replicas: 2,
        seed: 7,
    };
    let buildcache: Database = synthesize_buildcache(&repo, &cache_config).filter(|r| {
        r.name != "hdf5"
            && repo
                .get(&r.name)
                .and_then(|p| p.preferred_version())
                .map(|v| *v != r.version)
                .unwrap_or(true)
    });
    println!("buildcache: {} installed packages\n", buildcache.len());

    // --- 1. hash-based reuse only (the old scheme, Fig. 6a) ------------------------------------
    let no_reuse = Concretizer::new(&repo)
        .with_options(SolveOptions::new().site(site.clone()))
        .concretize_str("hdf5")
        .expect("hdf5 concretizes");
    let hash_hits = (0..no_reuse.spec.len())
        .filter(|&i| buildcache.query_exact(&no_reuse.spec, i).is_some())
        .count();
    println!("[hash-based reuse (old concretizer behaviour)]");
    println!(
        "  {} packages in the DAG, {} exact hash matches, {} must be installed from source",
        no_reuse.spec.len(),
        hash_hits,
        no_reuse.spec.len() - hash_hits
    );

    // --- 2. reuse as an optimization target (Fig. 6b) -----------------------------------------
    let with_reuse = Concretizer::new(&repo)
        .with_options(SolveOptions::new().site(site).database(&buildcache))
        .concretize_str("hdf5")
        .expect("hdf5 concretizes with reuse");
    println!("\n[ASP reuse optimization]");
    println!(
        "  {} packages in the DAG, {} reused, {} to build",
        with_reuse.spec.len(),
        with_reuse.reuse_count(),
        with_reuse.build_count()
    );
    if !with_reuse.built.is_empty() {
        println!("  built from source: {}", with_reuse.built.join(", "));
    }
    let mut reused: Vec<String> = with_reuse
        .reused
        .iter()
        .map(|(name, hash)| format!("{name}/{}", &hash[..7.min(hash.len())]))
        .collect();
    reused.sort();
    println!("  reused: {}", reused.join(", "));

    println!("\nConcretized DAG with reuse:\n{}", with_reuse.spec);
}
