//! Quickstart: concretize a single package with the ASP-based concretizer.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart [spec]
//! ```
//! The optional argument is any spec in the sigil syntax of Table I of the paper, e.g.
//! `hdf5@1.10.2 +mpi %gcc ^zlib@1.2.8:`. The default is `hdf5`.

use spack_concretizer::{describe_priority, Concretizer, SiteConfig, SolveOptions};
use spack_repo::builtin_repo;

fn main() {
    let spec_text = std::env::args().nth(1).unwrap_or_else(|| "hdf5".to_string());
    let repo = builtin_repo();
    let concretizer =
        Concretizer::new(&repo).with_options(SolveOptions::new().site(SiteConfig::quartz()));

    println!("Input spec");
    println!("--------------------------------");
    println!("{spec_text}\n");

    match concretizer.concretize_str(&spec_text) {
        Ok(result) => {
            println!("Concretized");
            println!("--------------------------------");
            print!("{}", result.spec);
            println!();
            println!(
                "{} packages in the DAG, {} to build, {} reused",
                result.spec.len(),
                result.build_count(),
                result.reuse_count()
            );
            println!(
                "phases: setup {:.1?}  load {:.1?}  ground {:.1?}  solve {:.1?}  (total {:.1?})",
                result.timings.setup,
                result.timings.load,
                result.timings.ground,
                result.timings.solve,
                result.timings.total()
            );
            println!(
                "problem size: {} possible packages, {} facts, {} conditions",
                result.setup.possible_packages, result.setup.facts, result.setup.conditions
            );
            println!("\nnon-zero optimization criteria (priority, value):");
            for (priority, value) in result.cost.iter().filter(|(_, v)| *v != 0) {
                let (bucket, description) = describe_priority(*priority);
                println!("  [{bucket:>6}] {description}: {value}");
            }
        }
        Err(err) => {
            eprintln!("==> Error: {err}");
            std::process::exit(1);
        }
    }
}
