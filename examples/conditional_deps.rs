//! Completeness demo (Section V-B1 of the paper): `hpctoolkit ^mpich`.
//!
//! The old greedy concretizer decides the default value of the `mpi` variant (false)
//! before descending into dependencies, so it fails with
//! "Package hpctoolkit does not depend on mpich" and forces the user to over-constrain
//! the spec (`hpctoolkit+mpi ^mpich`). The ASP concretizer simply finds that enabling
//! `+mpi` is the only way for mpich to appear in the solution.
//!
//! Run with:
//! ```text
//! cargo run --release --example conditional_deps
//! ```

use spack_concretizer::{Concretizer, GreedyConcretizer, SiteConfig, SolveOptions};
use spack_repo::builtin_repo;
use spack_spec::parse_spec;

fn main() {
    let repo = builtin_repo();
    let site = SiteConfig::quartz();
    let spec_text = "hpctoolkit ^mpich";
    let spec = parse_spec(spec_text).expect("valid spec");

    println!("$ spack spec {spec_text}\n");

    // --- the old concretizer -------------------------------------------------------------
    println!("[old concretizer — greedy fixed point]");
    let greedy = GreedyConcretizer::new(&repo, site.clone());
    match greedy.concretize(&spec) {
        Ok(result) => {
            println!("unexpectedly succeeded:\n{}", result.spec);
        }
        Err(err) => {
            println!("==> Error: {err}");
            println!("    (the user must over-constrain: `hpctoolkit+mpi ^mpich`)\n");
        }
    }
    let workaround = parse_spec("hpctoolkit+mpi ^mpich").unwrap();
    match greedy.concretize(&workaround) {
        Ok(result) => println!(
            "[old concretizer, with the manual workaround] {} packages, mpich included: {}\n",
            result.spec.len(),
            result.spec.contains("mpich")
        ),
        Err(err) => println!("workaround failed: {err}\n"),
    }

    // --- the ASP concretizer ----------------------------------------------------------------
    println!("[ASP concretizer — complete and optimal]");
    let concretizer = Concretizer::new(&repo).with_options(SolveOptions::new().site(site));
    match concretizer.concretize(&[spec]) {
        Ok(result) => {
            let hpctoolkit = result.spec.node("hpctoolkit").expect("root present");
            println!(
                "solved without help: mpi variant = {}, mpich in DAG = {}",
                hpctoolkit.variants.get("mpi").map(|v| v.to_string()).unwrap_or_default(),
                result.spec.contains("mpich")
            );
            println!("\n{}", result.spec);
        }
        Err(err) => {
            eprintln!("==> Error: {err}");
            std::process::exit(1);
        }
    }
}
