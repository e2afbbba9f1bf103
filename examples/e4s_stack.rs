//! Concretize an E4S-like software stack (Section VII-C of the paper).
//!
//! The paper evaluates the concretizer on the ~600 packages of the Extreme-scale
//! Scientific Software Stack. That repository is substituted here by the synthetic
//! generator (`spack_repo::synth`), which reproduces its statistical structure (an MPI
//! hub virtual, layered dependencies, conditional variants). This example concretizes
//! several top-level "application" packages of the synthetic stack and reports solver
//! phase timings, like the instrumentation used for Fig. 7.
//!
//! Run with:
//! ```text
//! cargo run --release --example e4s_stack [n_packages] [n_roots]
//! ```

use spack_concretizer::{Concretizer, SiteConfig, SolveOptions};
use spack_repo::{e4s_roots, synth_repo, SynthConfig};

fn main() {
    let n_packages: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(80);
    let n_roots: usize = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(5);

    let config = SynthConfig { packages: n_packages, ..Default::default() };
    let repo = synth_repo(&config);
    let roots = e4s_roots(&repo);
    println!(
        "synthetic E4S-like repository: {} packages, {} top-level products, mpi providers: {}",
        repo.len(),
        roots.len(),
        repo.providers("mpi").len()
    );

    let site = SiteConfig::quartz();
    let concretizer = Concretizer::new(&repo).with_options(SolveOptions::new().site(site));

    let mut total_nodes = 0usize;
    for root in roots.iter().take(n_roots) {
        let possible = repo.possible_dependency_count(root);
        match concretizer.concretize_str(root) {
            Ok(result) => {
                total_nodes += result.spec.len();
                println!(
                    "  {root:<10} possible deps {possible:>4}  solved nodes {:>3}  \
                     setup {:>7.1?}  ground {:>7.1?}  solve {:>7.1?}  total {:>7.1?}",
                    result.spec.len(),
                    result.timings.setup,
                    result.timings.ground,
                    result.timings.solve,
                    result.timings.total()
                );
            }
            Err(err) => println!("  {root:<10} FAILED: {err}"),
        }
    }
    println!("\nconcretized {n_roots} roots, {total_nodes} concrete nodes in total");
}
