//! `spack-solve` — a small command-line front end for the ASP-based concretizer.
//!
//! This is the reproduction's analogue of `spack spec` / `spack solve`: it concretizes
//! abstract specs against the built-in curated repository (or a synthetic one) and prints
//! the resulting DAG, the build/reuse partition, the objective vector, and the phase
//! timings the paper instruments.
//!
//! ```text
//! spack-solve spec hdf5@1.10.2 +mpi            # concretize and print the DAG
//! spack-solve spec --greedy hpctoolkit ^mpich  # use the old (incomplete) algorithm
//! spack-solve spec --reuse hdf5                # reuse a synthesized buildcache
//! spack-solve spec --stats hdf5                # show grounder/solver statistics
//! spack-solve spec --explain zlib@9.9         # full "why not" report on UNSAT
//! spack-solve batch requests.txt               # session-mode solve, one spec per line
//! spack-solve providers mpi                    # list providers of a virtual
//! spack-solve list                             # list known packages
//! spack-solve criteria                         # print Table II
//! ```
//!
//! `batch` builds a multi-shot [`spack_concretizer::ConcretizerSession`] — base facts
//! and the logic program are ground exactly once — and answers every line of the file
//! as an incremental request (in parallel), printing a per-line status and a
//! throughput summary. Lines that are empty or start with `#` are skipped (line
//! numbers in parse-error reports still count them). With `--state-dir` the batch is
//! durable: every result is checkpointed atomically, a re-run resumes where the last
//! one stopped, and failed items land in `<state-dir>/dlq.jsonl` with their full
//! diagnostics (see `spack_concretizer::durable`). `--deadline-ms` /
//! `--conflict-limit` bound every solve; a budgeted-out item is retried `--retries`
//! times (default 1) with a diversified seed and a doubled budget before it is
//! dead-lettered.
//!
//! On an unsatisfiable request the solver never answers with a bare "no": the
//! single-grounding diagnosis (unsat core + relaxed error minimization on the same
//! ground program, see `spack_concretizer::diagnose`) always produces specific
//! messages, and `--explain` prints all of them along with the implicated root
//! requirements.
//!
//! Exit codes distinguish *why* a solve did not produce a DAG. `spec`: `1` for tool
//! errors (bad arguments, parse failures, internal solver errors) and `2` for a
//! well-formed but unsatisfiable request. `batch`: `1` for pipeline errors, else the
//! worst per-line class — `2` unsatisfiable, `3` spec parse error, `4` solve budget
//! exhausted, `5` internal error — so scripts can tell "your spec is wrong" from
//! "the tool broke" from "the solve was cut off".

use std::process::ExitCode;

use spack_concretizer::{
    describe_priority, ConcretizeError, Concretizer, GreedyConcretizer, SiteConfig, SolveOptions,
    StateDir, CRITERIA,
};
use spack_repo::{builtin_repo, synth_repo, Repository, SynthConfig};
use spack_spec::parse_spec;
use spack_store::{synthesize_buildcache, BuildcacheConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    // `--help` or `-h` anywhere asks for the usage, never names a spec, file or
    // virtual.
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match command.as_str() {
        "spec" | "solve" => cmd_spec(&args[1..]),
        "batch" => cmd_batch(&args[1..]),
        "providers" => cmd_providers(&args[1..]),
        "list" => cmd_list(&args[1..]),
        "criteria" => cmd_criteria(),
        "help" => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command '{other}'");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "spack-solve — ASP-based dependency solving (SC'22 reproduction)\n\n\
     USAGE:\n  spack-solve spec [--greedy] [--reuse] [--lassen] [--stats] [--explain] [--synthetic N] <spec...>\n  \
     spack-solve batch [--reuse] [--lassen] [--stats] [--json] [--synthetic N]\n                    [--state-dir DIR] [--deadline-ms MS] [--conflict-limit N] [--retries N] <file>   (one spec per line; - for stdin)\n  \
     spack-solve providers <virtual>\n  spack-solve list [--synthetic N]\n  spack-solve criteria\n\n\
     --help or -h after any command prints this message.\n";

fn repository(synthetic: Option<usize>) -> Repository {
    match synthetic {
        Some(n) => synth_repo(&SynthConfig { packages: n, ..Default::default() }),
        None => builtin_repo(),
    }
}

struct SpecOptions {
    greedy: bool,
    reuse: bool,
    lassen: bool,
    stats: bool,
    explain: bool,
    synthetic: Option<usize>,
    spec_text: String,
}

fn parse_spec_args(args: &[String]) -> Result<SpecOptions, String> {
    let mut options = SpecOptions {
        greedy: false,
        reuse: false,
        lassen: false,
        stats: false,
        explain: false,
        synthetic: None,
        spec_text: String::new(),
    };
    let mut rest: Vec<String> = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--greedy" => options.greedy = true,
            "--reuse" => options.reuse = true,
            "--lassen" => options.lassen = true,
            "--stats" => options.stats = true,
            "--explain" => options.explain = true,
            "--synthetic" => {
                let n = iter
                    .next()
                    .ok_or_else(|| "--synthetic requires a package count".to_string())?;
                options.synthetic =
                    Some(n.parse().map_err(|_| format!("invalid package count '{n}'"))?);
            }
            other => rest.push(other.to_string()),
        }
    }
    if rest.is_empty() {
        return Err("no spec given".to_string());
    }
    options.spec_text = rest.join(" ");
    Ok(options)
}

fn cmd_spec(args: &[String]) -> ExitCode {
    let options = match parse_spec_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("==> Error: {e}");
            eprint!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let repo = repository(options.synthetic);
    let site = if options.lassen { SiteConfig::lassen() } else { SiteConfig::quartz() };
    let spec = match parse_spec(&options.spec_text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("==> Error: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!("Input spec");
    println!("--------------------------------");
    println!("{}\n", options.spec_text);

    if options.greedy {
        let greedy = GreedyConcretizer::new(&repo, site);
        return match greedy.concretize(&spec) {
            Ok(result) => {
                println!("Concretized (old greedy concretizer)");
                println!("--------------------------------");
                print!("{}", result.spec);
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("==> Error: {err}");
                ExitCode::FAILURE
            }
        };
    }

    let cache;
    let mut solve_options = SolveOptions::new().site(site);
    if options.reuse {
        cache = synthesize_buildcache(&repo, &BuildcacheConfig::default());
        println!("(reuse enabled: {} cached builds)\n", cache.len());
        solve_options = solve_options.database(&cache);
    }
    let concretizer = Concretizer::new(&repo).with_options(solve_options);

    match concretizer.concretize(&[spec]) {
        Ok(result) => {
            println!("Concretized");
            println!("--------------------------------");
            print!("{}", result.spec);
            println!();
            println!(
                "{} packages: {} to build, {} reused",
                result.spec.len(),
                result.build_count(),
                result.reuse_count()
            );
            println!(
                "phases: setup {:.1?}, load {:.1?}, ground {:.1?}, solve {:.1?} (total {:.1?})",
                result.timings.setup,
                result.timings.load,
                result.timings.ground,
                result.timings.solve,
                result.timings.total()
            );
            let nonzero: Vec<String> = result
                .cost
                .iter()
                .filter(|(_, v)| *v != 0)
                .map(|(p, v)| {
                    let (bucket, desc) = describe_priority(*p);
                    format!("    [{bucket}] {desc}: {v}")
                })
                .collect();
            if !nonzero.is_empty() {
                println!("non-zero optimization criteria:");
                for line in nonzero {
                    println!("{line}");
                }
            }
            if options.stats {
                print_stats(&result);
            }
            ExitCode::SUCCESS
        }
        Err(ConcretizeError::Unsatisfiable { diagnostics, stats }) => {
            print_unsat_report(&options, &diagnostics, &stats);
            // Exit 2: the request is well-formed but infeasible — distinct from the
            // generic failure (1) used for tool and usage errors.
            ExitCode::from(2)
        }
        Err(err) => {
            eprintln!("==> Error: {err}");
            ExitCode::FAILURE
        }
    }
}

/// The "why not" report for an unsatisfiable request. Without `--explain` only the
/// most severe diagnostic is shown (plus a pointer to the flag); with it, every
/// diagnostic and the implicated root requirements are printed. `--stats` adds the
/// cost of producing the explanation (unsat-core size, deletion-minimization rounds,
/// second-phase solve time) and the solver counters summed over its three solves.
fn print_unsat_report(
    options: &SpecOptions,
    diagnostics: &[spack_concretizer::Diagnostic],
    stats: &spack_concretizer::DiagnosticsStats,
) {
    eprintln!("==> Error: concretization failed: no valid configuration exists");
    if options.explain {
        eprintln!("\nwhy not");
        eprintln!("--------------------------------");
        for d in diagnostics {
            let tag = match d.severity {
                spack_concretizer::Severity::Error => "error",
                spack_concretizer::Severity::Note => "note ",
            };
            eprintln!("  [{:>3}] {tag} {}: {}", d.priority, d.code, d.message);
        }
        let provenance: Vec<&String> =
            diagnostics.iter().flat_map(|d| d.provenance.iter()).collect();
        if !provenance.is_empty() {
            let mut seen: Vec<&String> = Vec::new();
            eprintln!("\n  implicated requirements (minimized unsat core):");
            for p in provenance {
                if !seen.contains(&p) {
                    eprintln!("    {p}");
                    seen.push(p);
                }
            }
        }
    } else {
        if let Some(first) = diagnostics.first() {
            eprintln!("    {}", first.message);
        }
        if diagnostics.len() > 1 {
            eprintln!(
                "    ({} diagnostics total; run with --explain for the full report)",
                diagnostics.len()
            );
        }
    }
    if options.stats {
        eprintln!("\ndiagnostics statistics");
        eprintln!("--------------------------------");
        eprintln!(
            "  unsat core: {} assumptions, minimized to {} in {} deletion rounds",
            stats.core_size, stats.minimized_core_size, stats.minimization_rounds
        );
        eprintln!("  second phase (core minimization + relaxed solve): {:.1?}", stats.second_phase);
        eprintln!(
            "  phases (both solves combined): setup {:.1?}, load {:.1?}, ground {:.1?}, solve {:.1?}",
            stats.phases.setup, stats.phases.load, stats.phases.ground, stats.phases.solve
        );
        eprintln!("  second-phase grounding: {:.1?}", stats.second_phase_ground);
        for line in sat_lines(&stats.solver) {
            eprintln!("{line}");
        }
        eprintln!("{}", stable_line(&stats.solver));
    }
}

/// Print the engine statistics behind a solve: per-stage wall times, the grounder's
/// `GroundStats`, and the aggregated CDCL `SatStats` — the same counters the
/// benchmark-regression harness records in its JSON report.
fn print_stats(result: &spack_concretizer::Concretization) {
    let s = &result.stats;
    let g = &s.ground;
    println!("\nstatistics");
    println!("--------------------------------");
    println!(
        "  phases:   setup {:>10.1?}  load {:>10.1?}  ground {:>10.1?}  solve {:>10.1?}",
        result.timings.setup, result.timings.load, result.timings.ground, result.timings.solve
    );
    println!(
        "  grounder: {} facts -> {} atoms, {} rules, {} choices, {} minimize",
        s.facts, g.atoms, g.rules, g.choices, g.minimize
    );
    println!(
        "            {} fixpoint rounds (phase1 {:.1?}, phase2 {:.1?})",
        g.rounds, g.phase1, g.phase2
    );
    for line in sat_lines(s) {
        println!("{line}");
    }
    println!("{}", stable_line(s));
}

/// The `sat:` lines of `--stats`: the translation's size and the CDCL counters
/// summed over every solver run.
fn sat_lines(s: &asp::Stats) -> [String; 3] {
    [
        format!(
            "  sat:      {} vars, {} clauses | {} solver runs, {} models examined, {} loop nogoods",
            s.variables, s.clauses, s.solver_runs, s.models_examined, s.loop_nogoods
        ),
        format!(
            "            {} decisions, {} propagations, {} conflicts, {} restarts, {} learned ({} deleted)",
            s.decisions, s.propagations, s.conflicts, s.restarts, s.learned, s.deleted
        ),
        format!(
            "            core-probe warm loop nogoods {}, transferred {}",
            s.warm_clauses, s.transferred_clauses
        ),
    ]
}

/// The stable-model line of `--stats`: whether the grounding is tight and how many
/// candidate models the stability check examined in full.
fn stable_line(s: &asp::Stats) -> String {
    let program = if s.tight { "tight, no positive loop" } else { "not tight, positive loops" };
    format!("  stable:   {program} | {} stability checks", s.stability_checks)
}

/// `spack-solve batch <file>`: one request per line, answered on a single multi-shot
/// session (base ground exactly once). The durable runner ([`spack_concretizer::
/// durable`]) parses, solves, retries, and (with `--state-dir`) checkpoints every
/// line; failed items land in the dead-letter queue `<state-dir>/dlq.jsonl`. The
/// exit code is the worst per-line class: 0 all solved, 2 unsatisfiable, 3 spec
/// parse error, 4 solve budget exhausted, 5 internal error — and 1 for pipeline
/// errors (bad arguments, unreadable input, state-dir failures).
fn cmd_batch(args: &[String]) -> ExitCode {
    let mut reuse = false;
    let mut lassen = false;
    let mut stats = false;
    let mut json = false;
    let mut synthetic: Option<usize> = None;
    let mut state_dir: Option<String> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut conflict_limit: Option<u64> = None;
    let mut retries = 1u32;
    let mut file: Option<String> = None;

    fn flag_value<'i>(
        iter: &mut impl Iterator<Item = &'i String>,
        flag: &str,
        what: &str,
    ) -> Result<&'i String, String> {
        iter.next().ok_or_else(|| format!("{flag} requires {what}"))
    }
    fn parse_value<T: std::str::FromStr>(value: &str, what: &str) -> Result<T, String> {
        value.parse().map_err(|_| format!("invalid {what} '{value}'"))
    }

    let mut iter = args.iter();
    let parsed: Result<(), String> = (|| {
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--reuse" => reuse = true,
                "--lassen" => lassen = true,
                "--stats" => stats = true,
                "--json" => json = true,
                "--synthetic" => {
                    let n = flag_value(&mut iter, "--synthetic", "a package count")?;
                    synthetic = Some(parse_value(n, "package count")?);
                }
                "--state-dir" => {
                    state_dir =
                        Some(flag_value(&mut iter, "--state-dir", "a directory")?.to_string());
                }
                "--deadline-ms" => {
                    let ms = flag_value(&mut iter, "--deadline-ms", "milliseconds")?;
                    deadline_ms = Some(parse_value(ms, "deadline")?);
                }
                "--conflict-limit" => {
                    let n = flag_value(&mut iter, "--conflict-limit", "a conflict count")?;
                    conflict_limit = Some(parse_value(n, "conflict limit")?);
                }
                "--retries" => {
                    let n = flag_value(&mut iter, "--retries", "a retry count")?;
                    retries = parse_value(n, "retry count")?;
                }
                other if file.is_none() => file = Some(other.to_string()),
                other => return Err(format!("unexpected argument '{other}'")),
            }
        }
        Ok(())
    })();
    if let Err(e) = parsed {
        eprintln!("==> Error: {e}");
        return ExitCode::FAILURE;
    }
    let Some(file) = file else {
        eprintln!(
            "usage: spack-solve batch [--reuse] [--lassen] [--stats] [--json] [--synthetic N] \
             [--state-dir DIR] [--deadline-ms MS] [--conflict-limit N] [--retries N] <file>"
        );
        return ExitCode::FAILURE;
    };
    let text = if file == "-" {
        use std::io::Read;
        let mut buf = String::new();
        match std::io::stdin().read_to_string(&mut buf) {
            Ok(_) => buf,
            Err(e) => {
                eprintln!("==> Error: cannot read stdin: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match std::fs::read_to_string(&file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("==> Error: cannot read {file}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    // Keep 1-based line numbers through the comment/blank filtering, so parse
    // errors can report where in the *file* the bad spec sits.
    let items: Vec<(usize, String)> = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim().to_string()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
        .collect();
    if items.is_empty() {
        eprintln!("==> Error: no specs in {file}");
        return ExitCode::FAILURE;
    }

    let budget = asp::SolveBudget {
        wall_deadline: deadline_ms.map(std::time::Duration::from_millis),
        conflict_limit,
    };
    // The manifest digest covers every option that affects results, so a state dir
    // cannot be resumed under a different configuration (including the output
    // format: checkpointed record outputs are replayed verbatim, so a human-mode
    // state dir cannot be resumed as --json or vice versa).
    let options_desc = format!(
        "reuse={reuse} lassen={lassen} synthetic={synthetic:?} \
         deadline_ms={deadline_ms:?} conflict_limit={conflict_limit:?} retries={retries} \
         json={json}"
    );
    let state = match &state_dir {
        Some(dir) => {
            let digest = spack_concretizer::durable::batch_digest(&items, &options_desc);
            match StateDir::open(std::path::Path::new(dir), digest, items.len(), &options_desc) {
                Ok(s) => Some(s),
                Err(e) => {
                    eprintln!("==> Error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => None,
    };

    let repo = repository(synthetic);
    let site = if lassen { SiteConfig::lassen() } else { SiteConfig::quartz() };
    let cache;
    let mut solve_options = SolveOptions::new().site(site).budget(budget);
    if reuse {
        cache = synthesize_buildcache(&repo, &BuildcacheConfig::default());
        solve_options = solve_options.database(&cache);
    }
    let session = match Concretizer::new(&repo).with_options(solve_options).session() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("==> Error: building the session failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let started = std::time::Instant::now();
    let outcome = match spack_concretizer::durable::run_batch(
        &session,
        &items,
        retries,
        state.as_ref(),
        json,
    ) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("==> Error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = started.elapsed();

    for record in &outcome.records {
        println!("{}", record.output);
    }

    let s = session.stats();
    let c = &outcome.counters;
    eprintln!(
        "\n{} requests in {elapsed:.2?} ({:.1} specs/sec); base ground once in {:.2?}",
        items.len(),
        items.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        s.base_setup + s.base_load + s.base_ground
    );
    if stats {
        eprintln!("batch statistics");
        eprintln!("--------------------------------");
        eprintln!(
            "  items: {} solved, {} unsat, {} parse errors, {} budget-exhausted, {} internal",
            c.solved, c.unsat, c.parse_errors, c.budget, c.internal
        );
        eprintln!(
            "  durability: {} resumed from checkpoints, {} corrupt records re-solved, \
             {} budget retries, {} dead-lettered",
            c.resumed, c.corrupt, c.retries, c.dead_lettered
        );
        eprintln!("session statistics");
        eprintln!("--------------------------------");
        eprintln!(
            "  base: {} packages, {} facts, {} installed records, digest {:016x}",
            s.possible_packages, s.base_facts, s.installed, s.base_digest
        );
        eprintln!(
            "  base phases: setup {:.2?}, load {:.2?}, ground {:.2?} ({} atoms, {} frozen instances)",
            s.base_setup, s.base_load, s.base_ground, s.base_atoms, s.frozen_instances
        );
        let d = &s.delta_ground;
        eprintln!(
            "  ground.delta over {} requests: {:.2?} = restrict {:.2?} + continuation {:.2?} \
             + phase2 {:.2?} + minimize {:.2?}",
            s.requests,
            d.restrict + d.continuation + d.phase2 + d.minimize,
            d.restrict,
            d.continuation,
            d.phase2,
            d.minimize
        );
        eprintln!(
            "  base grounds: {} (must be 1), requests served: {}",
            s.base_grounds, s.requests
        );
        eprintln!(
            "  nogood store: {} hits, {} misses, {} loop nogoods transferred",
            s.store_hits, s.store_misses, s.store_transferred
        );
    }
    match outcome.exit_code() {
        0 => ExitCode::SUCCESS,
        code => ExitCode::from(code),
    }
}

fn cmd_providers(args: &[String]) -> ExitCode {
    let Some(virtual_name) = args.first() else {
        eprintln!("usage: spack-solve providers <virtual>");
        return ExitCode::FAILURE;
    };
    let repo = builtin_repo();
    let providers = repo.providers(virtual_name);
    if providers.is_empty() {
        eprintln!("no providers found for '{virtual_name}'");
        return ExitCode::FAILURE;
    }
    println!("providers of {virtual_name}:");
    for p in providers {
        let versions = repo
            .get(p)
            .map(|pkg| {
                pkg.versions.iter().map(|v| v.version.to_string()).collect::<Vec<_>>().join(", ")
            })
            .unwrap_or_default();
        println!("  {p}  ({versions})");
    }
    ExitCode::SUCCESS
}

fn cmd_list(args: &[String]) -> ExitCode {
    let synthetic = args
        .iter()
        .position(|a| a == "--synthetic")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse().ok());
    let repo = repository(synthetic);
    println!("{} packages, {} virtuals", repo.len(), repo.virtuals().count());
    for name in repo.names() {
        let pkg = repo.get(name).unwrap();
        println!(
            "  {name:<24} versions: {:<2}  variants: {:<2}  possible deps: {}",
            pkg.versions.len(),
            pkg.variants.len(),
            repo.possible_dependency_count(name)
        );
    }
    ExitCode::SUCCESS
}

fn cmd_criteria() -> ExitCode {
    println!("Spack's optimization criteria (Table II), highest priority first:");
    for c in CRITERIA {
        println!(
            "  {:>2}. {:<42} reuse bucket @{:<3} build bucket @{}",
            c.rank,
            c.description,
            c.reuse_priority(),
            c.build_priority()
        );
    }
    println!("  number of builds sits between the bucket groups at priority 100 (Fig. 5)");
    ExitCode::SUCCESS
}
