//! `oneshot_sweep`: one client, closed loop, a fresh one-shot `Concretizer` per spec
//! over the medium repository, half of the requests reusing the workload buildcache.

use std::time::Instant;

use spack_concretizer::server::wire::SolveResponse;
use spack_concretizer::{Concretizer, SiteConfig, SolveOptions};
use spack_repo::Repository;
use spack_store::Database;

use crate::calib::{self, Clock};
use crate::gen::{self, Catalog, Mix, Pins};
use crate::loadgen;
use crate::stats;
use crate::{Metric, Outcome};

/// Packages drawn per closure-size stratum for the sweep.
pub const SWEEP_PER_STRATUM: usize = 12;
/// Unsatisfiable requests in the sweep (about a tenth).
pub const SWEEP_UNSAT: usize = 8;
/// Set-ups per run, spread evenly over it; `setup_s` is their median.
const SETUP_REPS: usize = 30;
/// The spec of the warm-up solves that end a set-up.
const WARM_UP_SPEC: &str = "zlib";

/// The sweep's universe: the medium repository and the workload buildcache.
pub struct Universe {
    /// The repository.
    pub repo: Repository,
    /// The buildcache reuse requests solve against.
    pub cache: Database,
    /// The request set.
    pub mix: Mix,
    /// Catalog of the repository.
    pub catalog: Catalog,
}

impl Universe {
    /// Synthesize the repository and buildcache and draw the requests.
    pub fn new() -> Self {
        let repo = bench::workload_repo(bench::Scale::Medium);
        let cache = bench::workload_buildcache(&repo, bench::Scale::Medium);
        let catalog = Catalog::new(&repo);
        let mix = catalog.draw(gen::MIX_SEED, SWEEP_PER_STRATUM, SWEEP_UNSAT, Pins::All);
        Universe { repo, cache, mix, catalog }
    }

    /// The solve options of a request.
    pub fn options(&self, reuse: bool) -> SolveOptions<'_> {
        options(&self.cache, reuse)
    }
}

/// The solve options of a request: the default site, plus the buildcache when it
/// reuses.
fn options(cache: &Database, reuse: bool) -> SolveOptions<'_> {
    let options = SolveOptions::new().site(SiteConfig::quartz());
    if reuse {
        options.database(cache)
    } else {
        options
    }
}

/// One set-up from scratch, as a user pays it before the first answer: synthesize
/// the repository and buildcache, then one one-shot warm-up solve without and one
/// with reuse (the service's warm-up). Returns its time in seconds and the
/// warm-up renders.
fn set_up() -> (f64, [String; 2]) {
    let t0 = Instant::now();
    let repo = bench::workload_repo(bench::Scale::Medium);
    let cache = bench::workload_buildcache(&repo, bench::Scale::Medium);
    let warm = [false, true].map(|reuse| {
        let result = Concretizer::new(&repo)
            .with_options(options(&cache, reuse))
            .concretize_str(WARM_UP_SPEC);
        SolveResponse::from_result("", WARM_UP_SPEC, &result, 0).render()
    });
    (t0.elapsed().as_secs_f64(), warm)
}

/// Run `oneshot_sweep`.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let u = Universe::new();

    // Closed loop: the next spec is sent when the previous answer is back. The
    // set-ups are spread evenly over the run, so, like the solves, they see the
    // machine over all of it. Every set-up and solve is followed by a probe
    // reading, which ends its stretch and starts the next one.
    let mut clock = Clock::new(1);
    // Per set-up: wall time and reference-speed time, in seconds.
    let mut setups = Vec::new();
    let mut warm = Vec::new();
    let mut set_up_once = |clock: &mut Clock| {
        let (s, w) = set_up();
        setups.push((s, s * clock.factor()));
        warm.push(w);
    };
    let mut sequence = u.mix.sequence(seed);
    let mut done: Vec<(usize, String)> = Vec::new();
    // Per solve: wall time and reference-speed time, in milliseconds.
    let mut latencies: Vec<(f64, f64)> = Vec::new();
    let start = Instant::now();
    let mut reps = 0;
    while start.elapsed().as_secs_f64() < seconds {
        if reps < SETUP_REPS
            && start.elapsed().as_secs_f64() >= reps as f64 * seconds / SETUP_REPS as f64
        {
            set_up_once(&mut clock);
            reps += 1;
            continue;
        }
        let req = sequence.next().expect("the sequence is endless");
        let r = &u.mix.reqs[req];
        let t = Instant::now();
        let result =
            Concretizer::new(&u.repo).with_options(u.options(r.reuse)).concretize_str(&r.spec);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        latencies.push((ms, ms * clock.factor()));
        done.push((req, SolveResponse::from_result("", &r.spec, &result, 0).render()));
    }
    for _ in reps..SETUP_REPS {
        set_up_once(&mut clock);
    }
    let solving_s = latencies.iter().map(|l| l.0).sum::<f64>() / 1e3;
    let scaled_s = latencies.iter().map(|l| l.1).sum::<f64>() / 1e3;
    let peak_rss_mb = stats::peak_rss_mb()?;

    // Answers: every one-shot render against a fresh session of the same universe.
    let plain = Concretizer::new(&u.repo).with_options(u.options(false));
    let reusing = Concretizer::new(&u.repo).with_options(u.options(true));
    let sessions = [
        plain.session().map_err(|e| format!("reference session: {e}"))?,
        reusing.session().map_err(|e| format!("reference session: {e}"))?,
    ];
    let mut references: Vec<Option<String>> = vec![None; u.mix.reqs.len()];
    let mut failures = Vec::new();
    for (reuse, session) in sessions.iter().enumerate() {
        let want = session.concretize_str(WARM_UP_SPEC);
        let want = SolveResponse::from_result("", WARM_UP_SPEC, &want, 0).render();
        for (rep, got) in warm.iter().enumerate() {
            if got[reuse] != want {
                failures.push(format!(
                    "set-up {rep}: warm-up answer (reuse {reuse}) differs from the session's: {}",
                    loadgen::first_difference(&got[reuse], &want)
                ));
            }
        }
    }
    for (n, (req, got)) in done.iter().enumerate() {
        let r = &u.mix.reqs[*req];
        let want = references[*req].get_or_insert_with(|| {
            let result = sessions[usize::from(r.reuse)].concretize_str(&r.spec);
            SolveResponse::from_result("", &r.spec, &result, 0).render()
        });
        if got != want {
            failures.push(format!(
                "request {n} ({}): one-shot answer differs from the session's: {}",
                r.spec,
                loadgen::first_difference(got, want)
            ));
        }
        if got.contains("\"status\": \"internal\"") || got.contains("\"status\": \"budget\"") {
            failures.push(format!("request {n} ({}): failed", r.spec));
        }
    }

    let solves: Vec<usize> = done.iter().map(|(r, _)| *r).collect();
    let mut slowest: Vec<(f64, &str)> =
        solves.iter().zip(&latencies).map(|(&r, l)| (l.0, u.mix.reqs[r].spec.as_str())).collect();
    slowest.sort_by(|a, b| b.0.total_cmp(&a.0));
    slowest.dedup_by(|a, b| a.1 == b.1);
    let slowest: Vec<String> =
        slowest.iter().take(5).map(|(ms, spec)| format!("{spec} {ms:.0} ms")).collect();
    let wall = stats::sorted(latencies.iter().map(|l| l.0).collect());
    let scaled = stats::sorted(latencies.iter().map(|l| l.1).collect());
    let setup_wall = stats::median(&stats::sorted(setups.iter().map(|s| s.0).collect()));
    let setup_s = stats::median(&stats::sorted(setups.iter().map(|s| s.1).collect()));
    let probe = stats::sorted(clock.readings().to_vec());
    let report = vec![
        format!("traffic: {}", gen::traffic_report(&u.mix, &solves, &[])),
        format!(
            "closed loop: {} specs in {solving_s:.2} s of solving; slowest: {}",
            done.len(),
            slowest.join(", ")
        ),
        format!(
            "wall time: {:.2} specs/s, p50 {:.1} ms, p90 {:.1} ms; setup {:.4} s",
            done.len() as f64 / solving_s,
            stats::median(&wall).unwrap_or(0.0),
            stats::nearest_rank(&wall, 0.9),
            setup_wall.unwrap_or(0.0),
        ),
        format!(
            "probe: {} readings, median {:.3} ms (reference {} ms), quartiles {:.3?}",
            probe.len(),
            stats::median(&probe).unwrap_or(0.0),
            calib::REFERENCE_MS,
            stats::quartiles(&probe).unwrap_or_default()
        ),
    ];
    let metrics = vec![
        Metric::new("setup_s", setup_s.unwrap_or(0.0), "s"),
        Metric::new("specs_per_s", done.len() as f64 / scaled_s, "1/s"),
        Metric::timing("latency_p50_ms", &scaled, 0.5)?,
        Metric::timing("latency_p90_ms", &scaled, 0.9)?,
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
    ];
    let attempted = done.len() + 2 * warm.len();
    Ok(Outcome { attempted, failures, metrics, report })
}
