//! `service_steady`: open-loop traffic into `server::serve_pipe`, the function
//! `spack-solved --pipe` runs, over the medium repository and the service buildcache.

use std::collections::{HashMap, HashSet};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use spack_concretizer::server::{self, wire::SolveResponse, ServerConfig, ServerStats};
use spack_concretizer::{Concretizer, SiteConfig, SolveOptions};
use spack_repo::Repository;
use spack_store::Database;

use crate::calib::{self, Clock};
use crate::gen::{self, Catalog, Event, Mix, Pins, UpdateCycle};
use crate::loadgen::{self, LineReceiver, Sent, StampedLines};
use crate::stats;
use crate::{Metric, Outcome};

/// Open-loop arrival rate, in requests per second: about a third of the burst
/// capacity the seed commit measured on a 2-core machine (11–16 requests/s). At half
/// the capacity, queueing amplified the machine's own speed drift and the
/// 90th-percentile latency spread beyond the benchmark's bounds. The phase sends
/// whole passes of the hot set (see [`gen::open_loop`]): 126 requests in 30 s.
pub const RATE: f64 = 4.0;
/// Packages drawn per closure-size stratum for the hot set. The hot set names bare
/// packages: the same costly hot set for every seed keeps seeds comparable, and at
/// the seed commit a session over the service buildcache answers some pinned reuse
/// requests (`lib-054+feat0`, `lib-085@1.4.0`) differently from a one-shot solve.
pub const HOT_PER_STRATUM: usize = 6;
/// Unsatisfiable requests in the hot set (about a tenth).
pub const HOT_UNSAT: usize = 4;
/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Bursts of the whole hot set after the open-loop phase; `specs_per_s` is the
/// rate of the median burst at reference speed.
const BURSTS: usize = 9;
/// Probe runs per reading (their median) around the set-ups: those readings are
/// few, and taken while the server is idle.
const PROBE_LOOPS: usize = 5;
/// How often a burst is probed while it drains.
const TICK: Duration = Duration::from_millis(100);
/// A generator whose 90th-percentile lateness exceeds this invalidates the run.
const MAX_LATE_MS: f64 = 50.0;
/// How long to wait for outstanding responses before counting them as missing.
pub const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// The universe the service workload runs over, and its traffic.
pub struct Universe {
    /// The seed's hot set.
    pub mix: Mix,
    /// The seed's update cycle (sent by the traced run's server replay).
    pub updates: UpdateCycle,
    /// The medium repository.
    pub repo: Repository,
    /// The whole service buildcache.
    pub cache: Database,
}

impl Universe {
    /// Synthesize the medium repository and the service buildcache, and draw the
    /// seed's traffic. Also returns the synthesis time in seconds (drawing the
    /// traffic is not timed).
    pub fn new(seed: u64) -> (Self, f64) {
        let t0 = Instant::now();
        let repo = bench::workload_repo(bench::Scale::Medium);
        let mut synthesis = t0.elapsed().as_secs_f64();
        let catalog = Catalog::new(&repo);
        let mix = catalog.draw(gen::MIX_SEED, HOT_PER_STRATUM, HOT_UNSAT, Pins::None);
        let updates = catalog.update_cycle(&mix, seed);
        let t1 = Instant::now();
        let cache = bench::service_buildcache(&repo, bench::Scale::Medium);
        synthesis += t1.elapsed().as_secs_f64();
        (Universe { mix, updates, repo, cache }, synthesis)
    }

    /// The wire line of a solve request.
    pub fn solve_line(&self, id: &str, req: usize) -> String {
        solve_line(id, &self.mix.reqs[req])
    }
}

/// The wire line of a solve request (specs are plain names, versions and
/// variants: nothing to escape).
pub fn solve_line(id: &str, r: &gen::Req) -> String {
    format!(
        "{{\"v\": 1, \"id\": \"{id}\", \"specs\": [\"{}\"], \"options\": {{\"reuse\": {}}}}}",
        r.spec, r.reuse
    )
}

/// The server configuration: one worker per core.
pub fn server_config() -> ServerConfig {
    let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2);
    ServerConfig { workers, ..ServerConfig::default() }
}

/// The benchmark's end of a running server: the request pipe and every response.
pub struct Client {
    tx: Sender<String>,
    rx: Receiver<(Instant, String)>,
    /// Response lines by id, with the time their newline was written.
    pub responses: HashMap<String, (Instant, String)>,
}

impl Client {
    /// Send one request line now.
    pub fn send(&self, line: String) {
        let _ = self.tx.send(line);
    }

    /// Send lines on an open-loop schedule.
    pub fn open_loop(&mut self, start: Instant, lines: &[(Duration, String)]) -> Vec<Sent> {
        loadgen::open_loop(start, lines, &mut self.tx)
    }

    /// Send lines on an open-loop schedule with a probe reading after each send.
    pub fn open_loop_probed(
        &mut self,
        start: Instant,
        lines: &[(Duration, String)],
        clock: &mut Clock,
    ) -> Vec<Sent> {
        loadgen::open_loop(start, lines, &mut ProbedSink { tx: &mut self.tx, clock })
    }

    /// Collect responses until every id in `ids` is answered or `timeout` passes.
    /// Returns whether all arrived.
    pub fn wait_for<I: AsRef<str>>(
        &mut self,
        ids: impl IntoIterator<Item = I>,
        timeout: Duration,
    ) -> bool {
        let deadline = Instant::now() + timeout;
        let mut pending: HashSet<String> = ids
            .into_iter()
            .map(|id| id.as_ref().to_string())
            .filter(|id| !self.responses.contains_key(id))
            .collect();
        while !pending.is_empty() {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(left) {
                Ok((at, line)) => {
                    if let Some(id) = loadgen::response_id(&line).map(str::to_string) {
                        pending.remove(&id);
                        self.responses.insert(id, (at, line));
                    }
                }
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                    return false
                }
            }
        }
        true
    }
}

/// See [`Client::open_loop_probed`].
struct ProbedSink<'a> {
    tx: &'a mut Sender<String>,
    clock: &'a mut Clock,
}

impl loadgen::Sink for ProbedSink<'_> {
    fn send(&mut self, line: String) {
        loadgen::Sink::send(self.tx, line);
        self.clock.tick();
    }
}

/// Run `serve_pipe` over `repo` and `cache` on its own thread while `drive` talks to
/// it; close the input, wait for the drain, and return what `drive` returned, the
/// server's final statistics and every response.
pub fn with_server<T>(
    repo: &Repository,
    cache: &Database,
    drive: impl FnOnce(&mut Client) -> T,
) -> (T, ServerStats, HashMap<String, (Instant, String)>) {
    let config = server_config();
    let (tx, input) = LineReceiver::pipe();
    let (output, rx) = StampedLines::pipe();
    std::thread::scope(|scope| {
        let config = &config;
        let server =
            scope.spawn(move || server::serve_pipe(repo, Some(cache), config, input, output));
        let mut client = Client { tx, rx, responses: HashMap::new() };
        let value = drive(&mut client);
        let Client { tx, rx, mut responses } = client;
        drop(tx);
        let stats = server.join().expect("the server thread panicked");
        for (at, line) in rx.try_iter() {
            if let Some(id) = loadgen::response_id(&line).map(str::to_string) {
                responses.insert(id, (at, line));
            }
        }
        (value, stats, responses)
    })
}

/// Warm the server up: one solve per shard, which freezes both shard bases.
/// Returns whether both answered.
pub fn warm_up(client: &mut Client) -> bool {
    client.send(warm_line("w0", false));
    client.send(warm_line("w1", true));
    client.wait_for(["w0", "w1"], DRAIN_TIMEOUT)
}

fn warm_line(id: &str, reuse: bool) -> String {
    format!("{{\"v\": 1, \"id\": \"{id}\", \"specs\": [\"zlib\"], \"options\": {{\"reuse\": {reuse}}}}}")
}

/// A one-shot reference render (id removed) of a solve: a code path that shares no
/// session, shard or store with the server.
pub fn reference(repo: &Repository, cache: &Database, spec: &str, reuse: bool) -> String {
    let mut options = SolveOptions::new().site(SiteConfig::quartz());
    if reuse {
        options = options.database(cache);
    }
    let result = Concretizer::new(repo).with_options(options).concretize_str(spec);
    SolveResponse::from_result("", spec, &result, 0).render()
}

/// The `status` field of a response line.
pub fn status(line: &str) -> Option<&str> {
    let start = line.find("\"status\": \"")? + "\"status\": \"".len();
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

/// Reference renders keyed by request, computed on first use.
pub struct References<'u> {
    u: &'u Universe,
    cache: HashMap<usize, String>,
}

impl<'u> References<'u> {
    /// An empty cache over a universe.
    pub fn new(u: &'u Universe) -> Self {
        References { u, cache: HashMap::new() }
    }

    /// The reference render of request `req`.
    pub fn get(&mut self, req: usize) -> &str {
        let u = self.u;
        self.cache.entry(req).or_insert_with(|| {
            let r = &u.mix.reqs[req];
            reference(&u.repo, &u.cache, &r.spec, r.reuse)
        })
    }

    /// Distinct reference solves performed.
    pub fn computed(&self) -> usize {
        self.cache.len()
    }
}

/// Check one solve response against its reference. Returns the failure reason, if
/// any.
pub fn check_solve(
    refs: &mut References<'_>,
    responses: &HashMap<String, (Instant, String)>,
    id: &str,
    req: usize,
) -> Option<String> {
    let Some((_, line)) = responses.get(id) else { return Some(format!("{id}: no response")) };
    match status(line) {
        Some("ok") | Some("unsat") => {}
        other => return Some(format!("{id}: status {other:?}")),
    }
    let got = loadgen::without_id(line, id);
    let spec = &refs.u.mix.reqs[req].spec;
    let want = refs.get(req);
    if got == want {
        None
    } else {
        Some(format!(
            "{id}: answer differs from the one-shot reference ({spec}): {}",
            loadgen::first_difference(&got, want)
        ))
    }
}

/// The open-loop phase as wire lines: ids `e<i>`.
pub fn schedule_lines(u: &Universe, events: &[Event]) -> Vec<(Duration, String)> {
    events.iter().enumerate().map(|(i, e)| (e.due, u.solve_line(&format!("e{i}"), e.req))).collect()
}

/// What one measured server run observed.
struct Observed {
    setup_s: f64,
    /// The factor of the set-ups' stretch.
    setup_factor: f64,
    warmed: bool,
    sent: Vec<Sent>,
    /// The factor of the open loop's stretch.
    factor: f64,
    /// Per burst: its start and the factor of its stretch.
    bursts: Vec<(Instant, f64)>,
    peak_rss_mb: Result<f64, String>,
}

/// Run `service_steady`.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    // Probe readings: `idle` before and after each set-up, while nothing else runs;
    // `busy` after each open-loop send and every `TICK` of a burst, one probe run
    // each (timed in the thread's CPU time, so a busy server does not stretch it).
    // The set-ups are one stretch, and so is the open loop: one set-up's readings,
    // or one request's, are too few to scale it by. Each burst is a stretch.
    let mut idle = Clock::new(PROBE_LOOPS);
    let mut busy = Clock::new(1);
    // Per set-up: wall time in seconds.
    let mut setups = Vec::new();
    for _ in 1..SETUP_REPS {
        let (u, synthesis) = Universe::new(seed);
        let t0 = Instant::now();
        let (warmed, _, _) = with_server(&u.repo, &u.cache, warm_up);
        if !warmed {
            return Err("the server did not answer its warm-up requests".into());
        }
        setups.push(synthesis + t0.elapsed().as_secs_f64());
        idle.tick();
    }
    let (u, synthesis) = Universe::new(seed);
    let events = gen::open_loop(&u.mix, seed, RATE, seconds);
    let lines = schedule_lines(&u, &events);
    // Largest closures first: the drain ends on small requests, so two workers
    // finish together and the tail of one big solve does not set the capacity.
    let mut burst: Vec<usize> = (0..u.mix.reqs.len()).collect();
    burst.sort_by_key(|&r| std::cmp::Reverse(u.mix.reqs[r].closure));
    let t0 = Instant::now();

    let (observed, server_stats, responses) = with_server(&u.repo, &u.cache, |c| {
        let warmed = warm_up(c);
        let setup_s = synthesis + t0.elapsed().as_secs_f64();
        let setup_factor = idle.factor();
        let start = Instant::now() + Duration::from_millis(20);
        busy.mark();
        let sent = c.open_loop_probed(start, &lines, &mut busy);
        c.wait_for((0..lines.len()).map(|i| format!("e{i}")), DRAIN_TIMEOUT);
        // The reading that ends the open loop's stretch starts the first burst's.
        let factor = busy.factor();
        // Bursts: the hot set admitted at once, one burst after the other.
        let mut bursts = Vec::new();
        for round in 0..BURSTS {
            let burst_start = Instant::now();
            for (i, &req) in burst.iter().enumerate() {
                c.send(u.solve_line(&format!("b{round}-{i}"), req));
            }
            let ids: Vec<String> = (0..burst.len()).map(|i| format!("b{round}-{i}")).collect();
            while !c.wait_for(&ids, TICK) && burst_start.elapsed() < DRAIN_TIMEOUT {
                busy.tick();
            }
            bursts.push((burst_start, busy.factor()));
        }
        let peak_rss_mb = stats::peak_rss_mb();
        Observed { setup_s, setup_factor, warmed, sent, factor, bursts, peak_rss_mb }
    });
    if !observed.warmed {
        return Err("the server did not answer its warm-up requests".into());
    }
    setups.push(observed.setup_s);

    // Answers: every solve against its one-shot reference.
    let mut refs = References::new(&u);
    let mut failures: Vec<String> = Vec::new();
    let mut attempted = 0usize;
    // Open-loop latencies in milliseconds, wall time.
    let mut wall = Vec::new();
    for (i, e) in events.iter().enumerate() {
        let id = format!("e{i}");
        attempted += 1;
        if let Some((at, _)) = responses.get(&id) {
            let ms = at.saturating_duration_since(observed.sent[i].due).as_secs_f64() * 1e3;
            wall.push(ms);
        }
        if let Some(f) = check_solve(&mut refs, &responses, &id, e.req) {
            failures.push(f);
        }
    }
    // Per burst: drain time in seconds, wall and at reference speed.
    let mut drains = Vec::new();
    for (round, &(burst_start, factor)) in observed.bursts.iter().enumerate() {
        let mut drain_end = burst_start;
        for (i, &req) in burst.iter().enumerate() {
            let id = format!("b{round}-{i}");
            attempted += 1;
            if let Some((at, _)) = responses.get(&id) {
                drain_end = drain_end.max(*at);
            }
            if let Some(f) = check_solve(&mut refs, &responses, &id, req) {
                failures.push(f);
            }
        }
        let drain = drain_end.saturating_duration_since(burst_start).as_secs_f64();
        drains.push((drain, drain * factor));
    }
    for (id, req) in [("w0", false), ("w1", true)] {
        attempted += 1;
        let want = reference(&u.repo, &u.cache, "zlib", req);
        match responses.get(id) {
            Some((_, line)) if loadgen::without_id(line, id) == want => {}
            _ => failures.push(format!("{id}: warm-up answer differs from the reference")),
        }
    }

    let solves: Vec<usize> = events.iter().map(|e| e.req).collect();
    let late = stats::sorted(observed.sent.iter().map(Sent::late_ms).collect());
    let late_p90 = stats::nearest_rank(&late, 0.9);
    if late_p90 > MAX_LATE_MS {
        failures.push(format!("the generator ran late: p90 {late_p90:.1} ms behind schedule"));
    }
    let wall = stats::sorted(wall);
    let scaled: Vec<f64> = wall.iter().map(|ms| ms * observed.factor).collect();
    let setup_wall = stats::median(&stats::sorted(setups.clone())).unwrap_or(0.0);
    let capacity = |drains: Vec<f64>| {
        burst.len() as f64 / stats::median(&stats::sorted(drains)).unwrap_or(0.0)
    };
    let probe = stats::sorted(idle.readings().iter().chain(busy.readings()).copied().collect());
    let report = vec![
        format!("traffic: {}", gen::traffic_report(&u.mix, &solves, &[])),
        format!(
            "open loop at {RATE}/s for {seconds}s: {} sent, {} answered; generator late p50 {:.2} ms, max {:.2} ms",
            observed.sent.len(),
            wall.len(),
            stats::median(&late).unwrap_or(0.0),
            late.last().copied().unwrap_or(0.0)
        ),
        format!("bursts: {BURSTS} x {} requests drained in {drains:.3?} s", burst.len()),
        format!(
            "server: {} shards, {} jobs completed, {} reference solves for the answer check",
            server_stats.shards.len(),
            server_stats.jobs_completed,
            refs.computed()
        ),
        format!("setup reps (s): {setups:.3?}"),
        format!(
            "wall time: {:.2} specs/s, p50 {:.1} ms, p90 {:.1} ms; setup {setup_wall:.3} s",
            capacity(drains.iter().map(|d| d.0).collect()),
            stats::median(&wall).unwrap_or(0.0),
            stats::nearest_rank(&wall, 0.9),
        ),
        format!(
            "probe: {} readings, median {:.3} ms (reference {} ms), quartiles {:.3?}; factors: set-up {:.3}, open loop {:.3}",
            probe.len(),
            stats::median(&probe).unwrap_or(0.0),
            calib::REFERENCE_MS,
            stats::quartiles(&probe).unwrap_or_default(),
            observed.setup_factor,
            observed.factor
        ),
    ];
    let metrics = vec![
        Metric::new("setup_s", setup_wall * observed.setup_factor, "s"),
        Metric::new("specs_per_s", capacity(drains.iter().map(|d| d.1).collect()), "1/s"),
        Metric::timing("latency_p50_ms", &scaled, 0.5)?,
        Metric::timing("latency_p90_ms", &scaled, 0.9)?,
        Metric::new("peak_rss_mb", observed.peak_rss_mb?, "MB"),
    ];
    Ok(Outcome { attempted, failures, metrics, report })
}
