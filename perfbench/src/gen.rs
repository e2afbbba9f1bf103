//! Seeded workload generation: the spec catalog drawn from the repository, the
//! request mixes of each workload, the open-loop arrival schedule and the update
//! cycle, plus the traffic report that describes what a seed produced.
//!
//! Every spec is built from names, versions and variants that exist in the
//! repository. Requests are drawn round-robin over closure-size strata (by
//! `possible_dependency_count`), so every prefix of a sequence has the same mix of
//! small and large problems. The workloads draw their requests with [`MIX_SEED`],
//! so every seed solves the same requests and seeds compare like with like; the
//! run's seed picks the order of every pass, the arrival jitter and the package the
//! updates publish to.

use std::collections::{BTreeSet, HashSet};
use std::time::Duration;

use spack_concretizer::BaseDelta;
use spack_repo::Repository;
use spack_spec::{VariantValue, Version};

/// Closure-size strata, as inclusive `possible_dependency_count` ranges. Requests are
/// drawn round-robin over the non-empty strata.
const STRATA: [(usize, usize); 7] =
    [(0, 2), (3, 25), (26, 41), (42, 47), (48, 56), (57, 65), (66, usize::MAX)];

/// The seed the workloads draw their requests with (the pins and the
/// unsatisfiable requirements), whatever the run's seed: a run's seed then changes
/// the order of the work, not the work.
pub const MIX_SEED: u64 = 1;

/// SplitMix64: a small, fully specified generator, so a seed means the same inputs
/// on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `stream` separates independent uses of one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (which must be positive).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform value in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One concretization request of a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    /// The abstract spec text.
    pub spec: String,
    /// Solve against the buildcache (the reuse shard)?
    pub reuse: bool,
    /// `possible_dependency_count` of the root.
    pub closure: usize,
    /// Built to be unsatisfiable (a dependency outside the root's closure).
    pub infeasible: bool,
}

/// A package of the catalog and the pins it admits. Every pin states the value the
/// solver would pick anyway (the preferred version, the default variant value), so
/// a pin changes the request and its requirement facts, not the problem's optimum:
/// with free pins a seed could swap a cheap solve for a costly one, and the sweep's
/// median moved by a quarter between seeds.
#[derive(Debug, Clone)]
struct Entry {
    name: String,
    closure: usize,
    /// Every declared version.
    versions: Vec<String>,
    /// The preferred version, if any.
    version: Option<String>,
    /// Variant settings equal to the defaults (`+x`, `~x`, `x=value`).
    defaults: Vec<String>,
    /// Unconditional, unconstrained direct dependencies with their preferred version.
    dep_pins: Vec<(String, String)>,
    /// The root's possible-dependency closure (names).
    reach: BTreeSet<String>,
}

/// Every non-virtual package of a repository, bucketed into closure-size strata.
pub struct Catalog {
    entries: Vec<Entry>,
    strata: Vec<Vec<usize>>,
}

impl Catalog {
    /// Build the catalog of `repo` (package order is the repository's name order).
    pub fn new(repo: &Repository) -> Self {
        let mut entries = Vec::new();
        for pkg in repo.packages() {
            let reach = repo.possible_dependencies(&[pkg.name.as_str()]);
            let versions = pkg.versions.iter().map(|v| v.version.to_string()).collect();
            let version = pkg.preferred_version().map(|v| v.to_string());
            let defaults = pkg
                .variants
                .iter()
                .map(|variant| match &variant.default {
                    VariantValue::Bool(true) => format!("+{}", variant.name),
                    VariantValue::Bool(false) => format!("~{}", variant.name),
                    value => format!(" {}={}", variant.name, value.as_str()),
                })
                .collect();
            let mut dep_pins: Vec<(String, String)> = Vec::new();
            for dep in &pkg.dependencies {
                let Some(name) = dep.spec.name.as_deref() else { continue };
                let unconstrained = dep.spec.to_string() == name && dep.when.to_string().is_empty();
                let preferred = repo.get(name).and_then(|d| d.preferred_version());
                if let (true, Some(v)) = (unconstrained, preferred) {
                    if !dep_pins.iter().any(|(n, _)| n == name) {
                        dep_pins.push((name.to_string(), v.to_string()));
                    }
                }
            }
            entries.push(Entry {
                name: pkg.name.clone(),
                closure: reach.len().saturating_sub(1),
                versions,
                version,
                defaults,
                dep_pins,
                reach,
            });
        }
        let strata = STRATA
            .iter()
            .map(|&(lo, hi)| {
                (0..entries.len())
                    .filter(|&i| (lo..=hi).contains(&entries[i].closure))
                    .collect::<Vec<usize>>()
            })
            .filter(|s| !s.is_empty())
            .collect();
        Catalog { entries, strata }
    }

    /// A satisfiable spec for entry `i`: the bare name, or one version, variant or
    /// dependency-version pin (see [`Entry`]).
    fn feasible_spec(&self, i: usize, rng: &mut Rng) -> String {
        let e = &self.entries[i];
        let roll = rng.below(20);
        match (roll, &e.version) {
            (8..=11, Some(v)) => return format!("{}@{v}", e.name),
            (12..=16, _) if !e.defaults.is_empty() => {
                return format!("{}{}", e.name, e.defaults[rng.below(e.defaults.len())])
            }
            (17.., _) if !e.dep_pins.is_empty() => {
                let (dep, v) = &e.dep_pins[rng.below(e.dep_pins.len())];
                return format!("{} ^{dep}@{v}", e.name);
            }
            _ => {}
        }
        e.name.clone()
    }

    /// An unsatisfiable spec for entry `i`: it requires a package that nothing in
    /// the root's closure can depend on.
    fn infeasible_spec(&self, i: usize, rng: &mut Rng) -> String {
        let e = &self.entries[i];
        let outside: Vec<&Entry> =
            self.entries.iter().filter(|o| !e.reach.contains(&o.name)).collect();
        let other = outside[rng.below(outside.len())];
        format!("{} ^{}", e.name, other.name)
    }

    /// Draw `per_stratum` packages from every stratum at evenly spaced closure ranks,
    /// with the reuse flag alternating along the stratum and `infeasible` of the
    /// draws (spread evenly over the strata) turned into unsatisfiable specs. The
    /// packages, their reuse flags and the unsatisfiable slots are the same for
    /// every seed; the seed picks the version, variant and dependency pins (as
    /// `pins` allows), and the unsatisfiable requirement. The workloads draw with
    /// [`MIX_SEED`].
    pub fn draw(&self, seed: u64, per_stratum: usize, infeasible: usize, pins: Pins) -> Mix {
        let mut rng = Rng::new(seed, 1);
        let strata_n = self.strata.len();
        let unsat_at: HashSet<(usize, usize)> = (0..infeasible)
            .map(|k| {
                let s = k * strata_n / infeasible.max(1);
                let slots = per_stratum.min(self.strata[s].len());
                (s, (slots / 2 + k / strata_n) % slots)
            })
            .collect();
        let mut reqs = Vec::new();
        let mut strata = Vec::new();
        for (s, members) in self.strata.iter().enumerate() {
            let mut ranked = members.clone();
            ranked.sort_by_key(|&i| (self.entries[i].closure, self.entries[i].name.clone()));
            let slots = per_stratum.min(ranked.len());
            let mut ids = Vec::new();
            for slot in 0..slots {
                let i = ranked[(2 * slot + 1) * ranked.len() / (2 * slots)];
                let infeasible = unsat_at.contains(&(s, slot));
                let reuse = (slot + s) % 2 == 1;
                let spec = if infeasible {
                    self.infeasible_spec(i, &mut rng)
                } else if pins == Pins::None {
                    self.entries[i].name.clone()
                } else {
                    self.feasible_spec(i, &mut rng)
                };
                ids.push(reqs.len());
                reqs.push(Req { spec, reuse, closure: self.entries[i].closure, infeasible });
            }
            strata.push(ids);
        }
        Mix { reqs, strata }
    }

    /// The update cycle of a seed: a leaf package whose declared versions are all
    /// newer than the [`ANCIENT`] ones, drawn from the closures of the mix's
    /// requests so the patches touch what the traffic solves. Leaf packages only:
    /// every seed's updates then cost about the same, instead of one seed patching a
    /// library half the hot set depends on.
    pub fn update_cycle(&self, mix: &Mix, seed: u64) -> UpdateCycle {
        let mut rng = Rng::new(seed, 2);
        let mut touched: Vec<&str> = Vec::new();
        for req in mix.reqs.iter().filter(|r| !r.infeasible) {
            let root = req.spec.split(['@', '~', '+', '^', ' ']).next().unwrap_or_default();
            if let Some(e) = self.entries.iter().find(|e| e.name == root) {
                touched.extend(e.reach.iter().map(String::as_str));
            }
        }
        touched.sort_unstable();
        touched.dedup();
        let oldest = Version::new(ANCIENT[0]);
        let publishable: Vec<&str> = touched
            .into_iter()
            .filter(|n| {
                self.entries.iter().find(|e| e.name == *n).is_some_and(|e| {
                    e.closure == 0 && e.versions.iter().all(|v| Version::new(v) > oldest)
                })
            })
            .collect();
        UpdateCycle { package: publishable[rng.below(publishable.len())].to_string() }
    }
}

/// Which feasible requests of a draw may carry a version, variant or dependency pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pins {
    /// Any of them.
    All,
    /// None: every feasible request names a bare package.
    None,
}

/// The versions every update cycle publishes (in this order) and yanks: each is
/// older than any declared version and than the ones published before it, so every
/// publish appends at the oldest end and shifts no preference weight (the
/// additions path).
pub const ANCIENT: [&str; 3] = ["0.0.3", "0.0.2", "0.0.1"];

/// The requests of a workload, grouped by stratum.
#[derive(Debug, Clone)]
pub struct Mix {
    /// Every distinct request.
    pub reqs: Vec<Req>,
    /// Request indices per non-empty stratum.
    pub strata: Vec<Vec<usize>>,
}

impl Mix {
    /// An endless request sequence: position `i` draws from stratum `i mod S`, and
    /// each stratum cycles through its requests in a fresh seeded order per pass.
    pub fn sequence(&self, seed: u64) -> Sequence {
        Sequence {
            rng: Rng::new(seed, 3),
            strata: self.strata.iter().filter(|s| !s.is_empty()).cloned().collect(),
            cursor: Vec::new(),
            position: 0,
        }
    }
}

/// See [`Mix::sequence`].
pub struct Sequence {
    rng: Rng,
    strata: Vec<Vec<usize>>,
    cursor: Vec<usize>,
    position: usize,
}

impl Iterator for Sequence {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.cursor.is_empty() {
            self.cursor = vec![0; self.strata.len()];
        }
        let s = self.position % self.strata.len();
        self.position += 1;
        if self.cursor[s] == 0 {
            let mut pass = self.strata[s].clone();
            self.rng.shuffle(&mut pass);
            self.strata[s] = pass;
        }
        let id = self.strata[s][self.cursor[s]];
        self.cursor[s] = (self.cursor[s] + 1) % self.strata[s].len();
        Some(id)
    }
}

/// The updates of a seed (see [`Catalog::update_cycle`]).
#[derive(Debug, Clone)]
pub struct UpdateCycle {
    /// Package that gets the [`ANCIENT`] versions published and yanked.
    pub package: String,
}

/// Updates per cycle: three publishes (the additions path), then one yank of all
/// three (the id-exact rebuild).
pub const CYCLE: usize = 4;

/// The kind of each update of a cycle, by position.
pub const UPDATE_KINDS: [&str; CYCLE] = ["publish", "publish", "publish", "yank"];

impl UpdateCycle {
    /// The update at cycle position `pos`. After every [`CYCLE`] updates the
    /// universe is the starting one again.
    pub fn delta(&self, pos: usize) -> BaseDelta {
        let version = |v: &str| (self.package.clone(), v.to_string());
        match pos % CYCLE {
            3 => {
                BaseDelta { remove_versions: ANCIENT.map(version).to_vec(), ..BaseDelta::default() }
            }
            p => BaseDelta { add_versions: vec![version(ANCIENT[p])], ..BaseDelta::default() },
        }
    }

    /// Does the update at `pos` only add facts?
    pub fn is_addition(pos: usize) -> bool {
        pos % CYCLE != 3
    }

    /// Every universe state of a cycle, derived from the starting one: state `k` has
    /// `k` ancient versions published, and follows `k` updates (modulo [`CYCLE`]).
    pub fn states(
        &self,
        repo: &Repository,
        cache: &spack_store::Database,
    ) -> Vec<(Repository, spack_store::Database)> {
        let mut states = vec![(repo.clone(), cache.clone())];
        for pos in 0..CYCLE - 1 {
            let (r, c) = &states[pos];
            let (nr, nc) = self.delta(pos).apply(r, Some(c));
            states.push((nr, nc.expect("a buildcache stays a buildcache")));
        }
        states
    }

    /// The wire line of the update at cycle position `pos`.
    pub fn line(&self, id: &str, pos: usize) -> String {
        let delta = self.delta(pos);
        let versions = |list: &[(String, String)]| {
            let items: Vec<String> = list
                .iter()
                .map(|(p, v)| format!("{{\"package\": \"{p}\", \"version\": \"{v}\"}}"))
                .collect();
            format!("[{}]", items.join(", "))
        };
        format!(
            "{{\"v\": 1, \"id\": \"{id}\", \"cmd\": \"update\", \"add_versions\": {}, \
             \"remove_versions\": {}}}",
            versions(&delta.add_versions),
            versions(&delta.remove_versions)
        )
    }
}

/// An arrival: when it is due (from the start of the phase) and which request of
/// the mix it asks to solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Due time, from the start of the open-loop phase.
    pub due: Duration,
    /// Index of the request in the mix.
    pub req: usize,
}

/// Open-loop arrivals at about `rate` per second over `seconds`, in whole passes
/// over the mix: `rate * seconds` rounded to a multiple of the mix's size (at least
/// one pass). When the strata are equal in size, as in the service's hot set, every
/// seed then sends every request equally often and only the order differs. Each gap
/// is the mean gap (`seconds` over the count) times a seeded factor uniform in
/// `[0.9, 1.1)`.
pub fn open_loop(mix: &Mix, seed: u64, rate: f64, seconds: f64) -> Vec<Event> {
    let size = mix.reqs.len();
    let count = ((rate * seconds / size as f64).round() as usize).max(1) * size;
    let gap = seconds / count as f64;
    let mut rng = Rng::new(seed, 4);
    let mut t = 0.0;
    mix.sequence(seed)
        .take(count)
        .map(|req| {
            t += gap * (0.9 + 0.2 * rng.unit());
            Event { due: Duration::from_secs_f64(t), req }
        })
        .collect()
}

/// The traffic properties of a request stream, printed for every run.
pub fn traffic_report(mix: &Mix, solves: &[usize], updates: &[usize]) -> String {
    let mut closures: Vec<f64> = solves.iter().map(|&i| mix.reqs[i].closure as f64).collect();
    closures.sort_by(f64::total_cmp);
    let (q1, q3) = crate::stats::quartiles(&closures).unwrap_or((0.0, 0.0));
    let q2 = crate::stats::median(&closures).unwrap_or(0.0);
    let n = solves.len().max(1) as f64;
    let mut seen = HashSet::new();
    let repeats = solves.iter().filter(|&&i| !seen.insert(i)).count();
    let unsat = solves.iter().filter(|&&i| mix.reqs[i].infeasible).count();
    let reuse = solves.iter().filter(|&&i| mix.reqs[i].reuse).count();
    let mix_text: Vec<String> = UPDATE_KINDS
        .iter()
        .enumerate()
        .filter(|(k, _)| !UPDATE_KINDS[..*k].contains(&UPDATE_KINDS[*k]))
        .map(|(_, name)| {
            let n = updates.iter().filter(|&&u| UPDATE_KINDS[u % CYCLE] == *name).count();
            format!("{name} {n}")
        })
        .collect();
    format!(
        "{} solves over {} distinct requests; closure quartiles {q1:.0}/{q2:.0}/{q3:.0}; \
         repeat share {:.2}; unsat share {:.2}; reuse share {:.2}; updates {} ({})",
        solves.len(),
        seen.len(),
        repeats as f64 / n,
        unsat as f64 / n,
        reuse as f64 / n,
        updates.len(),
        mix_text.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> (Repository, Catalog) {
        let repo = bench::workload_repo(bench::Scale::Smoke);
        let catalog = Catalog::new(&repo);
        (repo, catalog)
    }

    #[test]
    fn same_seed_same_inputs_and_other_seeds_differ() {
        let (_, cat) = catalog();
        let a = cat.draw(7, 4, 3, Pins::All);
        let b = cat.draw(7, 4, 3, Pins::All);
        assert_eq!(a.reqs, b.reqs);
        assert_ne!(a.reqs, cat.draw(8, 4, 3, Pins::All).reqs);
        let ea = open_loop(&a, 7, 10.0, 3.0);
        assert_eq!(ea, open_loop(&b, 7, 10.0, 3.0));
    }

    #[test]
    fn specs_use_only_names_versions_and_variants_of_the_repo() {
        let (repo, cat) = catalog();
        for seed in 0..20 {
            let mix = cat.draw(seed, 6, 4, if seed % 2 == 0 { Pins::All } else { Pins::None });
            assert_eq!(mix.reqs.iter().filter(|r| r.infeasible).count(), 4);
            for req in &mix.reqs {
                if seed % 2 == 1 && !req.infeasible {
                    assert!(!req.spec.contains(['@', '^', '+', '~', '=']), "{}", req.spec);
                }
                let spec = spack_spec::parse_spec(&req.spec).expect("generated specs parse");
                let root = repo.get(spec.name.as_deref().unwrap()).expect("root exists");
                for (v, value) in &spec.variants {
                    let def = root.variant(v).expect("generated variants exist");
                    assert_eq!(value, &def.default, "{}: pins state the default", req.spec);
                }
                for dep in &spec.dependencies {
                    let name = dep.name.as_deref().unwrap();
                    assert!(repo.get(name).is_some(), "{}: unknown dependency", req.spec);
                    let reachable =
                        repo.possible_dependencies(&[root.name.as_str()]).contains(name);
                    assert_eq!(reachable, !req.infeasible, "{}", req.spec);
                }
            }
        }
    }

    #[test]
    fn sequences_balance_the_strata_in_every_prefix() {
        let (_, cat) = catalog();
        let mix = cat.draw(3, 3, 1, Pins::All);
        let strata = mix.strata.len();
        let seq: Vec<usize> = mix.sequence(3).take(strata * 9).collect();
        for (pos, id) in seq.iter().enumerate() {
            assert!(mix.strata[pos % strata].contains(id));
        }
        // A whole pass visits every member of a stratum once.
        let first = &mix.strata[0];
        let visits: Vec<usize> = seq.iter().step_by(strata).take(first.len()).copied().collect();
        let mut sorted = visits.clone();
        sorted.sort_unstable();
        let mut want = first.clone();
        want.sort_unstable();
        assert_eq!(sorted, want);
    }

    #[test]
    fn update_cycles_return_to_the_starting_universe() {
        let (repo, cat) = catalog();
        let mix = cat.draw(5, 4, 1, Pins::None);
        let cycle = cat.update_cycle(&mix, 5);
        let cache = bench::service_buildcache(&repo, bench::Scale::Smoke);
        let states = cycle.states(&repo, &cache);
        assert_eq!(states.len(), CYCLE);
        let names = |x: &Repository| {
            x.packages().map(|p| format!("{}{:?}", p.name, p.versions)).collect::<Vec<_>>()
        };
        let (mut r, mut d) = (repo.clone(), Some(cache.clone()));
        for pos in 0..CYCLE {
            let delta = cycle.delta(pos);
            assert_eq!(delta.remove_versions.is_empty(), UpdateCycle::is_addition(pos));
            assert!(delta.install.is_empty() && delta.uninstall.is_empty());
            (r, d) = delta.apply(&r, d.as_ref());
            assert_eq!(names(&r), names(&states[(pos + 1) % CYCLE].0), "after update {pos}");
        }
        assert_eq!(names(&r), names(&repo));
        let hashes =
            |db: &spack_store::Database| db.iter().map(|x| x.hash.clone()).collect::<Vec<_>>();
        assert_eq!(hashes(d.as_ref().unwrap()), hashes(&cache));
        assert!(cycle.line("p0", 0).contains("\"add_versions\": [{\"package\""));
    }

    #[test]
    fn open_loop_arrivals_are_whole_passes_at_the_rate() {
        let (_, cat) = catalog();
        let mix = cat.draw(1, 2, 1, Pins::All);
        let events = open_loop(&mix, 1, 20.0, 5.0);
        let size = mix.reqs.len();
        assert_eq!(events.len() % size, 0);
        assert!(events.len().abs_diff(100) <= size / 2, "{} events", events.len());
        let gap = 5.0 / events.len() as f64;
        assert!(events.windows(2).all(|w| {
            let g = (w[1].due - w[0].due).as_secs_f64();
            (0.9 * gap - 1e-9..1.1 * gap).contains(&g)
        }));
    }
}
