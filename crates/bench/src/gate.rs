//! The benchmark report format and the perf-regression gate.
//!
//! Lives in the library (rather than the `bench` binary) so the gate's verdict logic
//! is unit-testable: the CI job's behaviour — per-group wall-clock comparison,
//! machine-independent counter deltas, warn-and-skip for groups absent from the
//! committed baseline, and the session-throughput ground-time and scope gates — is all
//! decided here from plain data.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use spack_concretizer::json::{self, Json};

/// One measured benchmark: identity, wall-clock, stage breakdown, engine counters.
#[derive(Debug, Clone)]
pub struct Record {
    /// Benchmark group (gating compares group sums).
    pub group: &'static str,
    /// Benchmark name within the group.
    pub bench: String,
    /// Samples taken.
    pub samples: usize,
    /// Mean wall clock over the samples.
    pub mean: Duration,
    /// Fastest sample.
    pub min: Duration,
    /// `(stage name, seconds)` pairs, from the last sample.
    pub stages: Vec<(&'static str, f64)>,
    /// `(counter name, value)` pairs, from the last sample.
    pub counters: Vec<(&'static str, u64)>,
}

/// One baseline record: the mean wall clock plus the engine counters.
#[derive(Debug)]
pub struct BaselineEntry {
    /// Mean wall clock, in seconds.
    pub mean_s: f64,
    /// Engine counters by name.
    pub counters: BTreeMap<String, u64>,
}

/// A parsed baseline report: `(group, bench)` → entry.
pub type Baseline = BTreeMap<(String, String), BaselineEntry>;

/// The engine counters the gate tracks next to wall clock: grounder instantiation
/// work (possible atoms, ground rules) and solver search work (conflicts,
/// propagations). Unlike wall clock these are machine-independent — the committed
/// baseline stays meaningful even when the runner fleet's absolute speed drifts — so a
/// regression here is a real algorithmic change, not scheduler noise.
pub const GATED_COUNTERS: [&str; 4] = ["atoms", "rules", "conflicts", "propagations"];

/// How far the summed [`GATED_COUNTERS`] of a group may grow over the baseline
/// (beyond an absolute slack of 256) before the gate fails.
pub const COUNTER_THRESHOLD: f64 = 1.6;

/// The largest session-mode / one-shot ratio of summed per-request grounding time
/// that [`session_ground_gate`] accepts: sessions must ground at least 25% less.
pub const SESSION_RATIO: f64 = 0.75;

/// The largest incremental-patch / full-re-freeze time ratio that
/// [`base_patch_gate`] accepts: a patch must be at least twice as fast.
pub const PATCH_RATIO: f64 = 0.5;

/// The regression gate: compare this run's per-group mean against a baseline report,
/// failing when any group regressed beyond `threshold` — and, next to the wall-clock
/// check, compare the [`GATED_COUNTERS`] deltas against [`COUNTER_THRESHOLD`] so
/// regressions show even when the runner fleet's absolute speed differs from the
/// machine that recorded the baseline. Only benches present in both reports count —
/// a group present in the current run but absent from the baseline is *warned about
/// and skipped* (never failed), so adding a new group does not require a flag-day
/// baseline refresh; counters absent from the baseline (older reports) are skipped
/// the same way. Returns `Ok(())` when the gate passes; `Err` carries the verdict.
pub fn compare_against_baseline(
    baseline: &Baseline,
    records: &[Record],
    threshold: f64,
) -> Result<(), String> {
    let mut groups: Vec<&str> = Vec::new();
    for r in records {
        if !groups.contains(&r.group) {
            groups.push(r.group);
        }
    }
    let mut failed = false;
    for group in groups {
        let mut current_sum = 0.0;
        let mut baseline_sum = 0.0;
        let mut compared = 0;
        // Per gated counter: summed (current, baseline) over benches carrying it.
        let mut counter_sums: Vec<(u64, u64)> = vec![(0, 0); GATED_COUNTERS.len()];
        for r in records.iter().filter(|r| r.group == group) {
            let Some(base) = baseline.get(&(group.to_string(), r.bench.clone())) else {
                continue;
            };
            current_sum += r.mean.as_secs_f64();
            baseline_sum += base.mean_s;
            compared += 1;
            for (ci, name) in GATED_COUNTERS.iter().enumerate() {
                let (Some(&base_v), Some(&(_, cur_v))) =
                    (base.counters.get(*name), r.counters.iter().find(|(n, _)| n == name))
                else {
                    continue;
                };
                counter_sums[ci].0 += cur_v;
                counter_sums[ci].1 += base_v;
            }
        }
        if compared == 0 || baseline_sum <= 0.0 {
            // Warn-and-skip: a group the committed baseline has never seen must not
            // fail the gate (it will enter the baseline at the next refresh).
            eprintln!("  {group:<28} WARNING: no baseline for this group — skipped");
            continue;
        }
        let ratio = current_sum / baseline_sum;
        let verdict = if ratio > threshold { "REGRESSED" } else { "ok" };
        eprintln!(
            "  {group:<28} {compared} benches  baseline {baseline_sum:.4}s  current {current_sum:.4}s  ratio {ratio:.2}x  {verdict}"
        );
        if ratio > threshold {
            failed = true;
        }
        let mut gated = 0;
        for (ci, name) in GATED_COUNTERS.iter().enumerate() {
            let (cur, base) = counter_sums[ci];
            if base == 0 && !baseline_has_counter(baseline, group, records, name) {
                continue; // counter absent from the baseline report
            }
            gated += 1;
            // Ratio gate with a small absolute slack: tiny bases (a zero- or
            // double-digit conflict count) make pure ratios meaningless, while a
            // zero-to-millions jump must still fail — so a counter regresses when it
            // exceeds BOTH the ratio threshold and base + 256.
            let limit = (base as f64 * COUNTER_THRESHOLD).max(base as f64 + 256.0);
            if cur as f64 > limit {
                let cratio = cur as f64 / (base.max(1)) as f64;
                eprintln!(
                    "  {group:<28}   counter {name}: baseline {base}  current {cur}  ratio {cratio:.2}x  REGRESSED"
                );
                failed = true;
            }
        }
        let current_has_gated = records.iter().any(|r| {
            r.group == group && r.counters.iter().any(|(n, v)| GATED_COUNTERS.contains(n) && *v > 0)
        });
        if gated == 0 && current_has_gated {
            // Loud, because silence here would quietly disable the machine-
            // independent half of the gate (e.g. a baseline whose counters object
            // failed to parse after a format change). Groups that never expose the
            // gated counters (like unsat_diagnostics) stay quiet.
            eprintln!(
                "  {group:<28}   WARNING: baseline carries no gated counters — counter gate \
                 inactive for this group"
            );
        }
    }
    if failed {
        Err(format!(
            "at least one group regressed beyond the wall-clock ({threshold:.2}x) or \
             counter ({COUNTER_THRESHOLD:.2}x) threshold"
        ))
    } else {
        Ok(())
    }
}

/// The session-throughput gate: within the *current* run, the summed per-request
/// grounding time of the session-mode mix must stay below the one-shot mix's by
/// [`SESSION_RATIO`]. Both benches measure the same spec list on the same machine in
/// the same process, so this gate is self-contained — it needs no baseline and is
/// immune to fleet-speed drift. Groups without both benches (e.g. an older report)
/// skip the gate with a warning.
pub fn session_ground_gate(records: &[Record]) -> Result<(), String> {
    let ground_us = |bench: &str| -> Option<u64> {
        records
            .iter()
            .find(|r| r.group == "session_throughput" && r.bench == bench)
            .and_then(|r| r.counters.iter().find(|(n, _)| *n == "ground_us").map(|&(_, v)| v))
    };
    let (Some(oneshot), Some(session)) = (ground_us("oneshot_mix"), ground_us("session_mix"))
    else {
        eprintln!("  session_throughput           WARNING: mix benches missing — gate skipped");
        return Ok(());
    };
    let actual = session as f64 / (oneshot as f64).max(1.0);
    eprintln!(
        "  session_throughput           ground time: one-shot {oneshot}us  session {session}us  \
         ratio {actual:.2}x (gate {SESSION_RATIO:.2}x)"
    );
    if actual > SESSION_RATIO {
        Err(format!(
            "session-mode per-request grounding ({session}us) is not below one-shot \
             ({oneshot}us) by the gated ratio {SESSION_RATIO:.2}"
        ))
    } else {
        Ok(())
    }
}

/// The session-scope gate: within the *current* run, the `session_mix` bench must
/// ground exactly as many atoms and rules as the `oneshot_mix` bench (summed over
/// the same request mix). A session request keeps exactly the facts a one-shot solve
/// of the same roots emits, so its program is the one-shot program; any difference
/// means the restriction dropped a true fact or kept an out-of-closure one. Counters
/// are machine-independent, so this needs no baseline. Reports without both benches
/// skip the gate with a warning.
pub fn session_scope_gate(records: &[Record]) -> Result<(), String> {
    let counters = |bench: &str| {
        records.iter().find(|r| r.group == "session_throughput" && r.bench == bench).map(|r| {
            let get = |name: &str| r.counters.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
            (get("atoms"), get("rules"))
        })
    };
    let (Some(oneshot), Some(session)) = (counters("oneshot_mix"), counters("session_mix")) else {
        eprintln!(
            "  session_throughput           WARNING: mix benches missing — scope gate skipped"
        );
        return Ok(());
    };
    eprintln!(
        "  session_throughput           scope: one-shot {:?} atoms/rules, session {:?} (gate: equal)",
        oneshot, session
    );
    if oneshot == session {
        Ok(())
    } else {
        Err(format!(
            "session-mode requests ground {session:?} atoms/rules where one-shot solves ground              {oneshot:?}: a session must ground exactly the one-shot program"
        ))
    }
}

/// The base-update gate: within the *current* run, one incremental base patch (the
/// `base_update/incremental_patch` mean divided by its `patches` counter — the bench
/// applies a publish + yank round trip per sample) must stay below the
/// `base_update/full_refreeze` mean by [`PATCH_RATIO`] (at least twice as fast as
/// freezing the post-delta universe from scratch). Both benches run on the same
/// workload in the same process, so like [`session_ground_gate`] this needs no
/// baseline and is immune to fleet-speed drift. Reports without both benches skip
/// the gate with a warning.
pub fn base_patch_gate(records: &[Record]) -> Result<(), String> {
    let find = |bench: &str| records.iter().find(|r| r.group == "base_update" && r.bench == bench);
    let (Some(patch), Some(refreeze)) = (find("incremental_patch"), find("full_refreeze")) else {
        eprintln!("  base_update                  WARNING: patch benches missing — gate skipped");
        return Ok(());
    };
    let patches =
        patch.counters.iter().find(|(n, _)| *n == "patches").map(|&(_, v)| v).unwrap_or(1).max(1);
    let per_patch = patch.mean.as_secs_f64() / patches as f64;
    let full = refreeze.mean.as_secs_f64();
    let actual = per_patch / full.max(1e-9);
    eprintln!(
        "  base_update                  per patch {:.1}ms  full re-freeze {:.1}ms  \
         ratio {actual:.2}x (gate {PATCH_RATIO:.2}x)",
        per_patch * 1e3,
        full * 1e3
    );
    if actual > PATCH_RATIO {
        Err(format!(
            "an incremental base patch ({:.1}ms) is not below a full re-freeze ({:.1}ms) \
             by the gated ratio {PATCH_RATIO:.2}",
            per_patch * 1e3,
            full * 1e3
        ))
    } else {
        Ok(())
    }
}

/// Does the baseline carry `name` (even at value zero) for any bench of `group` that
/// this run also measured? Distinguishes "recorded as zero" (gate with the absolute
/// slack) from "absent from the report" (skip).
fn baseline_has_counter(baseline: &Baseline, group: &str, records: &[Record], name: &str) -> bool {
    records.iter().filter(|r| r.group == group).any(|r| {
        baseline
            .get(&(group.to_string(), r.bench.clone()))
            .is_some_and(|b| b.counters.contains_key(name))
    })
}

/// Parse a report produced by [`render_json`] into a [`Baseline`]. Every entry of
/// `results` needs `group` and `bench` strings and a numeric `mean_s`; counters that
/// are not unsigned integers are skipped. `Err` names what is malformed.
pub fn parse_report(text: &str) -> Result<Baseline, String> {
    let report = json::parse(text).map_err(|e| format!("malformed report: {e}"))?;
    let results = report
        .get("results")
        .and_then(Json::as_array)
        .ok_or("malformed report: no 'results' array")?;
    let mut map = BTreeMap::new();
    for (i, result) in results.iter().enumerate() {
        let field = |key: &str| result.get(key).and_then(Json::as_str).map(str::to_string);
        let (Some(group), Some(bench), Some(mean_s)) =
            (field("group"), field("bench"), result.get("mean_s").and_then(Json::as_f64))
        else {
            return Err(format!("malformed report: result {i} lacks group, bench or mean_s"));
        };
        let counters = result
            .get("counters")
            .and_then(Json::as_object)
            .unwrap_or_default()
            .iter()
            .filter_map(|(name, value)| Some((name.clone(), value.as_u64()?)))
            .collect();
        map.insert((group, bench), BaselineEntry { mean_s, counters });
    }
    Ok(map)
}

/// Render a set of records as the line-oriented JSON report the gate parses back.
pub fn render_json(label: &str, scale: &str, records: &[Record]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    writeln!(s, "  \"harness\": \"{}\",", env!("CARGO_PKG_VERSION")).unwrap();
    writeln!(s, "  \"label\": \"{label}\",").unwrap();
    writeln!(s, "  \"scale\": \"{scale}\",").unwrap();
    s.push_str("  \"results\": [\n");
    for (i, r) in records.iter().enumerate() {
        s.push_str("    {");
        write!(
            s,
            "\"group\": \"{}\", \"bench\": \"{}\", \"samples\": {}, \"mean_s\": {:.6}, \"min_s\": {:.6}",
            r.group,
            r.bench,
            r.samples,
            r.mean.as_secs_f64(),
            r.min.as_secs_f64()
        )
        .unwrap();
        s.push_str(", \"stages\": {");
        for (j, (name, secs)) in r.stages.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            write!(s, "\"{name}\": {secs:.6}").unwrap();
        }
        s.push_str("}, \"counters\": {");
        for (j, (name, value)) in r.counters.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            write!(s, "\"{name}\": {value}").unwrap();
        }
        s.push_str("}}");
        s.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(
        group: &'static str,
        bench: &str,
        mean_s: f64,
        counters: &[(&'static str, u64)],
    ) -> Record {
        Record {
            group,
            bench: bench.to_string(),
            samples: 3,
            mean: Duration::from_secs_f64(mean_s),
            min: Duration::from_secs_f64(mean_s),
            stages: Vec::new(),
            counters: counters.to_vec(),
        }
    }

    fn roundtrip(records: &[Record]) -> Baseline {
        parse_report(&render_json("test", "small", records)).expect("a rendered report parses")
    }

    #[test]
    fn report_roundtrips_through_json() {
        let records =
            [record("g", "b", 0.5, &[("atoms", 100), ("rules", 200), ("propagations", 42)])];
        let base = roundtrip(&records);
        let entry = base.get(&("g".to_string(), "b".to_string())).expect("parsed");
        assert!((entry.mean_s - 0.5).abs() < 1e-6);
        assert_eq!(entry.counters.get("atoms"), Some(&100));
        assert_eq!(entry.counters.get("propagations"), Some(&42));
    }

    #[test]
    fn committed_baseline_parses() {
        let text =
            include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline_small.json"));
        let baseline = parse_report(text).expect("the committed baseline parses");
        assert!(!baseline.is_empty());
        for ((group, bench), entry) in &baseline {
            assert!(entry.mean_s > 0.0, "{group}/{bench}: mean_s {}", entry.mean_s);
        }
    }

    #[test]
    fn malformed_reports_are_errors() {
        assert!(parse_report("").is_err());
        assert!(parse_report(r#"{"label": "x"}"#).is_err());
        assert!(parse_report(r#"{"results": [{"group": "g", "bench": "b"}]}"#).is_err());
        let empty = parse_report(r#"{"results": []}"#).expect("no results is well-formed");
        assert!(empty.is_empty());
    }

    #[test]
    fn new_groups_warn_and_skip_instead_of_failing() {
        // The committed baseline knows nothing about session_throughput: the gate
        // must pass anyway (no flag-day baseline refresh required to add a group).
        let baseline = roundtrip(&[record("old_group", "b", 0.1, &[("atoms", 1000)])]);
        let current = [
            record("old_group", "b", 0.1, &[("atoms", 1000)]),
            record("session_throughput", "oneshot_mix", 9.9, &[("atoms", 999_999)]),
        ];
        assert!(compare_against_baseline(&baseline, &current, 1.25).is_ok());
    }

    #[test]
    fn wall_clock_regression_fails() {
        let baseline = roundtrip(&[record("g", "b", 0.1, &[])]);
        let current = [record("g", "b", 0.2, &[])];
        assert!(compare_against_baseline(&baseline, &current, 1.25).is_err());
        // Within threshold passes.
        let current = [record("g", "b", 0.11, &[])];
        assert!(compare_against_baseline(&baseline, &current, 1.25).is_ok());
    }

    #[test]
    fn counter_regression_fails_even_with_fast_wall_clock() {
        let baseline = roundtrip(&[record("g", "b", 0.1, &[("propagations", 10_000)])]);
        // Faster wall clock (a faster machine), but 3x the propagations: algorithmic
        // regression — must fail.
        let current = [record("g", "b", 0.05, &[("propagations", 30_000)])];
        assert!(compare_against_baseline(&baseline, &current, 1.25).is_err());
    }

    #[test]
    fn session_scope_gate_verdicts() {
        let mix = |bench, atoms, rules| {
            record("session_throughput", bench, 1.0, &[("atoms", atoms), ("rules", rules)])
        };
        let equal = [mix("oneshot_mix", 500, 900), mix("session_mix", 500, 900)];
        assert!(session_scope_gate(&equal).is_ok());
        let more_atoms = [mix("oneshot_mix", 500, 900), mix("session_mix", 1000, 900)];
        assert!(session_scope_gate(&more_atoms).is_err());
        let fewer_rules = [mix("oneshot_mix", 500, 900), mix("session_mix", 500, 899)];
        assert!(session_scope_gate(&fewer_rules).is_err());
        let no_counters =
            [record("session_throughput", "oneshot_mix", 1.0, &[]), mix("session_mix", 500, 900)];
        assert!(session_scope_gate(&no_counters).is_err(), "a missing counter is a mismatch");
        assert!(session_scope_gate(&[]).is_ok(), "reports without the mix skip the gate");
    }

    #[test]
    fn session_ground_gate_verdicts() {
        let ok = [
            record("session_throughput", "oneshot_mix", 1.0, &[("ground_us", 100_000)]),
            record("session_throughput", "session_mix", 1.0, &[("ground_us", 50_000)]),
        ];
        assert!(session_ground_gate(&ok).is_ok());
        let bad = [
            record("session_throughput", "oneshot_mix", 1.0, &[("ground_us", 100_000)]),
            record("session_throughput", "session_mix", 1.0, &[("ground_us", 90_000)]),
        ];
        assert!(session_ground_gate(&bad).is_err());
        // Missing benches: skip, never fail.
        assert!(session_ground_gate(&[]).is_ok());
    }

    #[test]
    fn base_patch_gate_verdicts() {
        // 0.08s over 2 patches = 40ms per patch vs a 100ms re-freeze: 0.4x passes.
        let ok = [
            record("base_update", "full_refreeze", 0.1, &[]),
            record("base_update", "incremental_patch", 0.08, &[("patches", 2)]),
        ];
        assert!(base_patch_gate(&ok).is_ok());
        // 60ms per patch vs 100ms: 0.6x fails the 0.5x gate.
        let bad = [
            record("base_update", "full_refreeze", 0.1, &[]),
            record("base_update", "incremental_patch", 0.12, &[("patches", 2)]),
        ];
        assert!(base_patch_gate(&bad).is_err());
        // Without the patches counter the mean counts as one patch.
        let one = [
            record("base_update", "full_refreeze", 0.1, &[]),
            record("base_update", "incremental_patch", 0.04, &[]),
        ];
        assert!(base_patch_gate(&one).is_ok());
        // Missing benches: skip, never fail.
        assert!(base_patch_gate(&[]).is_ok());
    }
}
