//! Durable batch concretization: checkpoint/resume, dead-letter queue, retries.
//!
//! `spack-solve batch --state-dir <dir>` must survive a SIGKILL at any instant and
//! bound its worst case. This module is the persistence and policy layer behind that:
//!
//! * **Checkpoint/resume** — a [`StateDir`] holds a `manifest.json` (digest of the
//!   batch input + options, so a state dir cannot be resumed against a different
//!   batch) and one record file per item under `items/`, written *after* each
//!   concretization via atomic temp-file + rename ([`StateDir::store`]). A re-run
//!   loads completed records ([`StateDir::load`]) and re-solves only the missing or
//!   corrupt ones; each record carries the fully rendered per-line output, so a
//!   resumed run replays byte-identical stdout.
//! * **Crash consistency** — every record embeds a checksum over its own rendering;
//!   a truncated or bit-flipped record fails verification and is treated exactly
//!   like a missing one (re-solved, counted in [`BatchCounters::corrupt`]) — never
//!   silently skipped, never double-counted.
//! * **Dead-letter queue** — items that did not produce an optimal DAG (unsat,
//!   parse failure, budget exhaustion, internal error/panic) are routed to
//!   `<state-dir>/dlq.jsonl`, one JSON object per item with its failure class and
//!   full [`crate::Diagnostic`] report, regenerated in input order at
//!   the end of every run so the file is deterministic.
//! * **Retry policy** — a budget-exhausted item is retried up to a configurable
//!   number of times with a diversified solver seed and a doubled budget
//!   ([`asp::SolveBudget::doubled`]) before it is finally dead-lettered.
//!
//! The failure classes map onto the batch exit-code contract (worst class wins):
//! `0` all solved, `1` pipeline error, `2` unsatisfiable, `3` spec parse error,
//! `4` budget exhausted, `5` internal error.

use std::hash::Hasher;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use asp::hasher::FxHasher;
use rayon::prelude::*;
use spack_spec::parse_spec;

use crate::json::{self, Json};
use crate::server::wire::SolveResponse;
use crate::session::panic_message;
use crate::{Concretization, ConcretizeError, ConcretizerSession, ResultClass};

/// Format version stamped into manifests and records; bumped on layout changes so a
/// state dir from a different format is rejected instead of misparsed.
const FORMAT_VERSION: u64 = 1;

/// Seed-diversification constant for budget retries: the 64-bit golden-ratio
/// multiplier (Fibonacci hashing), so successive attempts draw well-spread seeds.
const SEED_DIVERSIFIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// How one batch item ended up. Since the worst-class taxonomy moved into the
/// crate root as [`ResultClass`] (one source of truth shared with the server's
/// response `status` field and [`ConcretizeError::class`]), this is an alias kept
/// for API continuity — `ItemClass::exit_code`, `ItemClass::as_str`, and the
/// variants resolve through it unchanged.
pub type ItemClass = ResultClass;

/// The durable result of one batch item: everything needed to replay its output and
/// DLQ entry on resume without re-solving.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemRecord {
    /// Position in the filtered batch input (record files are keyed by this).
    pub index: usize,
    /// 1-based line number in the original input file (comments and blank lines
    /// count, so the number is actionable in an editor).
    pub lineno: usize,
    /// The spec text exactly as read from the input line.
    pub spec: String,
    /// Failure class (or [`ItemClass::Ok`]).
    pub class: ItemClass,
    /// Budget retries consumed by this item.
    pub retries: u32,
    /// The fully rendered per-line stdout output; stored so a resumed run's stdout
    /// is byte-identical to an uninterrupted run's.
    pub output: String,
    /// The rendered `dlq.jsonl` entry for this item, when dead-lettered.
    pub dlq: Option<String>,
}

/// Aggregate counters of one batch run, reported by `spack-solve batch --stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchCounters {
    /// Items that concretized to an optimal DAG.
    pub solved: u64,
    /// Items that were unsatisfiable.
    pub unsat: u64,
    /// Items whose spec text did not parse.
    pub parse_errors: u64,
    /// Items whose solve budget ran out (after retries).
    pub budget: u64,
    /// Items that hit an internal error or an isolated panic.
    pub internal: u64,
    /// Budget retries performed across all items.
    pub retries: u64,
    /// Items routed to the dead-letter queue (every non-`Ok` item).
    pub dead_lettered: u64,
    /// Items replayed from checkpoint records instead of re-solved.
    pub resumed: u64,
    /// Checkpoint records that failed verification and were re-solved.
    pub corrupt: u64,
}

/// The outcome of [`run_batch`]: per-item records in input order plus counters.
#[derive(Debug)]
pub struct BatchOutcome {
    /// One record per input item, in input order.
    pub records: Vec<ItemRecord>,
    /// Aggregate counters (resume/retry/DLQ accounting included).
    pub counters: BatchCounters,
}

impl BatchOutcome {
    /// The batch exit code: `0` when every item solved, otherwise the worst
    /// per-item class code (`2` unsat < `3` parse < `4` budget < `5` internal).
    pub fn exit_code(&self) -> u8 {
        self.records.iter().map(|r| r.class.exit_code()).max().unwrap_or(0)
    }
}

/// What loading a checkpoint record produced.
#[derive(Debug)]
pub enum Loaded {
    /// No record on disk: the item has not completed yet.
    Missing,
    /// A record exists but failed parsing or checksum verification (e.g. truncated
    /// by a crash that beat the rename, or bit-flipped): treated as missing.
    Corrupt,
    /// A verified record, ready to replay.
    Ready(ItemRecord),
}

/// A batch checkpoint directory: `manifest.json`, per-item records under `items/`,
/// and the dead-letter queue `dlq.jsonl`. All writes are atomic (temp + rename), so
/// a SIGKILL at any instant leaves every file either absent, whole, or detectably
/// truncated (the temp file — ignored on load).
#[derive(Debug)]
pub struct StateDir {
    root: PathBuf,
    /// Test hook: abort the process after this many records have been stored
    /// (`SPACK_SOLVE_BATCH_KILL_AFTER`), simulating a SIGKILL mid-batch for the
    /// kill-and-resume harness.
    kill_after: Option<u64>,
    stored: AtomicU64,
}

impl StateDir {
    /// Open (or create) a state directory for a batch identified by `digest` — a
    /// hash of the batch's input lines and result-affecting options. An existing
    /// manifest with a different digest is a hard error: resuming a state dir
    /// against a different batch would silently mix results.
    pub fn open(root: &Path, digest: u64, items: usize, options: &str) -> Result<Self, String> {
        std::fs::create_dir_all(root.join("items"))
            .map_err(|e| format!("cannot create state dir {}: {e}", root.display()))?;
        let manifest = format!(
            "{{\"v\": {FORMAT_VERSION}, \"digest\": \"{digest:016x}\", \"items\": {items}, \
             \"options\": \"{}\"}}\n",
            json::escape(options)
        );
        let path = root.join("manifest.json");
        match std::fs::read_to_string(&path) {
            Ok(existing) => {
                if existing != manifest {
                    return Err(format!(
                        "state dir {} belongs to a different batch (manifest mismatch); \
                         use a fresh --state-dir or delete it",
                        root.display()
                    ));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                atomic_write(&path, &manifest)
                    .map_err(|e| format!("cannot write manifest: {e}"))?;
            }
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        }
        let kill_after =
            std::env::var("SPACK_SOLVE_BATCH_KILL_AFTER").ok().and_then(|v| v.parse().ok());
        Ok(StateDir { root: root.to_path_buf(), kill_after, stored: AtomicU64::new(0) })
    }

    fn record_path(&self, index: usize) -> PathBuf {
        self.root.join("items").join(format!("{index}.json"))
    }

    /// Path of the dead-letter queue file.
    pub fn dlq_path(&self) -> PathBuf {
        self.root.join("dlq.jsonl")
    }

    /// Load the checkpoint record of item `index`, verifying its checksum.
    pub fn load(&self, index: usize) -> Loaded {
        match std::fs::read_to_string(self.record_path(index)) {
            Ok(text) => match parse_record(&text) {
                Some(record) if record.index == index => Loaded::Ready(record),
                _ => Loaded::Corrupt,
            },
            Err(e) if e.kind() == io::ErrorKind::NotFound => Loaded::Missing,
            Err(_) => Loaded::Corrupt,
        }
    }

    /// Persist one item record atomically, then fire the kill-after test hook if
    /// armed (aborting the process the way a SIGKILL would, *after* the rename —
    /// the record itself is durable, everything after it is lost).
    pub fn store(&self, record: &ItemRecord) -> io::Result<()> {
        atomic_write(&self.record_path(record.index), &render_record(record))?;
        let stored = self.stored.fetch_add(1, Ordering::SeqCst) + 1;
        if self.kill_after.is_some_and(|n| stored >= n) {
            std::process::abort();
        }
        Ok(())
    }

    /// Regenerate `dlq.jsonl` from the completed records, in input order (the file
    /// is deterministic: resumed and uninterrupted runs produce identical bytes).
    pub fn write_dlq(&self, records: &[ItemRecord]) -> io::Result<()> {
        let mut text = String::new();
        for record in records {
            if let Some(entry) = &record.dlq {
                text.push_str(entry);
                text.push('\n');
            }
        }
        atomic_write(&self.dlq_path(), &text)
    }
}

/// Write `contents` to `path` atomically: write a sibling temp file, flush it, then
/// rename over the destination. A crash mid-write leaves only the temp file; the
/// destination is never observed half-written.
fn atomic_write(path: &Path, contents: &str) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// Run a batch of `(lineno, spec-text)` items on a session: resume from `state`
/// when given, solve what is missing (in parallel), checkpoint each result, retry
/// budget exhaustions per `retries`, and regenerate the DLQ. With `json` the
/// per-line output is the server's [`SolveResponse`] wire rendering (id = item
/// index) instead of the human format — byte-identical to what `spack-solved`
/// answers for the same spec and options. `Err` is a pipeline error (state-dir
/// I/O) — distinct from any per-item failure.
pub fn run_batch(
    session: &ConcretizerSession<'_>,
    items: &[(usize, String)],
    retries: u32,
    state: Option<&StateDir>,
    json: bool,
) -> Result<BatchOutcome, String> {
    let indices: Vec<usize> = (0..items.len()).collect();
    let results: Vec<Result<(ItemRecord, bool, bool), String>> = indices
        .par_iter()
        .map(|&index| {
            let (lineno, text) = &items[index];
            let mut corrupt = false;
            if let Some(state) = state {
                match state.load(index) {
                    Loaded::Ready(record) => return Ok((record, true, false)),
                    Loaded::Corrupt => corrupt = true,
                    Loaded::Missing => {}
                }
            }
            let record = solve_item(session, index, *lineno, text, retries, json);
            if let Some(state) = state {
                state.store(&record).map_err(|e| format!("cannot checkpoint item {index}: {e}"))?;
            }
            Ok((record, false, corrupt))
        })
        .collect();

    let mut records = Vec::with_capacity(results.len());
    let mut counters = BatchCounters::default();
    for result in results {
        let (record, resumed, corrupt) = result?;
        match record.class {
            ItemClass::Ok => counters.solved += 1,
            ItemClass::Unsat => counters.unsat += 1,
            ItemClass::Parse => counters.parse_errors += 1,
            ItemClass::Budget => counters.budget += 1,
            ItemClass::Internal => counters.internal += 1,
        }
        counters.retries += u64::from(record.retries);
        counters.dead_lettered += u64::from(record.dlq.is_some());
        counters.resumed += u64::from(resumed);
        counters.corrupt += u64::from(corrupt);
        records.push(record);
    }
    if let Some(state) = state {
        state.write_dlq(&records).map_err(|e| format!("cannot write dlq.jsonl: {e}"))?;
    }
    Ok(BatchOutcome { records, counters })
}

/// Concretize `roots` on the session with panic isolation and the batch retry
/// policy: a budget-exhausted solve is retried up to `retries` times, each
/// attempt with a diversified solver seed (the attempt number times a golden-ratio
/// constant, XORed in) and a doubled budget ([`asp::SolveBudget::doubled`] per
/// attempt). `tune` is applied to every
/// attempt's solver configuration *before* the retry diversification — the
/// server threads per-request wire options through it; the batch runner passes
/// a no-op. Returns the final result and the retries consumed.
pub fn solve_with_retries(
    session: &ConcretizerSession<'_>,
    roots: &[spack_spec::Spec],
    tune: &dyn Fn(&mut asp::SolverConfig),
    retries: u32,
) -> (Result<Concretization, ConcretizeError>, u32) {
    let mut attempt: u32 = 0;
    loop {
        let solved = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.concretize_tuned(roots, |cfg| {
                tune(cfg);
                if attempt > 0 {
                    cfg.seed ^= u64::from(attempt).wrapping_mul(SEED_DIVERSIFIER);
                    if let Some(budget) = cfg.budget {
                        let mut escalated = budget;
                        for _ in 0..attempt {
                            escalated = escalated.doubled();
                        }
                        cfg.budget = Some(escalated);
                    }
                }
            })
        }))
        .unwrap_or_else(|payload| Err(ConcretizeError::Internal(panic_message(payload))));
        match solved {
            Err(ConcretizeError::Budget { .. }) if attempt < retries => attempt += 1,
            other => return (other, attempt),
        }
    }
}

/// Solve one item end to end: parse, concretize (panic-isolated, budget retries
/// via [`solve_with_retries`]), and render the per-line output (human or wire
/// JSON) and DLQ entry. Output and DLQ share one [`SolveResponse`] value — the
/// DLQ entry is the same rendering with the input `lineno` added.
fn solve_item(
    session: &ConcretizerSession<'_>,
    index: usize,
    lineno: usize,
    text: &str,
    retries: u32,
    json: bool,
) -> ItemRecord {
    let id = index.to_string();
    let (response, human) = match parse_spec(text) {
        Err(e) => {
            // Satellite bugfix (PR 7): parse failures report the input line number
            // and do not stop the batch — and they are a distinct class from unsat
            // and internal errors in both the per-line output and the exit code.
            let response = SolveResponse::failure(&id, text, ResultClass::Parse, &e.to_string());
            (response, format!("parse  {text}: {e} (line {lineno})"))
        }
        Ok(spec) => {
            let (result, attempt) =
                solve_with_retries(session, std::slice::from_ref(&spec), &|_| {}, retries);
            let response = SolveResponse::from_result(&id, text, &result, attempt);
            let human = match &result {
                Ok(c) => format!(
                    "ok     {text} -> {} packages ({} reused, {} to build)",
                    c.spec.len(),
                    c.reuse_count(),
                    c.build_count()
                ),
                Err(ConcretizeError::Unsatisfiable { diagnostics, .. }) => {
                    let first = diagnostics.first().map(|d| d.message.clone()).unwrap_or_default();
                    format!("UNSAT  {text}: {first}")
                }
                Err(ConcretizeError::Budget { partial_best, .. }) => match partial_best {
                    Some(c) => format!(
                        "budget {text}: non-optimal model proven ({} packages) before the budget ran out",
                        c.spec.len()
                    ),
                    None => format!("budget {text}: budget exhausted before any model was found"),
                },
                Err(e) if e.class() == ResultClass::Parse => format!("parse  {text}: {e}"),
                Err(e) => format!("error  {text}: {e}"),
            };
            (response, human)
        }
    };
    let class = response.status;
    let retries_used = response.retries;
    let output = if json { response.render() } else { human };
    let dlq = (class != ItemClass::Ok).then(|| {
        let mut entry = response.clone();
        entry.lineno = Some(lineno);
        entry.render()
    });
    ItemRecord { index, lineno, spec: text.to_string(), class, retries: retries_used, output, dlq }
}

/// Digest of a batch's identity: its `(lineno, spec)` items plus the
/// result-affecting options descriptor. Used as the manifest key that prevents a
/// state dir from being resumed against a different batch.
pub fn batch_digest(items: &[(usize, String)], options: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write_usize(items.len());
    for (lineno, text) in items {
        h.write_usize(*lineno);
        h.write(text.as_bytes());
        h.write_u8(0xff);
    }
    h.write(options.as_bytes());
    h.finish()
}

/// Render a record as a single JSON line ending in a checksum over everything
/// before it, so truncation and corruption are detectable on load.
fn render_record(record: &ItemRecord) -> String {
    let dlq = match &record.dlq {
        Some(entry) => format!("\"{}\"", json::escape(entry)),
        None => "null".to_string(),
    };
    let body = format!(
        "{{\"v\": {FORMAT_VERSION}, \"index\": {}, \"lineno\": {}, \"spec\": \"{}\", \
         \"class\": \"{}\", \"retries\": {}, \"output\": \"{}\", \"dlq\": {dlq}",
        record.index,
        record.lineno,
        json::escape(&record.spec),
        record.class.as_str(),
        record.retries,
        json::escape(&record.output),
    );
    let mut h = FxHasher::default();
    h.write(body.as_bytes());
    format!("{body}, \"checksum\": \"{:016x}\"}}\n", h.finish())
}

/// Parse and verify a record rendered by [`render_record`]. `None` means corrupt
/// (truncated, bit-flipped, or from an incompatible format version). The checksum
/// is verified on the raw text first; only a record that passes is parsed.
fn parse_record(text: &str) -> Option<ItemRecord> {
    let line = text.strip_suffix('\n')?;
    let (body, tail) = line.rsplit_once(", \"checksum\": \"")?;
    let checksum = tail.strip_suffix("\"}")?;
    let mut h = FxHasher::default();
    h.write(body.as_bytes());
    if format!("{:016x}", h.finish()) != checksum {
        return None;
    }
    let record = json::parse(line).ok()?;
    if record.get("v")?.as_u64()? != FORMAT_VERSION {
        return None;
    }
    let uint = |key: &str| record.get(key)?.as_u64();
    let string = |key: &str| record.get(key)?.as_str().map(str::to_string);
    let dlq = match record.get("dlq")? {
        Json::Null => None,
        entry => Some(entry.as_str()?.to_string()),
    };
    Some(ItemRecord {
        index: usize::try_from(uint("index")?).ok()?,
        lineno: usize::try_from(uint("lineno")?).ok()?,
        spec: string("spec")?,
        class: ItemClass::from_wire(record.get("class")?.as_str()?)?,
        retries: u32::try_from(uint("retries")?).ok()?,
        output: string("output")?,
        dlq,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record() -> ItemRecord {
        let mut entry = SolveResponse::failure(
            "3",
            "zlib@9.9",
            ItemClass::Unsat,
            "no valid configuration exists",
        );
        entry.retries = 2;
        entry.lineno = Some(7);
        entry.diagnostics = vec![crate::diagnose::structural_diagnostic("zlib@9.9")];
        ItemRecord {
            index: 3,
            lineno: 7,
            spec: "zlib@\"weird\\spec\"\ttext".to_string(),
            class: ItemClass::Unsat,
            retries: 2,
            output: "UNSAT  zlib@9.9: no known version".to_string(),
            dlq: Some(entry.render()),
        }
    }

    #[test]
    fn record_roundtrips_through_render_and_parse() {
        let record = sample_record();
        let rendered = render_record(&record);
        assert_eq!(parse_record(&rendered).expect("roundtrip"), record);
        // No-DLQ records roundtrip too.
        let ok = ItemRecord { dlq: None, class: ItemClass::Ok, ..record };
        assert_eq!(parse_record(&render_record(&ok)).expect("roundtrip"), ok);
    }

    #[test]
    fn truncated_and_corrupted_records_are_rejected() {
        let record = sample_record();
        let rendered = render_record(&record);
        // Every prefix is corrupt (missing newline, cut checksum, cut body).
        for cut in 0..rendered.len() {
            if let Some(prefix) = rendered.get(..cut) {
                assert!(parse_record(prefix).is_none(), "cut at {cut} must be corrupt");
            }
        }
        // Every single-byte change loads as corrupt or, never in practice, as the
        // same record — and never panics. A change that breaks UTF-8 cannot reach
        // the parser: `StateDir::load` reads records as strings.
        let mut changed = rendered.clone().into_bytes();
        for at in 0..changed.len() {
            let original = changed[at];
            for byte in (0..=u8::MAX).filter(|&b| b != original) {
                changed[at] = byte;
                if let Ok(text) = std::str::from_utf8(&changed) {
                    if let Some(loaded) = parse_record(text) {
                        assert_eq!(loaded, record, "byte {at} changed to {byte:#04x}");
                    }
                }
            }
            changed[at] = original;
        }
    }

    #[test]
    fn records_written_by_earlier_builds_still_load() {
        // Rendered by the substring-scanner build of `render_record`: state dirs it
        // left behind must keep resuming.
        let golden = [
            (
                concat!(r#"{"v": 1, "index": 4, "lineno": 9, "spec": "zlib@\"weird\\spec\"\ttext", "class": "unsat", "retries": 1, "output": "UNSAT  zlib@9.9: no known version\n\u0001café", "dlq": "{\"v\": 1, \"id\": \"4\", \"spec\": \"zlib@9.9\", \"status\": \"unsat\", \"retries\": 1, \"lineno\": 9, \"message\": \"no valid configuration exists\", \"diagnostics\": []}", "checksum": "cc7af5163160c906"}"#, "\n"),
                ItemRecord {
                    index: 4,
                    lineno: 9,
                    spec: "zlib@\"weird\\spec\"\ttext".to_string(),
                    class: ItemClass::Unsat,
                    retries: 1,
                    output: "UNSAT  zlib@9.9: no known version\n\u{1}caf\u{e9}".to_string(),
                    dlq: Some(
                        r#"{"v": 1, "id": "4", "spec": "zlib@9.9", "status": "unsat", "retries": 1, "lineno": 9, "message": "no valid configuration exists", "diagnostics": []}"#
                            .to_string(),
                    ),
                },
            ),
            (
                concat!(r#"{"v": 1, "index": 0, "lineno": 1, "spec": "hdf5 ^mpich", "class": "ok", "retries": 0, "output": "ok     hdf5 ^mpich -> 7 packages (0 reused, 7 to build)", "dlq": null, "checksum": "30de42b80596b515"}"#, "\n"),
                ItemRecord {
                    index: 0,
                    lineno: 1,
                    spec: "hdf5 ^mpich".to_string(),
                    class: ItemClass::Ok,
                    retries: 0,
                    output: "ok     hdf5 ^mpich -> 7 packages (0 reused, 7 to build)".to_string(),
                    dlq: None,
                },
            ),
        ];
        for (text, record) in golden {
            assert_eq!(parse_record(text).as_ref(), Some(&record));
            assert_eq!(render_record(&record), text, "the rendering must not drift");
        }
    }

    #[test]
    fn batch_digest_distinguishes_inputs_and_options() {
        let items = vec![(1usize, "zlib".to_string()), (2, "hdf5".to_string())];
        let base = batch_digest(&items, "opts");
        assert_eq!(base, batch_digest(&items, "opts"));
        assert_ne!(base, batch_digest(&items, "other-opts"));
        let mut renumbered = items.clone();
        renumbered[1].0 = 3;
        assert_ne!(base, batch_digest(&renumbered, "opts"));
        assert_ne!(base, batch_digest(&items[..1], "opts"));
    }

    #[test]
    fn exit_codes_follow_the_worst_class() {
        let mk = |class| ItemRecord {
            index: 0,
            lineno: 1,
            spec: "s".into(),
            class,
            retries: 0,
            output: String::new(),
            dlq: None,
        };
        let outcome = |classes: &[ItemClass]| BatchOutcome {
            records: classes.iter().map(|&c| mk(c)).collect(),
            counters: BatchCounters::default(),
        };
        assert_eq!(outcome(&[ItemClass::Ok, ItemClass::Ok]).exit_code(), 0);
        assert_eq!(outcome(&[ItemClass::Ok, ItemClass::Unsat]).exit_code(), 2);
        assert_eq!(outcome(&[ItemClass::Unsat, ItemClass::Parse]).exit_code(), 3);
        assert_eq!(outcome(&[ItemClass::Parse, ItemClass::Budget]).exit_code(), 4);
        assert_eq!(outcome(&[ItemClass::Budget, ItemClass::Internal]).exit_code(), 5);
    }

    #[test]
    fn state_dir_rejects_a_different_batch() {
        let dir = std::env::temp_dir().join(format!("spack-durable-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let state = StateDir::open(&dir, 0xabcd, 2, "opts").expect("create");
        drop(state);
        assert!(StateDir::open(&dir, 0xabcd, 2, "opts").is_ok(), "same batch resumes");
        let err = StateDir::open(&dir, 0xbeef, 2, "opts").expect_err("different digest");
        assert!(err.contains("different batch"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_load_roundtrip_and_corruption_detection_on_disk() {
        let dir = std::env::temp_dir().join(format!("spack-durable-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let state = StateDir::open(&dir, 1, 4, "opts").expect("create");
        let record = sample_record();
        state.store(&record).expect("store");
        match state.load(record.index) {
            Loaded::Ready(loaded) => assert_eq!(loaded, record),
            other => panic!("expected Ready, got {other:?}"),
        }
        assert!(matches!(state.load(99), Loaded::Missing));
        // Truncate the record on disk mid-file: load must flag it corrupt.
        let path = dir.join("items").join(format!("{}.json", record.index));
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(state.load(record.index), Loaded::Corrupt));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
