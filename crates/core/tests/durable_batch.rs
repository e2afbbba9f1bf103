//! End-to-end harness for durable batch concretization: kill-and-resume byte
//! identity, checkpoint corruption recovery, solve budgets with dead-lettering and
//! retry counters, panic isolation, and the per-class exit-code contract. Drives the
//! actual `spack-solve` binary the way CI and operators do.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use spack_concretizer::{ConcretizeError, Concretizer, SiteConfig, SolveOptions};
use spack_repo::{synth_repo, SynthConfig};

/// A fresh scratch directory per call, cleaned up on drop (best effort).
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "spack-durable-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }

    fn write(&self, name: &str, contents: &str) -> PathBuf {
        let path = self.path(name);
        std::fs::write(&path, contents).expect("write scratch file");
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn spack_solve(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_spack-solve"));
    cmd.args(args);
    for (k, v) in env {
        cmd.env(k, v);
    }
    cmd.output().expect("run spack-solve")
}

fn stdout_of(output: &Output) -> String {
    String::from_utf8(output.stdout.clone()).expect("utf8 stdout")
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8(output.stderr.clone()).expect("utf8 stderr")
}

fn exit_code(output: &Output) -> i32 {
    output.status.code().expect("exit code")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// A batch mixing every happy/unhappy class except budget: solved, unsatisfiable,
/// and a parse error, with comment and blank lines so line numbers are exercised.
const MIXED_BATCH: &str = "# mixed batch\nzlib\n\nzlib@9.9\nzlib@@bad\nhdf5\nexample~bzip\n";

#[test]
fn kill_and_resume_output_is_byte_identical() {
    let scratch = Scratch::new("resume");
    let batch = scratch.write("batch.txt", MIXED_BATCH);
    let batch = batch.to_str().unwrap();
    let clean_state = scratch.path("clean-state");
    let killed_state = scratch.path("killed-state");

    // Uninterrupted reference run.
    let clean = spack_solve(&["batch", "--state-dir", clean_state.to_str().unwrap(), batch], &[]);
    assert_eq!(exit_code(&clean), 3, "parse error is the worst class: {}", stderr_of(&clean));

    // Killed run: the SPACK_SOLVE_BATCH_KILL_AFTER hook aborts the process (the
    // moral equivalent of SIGKILL) after two records are durably stored.
    let killed = spack_solve(
        &["batch", "--state-dir", killed_state.to_str().unwrap(), batch],
        &[("SPACK_SOLVE_BATCH_KILL_AFTER", "2")],
    );
    assert!(!killed.status.success(), "the killed run must not exit cleanly");
    let stored = std::fs::read_dir(killed_state.join("items")).expect("items dir").count();
    assert!(stored >= 2, "at least two records must have survived the kill, found {stored}");
    assert!(stored < 5, "the kill must interrupt the batch, found {stored} records");

    // Resume: completed items replay from checkpoints, the rest are solved.
    let resumed =
        spack_solve(&["batch", "--state-dir", killed_state.to_str().unwrap(), batch], &[]);
    assert_eq!(exit_code(&resumed), exit_code(&clean), "exit codes must match");
    assert_eq!(stdout_of(&resumed), stdout_of(&clean), "stdout must be byte-identical");
    assert_eq!(
        read(&killed_state.join("dlq.jsonl")),
        read(&clean_state.join("dlq.jsonl")),
        "the dead-letter queue must be byte-identical"
    );

    // A second resume replays everything (no work left) with identical output.
    let replayed = spack_solve(
        &["batch", "--stats", "--state-dir", killed_state.to_str().unwrap(), batch],
        &[],
    );
    assert_eq!(stdout_of(&replayed), stdout_of(&clean));
    assert!(
        stderr_of(&replayed).contains("5 resumed from checkpoints"),
        "all five items must resume: {}",
        stderr_of(&replayed)
    );
}

#[test]
fn corrupt_checkpoint_record_is_resolved_exactly_once() {
    let scratch = Scratch::new("corrupt");
    let batch = scratch.write("batch.txt", MIXED_BATCH);
    let batch = batch.to_str().unwrap();
    let state = scratch.path("state");
    let state_arg = state.to_str().unwrap();

    let clean = spack_solve(&["batch", "--state-dir", state_arg, batch], &[]);
    assert_eq!(exit_code(&clean), 3, "{}", stderr_of(&clean));

    // Truncate one record mid-file, as a crash racing the rename (or disk
    // corruption) would.
    let victim = state.join("items").join("1.json");
    let bytes = std::fs::read(&victim).expect("read record");
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).expect("truncate record");

    let recovered = spack_solve(&["batch", "--stats", "--state-dir", state_arg, batch], &[]);
    assert_eq!(stdout_of(&recovered), stdout_of(&clean), "recovery must replay identical output");
    assert_eq!(exit_code(&recovered), exit_code(&clean));
    let stderr = stderr_of(&recovered);
    // Never silently skipped, never double-counted: exactly one re-solve, the
    // other four replayed.
    assert!(stderr.contains("1 corrupt records re-solved"), "{stderr}");
    assert!(stderr.contains("4 resumed from checkpoints"), "{stderr}");
}

#[test]
fn resuming_a_state_dir_against_a_different_batch_is_a_pipeline_error() {
    let scratch = Scratch::new("mismatch");
    let batch = scratch.write("batch.txt", "zlib\n");
    let other = scratch.write("other.txt", "hdf5\n");
    let state = scratch.path("state");
    let state_arg = state.to_str().unwrap();

    let first = spack_solve(&["batch", "--state-dir", state_arg, batch.to_str().unwrap()], &[]);
    assert_eq!(exit_code(&first), 0, "{}", stderr_of(&first));
    let second = spack_solve(&["batch", "--state-dir", state_arg, other.to_str().unwrap()], &[]);
    assert_eq!(exit_code(&second), 1, "manifest mismatch is a pipeline error (exit 1)");
    assert!(stderr_of(&second).contains("different batch"), "{}", stderr_of(&second));
}

#[test]
fn conflict_limit_dead_letters_the_pathological_spec_but_not_its_siblings() {
    // zlib solves without a single conflict; hdf5's optimality proof needs several.
    // A conflict limit of 1 therefore deterministically cuts hdf5 off *after* its
    // first stable model was proven — graceful degradation to a non-optimal model —
    // while the sibling request is untouched. (Conflict limits have no wall-clock
    // component, so this is deterministic, unlike a deadline.)
    let scratch = Scratch::new("budget");
    let batch = scratch.write("batch.txt", "zlib\nhdf5\n");
    let state = scratch.path("state");

    let output = spack_solve(
        &[
            "batch",
            "--stats",
            "--conflict-limit",
            "1",
            "--retries",
            "1",
            "--state-dir",
            state.to_str().unwrap(),
            batch.to_str().unwrap(),
        ],
        &[],
    );
    assert_eq!(exit_code(&output), 4, "budget exhaustion exits 4: {}", stderr_of(&output));
    let stdout = stdout_of(&output);
    assert!(stdout.contains("ok     zlib"), "the sibling must solve normally: {stdout}");
    assert!(
        stdout.contains("budget hdf5: non-optimal model proven"),
        "hdf5 must degrade to its partial model: {stdout}"
    );
    let stderr = stderr_of(&output);
    // --stats reports the timeout/retry/DLQ counters.
    assert!(stderr.contains("1 budget-exhausted"), "{stderr}");
    assert!(stderr.contains("1 budget retries"), "{stderr}");
    assert!(stderr.contains("1 dead-lettered"), "{stderr}");
    let dlq = read(&state.join("dlq.jsonl"));
    assert_eq!(dlq.lines().count(), 1, "only hdf5 is dead-lettered: {dlq}");
    // DLQ entries are full wire-shaped SolveResponse lines (the same shape the
    // server and `batch --json` emit), with the file line number attached.
    assert!(dlq.contains("\"status\": \"budget\""), "{dlq}");
    assert!(dlq.contains("budget-exhausted"), "{dlq}");
    assert!(dlq.contains("\"retries\": 1"), "{dlq}");
    assert!(dlq.contains("\"lineno\": 2"), "{dlq}");
    assert!(dlq.contains("\"v\": 1"), "{dlq}");
}

#[test]
fn zero_deadline_terminates_within_bound_and_dead_letters_everything() {
    // A zero wall deadline is the degenerate hang-inducing case: every solve is cut
    // off before its first model. The batch must still terminate promptly (the
    // budget interrupts the search loop), route every item to the DLQ with a budget
    // diagnostic, and exit 4.
    let scratch = Scratch::new("deadline");
    let batch = scratch.write("batch.txt", "zlib\nhdf5\n");
    let state = scratch.path("state");

    let started = Instant::now();
    let output = spack_solve(
        &[
            "batch",
            "--deadline-ms",
            "0",
            "--retries",
            "1",
            "--state-dir",
            state.to_str().unwrap(),
            batch.to_str().unwrap(),
        ],
        &[],
    );
    let elapsed = started.elapsed();
    assert_eq!(exit_code(&output), 4, "{}", stderr_of(&output));
    assert!(
        elapsed < Duration::from_secs(60),
        "a deadline-bounded batch must terminate promptly, took {elapsed:?}"
    );
    let stdout = stdout_of(&output);
    assert!(stdout.contains("budget zlib"), "{stdout}");
    assert!(stdout.contains("budget hdf5"), "{stdout}");
    let dlq = read(&state.join("dlq.jsonl"));
    assert_eq!(dlq.lines().count(), 2, "{dlq}");
    assert!(dlq.contains("exhausted before any model was found"), "{dlq}");
}

#[test]
fn wall_deadline_on_a_synth_repo_returns_budget_within_bound() {
    // Library-level version of the deadline guarantee, on a synthetic repository:
    // the budgeted request fails with ConcretizeError::Budget within bound, and a
    // sibling request on the same session (its budget cleared per-request through
    // concretize_tuned) is completely unaffected.
    let repo = synth_repo(&SynthConfig { packages: 60, ..Default::default() });
    let concretizer = Concretizer::new(&repo).with_options(
        SolveOptions::new()
            .site(SiteConfig::minimal())
            .budget(asp::SolveBudget { wall_deadline: Some(Duration::ZERO), conflict_limit: None }),
    );
    let session = concretizer.session().expect("session");

    let started = Instant::now();
    let err = session.concretize_str("app-00").expect_err("zero deadline must cut the solve off");
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(60), "took {elapsed:?}");
    match err {
        ConcretizeError::Budget { partial_best, stats } => {
            assert!(partial_best.is_none(), "no model can be proven under a zero deadline");
            assert!(stats.budget_exhausted);
        }
        other => panic!("expected ConcretizeError::Budget, got: {other}"),
    }

    // Sibling isolation: the same session still answers unbudgeted requests.
    let sibling = session
        .concretize_tuned(&[spack_spec::parse_spec("app-00").unwrap()], |cfg| cfg.budget = None)
        .expect("the sibling request must be unaffected");
    assert!(sibling.optimal, "an unbudgeted solve is proven optimal");
    assert!(sibling.spec.len() > 1);
}

#[test]
fn conflict_limit_partial_is_marked_non_optimal() {
    // Graceful degradation at the library level: the partial model carried by
    // ConcretizeError::Budget is a real, extracted DAG marked non-optimal.
    let repo = spack_repo::builtin_repo();
    let concretizer = Concretizer::new(&repo).with_options(
        SolveOptions::new()
            .site(SiteConfig::quartz())
            .budget(asp::SolveBudget { wall_deadline: None, conflict_limit: Some(1) }),
    );
    let session = concretizer.session().expect("session");
    match session.concretize_str("hdf5").expect_err("conflict limit 1 must interrupt hdf5") {
        ConcretizeError::Budget { partial_best: Some(partial), stats } => {
            assert!(!partial.optimal, "the partial model must be marked non-optimal");
            assert!(partial.spec.contains("hdf5"));
            assert!(partial.spec.len() > 1, "the partial is a full DAG");
            assert!(stats.budget_exhausted);
        }
        other => panic!("expected a partial budget outcome, got: {other:?}"),
    }
}

#[test]
fn panic_isolation_turns_one_poisoned_request_into_a_per_item_error() {
    let scratch = Scratch::new("panic");
    let batch = scratch.write("batch.txt", "zlib\nhdf5\n");
    let state = scratch.path("state");

    let output = spack_solve(
        &["batch", "--state-dir", state.to_str().unwrap(), batch.to_str().unwrap()],
        &[("SPACK_CONCRETIZE_PANIC_ON", "zlib")],
    );
    assert_eq!(exit_code(&output), 5, "an isolated panic exits 5: {}", stderr_of(&output));
    let stdout = stdout_of(&output);
    assert!(stdout.contains("error  zlib: internal error: panic: injected panic"), "{stdout}");
    assert!(stdout.contains("ok     hdf5"), "the sibling must survive the panic: {stdout}");
    let dlq = read(&state.join("dlq.jsonl"));
    assert_eq!(dlq.lines().count(), 1, "{dlq}");
    assert!(dlq.contains("\"status\": \"internal\""), "{dlq}");
}

#[test]
fn parse_errors_report_line_numbers_and_continue() {
    let scratch = Scratch::new("parse");
    // The bad spec sits on line 5: a comment, a good spec, a blank, another
    // comment, then the typo. Filtering must not renumber it.
    let batch = scratch.write("batch.txt", "# header\nzlib\n\n# more\nzlib@@bad\nhdf5\n");

    let output = spack_solve(&["batch", batch.to_str().unwrap()], &[]);
    assert_eq!(exit_code(&output), 3, "a parse error exits 3: {}", stderr_of(&output));
    let stdout = stdout_of(&output);
    assert!(stdout.contains("parse  zlib@@bad:"), "{stdout}");
    assert!(stdout.contains("(line 5)"), "the 1-based file line must be reported: {stdout}");
    assert!(stdout.contains("ok     zlib"), "{stdout}");
    assert!(stdout.contains("ok     hdf5"), "parsing must continue past the bad line: {stdout}");
}

#[test]
fn batch_json_emits_one_wire_response_per_item() {
    // --json swaps the human per-line report for SolveResponse wire lines — the
    // exact shape `spack-solved` emits — with the item index as the id. Classes
    // and the exit code are unchanged.
    let scratch = Scratch::new("json");
    let batch = scratch.write("batch.txt", MIXED_BATCH);
    let output = spack_solve(&["batch", "--json", batch.to_str().unwrap()], &[]);
    assert_eq!(exit_code(&output), 3, "{}", stderr_of(&output));
    let stdout = stdout_of(&output);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 5, "one response line per item: {stdout}");
    for (i, line) in lines.iter().enumerate() {
        assert!(
            line.starts_with(&format!("{{\"v\": 1, \"id\": \"{i}\", ")),
            "line {i} must be a v1 response with the item index as id: {line}"
        );
    }
    assert!(stdout.contains("\"status\": \"ok\""), "{stdout}");
    assert!(stdout.contains("\"status\": \"unsat\""), "{stdout}");
    assert!(stdout.contains("\"status\": \"parse\""), "{stdout}");
    assert!(stdout.contains("\"diagnostics\": [{"), "unsat carries diagnostics: {stdout}");
}

#[test]
fn unsat_alone_still_exits_2() {
    // The old contract for "solved + unsat" batches is preserved by the new
    // per-class scheme: nothing worse than unsat means exit 2.
    let scratch = Scratch::new("unsat");
    let batch = scratch.write("batch.txt", "zlib\nzlib@9.9\n");
    let output = spack_solve(&["batch", batch.to_str().unwrap()], &[]);
    assert_eq!(exit_code(&output), 2, "{}", stderr_of(&output));
    assert!(stdout_of(&output).contains("UNSAT  zlib@9.9"), "{}", stdout_of(&output));
}
