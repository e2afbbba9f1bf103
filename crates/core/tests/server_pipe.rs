//! Integration tests for the `spack-solved` serving layer in `--pipe` mode:
//! out-of-order completion under a worker pool, shard routing by base digest,
//! per-request budgets, malformed-request resilience (including hostile nesting and
//! retired options from old clients), drain-on-shutdown, and
//! byte-identity between the server and `spack-solve batch --json`.

use std::io::Cursor;
use std::process::{Command, Stdio};
use std::time::Duration;

use spack_concretizer::server::{serve_pipe, wire, ServerConfig};
use spack_repo::builtin_repo;
use spack_store::{synthesize_buildcache, BuildcacheConfig};

/// Run the in-process pipe server over a canned request script and return the
/// response lines plus the final stats snapshot.
fn serve(
    cache: bool,
    config: &ServerConfig,
    input: &str,
) -> (Vec<String>, spack_concretizer::server::ServerStats) {
    let repo = builtin_repo();
    let db;
    let database = if cache {
        db = synthesize_buildcache(&repo, &BuildcacheConfig::default());
        Some(&db)
    } else {
        None
    };
    let mut out: Vec<u8> = Vec::new();
    let stats = serve_pipe(&repo, database, config, Cursor::new(input.to_string()), &mut out);
    let text = String::from_utf8(out).expect("utf8 responses");
    (text.lines().map(|l| l.to_string()).collect(), stats)
}

fn response(line: &str) -> wire::SolveResponse {
    wire::SolveResponse::parse(line).unwrap_or_else(|e| panic!("bad response line: {e}\n{line}"))
}

#[test]
fn responses_stream_out_of_order_under_a_worker_pool() {
    // The stall hook freezes the hdf5 solve for two seconds *after* its shard
    // session is built, so the zlib request admitted behind it must overtake it
    // on another worker — deterministically, not by racing solve times.
    let config = ServerConfig {
        workers: 4,
        stall: Some(("hdf5".to_string(), Duration::from_secs(2))),
        ..ServerConfig::default()
    };
    let input = "{\"v\": 1, \"id\": \"slow\", \"specs\": [\"hdf5\"]}\n\
                 {\"v\": 1, \"id\": \"fast\", \"specs\": [\"zlib\"]}\n";
    let (lines, stats) = serve(false, &config, input);
    assert_eq!(lines.len(), 2, "{lines:?}");
    let first = response(&lines[0]);
    let second = response(&lines[1]);
    assert_eq!(first.id, "fast", "the unstalled request must finish first");
    assert_eq!(second.id, "slow");
    assert_eq!(first.status, wire::SolveStatus::Ok);
    assert_eq!(second.status, wire::SolveStatus::Ok);
    assert_eq!(stats.jobs_received, 2);
    assert_eq!(stats.jobs_completed, 2);
}

#[test]
fn requests_route_to_one_shard_per_site_and_reuse_digest() {
    // Two sites and a reuse flag: four solves over three distinct shard keys.
    // Each shard's base must be ground exactly once however many requests hit
    // it, and distinct shards must expose distinct base digests in `stats`.
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    let input = "{\"v\": 1, \"id\": \"a\", \"specs\": [\"zlib\"], \"options\": {\"site\": \"minimal\"}}\n\
                 {\"v\": 1, \"id\": \"b\", \"specs\": [\"hdf5\"], \"options\": {\"site\": \"minimal\"}}\n\
                 {\"v\": 1, \"id\": \"c\", \"specs\": [\"zlib\"], \"options\": {\"site\": \"quartz\"}}\n\
                 {\"v\": 1, \"id\": \"d\", \"specs\": [\"zlib\"], \"options\": {\"reuse\": true}}\n\
                 {\"v\": 1, \"id\": \"s\", \"cmd\": \"stats\"}\n";
    let (lines, stats) = serve(true, &config, input);
    assert_eq!(lines.len(), 5, "{lines:?}");
    // With one worker, responses come back in admission order and the stats
    // line (queued like any job) reflects all four completed solves.
    let stats_line = &lines[4];
    assert!(stats_line.contains("\"id\": \"s\""), "{stats_line}");
    assert!(stats_line.contains("\"jobs_completed\": 4"), "{stats_line}");

    assert_eq!(stats.shards.len(), 3, "{:?}", stats.shards);
    let minimal = &stats.shards[0];
    assert_eq!((minimal.site.as_str(), minimal.reuse), ("minimal", false));
    assert_eq!(minimal.requests, 2, "same key must reuse one session");
    let quartz_fresh = &stats.shards[1];
    let quartz_reuse = &stats.shards[2];
    assert_eq!((quartz_fresh.site.as_str(), quartz_fresh.reuse), ("quartz", false));
    assert_eq!((quartz_reuse.site.as_str(), quartz_reuse.reuse), ("quartz", true));
    for shard in &stats.shards {
        assert_eq!(shard.base_grounds, 1, "base ground exactly once per shard: {shard:?}");
    }
    let mut digests: Vec<u64> = stats.shards.iter().map(|s| s.digest).collect();
    digests.sort_unstable();
    digests.dedup();
    assert_eq!(digests.len(), 3, "distinct shard keys must have distinct base digests");
    // The reused install shows up in the reuse shard's response.
    let reused = response(&lines[3]);
    assert_eq!(reused.id, "d");
    assert!(!reused.result.expect("solved").reused.is_empty(), "reuse shard must reuse");
}

#[test]
fn per_request_budgets_come_back_as_budget_status() {
    // A zero wall deadline arms synchronously, so the budget response (with its
    // budget-exhausted diagnostic) is deterministic; the sibling request on the
    // same shard is untouched.
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    let input = "{\"v\": 1, \"id\": \"cut\", \"specs\": [\"zlib\"], \"options\": {\"deadline_ms\": 0, \"retries\": 0}}\n\
                 {\"v\": 1, \"id\": \"ok\", \"specs\": [\"zlib\"]}\n";
    let (lines, _) = serve(false, &config, input);
    assert_eq!(lines.len(), 2, "{lines:?}");
    let cut = response(&lines[0]);
    assert_eq!(cut.status, wire::SolveStatus::Budget);
    assert_eq!(cut.retries, 0);
    assert!(
        cut.diagnostics.iter().any(|d| d.code == "budget-exhausted"),
        "budget responses carry the budget diagnostic: {cut:?}"
    );
    let ok = response(&lines[1]);
    assert_eq!(ok.status, wire::SolveStatus::Ok, "the sibling must be unaffected");
    assert!(ok.result.expect("solved").optimal);
}

#[test]
fn malformed_requests_get_parse_responses_and_the_stream_survives() {
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    let input = "this is not json\n\
                 {\"v\": 99, \"id\": \"future\", \"specs\": [\"zlib\"]}\n\
                 {\"v\": 1, \"id\": \"empty\", \"specs\": []}\n\
                 {\"v\": 1, \"id\": \"good\", \"specs\": [\"zlib\"]}\n";
    let (lines, stats) = serve(false, &config, input);
    assert_eq!(lines.len(), 4, "every line gets an answer: {lines:?}");
    for line in &lines[..3] {
        let r = response(line);
        assert_eq!(r.status, wire::SolveStatus::Parse, "{line}");
        assert!(r.message.is_some(), "{line}");
    }
    let good = response(&lines[3]);
    assert_eq!(good.id, "good");
    assert_eq!(good.status, wire::SolveStatus::Ok, "the stream must survive bad lines");
    assert_eq!(stats.jobs_received, 1, "only the well-formed solve is admitted");
}

#[test]
fn shutdown_drains_queued_jobs_and_acks_last() {
    // One worker, three queued solves, then shutdown, then a request that must
    // never be admitted. All three queued jobs complete (drain), the ack is the
    // final line, and the post-shutdown request is never answered.
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    let input = "{\"v\": 1, \"id\": \"q1\", \"specs\": [\"zlib\"]}\n\
                 {\"v\": 1, \"id\": \"q2\", \"specs\": [\"zlib@9.9\"]}\n\
                 {\"v\": 1, \"id\": \"q3\", \"specs\": [\"hdf5\"]}\n\
                 {\"v\": 1, \"id\": \"bye\", \"cmd\": \"shutdown\"}\n\
                 {\"v\": 1, \"id\": \"late\", \"specs\": [\"zlib\"]}\n";
    let (lines, stats) = serve(false, &config, input);
    assert_eq!(lines.len(), 4, "three drained responses plus the ack: {lines:?}");
    let mut ids: Vec<String> = lines[..3].iter().map(|l| response(l).id).collect();
    ids.sort();
    assert_eq!(ids, ["q1", "q2", "q3"], "every queued job must drain");
    let ack = response(&lines[3]);
    assert_eq!(ack.id, "bye");
    assert_eq!(ack.status, wire::SolveStatus::Ok);
    assert_eq!(ack.message.as_deref(), Some("shutdown complete"));
    assert_eq!(stats.jobs_received, 3, "the post-shutdown request is never admitted");
    assert_eq!(stats.jobs_completed, 3);
}

#[test]
fn update_interleaves_with_an_in_flight_solve_without_losing_it() {
    // A stalled solve holds its shard's read lock while the update waits for the
    // write lock on another worker: the in-flight response must still arrive
    // intact, and the update must patch (not tear down) the shard it waited on.
    // The warm-up solve completes before the update job is dequeued (two
    // workers, the second busy stalling), so the shard is deterministically
    // built — and occupied — when the update lands.
    let config = ServerConfig {
        workers: 2,
        stall: Some(("hdf5".to_string(), Duration::from_secs(1))),
        ..ServerConfig::default()
    };
    let input = "{\"v\": 1, \"id\": \"warm\", \"specs\": [\"zlib\"]}\n\
                 {\"v\": 1, \"id\": \"inflight\", \"specs\": [\"hdf5\"]}\n\
                 {\"v\": 1, \"id\": \"up\", \"cmd\": \"update\", \"add_versions\": [{\"package\": \"zlib\", \"version\": \"2.0\"}]}\n";
    let (lines, stats) = serve(false, &config, input);
    assert_eq!(lines.len(), 3, "no response may be lost across an update: {lines:?}");
    for id in ["warm", "inflight"] {
        let line = lines.iter().find(|l| l.contains(&format!("\"id\": \"{id}\""))).unwrap();
        assert_eq!(response(line).status, wire::SolveStatus::Ok, "{line}");
    }
    let up_line = lines.iter().find(|l| l.contains("\"id\": \"up\"")).unwrap();
    assert!(up_line.contains("\"shards_patched\": 1"), "{up_line}");
    assert!(up_line.contains("\"shards_refrozen\": 0"), "{up_line}");
    assert_eq!(stats.jobs_completed, 2);
    assert_eq!(stats.shards.len(), 1);
    assert_eq!(stats.shards[0].patches, 1, "{:?}", stats.shards[0]);
    assert_eq!(stats.shards[0].base_grounds, 1, "an in-place patch never re-grounds");
}

#[test]
fn post_update_solves_see_the_new_version() {
    // Single worker, so the pipeline is strictly ordered: UNSAT before the
    // update, the update patches in place, SAT after it.
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    let input = "{\"v\": 1, \"id\": \"pre\", \"specs\": [\"zlib@2.0\"]}\n\
                 {\"v\": 1, \"id\": \"up\", \"cmd\": \"update\", \"add_versions\": [{\"package\": \"zlib\", \"version\": \"2.0\"}]}\n\
                 {\"v\": 1, \"id\": \"post\", \"specs\": [\"zlib@2.0\"]}\n\
                 {\"v\": 1, \"id\": \"s\", \"cmd\": \"stats\"}\n";
    let (lines, stats) = serve(false, &config, input);
    assert_eq!(lines.len(), 4, "{lines:?}");
    let pre = response(&lines[0]);
    assert_eq!((pre.id.as_str(), pre.status), ("pre", wire::SolveStatus::Unsat), "{pre:?}");
    assert!(lines[1].contains("\"shards_patched\": 1"), "{}", lines[1]);
    let post = response(&lines[2]);
    assert_eq!(post.status, wire::SolveStatus::Ok, "post-update solves see the new version");
    assert!(post.result.expect("solved").dag.contains("zlib@2.0"), "must pick the new version");
    assert!(lines[3].contains("\"patches\": 1"), "{}", lines[3]);
    assert_eq!(stats.shards[0].patches, 1);
    assert_eq!(stats.shards[0].base_grounds, 1);
}

#[test]
fn forced_refreeze_is_reported_in_stats_not_as_a_failed_update() {
    let config = ServerConfig { workers: 1, force_refreeze: true, ..ServerConfig::default() };
    let input = "{\"v\": 1, \"id\": \"pre\", \"specs\": [\"zlib\"]}\n\
                 {\"v\": 1, \"id\": \"up\", \"cmd\": \"update\", \"add_versions\": [{\"package\": \"zlib\", \"version\": \"2.0\"}]}\n\
                 {\"v\": 1, \"id\": \"post\", \"specs\": [\"zlib@2.0\"]}\n\
                 {\"v\": 1, \"id\": \"s\", \"cmd\": \"stats\"}\n";
    let (lines, stats) = serve(false, &config, input);
    assert_eq!(lines.len(), 4, "{lines:?}");
    assert!(lines[1].contains("\"shards_refrozen\": 1"), "{}", lines[1]);
    assert_eq!(response(&lines[2]).status, wire::SolveStatus::Ok);
    assert!(lines[3].contains("\"evictions\": 1"), "{}", lines[3]);
    assert!(lines[3].contains("\"last_refreeze\""), "{}", lines[3]);
    assert_eq!(stats.shards[0].refreezes, 1);
    assert!(stats.shards[0].last_refreeze.as_deref().is_some());
}

#[test]
fn spack_solved_pipe_applies_updates_end_to_end() {
    // The same interleave through the real binary: a solve that is UNSAT before
    // the update becomes SAT after it, over one `--pipe` session.
    let input = "{\"v\": 1, \"id\": \"pre\", \"specs\": [\"zlib@2.0\"]}\n\
                 {\"v\": 1, \"id\": \"up\", \"cmd\": \"update\", \"add_versions\": [{\"package\": \"zlib\", \"version\": \"2.0\"}]}\n\
                 {\"v\": 1, \"id\": \"post\", \"specs\": [\"zlib@2.0\"]}\n";
    let served = Command::new(env!("CARGO_BIN_EXE_spack-solved"))
        .args(["--pipe", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .and_then(|mut child| {
            use std::io::Write;
            child.stdin.take().expect("stdin").write_all(input.as_bytes())?;
            child.wait_with_output()
        })
        .expect("run spack-solved");
    let lines: Vec<String> =
        String::from_utf8(served.stdout).expect("utf8").lines().map(String::from).collect();
    assert_eq!(lines.len(), 3, "{lines:?}");
    let pre = response(&lines[0]);
    assert_eq!((pre.id.as_str(), pre.status), ("pre", wire::SolveStatus::Unsat), "{:?}", pre);
    assert!(lines[1].contains("\"shards_patched\": 1"), "{}", lines[1]);
    let post = response(&lines[2]);
    assert_eq!((post.id.as_str(), post.status), ("post", wire::SolveStatus::Ok), "{:?}", post);
}

#[test]
fn pipe_responses_are_byte_identical_to_batch_json() {
    // The acceptance bar for the service: for the same specs and options,
    // `spack-solved --pipe` (4 workers, out-of-order) and the one-shot
    // `spack-solve batch --json` emit byte-identical response lines — SAT,
    // UNSAT (with diagnostics), parse, and budget classes alike.
    let specs = ["zlib", "zlib@9.9", "hdf5", "example~bzip", "zlib@@bad", "hpctoolkit ^mpich"];
    let batch_input = specs.join("\n");
    let batch = Command::new(env!("CARGO_BIN_EXE_spack-solve"))
        .args(["batch", "--json", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .and_then(|mut child| {
            use std::io::Write;
            child.stdin.take().expect("stdin").write_all(batch_input.as_bytes())?;
            child.wait_with_output()
        })
        .expect("run spack-solve batch");

    let serve_input: String = specs
        .iter()
        .enumerate()
        .map(|(i, s)| format!("{{\"v\": 1, \"id\": \"{i}\", \"specs\": [\"{s}\"]}}\n"))
        .collect();
    let served = Command::new(env!("CARGO_BIN_EXE_spack-solved"))
        .args(["--pipe", "--workers", "4"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .and_then(|mut child| {
            use std::io::Write;
            child.stdin.take().expect("stdin").write_all(serve_input.as_bytes())?;
            child.wait_with_output()
        })
        .expect("run spack-solved");

    let mut batch_lines: Vec<String> =
        String::from_utf8(batch.stdout).expect("utf8").lines().map(String::from).collect();
    let mut served_lines: Vec<String> =
        String::from_utf8(served.stdout).expect("utf8").lines().map(String::from).collect();
    assert_eq!(batch_lines.len(), specs.len());
    assert_eq!(served_lines.len(), specs.len());
    // The server streams out of order; compare as sorted multisets of lines.
    batch_lines.sort();
    served_lines.sort();
    assert_eq!(batch_lines, served_lines, "server and batch --json must agree byte-for-byte");
}

#[test]
fn deeply_nested_line_gets_a_parse_response_and_the_stream_survives() {
    // A line of 200,000 `[` used to overflow the recursive JSON parser's stack and
    // abort the process. The nesting cap turns it into an ordinary parse error, and
    // the valid request behind it is still answered — through the real binary, so
    // an abort would show up as a failed exit status and missing lines.
    let input = format!(
        "{}\n{{\"v\": 1, \"id\": \"after\", \"specs\": [\"zlib\"]}}\n",
        "[".repeat(200_000)
    );
    let served = Command::new(env!("CARGO_BIN_EXE_spack-solved"))
        .args(["--pipe", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .and_then(|mut child| {
            use std::io::Write;
            child.stdin.take().expect("stdin").write_all(input.as_bytes())?;
            child.wait_with_output()
        })
        .expect("run spack-solved");
    assert!(served.status.success(), "spack-solved must not abort: {:?}", served.status);
    let lines: Vec<String> =
        String::from_utf8(served.stdout).expect("utf8").lines().map(String::from).collect();
    assert_eq!(lines.len(), 2, "{lines:?}");
    let deep = response(&lines[0]);
    assert_eq!(deep.status, wire::SolveStatus::Parse, "{}", lines[0]);
    assert!(deep.message.expect("parse message").contains("nesting"), "{}", lines[0]);
    let after = response(&lines[1]);
    assert_eq!((after.id.as_str(), after.status), ("after", wire::SolveStatus::Ok));
}

#[test]
fn old_clients_sending_portfolio_get_the_same_answer() {
    // Older clients may still send the retired `portfolio` option. Wire v1 ignores
    // unknown fields, so the answer must be byte-identical to the same request
    // without it.
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    let input = "{\"v\": 1, \"id\": \"x\", \"specs\": [\"hdf5\"], \"options\": {\"portfolio\": 4}}\n\
                 {\"v\": 1, \"id\": \"x\", \"specs\": [\"hdf5\"]}\n\
                 {\"v\": 1, \"id\": \"y\", \"specs\": [\"zlib@9.9\"], \"options\": {\"portfolio\": 4}}\n\
                 {\"v\": 1, \"id\": \"y\", \"specs\": [\"zlib@9.9\"]}\n";
    let (lines, _) = serve(false, &config, input);
    assert_eq!(lines.len(), 4, "{lines:?}");
    assert_eq!(response(&lines[0]).status, wire::SolveStatus::Ok);
    assert_eq!(lines[0], lines[1], "a portfolio field changed a SAT answer");
    assert_eq!(response(&lines[2]).status, wire::SolveStatus::Unsat);
    assert_eq!(lines[2], lines[3], "a portfolio field changed an UNSAT answer");
}

#[test]
fn non_utf8_and_overlong_lines_get_parse_responses_and_the_stream_survives() {
    // A line that is not UTF-8 used to end the read loop silently: the server
    // answered the requests before it and exited 0. It and an overlong line must
    // each get a `parse` response, and every request after them must be served.
    let mut input = b"{\"v\": 1, \"id\": \"a\", \"specs\": [\"zlib\"]}\n\xff\xfe\n".to_vec();
    input.extend(std::iter::repeat_n(b' ', spack_concretizer::server::MAX_LINE_BYTES + 1));
    input.extend(b"\n{\"v\": 1, \"id\": \"b\", \"specs\": [\"zlib\"]}\n");
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    let repo = builtin_repo();
    let mut out: Vec<u8> = Vec::new();
    let stats = serve_pipe(&repo, None, &config, Cursor::new(input), &mut out);
    let lines: Vec<String> =
        String::from_utf8(out).expect("utf8").lines().map(String::from).collect();
    assert_eq!(lines.len(), 4, "every line gets an answer: {lines:?}");
    let responses: Vec<wire::SolveResponse> = lines.iter().map(|l| response(l)).collect();
    let rejected: Vec<&wire::SolveResponse> =
        responses.iter().filter(|r| r.status == wire::SolveStatus::Parse).collect();
    assert_eq!(rejected.len(), 2, "{lines:?}");
    assert!(rejected.iter().any(|r| r.message.as_deref().unwrap().contains("UTF-8")), "{lines:?}");
    assert!(rejected.iter().any(|r| r.message.as_deref().unwrap().contains("longer")), "{lines:?}");
    let mut solved: Vec<&str> = responses
        .iter()
        .filter(|r| r.status == wire::SolveStatus::Ok)
        .map(|r| r.id.as_str())
        .collect();
    solved.sort();
    assert_eq!(solved, ["a", "b"], "the stream must survive bad lines: {lines:?}");
    assert_eq!(stats.jobs_received, 2);
}

#[test]
fn escaped_ids_are_answered_under_their_decoded_value() {
    // `\/` and surrogate pairs are valid JSON escapes (Python's `json.dumps` writes
    // a pair for every character outside the BMP). They used to be rejected, and
    // the `parse` response carried an empty id the client could not match.
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    let input = concat!(
        r#"{"v": 1, "id": "a\/b", "specs": ["zlib"]}"#,
        "\n",
        r#"{"v": 1, "id": "\ud83d\ude00", "specs": ["zlib"]}"#,
        "\n"
    );
    let (lines, _) = serve(false, &config, input);
    let mut answered: Vec<(String, wire::SolveStatus)> =
        lines.iter().map(|l| response(l)).map(|r| (r.id, r.status)).collect();
    answered.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(
        answered,
        [
            ("a/b".to_string(), wire::SolveStatus::Ok),
            ("\u{1f600}".to_string(), wire::SolveStatus::Ok)
        ],
        "{lines:?}"
    );
}

#[test]
fn pipe_responses_match_one_shot_solves() {
    // The one-shot column: every spec of the CI server smoke, plus two requests a
    // session once answered `unsat` although a one-shot solve concretizes them (mpich
    // conflicts with `^bzip2@1.0.7`, a package outside its closure). Each pipe
    // response, id aside, must render exactly like the response built from a one-shot
    // `Concretizer` solve of the same spec.
    use spack_concretizer::{Concretizer, SiteConfig, SolveOptions};
    let specs = [
        "zlib",
        "hdf5",
        "mpileaks",
        "example",
        "bzip2",
        "zlib@9.9",
        "example~bzip",
        "zlib@@bad",
        "hpctoolkit ^mpich",
        "chain-root",
        "mpich@3.1",
        "hdf5 ^mpich@3.1",
    ];
    let input: String = specs
        .iter()
        .enumerate()
        .map(|(i, s)| format!("{{\"v\": 1, \"id\": \"{i}\", \"specs\": [\"{s}\"]}}\n"))
        .collect();
    let (lines, _) = serve(false, &ServerConfig::default(), &input);
    assert_eq!(lines.len(), specs.len(), "{lines:?}");
    let repo = builtin_repo();
    let concretizer =
        Concretizer::new(&repo).with_options(SolveOptions::new().site(SiteConfig::quartz()));
    for line in &lines {
        let mut served = response(line);
        let spec = specs[served.id.parse::<usize>().expect("numeric id")];
        let expected = match spack_spec::parse_spec(spec) {
            Ok(root) => {
                wire::SolveResponse::from_result("", spec, &concretizer.concretize(&[root]), 0)
            }
            Err(e) => {
                wire::SolveResponse::failure("", spec, wire::SolveStatus::Parse, &e.to_string())
            }
        };
        served.id.clear();
        assert_eq!(served.render(), expected.render(), "spec `{spec}`: pipe differs from one-shot");
    }
}

#[test]
fn solve_requests_carry_at_most_max_specs() {
    // A request may carry MAX_SPECS specs; one more gets a `parse` response, and
    // the stream goes on.
    let request = |n: usize| {
        let specs: Vec<String> = (0..n).map(|_| "\"zlib\"".to_string()).collect();
        format!("{{\"v\": 1, \"id\": \"many\", \"specs\": [{}]}}", specs.join(", "))
    };
    assert!(wire::parse_request(&request(wire::MAX_SPECS)).is_ok());
    assert!(wire::parse_request(&request(wire::MAX_SPECS + 1)).is_err());
    let input = format!("{}\n{{\"v\": 1, \"id\": \"next\", \"specs\": [\"zlib\"]}}\n", request(65));
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    let (lines, _) = serve(false, &config, &input);
    assert_eq!(lines.len(), 2, "{lines:?}");
    let rejected = response(&lines[0]);
    assert_eq!(rejected.status, wire::SolveStatus::Parse);
    assert!(rejected.message.as_deref().unwrap_or("").contains("at most 64 specs"), "{rejected:?}");
    assert_eq!(response(&lines[1]).status, wire::SolveStatus::Ok);
}

#[test]
fn retries_under_the_largest_deadline_answer_budget() {
    // Doubling a deadline of u64::MAX milliseconds overflows `Duration` after ten
    // doublings; the retry policy must saturate instead of panicking, so every
    // retry runs and the answer is `budget`, not `internal`.
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    let input = "{\"v\": 1, \"id\": \"x\", \"specs\": [\"hdf5\"], \"options\": \
                 {\"deadline_ms\": 18446744073709551615, \"conflict_limit\": 0, \"retries\": 12}}\n";
    let (lines, _) = serve(false, &config, input);
    assert_eq!(lines.len(), 1, "{lines:?}");
    let answer = response(&lines[0]);
    assert_eq!(answer.status, wire::SolveStatus::Budget, "{answer:?}");
    assert_eq!(answer.retries, 12);
}

/// Resident memory of process `pid` in MB, from `/proc/<pid>/statm` (4 KiB pages).
#[cfg(target_os = "linux")]
fn resident_mb(pid: u32) -> f64 {
    let statm = std::fs::read_to_string(format!("/proc/{pid}/statm")).expect("read statm");
    let pages: f64 = statm.split_whitespace().nth(1).expect("resident field").parse().unwrap();
    pages * 4096.0 / 1e6
}

#[cfg(target_os = "linux")]
#[test]
fn memory_stays_bounded_across_update_cycles() {
    // Publish and yank zlib@2.0 over and over, with a solve after each update.
    // Every response is read before the next request is sent, so each sample sees
    // every update before it complete. A server that kept each update's universe
    // would grow by its repository and buildcache copies per update (about 0.75 MB
    // here, 75 MB over the second half); one that frees them stays flat.
    use std::io::{BufRead, BufReader, Write};
    const CYCLES: usize = 100;
    const MAX_GROWTH_MB: f64 = 8.0;
    let mut child = Command::new(env!("CARGO_BIN_EXE_spack-solved"))
        .args(["--pipe", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn spack-solved");
    let mut input = child.stdin.take().expect("stdin");
    let mut output = BufReader::new(child.stdout.take().expect("stdout"));
    let mut ask = |line: &str| {
        writeln!(input, "{line}").expect("write request");
        input.flush().expect("flush request");
        let mut reply = String::new();
        output.read_line(&mut reply).expect("read response");
        reply
    };
    let zlib_2 = "[{\"package\": \"zlib\", \"version\": \"2.0\"}]";
    let publish =
        format!("{{\"v\": 1, \"id\": \"p\", \"cmd\": \"update\", \"add_versions\": {zlib_2}}}");
    let yank =
        format!("{{\"v\": 1, \"id\": \"y\", \"cmd\": \"update\", \"remove_versions\": {zlib_2}}}");
    let solve = "{\"v\": 1, \"id\": \"s\", \"specs\": [\"zlib@2.0\"]}";
    // Build the shard first, so every update patches it.
    assert_eq!(response(&ask(solve)).status, wire::SolveStatus::Unsat);
    let mut samples = Vec::new();
    for cycle in 1..=CYCLES {
        assert!(ask(&publish).contains("\"shards_patched\": 1"));
        assert_eq!(response(&ask(solve)).status, wire::SolveStatus::Ok, "cycle {cycle}");
        assert!(ask(&yank).contains("\"shards_patched\": 1"));
        assert_eq!(response(&ask(solve)).status, wire::SolveStatus::Unsat, "cycle {cycle}");
        if cycle == CYCLES / 2 || cycle == CYCLES {
            samples.push(resident_mb(child.id()));
        }
    }
    drop(input);
    assert!(child.wait().expect("wait for spack-solved").success());
    let growth = samples[1] - samples[0];
    assert!(
        growth < MAX_GROWTH_MB,
        "resident memory grew {growth:.1} MB over the last {} cycles ({samples:?} MB)",
        CYCLES / 2
    );
}
