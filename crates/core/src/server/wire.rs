//! The versioned wire protocol of `spack-solved`: newline-delimited JSON, one
//! request or response per line.
//!
//! Every message carries a `"v"` field (currently [`WIRE_VERSION`]); a missing
//! `"v"` means version 1, any other version is rejected with a parse-error
//! response. Parsing is **unknown-field tolerant** by construction — messages are
//! read through the workspace's one JSON parser ([`crate::json`]) and only the
//! known fields are extracted, so a newer client can add fields without breaking
//! an older server and vice versa.
//!
//! # Requests
//!
//! ```json
//! {"v": 1, "id": "a1", "specs": ["hdf5 ^mpich"], "options": {"reuse": true, "deadline_ms": 5000}}
//! {"v": 1, "id": "u1", "cmd": "update", "add_versions": [{"package": "zlib", "version": "2.0"}], "install": ["hdf5"]}
//! {"v": 1, "id": "s1", "cmd": "stats"}
//! {"v": 1, "id": "q", "cmd": "shutdown"}
//! ```
//!
//! An `update` request carries a [`crate::BaseDelta`] — versions published or
//! yanked, binaries pushed to or removed from the buildcache — and patches every
//! built shard session **in place** between in-flight requests (see
//! [`crate::ConcretizerSession::apply_base_delta`]); shards that cannot absorb
//! the delta incrementally are evicted and re-frozen, with the reason reported in
//! `stats` rather than failing the update.
//!
//! [`RequestOptions`] is the wire form of [`crate::SolveOptions`]: live references
//! cannot cross a socket, so the site travels by preset name and the database by
//! the `reuse` flag; every field is optional and defaults to the server's
//! configuration.
//!
//! # Responses
//!
//! One [`SolveResponse`] line per request, tagged by the request's `id`, with a
//! [`SolveStatus`] that is exactly [`crate::ResultClass`] — the same worst-class
//! taxonomy the batch exit code and DLQ records use. `spack-solve batch --json`
//! emits the identical rendering, which is what makes server responses
//! byte-comparable against one-shot solves.

use asp::{SolveBudget, SolverConfig};

use crate::json::{self, Json};
use crate::{Concretization, ConcretizeError, Diagnostic, ResultClass, Severity};

/// The wire protocol version stamped into (and required of) every message.
pub const WIRE_VERSION: u64 = 1;

/// The most specs one solve request may carry; a longer `specs` array gets a
/// `parse` response. (The line length and the JSON nesting are capped upstream.)
pub const MAX_SPECS: usize = 64;

/// The most budget retries one solve request may ask for; a larger `retries` gets a
/// `parse` response. Each retry is a full solve under a doubled budget, so an
/// unbounded count could hold a worker for as long as the client likes.
pub const MAX_RETRIES: u32 = 16;

/// The `status` field of a [`SolveResponse`]: exactly the worst-class result
/// taxonomy of [`crate::ResultClass`] (`ok`, `unsat`, `parse`, `budget`,
/// `internal`), shared with the batch exit-code contract and DLQ records.
pub type SolveStatus = ResultClass;

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// One parsed client request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Concretize the given specs (`cmd` absent or `"solve"`).
    Solve(SolveRequest),
    /// Patch the base universe in place across all built shards (`"cmd": "update"`).
    Update(UpdateRequest),
    /// Report per-shard session statistics and queue counters (`"cmd": "stats"`).
    Stats {
        /// The request id the response will be tagged with.
        id: String,
    },
    /// Stop admitting work, drain in-flight jobs, and exit (`"cmd": "shutdown"`).
    Shutdown {
        /// The request id the acknowledgement will be tagged with.
        id: String,
    },
}

/// An update request: a [`crate::BaseDelta`] describing repository and
/// buildcache churn, applied to every built shard without tearing sessions
/// down. Wire fields (all optional, top-level next to `"cmd": "update"`):
/// `add_versions` / `remove_versions` as arrays of `{"package", "version"}`
/// objects, `install` / `uninstall` as arrays of package names.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateRequest {
    /// Client-chosen id echoed into the response.
    pub id: String,
    /// The base churn to apply.
    pub delta: crate::BaseDelta,
}

/// A solve request: one or more spec strings plus per-request options.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRequest {
    /// Client-chosen id echoed into the response (responses stream out of order).
    pub id: String,
    /// The abstract specs to concretize into a single DAG (parsed server-side).
    pub specs: Vec<String>,
    /// Per-request options; unset fields fall back to the server's defaults.
    pub options: RequestOptions,
}

/// The wire form of [`crate::SolveOptions`], carried per request. Every field is
/// optional: `None` means "use the server's default". The site travels by preset
/// name (`"quartz"`, `"lassen"`, `"minimal"`) and the buildcache by the `reuse`
/// flag — live references cannot cross a socket.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequestOptions {
    /// Site preset name; selects the shard together with `reuse`.
    pub site: Option<String>,
    /// Reuse the server's buildcache; selects the shard together with `site`.
    pub reuse: Option<bool>,
    /// Wall deadline of the solve budget, in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Conflict limit of the solve budget.
    pub conflict_limit: Option<u64>,
    /// Attach the shard's cross-request nogood store, which carries loop nogoods
    /// only, to this request (default on); results are byte-identical either way.
    pub nogood_store: Option<bool>,
    /// Solver seed for randomized tie-breaking.
    pub seed: Option<u64>,
    /// Budget-exhaustion retries (diversified seed, doubled budget per attempt), at
    /// most [`MAX_RETRIES`].
    pub retries: Option<u32>,
}

impl RequestOptions {
    pub(crate) fn from_json(json: &Json) -> Result<Self, String> {
        let mut options = RequestOptions {
            site: json.get("site").and_then(Json::as_str).map(str::to_string),
            ..RequestOptions::default()
        };
        if let Some(v) = json.get("reuse") {
            options.reuse = Some(v.as_bool().ok_or("'reuse' must be a boolean")?);
        }
        if let Some(v) = json.get("deadline_ms") {
            options.deadline_ms = Some(v.as_u64().ok_or("'deadline_ms' must be an integer")?);
        }
        if let Some(v) = json.get("conflict_limit") {
            options.conflict_limit = Some(v.as_u64().ok_or("'conflict_limit' must be an integer")?);
        }
        if let Some(v) = json.get("nogood_store") {
            options.nogood_store = Some(v.as_bool().ok_or("'nogood_store' must be a boolean")?);
        }
        if let Some(v) = json.get("seed") {
            options.seed = Some(v.as_u64().ok_or("'seed' must be an integer")?);
        }
        if let Some(v) = json.get("retries") {
            let retries = v.as_u64().ok_or("'retries' must be an integer")?;
            if retries > u64::from(MAX_RETRIES) {
                return Err(format!("'retries' must be at most {MAX_RETRIES}, got {retries}"));
            }
            options.retries = Some(retries as u32);
        }
        Ok(options)
    }

    /// Parse the options object from its JSON text (the inverse of [`render`]).
    ///
    /// [`render`]: RequestOptions::render
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::from_json(&json::parse(text)?)
    }

    /// Render as a JSON object containing only the set fields.
    pub fn render(&self) -> String {
        let mut fields: Vec<String> = Vec::new();
        if let Some(site) = &self.site {
            fields.push(format!("\"site\": \"{}\"", json::escape(site)));
        }
        if let Some(reuse) = self.reuse {
            fields.push(format!("\"reuse\": {reuse}"));
        }
        if let Some(ms) = self.deadline_ms {
            fields.push(format!("\"deadline_ms\": {ms}"));
        }
        if let Some(n) = self.conflict_limit {
            fields.push(format!("\"conflict_limit\": {n}"));
        }
        if let Some(on) = self.nogood_store {
            fields.push(format!("\"nogood_store\": {on}"));
        }
        if let Some(seed) = self.seed {
            fields.push(format!("\"seed\": {seed}"));
        }
        if let Some(n) = self.retries {
            fields.push(format!("\"retries\": {n}"));
        }
        format!("{{{}}}", fields.join(", "))
    }

    /// The per-request budget, when any half is set.
    pub fn budget(&self) -> Option<SolveBudget> {
        let budget = SolveBudget {
            wall_deadline: self.deadline_ms.map(std::time::Duration::from_millis),
            conflict_limit: self.conflict_limit,
        };
        budget.is_bounded().then_some(budget)
    }

    /// Fold the set solver-level fields onto a base [`SolverConfig`] — exactly
    /// what the server does per request on the shard session's forked control.
    pub fn apply(&self, cfg: &mut SolverConfig) {
        if let Some(budget) = self.budget() {
            cfg.budget = Some(budget);
        }
        if let Some(on) = self.nogood_store {
            cfg.share_nogoods = on;
        }
        if let Some(seed) = self.seed {
            cfg.seed = seed;
        }
    }
}

/// Parse one request line. A missing `"v"` means version 1; an unsupported
/// version, malformed JSON, an unknown `cmd`, or a solve without specs is an
/// `Err` — the server answers those with a `parse`-status response and keeps the
/// connection alive.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let json = json::parse(line).map_err(|e| format!("malformed request: {e}"))?;
    if !matches!(json, Json::Obj(_)) {
        return Err("malformed request: expected a JSON object".to_string());
    }
    match json.get("v") {
        None => {}
        Some(v) if v.as_u64() == Some(WIRE_VERSION) => {}
        Some(v) => return Err(format!("unsupported wire version {v:?} (expected {WIRE_VERSION})")),
    }
    let id = json.get("id").and_then(Json::as_str).unwrap_or("").to_string();
    match json.get("cmd").and_then(Json::as_str) {
        None | Some("solve") => {
            let items = json.get("specs").and_then(Json::as_array).unwrap_or_default();
            if items.len() > MAX_SPECS {
                return Err(format!(
                    "a solve request may carry at most {MAX_SPECS} specs, got {}",
                    items.len()
                ));
            }
            let specs: Vec<String> =
                items.iter().filter_map(|s| s.as_str().map(str::to_string)).collect();
            if specs.is_empty() {
                return Err("a solve request needs a non-empty 'specs' array".to_string());
            }
            let options = match json.get("options") {
                Some(obj) => RequestOptions::from_json(obj)?,
                None => RequestOptions::default(),
            };
            Ok(Request::Solve(SolveRequest { id, specs, options }))
        }
        Some("update") => {
            let mut delta = crate::BaseDelta::default();
            for (field, slot) in [
                ("add_versions", &mut delta.add_versions),
                ("remove_versions", &mut delta.remove_versions),
            ] {
                if let Some(items) = json.get(field) {
                    let items =
                        items.as_array().ok_or_else(|| format!("'{field}' must be an array"))?;
                    for item in items {
                        let package =
                            item.get("package").and_then(Json::as_str).ok_or_else(|| {
                                format!("each '{field}' entry needs a 'package' string")
                            })?;
                        let version =
                            item.get("version").and_then(Json::as_str).ok_or_else(|| {
                                format!("each '{field}' entry needs a 'version' string")
                            })?;
                        if !nameable_version(version) {
                            return Err(format!(
                                "'{field}' version {version:?} of '{package}' is not a version \
                                 a spec can name"
                            ));
                        }
                        slot.push((package.to_string(), version.to_string()));
                    }
                }
            }
            for (field, slot) in
                [("install", &mut delta.install), ("uninstall", &mut delta.uninstall)]
            {
                if let Some(items) = json.get(field) {
                    let items =
                        items.as_array().ok_or_else(|| format!("'{field}' must be an array"))?;
                    for item in items {
                        let name = item
                            .as_str()
                            .ok_or_else(|| format!("'{field}' entries must be strings"))?;
                        slot.push(name.to_string());
                    }
                }
            }
            Ok(Request::Update(UpdateRequest { id, delta }))
        }
        Some("stats") => Ok(Request::Stats { id }),
        Some("shutdown") => Ok(Request::Shutdown { id }),
        Some(other) => Err(format!("unknown cmd '{other}'")),
    }
}

/// Does the spec parser read `@version` back as exactly this version? An update
/// may only declare or yank versions that a spec can request: not `""`, and nothing
/// carrying spec syntax such as ranges or sigils.
fn nameable_version(version: &str) -> bool {
    spack_spec::parse_spec(&format!("@{version}")).is_ok_and(|spec| {
        spec.versions == spack_spec::VersionConstraint::exact(spack_spec::Version::new(version))
    })
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// The payload of a successful solve: the concrete DAG and its accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveResult {
    /// Number of packages in the concrete DAG.
    pub packages: usize,
    /// Packages reused from the buildcache, as `(package, hash)`.
    pub reused: Vec<(String, String)>,
    /// Packages that must be built from source.
    pub built: Vec<String>,
    /// The objective vector `(priority, value)`, highest priority first.
    pub cost: Vec<(i64, i64)>,
    /// Was the DAG proven optimal? (`false` only for a budget path's partial.)
    pub optimal: bool,
    /// The rendered concrete DAG, exactly as `spack-solve spec` prints it.
    pub dag: String,
}

impl SolveResult {
    fn of(c: &Concretization) -> Self {
        SolveResult {
            packages: c.spec.len(),
            reused: c.reused.clone(),
            built: c.built.clone(),
            cost: c.cost.clone(),
            optimal: c.optimal,
            dag: c.spec.to_string(),
        }
    }
}

/// One response line: the outcome of a single request, tagged by its id.
///
/// The rendering is deterministic (fixed field order, no timestamps or wall
/// times), which is what lets CI compare a server's out-of-order response stream
/// against `spack-solve batch --json` byte-for-byte after sorting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SolveResponse {
    /// The request id this response answers.
    pub id: String,
    /// The request's spec text, echoed back (multiple specs joined by a space).
    pub spec: String,
    /// The worst-class outcome — shared taxonomy with batch exit codes and DLQ.
    pub status: SolveStatus,
    /// Budget retries consumed.
    pub retries: u32,
    /// 1-based input line number; only set by the batch runner's DLQ records.
    pub lineno: Option<usize>,
    /// Human-readable failure summary, absent on `ok`.
    pub message: Option<String>,
    /// Why-not diagnostics (unsat and budget statuses; empty otherwise).
    pub diagnostics: Vec<Diagnostic>,
    /// The concrete DAG and its accounting, present only on `ok`.
    pub result: Option<SolveResult>,
}

impl SolveResponse {
    /// Classify and package a concretization result, using
    /// [`ConcretizeError::class`] as the single source of truth for `status`.
    pub fn from_result(
        id: &str,
        spec: &str,
        result: &Result<Concretization, ConcretizeError>,
        retries: u32,
    ) -> Self {
        let mut response = SolveResponse {
            id: id.to_string(),
            spec: spec.to_string(),
            status: ResultClass::of(result),
            retries,
            lineno: None,
            message: None,
            diagnostics: Vec::new(),
            result: None,
        };
        match result {
            Ok(c) => response.result = Some(SolveResult::of(c)),
            Err(ConcretizeError::Unsatisfiable { diagnostics, .. }) => {
                response.message = Some("no valid configuration exists".to_string());
                response.diagnostics = diagnostics.clone();
            }
            Err(ConcretizeError::Budget { partial_best, .. }) => {
                let diag = crate::diagnose::budget_diagnostic(
                    spec,
                    partial_best.as_ref().map(|c| c.spec.len()),
                );
                response.message = Some(diag.message.clone());
                response.diagnostics = vec![diag];
            }
            Err(e) => response.message = Some(e.to_string()),
        }
        response
    }

    /// A bare failure response (parse errors, rejected requests): no result, no
    /// diagnostics, just the status and message.
    pub fn failure(id: &str, spec: &str, status: SolveStatus, message: &str) -> Self {
        SolveResponse {
            id: id.to_string(),
            spec: spec.to_string(),
            status,
            retries: 0,
            lineno: None,
            message: Some(message.to_string()),
            diagnostics: Vec::new(),
            result: None,
        }
    }

    /// Render as a single JSON line (no trailing newline), deterministic field
    /// order: `v`, `id`, `spec`, `status`, `retries`, \[`lineno`\], \[`message`\],
    /// `diagnostics`, \[`result`\].
    pub fn render(&self) -> String {
        let mut out = format!(
            "{{\"v\": {WIRE_VERSION}, \"id\": \"{}\", \"spec\": \"{}\", \"status\": \"{}\", \
             \"retries\": {}",
            json::escape(&self.id),
            json::escape(&self.spec),
            self.status.as_str(),
            self.retries,
        );
        if let Some(lineno) = self.lineno {
            out.push_str(&format!(", \"lineno\": {lineno}"));
        }
        if let Some(message) = &self.message {
            out.push_str(&format!(", \"message\": \"{}\"", json::escape(message)));
        }
        let diags: Vec<String> = self.diagnostics.iter().map(render_diagnostic).collect();
        out.push_str(&format!(", \"diagnostics\": [{}]", diags.join(", ")));
        if let Some(result) = &self.result {
            let reused: Vec<String> = result
                .reused
                .iter()
                .map(|(p, h)| format!("[\"{}\", \"{}\"]", json::escape(p), json::escape(h)))
                .collect();
            let built: Vec<String> =
                result.built.iter().map(|p| format!("\"{}\"", json::escape(p))).collect();
            let cost: Vec<String> =
                result.cost.iter().map(|(p, v)| format!("[{p}, {v}]")).collect();
            out.push_str(&format!(
                ", \"result\": {{\"packages\": {}, \"reused\": [{}], \"built\": [{}], \
                 \"cost\": [{}], \"optimal\": {}, \"dag\": \"{}\"}}",
                result.packages,
                reused.join(", "),
                built.join(", "),
                cost.join(", "),
                result.optimal,
                json::escape(&result.dag),
            ));
        }
        out.push('}');
        out
    }

    /// Parse a response line rendered by [`SolveResponse::render`] (tolerant of
    /// unknown fields, like all wire parsing).
    pub fn parse(line: &str) -> Result<Self, String> {
        let json = json::parse(line).map_err(|e| format!("malformed response: {e}"))?;
        match json.get("v") {
            None => {}
            Some(v) if v.as_u64() == Some(WIRE_VERSION) => {}
            Some(v) => {
                return Err(format!("unsupported wire version {v:?} (expected {WIRE_VERSION})"))
            }
        }
        let status_text = json.get("status").and_then(Json::as_str).ok_or("missing 'status'")?;
        let status = ResultClass::from_wire(status_text)
            .ok_or_else(|| format!("unknown status '{status_text}'"))?;
        let diagnostics = match json.get("diagnostics").and_then(Json::as_array) {
            Some(items) => items.iter().map(parse_diagnostic).collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
        };
        let result = match json.get("result") {
            Some(obj) => Some(parse_result(obj)?),
            None => None,
        };
        Ok(SolveResponse {
            id: json.get("id").and_then(Json::as_str).unwrap_or("").to_string(),
            spec: json.get("spec").and_then(Json::as_str).unwrap_or("").to_string(),
            status,
            retries: json.get("retries").and_then(Json::as_u64).unwrap_or(0) as u32,
            lineno: json.get("lineno").and_then(Json::as_u64).map(|n| n as usize),
            message: json.get("message").and_then(Json::as_str).map(str::to_string),
            diagnostics,
            result,
        })
    }
}

fn render_diagnostic(d: &Diagnostic) -> String {
    let severity = match d.severity {
        Severity::Error => "error",
        Severity::Note => "note",
    };
    let package = match &d.package {
        Some(p) => format!("\"{}\"", json::escape(p)),
        None => "null".to_string(),
    };
    let provenance: Vec<String> =
        d.provenance.iter().map(|p| format!("\"{}\"", json::escape(p))).collect();
    format!(
        "{{\"severity\": \"{severity}\", \"priority\": {}, \"code\": \"{}\", \
         \"message\": \"{}\", \"package\": {package}, \"provenance\": [{}]}}",
        d.priority,
        json::escape(&d.code),
        json::escape(&d.message),
        provenance.join(", ")
    )
}

fn parse_diagnostic(json: &Json) -> Result<Diagnostic, String> {
    let severity = match json.get("severity").and_then(Json::as_str) {
        Some("note") => Severity::Note,
        _ => Severity::Error,
    };
    Ok(Diagnostic {
        severity,
        priority: json.get("priority").and_then(Json::as_i64).unwrap_or(0),
        code: json.get("code").and_then(Json::as_str).unwrap_or("").to_string(),
        message: json.get("message").and_then(Json::as_str).unwrap_or("").to_string(),
        package: json.get("package").and_then(Json::as_str).map(str::to_string),
        provenance: json
            .get("provenance")
            .and_then(Json::as_array)
            .map(|items| items.iter().filter_map(|p| p.as_str().map(str::to_string)).collect())
            .unwrap_or_default(),
    })
}

fn parse_result(json: &Json) -> Result<SolveResult, String> {
    let reused = json
        .get("reused")
        .and_then(Json::as_array)
        .map(|items| {
            items
                .iter()
                .filter_map(|pair| {
                    let pair = pair.as_array()?;
                    Some((pair.first()?.as_str()?.to_string(), pair.get(1)?.as_str()?.to_string()))
                })
                .collect()
        })
        .unwrap_or_default();
    let built = json
        .get("built")
        .and_then(Json::as_array)
        .map(|items| items.iter().filter_map(|p| p.as_str().map(str::to_string)).collect())
        .unwrap_or_default();
    let cost = json
        .get("cost")
        .and_then(Json::as_array)
        .map(|items| {
            items
                .iter()
                .filter_map(|pair| {
                    let pair = pair.as_array()?;
                    Some((pair.first()?.as_i64()?, pair.get(1)?.as_i64()?))
                })
                .collect()
        })
        .unwrap_or_default();
    Ok(SolveResult {
        packages: json.get("packages").and_then(Json::as_u64).unwrap_or(0) as usize,
        reused,
        built,
        cost,
        optimal: json.get("optimal").and_then(Json::as_bool).unwrap_or(true),
        dag: json.get("dag").and_then(Json::as_str).unwrap_or("").to_string(),
    })
}

// ---------------------------------------------------------------------------
// Stats responses
// ---------------------------------------------------------------------------

/// Render a stats response: queue counters plus one entry per shard, shards in
/// deterministic `(site, reuse)` order.
pub fn render_stats_response(id: &str, stats: &super::ServerStats) -> String {
    let shards: Vec<String> = stats
        .shards
        .iter()
        .map(|s| {
            let mut entry = format!(
                "{{\"site\": \"{}\", \"reuse\": {}, \"digest\": \"{:016x}\", \
                 \"requests\": {}, \"base_grounds\": {}, \"frozen_instances\": {}, \
                 \"store_hits\": {}, \"store_misses\": {}, \"store_transferred\": {}, \
                 \"patches\": {}, \"refreezes\": {}, \"evictions\": {}",
                json::escape(&s.site),
                s.reuse,
                s.digest,
                s.requests,
                s.base_grounds,
                s.frozen_instances,
                s.store_hits,
                s.store_misses,
                s.store_transferred,
                s.patches,
                s.refreezes,
                s.evictions,
            );
            if let Some(reason) = &s.last_refreeze {
                entry.push_str(&format!(", \"last_refreeze\": \"{}\"", json::escape(reason)));
            }
            entry.push('}');
            entry
        })
        .collect();
    format!(
        "{{\"v\": {WIRE_VERSION}, \"id\": \"{}\", \"status\": \"ok\", \"stats\": \
         {{\"workers\": {}, \"queue_depth\": {}, \"jobs_received\": {}, \
         \"jobs_completed\": {}, \"shards\": [{}]}}}}",
        json::escape(id),
        stats.workers,
        stats.queue_depth,
        stats.jobs_received,
        stats.jobs_completed,
        shards.join(", "),
    )
}

/// Render an update response: how many built shards absorbed the delta in
/// place and how many had to be evicted and re-frozen.
pub fn render_update_response(id: &str, outcome: &super::UpdateOutcome) -> String {
    format!(
        "{{\"v\": {WIRE_VERSION}, \"id\": \"{}\", \"status\": \"ok\", \"update\": \
         {{\"shards_patched\": {}, \"shards_refrozen\": {}}}}}",
        json::escape(id),
        outcome.patched,
        outcome.refrozen,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_parsing_versions_and_tolerance() {
        // Missing "v" means version 1; unknown fields are ignored.
        let req = parse_request(
            r#"{"id": "a", "specs": ["zlib"], "future_field": {"x": [1]}, "options": {"reuse": true, "novel": 3}}"#,
        )
        .unwrap();
        match req {
            Request::Solve(solve) => {
                assert_eq!(solve.id, "a");
                assert_eq!(solve.specs, vec!["zlib".to_string()]);
                assert_eq!(solve.options.reuse, Some(true));
                assert_eq!(solve.options.site, None);
            }
            other => panic!("expected solve, got {other:?}"),
        }
        assert!(parse_request(r#"{"v": 2, "specs": ["zlib"]}"#).is_err());
        assert!(parse_request(r#"{"v": 1, "specs": []}"#).is_err());
        assert!(parse_request(r#"{"v": 1, "id": "x"}"#).is_err());
        assert!(parse_request(r#"{"v": 1, "cmd": "unknown"}"#).is_err());
        assert!(parse_request("{{nope").is_err());
        assert_eq!(
            parse_request(r#"{"v": 1, "id": "s", "cmd": "stats"}"#).unwrap(),
            Request::Stats { id: "s".to_string() }
        );
        assert_eq!(
            parse_request(r#"{"cmd": "shutdown"}"#).unwrap(),
            Request::Shutdown { id: String::new() }
        );
    }

    #[test]
    fn request_options_roundtrip_and_apply() {
        let options = RequestOptions {
            site: Some("lassen".to_string()),
            reuse: Some(true),
            deadline_ms: Some(250),
            conflict_limit: Some(1000),
            nogood_store: Some(false),
            seed: Some(u64::MAX),
            retries: Some(2),
        };
        let rendered = options.render();
        assert_eq!(RequestOptions::parse(&rendered).unwrap(), options);
        // Defaults render to the empty object and roundtrip too.
        assert_eq!(RequestOptions::default().render(), "{}");
        assert_eq!(RequestOptions::parse("{}").unwrap(), RequestOptions::default());

        let mut cfg = SolverConfig::default();
        options.apply(&mut cfg);
        assert!(!cfg.share_nogoods);
        assert_eq!(cfg.seed, u64::MAX);
        let budget = cfg.budget.unwrap();
        assert_eq!(budget.wall_deadline, Some(std::time::Duration::from_millis(250)));
        assert_eq!(budget.conflict_limit, Some(1000));
        // Unset fields leave the base config untouched.
        let mut cfg = SolverConfig::default();
        RequestOptions::default().apply(&mut cfg);
        let base = SolverConfig::default();
        assert_eq!(cfg.seed, base.seed);
        assert_eq!(cfg.share_nogoods, base.share_nogoods);
        assert!(cfg.budget.is_none());

        // `retries` is capped at MAX_RETRIES, and a value beyond u32 is rejected, not
        // truncated (2^32 + 1 would read as 1).
        let parsed = RequestOptions::parse(&format!("{{\"retries\": {MAX_RETRIES}}}")).unwrap();
        assert_eq!(parsed.retries, Some(MAX_RETRIES));
        let err = RequestOptions::parse(&format!("{{\"retries\": {}}}", MAX_RETRIES + 1));
        assert!(err.unwrap_err().starts_with("'retries' must be at most"));
        assert!(RequestOptions::parse(r#"{"retries": 4294967295}"#).is_err());
        assert!(RequestOptions::parse(r#"{"retries": 4294967297}"#).is_err());
        let line = r#"{"v": 1, "id": "r", "specs": ["zlib"], "options": {"retries": 4294967296}}"#;
        assert!(parse_request(line).is_err());
    }

    #[test]
    fn update_requests_parse_and_render() {
        let req = parse_request(
            r#"{"v": 1, "id": "u1", "cmd": "update", "add_versions": [{"package": "zlib", "version": "2.0"}], "remove_versions": [{"package": "hdf5", "version": "1.8.0"}], "install": ["cmake"], "uninstall": ["mpich"], "novel": true}"#,
        )
        .unwrap();
        match req {
            Request::Update(update) => {
                assert_eq!(update.id, "u1");
                assert_eq!(
                    update.delta.add_versions,
                    vec![("zlib".to_string(), "2.0".to_string())]
                );
                assert_eq!(
                    update.delta.remove_versions,
                    vec![("hdf5".to_string(), "1.8.0".to_string())]
                );
                assert_eq!(update.delta.install, vec!["cmake".to_string()]);
                assert_eq!(update.delta.uninstall, vec!["mpich".to_string()]);
            }
            other => panic!("expected update, got {other:?}"),
        }
        // An empty update is valid on the wire (the server applies a no-op).
        match parse_request(r#"{"v": 1, "id": "u2", "cmd": "update"}"#).unwrap() {
            Request::Update(update) => assert!(update.delta.is_empty()),
            other => panic!("expected update, got {other:?}"),
        }
        // Malformed entries are parse errors, not silent drops.
        assert!(parse_request(r#"{"cmd": "update", "add_versions": [{"package": "z"}]}"#).is_err());
        assert!(parse_request(r#"{"cmd": "update", "add_versions": {"package": "z"}}"#).is_err());
        assert!(parse_request(r#"{"cmd": "update", "install": [7]}"#).is_err());
        // So are versions a spec cannot name.
        for field in ["add_versions", "remove_versions"] {
            let update = |version: &str| {
                parse_request(&format!(
                    r#"{{"cmd": "update", "{field}": [{{"package": "zlib", "version": "{}"}}]}}"#,
                    json::escape(version)
                ))
            };
            for version in ["1.2.8", "2.0-rc1", "develop", "1_2"] {
                assert!(update(version).is_ok(), "{field} {version:?} must be accepted");
            }
            for version in
                ["", "@:^~", ":", "1.0:", "1.0,2.0", "=1.0", "1.0 +mpi", "1.0%gcc", " 1.0"]
            {
                let err = update(version).expect_err(version);
                assert!(err.contains("not a version a spec can name"), "{err}");
            }
        }

        let outcome = super::super::UpdateOutcome { patched: 2, refrozen: 1 };
        let line = render_update_response("u1", &outcome);
        let json = json::parse(&line).unwrap();
        assert_eq!(json.get("status").and_then(Json::as_str), Some("ok"));
        let update = json.get("update").unwrap();
        assert_eq!(update.get("shards_patched").and_then(Json::as_u64), Some(2));
        assert_eq!(update.get("shards_refrozen").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn response_roundtrips_through_render_and_parse() {
        let response = SolveResponse {
            id: "req-1".to_string(),
            spec: "hdf5 ^mpich".to_string(),
            status: SolveStatus::Unsat,
            retries: 1,
            lineno: Some(7),
            message: Some("no valid configuration exists".to_string()),
            diagnostics: vec![crate::diagnose::structural_diagnostic("hdf5 ^mpich")],
            result: None,
        };
        let line = response.render();
        assert_eq!(SolveResponse::parse(&line).unwrap(), response);

        let ok = SolveResponse {
            id: "2".to_string(),
            spec: "zlib".to_string(),
            status: SolveStatus::Ok,
            retries: 0,
            lineno: None,
            message: None,
            diagnostics: Vec::new(),
            result: Some(SolveResult {
                packages: 2,
                reused: vec![("zlib".to_string(), "abc123".to_string())],
                built: vec!["hdf5".to_string()],
                cost: vec![(61, 2), (48, -1)],
                optimal: true,
                dag: "zlib@1.2.12%gcc@11.2.0\n".to_string(),
            }),
        };
        let line = ok.render();
        assert_eq!(SolveResponse::parse(&line).unwrap(), ok);
        // Responses are single lines regardless of embedded newlines.
        assert!(!line.contains('\n'));
    }

    #[test]
    fn response_parse_tolerates_unknown_fields_and_rejects_bad_versions() {
        let line = r#"{"v": 1, "id": "x", "spec": "zlib", "status": "ok", "retries": 0, "novel": [1, 2], "diagnostics": []}"#;
        let response = SolveResponse::parse(line).unwrap();
        assert_eq!(response.status, SolveStatus::Ok);
        assert!(SolveResponse::parse(r#"{"v": 9, "status": "ok"}"#).is_err());
        assert!(SolveResponse::parse(r#"{"v": 1, "status": "martian"}"#).is_err());
    }
}
