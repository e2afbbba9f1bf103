//! Cross-checks of in-place base patching against fresh freezes.
//!
//! [`spack_concretizer::ConcretizerSession::apply_base_delta`] patches a frozen
//! base in place — semi-naive continuation for pure additions, an id-exact
//! closure rebuild for removals — which is an entirely different code path from
//! freezing the post-delta universe from scratch. These tests pin the contract
//! that the two are *observationally identical*: after every delta in a random
//! sequence, the patched session's concretizations (SAT and UNSAT interleaved)
//! render byte-identically to a session frozen fresh against the post-delta
//! repository and buildcache, the base digests agree, and a removal followed by
//! re-adding the same fact round-trips to the original digest.

use proptest::prelude::*;

use spack_concretizer::{
    BaseDelta, Concretization, ConcretizeError, Concretizer, SiteConfig, SolveOptions,
};
use spack_repo::{builtin_repo, synth_repo, Repository, SynthConfig};
use spack_store::Database;

/// Render everything a caller can observe about a result, for equality comparison.
fn render(result: &Result<Concretization, ConcretizeError>) -> String {
    match result {
        Ok(c) => {
            let mut reused = c.reused.clone();
            reused.sort();
            let mut built = c.built.clone();
            built.sort();
            format!("OK\n{}\ncost={:?}\nreused={reused:?}\nbuilt={built:?}", c.spec, c.cost)
        }
        Err(ConcretizeError::Unsatisfiable { diagnostics, .. }) => {
            let lines: Vec<String> = diagnostics
                .iter()
                .map(|d| {
                    format!(
                        "{:?}|{}|{}|{}|{:?}",
                        d.severity, d.priority, d.code, d.message, d.provenance
                    )
                })
                .collect();
            format!("UNSAT\n{}", lines.join("\n"))
        }
        Err(e) => format!("ERR {e}"),
    }
}

/// A request mix for one step: plain roots, a version that never exists (UNSAT),
/// and an any-version range — interleaved on the same session.
fn requests_for(repo: &Repository, picks: &[usize]) -> Vec<String> {
    let names: Vec<String> = repo.names().map(str::to_string).collect();
    picks
        .iter()
        .enumerate()
        .map(|(i, pick)| {
            let name = &names[pick % names.len()];
            match i % 3 {
                0 => name.clone(),
                1 => format!("{name}@9999.0"), // never declared: UNSAT
                _ => format!("{name}@0:"),     // satisfied by every version
            }
        })
        .collect()
}

/// Decode one random delta descriptor against the current repository. Kinds:
/// publish a brand-new newest version (rebuild path: preference weights shift),
/// publish an ancient version (addition path), yank a declared version (only
/// when more than one remains), push a package's closure to the buildcache,
/// remove a package's records from it.
fn decode_delta(repo: &Repository, kind: u8, pick: usize, salt: u8) -> BaseDelta {
    let names: Vec<String> = repo.names().map(str::to_string).collect();
    let name = names[pick % names.len()].clone();
    let mut delta = BaseDelta::default();
    match kind % 5 {
        0 => delta.add_versions.push((name, format!("99.{salt}"))),
        1 => delta.add_versions.push((name, format!("0.0.{salt}"))),
        2 => {
            let def = repo.get(&name).expect("picked a listed package");
            if def.versions.len() > 1 {
                let ver = def.versions[salt as usize % def.versions.len()].version.to_string();
                delta.remove_versions.push((name, ver));
            } else {
                // Yanking the last version would leave the package unsolvable in
                // a way unrelated to patching; publish instead.
                delta.add_versions.push((name, format!("99.{salt}")));
            }
        }
        3 => delta.install.push(name),
        _ => delta.uninstall.push(name),
    }
    delta
}

/// A fresh session of the given universe — the oracle a patched session must be
/// observationally identical to.
fn fresh_session<'a>(
    repo: &'a Repository,
    database: Option<&'a Database>,
) -> spack_concretizer::ConcretizerSession<'a> {
    let mut options = SolveOptions::new().site(SiteConfig::minimal());
    if let Some(db) = database {
        options = options.database(db);
    }
    Concretizer::new(repo).with_options(options).session().expect("fresh session build")
}

/// Drive one random delta sequence: pre-compute every universe, then patch one
/// session through the sequence, cross-checking renderings and digests against a
/// fresh freeze of each post-delta universe.
fn assert_deltas_match_fresh_freezes(
    repo: Repository,
    deltas: &[(u8, usize, u8)],
    picks: &[usize],
) {
    let mut universes: Vec<(Repository, Option<Database>)> = vec![(repo, None)];
    let mut applied: Vec<BaseDelta> = Vec::new();
    for (kind, pick, salt) in deltas {
        let (repo, database) = universes.last().expect("seeded");
        let delta = decode_delta(repo, *kind, *pick, *salt);
        universes.push(delta.apply(repo, database.as_ref()));
        applied.push(delta);
    }

    let (repo0, db0) = &universes[0];
    let mut session = fresh_session(repo0, db0.as_ref());
    for (step, (repo, database)) in universes.iter().enumerate().skip(1) {
        session
            .apply_base_delta(repo, database.as_ref())
            .unwrap_or_else(|e| panic!("step {step} ({:?}): patch failed: {e}", applied[step - 1]));
        let fresh = fresh_session(repo, database.as_ref());
        assert_eq!(
            session.base_digest(),
            fresh.base_digest(),
            "step {step} ({:?}): patched digest must match a fresh freeze",
            applied[step - 1]
        );
        for spec in requests_for(repo, picks) {
            let patched = render(&session.concretize_str(&spec));
            let scratch = render(&fresh.concretize_str(&spec));
            assert_eq!(
                patched,
                scratch,
                "step {step} ({:?}), spec `{spec}`: patched session differs from fresh freeze",
                applied[step - 1]
            );
        }
    }
    let stats = session.stats();
    assert_eq!(stats.base_grounds, 1, "patching must never re-ground the base");
    assert_eq!(stats.base_patches, applied.len() as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Random delta sequences over medium-shaped synthetic repositories: version
    /// publishes (newest and ancient), yanks, buildcache pushes and removals,
    /// with SAT/UNSAT request mixes cross-checked after every step.
    #[test]
    fn random_delta_sequences_match_fresh_freezes(
        seed in 0u64..200,
        deltas in proptest::collection::vec((0u8..5, 0usize..50, 0u8..4), 2..4),
        picks in proptest::collection::vec(0usize..50, 3..5),
    ) {
        let repo = synth_repo(&SynthConfig {
            packages: 30,
            chain_depth: 8,
            extra_virtuals: 2,
            seed,
            ..Default::default()
        });
        assert_deltas_match_fresh_freezes(repo, &deltas, &picks);
    }
}

/// Removal-then-re-add round trip, pinned deterministically: yanking a version
/// and re-publishing it must return the session to the original digest and the
/// original answers.
#[test]
fn remove_then_re_add_round_trips_to_the_original_digest() {
    let repo = builtin_repo();
    let universes = {
        let publish = BaseDelta {
            add_versions: vec![("zlib".to_string(), "2.0".to_string())],
            ..BaseDelta::default()
        };
        let yank = BaseDelta {
            remove_versions: vec![("zlib".to_string(), "2.0".to_string())],
            ..BaseDelta::default()
        };
        let u1 = publish.apply(&repo, None);
        let u2 = yank.apply(&u1.0, u1.1.as_ref());
        let u3 = publish.apply(&u2.0, u2.1.as_ref());
        vec![(repo, None), u1, u2, u3]
    };
    let mut session = fresh_session(&universes[0].0, None);
    let original_digest = session.base_digest();
    let original_answer = render(&session.concretize_str("zlib"));

    session.apply_base_delta(&universes[1].0, universes[1].1.as_ref()).expect("publish");
    let published_digest = session.base_digest();
    let published_answer = render(&session.concretize_str("zlib"));
    assert_ne!(published_digest, original_digest, "publishing must change the digest");
    assert_ne!(published_answer, original_answer, "zlib@2.0 must win once published");

    session.apply_base_delta(&universes[2].0, universes[2].1.as_ref()).expect("yank");
    assert_eq!(
        session.base_digest(),
        original_digest,
        "yanking the publish must round-trip the digest"
    );
    assert_eq!(
        render(&session.concretize_str("zlib")),
        original_answer,
        "yanking the publish must round-trip the answers"
    );

    session.apply_base_delta(&universes[3].0, universes[3].1.as_ref()).expect("re-publish");
    assert_eq!(session.base_digest(), published_digest, "re-publishing must round-trip again");
    assert_eq!(render(&session.concretize_str("zlib")), published_answer);
    assert_eq!(session.stats().base_patches, 3);
    assert_eq!(session.stats().base_grounds, 1);
}
