//! Fact generation (the "setup" phase of Section VII).
//!
//! This module translates a problem instance — package recipes, the site configuration,
//! the user's root specs, and optionally the installed-package database — into the input
//! facts consumed by `concretize.lp`. It is the analogue of Spack's `SpackSolverSetup`:
//! the paper notes a typical solve has 10k–100k facts, and that this phase (Python in
//! Spack, Rust here) dominates runtime for large buildcaches (Fig. 7e).
//!
//! Directives are encoded as *generalized conditions* (Section V-A): each directive gets
//! a unique integer ID, a set of `condition_requirementN` facts (what must hold for the
//! directive to trigger) and a set of `imposed_constraintN` facts (what holds once it
//! triggers).
//!
//! # Base vs. request facts (multi-shot sessions)
//!
//! The facts split cleanly along the session boundary:
//!
//! * **Base facts** — repository recipes, site configuration, and the installed
//!   database. They are identical for every request, cover the *whole* repository
//!   (the session serves arbitrary roots), and are emitted once by
//!   [`FactBuilder::base`], which also records an order-stable digest
//!   ([`asp::Control::fact_digest`]) usable as a cache key. Emission order is fully
//!   deterministic: every collection iterated here is a `BTreeMap`/`BTreeSet` or an
//!   ordered `Vec` — no hash-map iteration order can leak into the stream.
//! * **Request facts** — the user's root specs: `root`/`root_condition` facts, their
//!   impositions, and satisfies-map entries for constraint strings the request's view
//!   of the base does not already cover. Emitted per request by [`BaseFacts::request`]
//!   on a control forked from the frozen base.
//!
//! # Fact owners
//!
//! Every fact is emitted under an owner set ([`asp::Control::set_fact_owners`]): the
//! packages whose presence in a request's dependency closure makes a one-shot solve
//! emit it. A session request excludes the owners outside its closure
//! ([`BaseFacts::request_exclusions`]) and so sees exactly the one-shot fact set:
//!
//! * recipe facts → the package (dependency facts and the dependency's impositions
//!   also name the dependency, which every closure of the package contains);
//! * `possible_provider` / `provider_weight` → the virtual and the provider;
//! * installed-record facts, including the compilers a record introduces → the
//!   record's package (`hash_depends_on` also names the dependency);
//! * `version_satisfies_map` → the constrained package and the package whose
//!   directive referenced the constraint, `compiler_satisfies_map` /
//!   `target_satisfies_map` → the referencing package; emitted once per referencer;
//! * site facts and request facts → global.

use std::collections::{BTreeMap, BTreeSet};

use asp::Control;
use spack_repo::Repository;
use spack_spec::{Spec, Version, VersionConstraint};
use spack_store::Database;

use crate::config::SiteConfig;
use crate::ConcretizeError;

/// First generalized-condition id. Ids are opaque to the logic program; requests
/// continue above the base's ids.
const CONDITION_ID_BASE: i64 = 10_000_000;

/// Constraint string → the packages whose directives reference it (`None`: a root
/// spec). Decides the owners of the constraint's satisfies-map facts.
type Referencers<K> = BTreeMap<K, BTreeSet<Option<String>>>;

/// Summary of the generated problem instance.
#[derive(Debug, Clone, Default)]
pub struct SetupInfo {
    /// Packages that could possibly appear in the solution.
    pub possible_packages: usize,
    /// Number of generated facts.
    pub facts: usize,
    /// Number of generalized conditions.
    pub conditions: usize,
    /// Number of installed records encoded for reuse.
    pub installed: usize,
    /// Conditions arising from the user's root specs, as `(condition id, source text)`.
    /// The concretizer pins each one true through a solver assumption, so an UNSAT
    /// answer's core names the root requirements that cannot hold together.
    pub root_conditions: Vec<(i64, String)>,
}

/// The frozen snapshot of everything [`FactBuilder::base`] derived from repository,
/// site, and database: the constraint strings whose satisfies-maps are already
/// emitted (with their referencers), the known versions behind those maps, the base
/// condition-id watermark, and the base digest. Immutable and request-independent —
/// one `BaseFacts` serves every request of a session, from any thread.
#[derive(Debug, Clone)]
pub struct BaseFacts {
    site: SiteConfig,
    /// Non-virtual packages covered by the base (the whole repository).
    possible: BTreeSet<String>,
    /// Virtual package names covered by the base.
    virtuals: BTreeSet<String>,
    /// Versions known per package (declared plus installed), for the satisfies maps.
    known_versions: BTreeMap<String, BTreeSet<Version>>,
    /// Constraint maps the base already emitted, by referencer.
    version_constraints: Referencers<(String, String)>,
    compiler_constraints: Referencers<String>,
    target_constraints: Referencers<String>,
    /// Highest condition id used by the base; request ids start above it.
    condition_id: i64,
    /// Number of generalized conditions in the base.
    conditions: usize,
    /// Number of installed records encoded for reuse.
    installed: usize,
    /// Number of base facts emitted.
    facts: usize,
    /// Order-stable digest of the base fact stream (see [`asp::Control::fact_digest`]).
    digest: u64,
}

/// Every root must name a package, and every name must be known.
fn check_roots(repo: &Repository, roots: &[Spec]) -> Result<(), ConcretizeError> {
    for root in roots {
        let name = root
            .name
            .as_deref()
            .ok_or_else(|| ConcretizeError::Setup("root specs must name a package".to_string()))?;
        for name in
            std::iter::once(name).chain(root.dependencies.iter().filter_map(|d| d.name.as_deref()))
        {
            if repo.get(name).is_none() && !repo.is_virtual(name) {
                return Err(ConcretizeError::UnknownPackage(name.to_string()));
            }
        }
    }
    Ok(())
}

/// The packages and virtuals a one-shot solve of `roots` covers: the possible
/// dependencies of every root and `^dependency` name.
fn closure(repo: &Repository, roots: &[Spec]) -> BTreeSet<String> {
    let mut names: Vec<&str> = Vec::new();
    for root in roots {
        names.extend(root.name.as_deref());
        names.extend(root.dependencies.iter().filter_map(|d| d.name.as_deref()));
    }
    repo.possible_dependencies(&names)
}

impl BaseFacts {
    /// The digest of the base fact stream — the session's cache key: identical
    /// repository + site + database inputs produce an identical digest.
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Packages covered by the base problem.
    pub fn possible_packages(&self) -> usize {
        self.possible.len()
    }

    /// Installed records encoded for reuse.
    pub fn installed(&self) -> usize {
        self.installed
    }

    /// Number of base facts emitted.
    pub fn fact_count(&self) -> usize {
        self.facts
    }

    /// The site configuration these facts were emitted against — reused verbatim when
    /// a session re-emits the base stream for an in-place base patch
    /// ([`crate::ConcretizerSession::apply_base_delta`]).
    pub(crate) fn site(&self) -> &SiteConfig {
        &self.site
    }

    /// Every package and virtual name: the partition argument of
    /// [`asp::Control::freeze_base_partitioned`] and [`asp::FrozenControl::patch_base`],
    /// which both ignore it now that facts carry their owners.
    pub fn partition_symbols(&self) -> Vec<String> {
        self.possible.iter().chain(self.virtuals.iter()).cloned().collect()
    }

    /// What a request must *exclude* from its view of the frozen base: every package
    /// and virtual outside the request's possible-dependency closure, as fact owners
    /// for [`asp::Control::restrict_symbols`]. The request then keeps exactly the
    /// facts a one-shot solve of the same roots emits (see the module docs). The
    /// second element, integer ranges for [`asp::Control::restrict_int_ranges`], is
    /// always empty.
    pub fn request_exclusions(
        &self,
        repo: &Repository,
        roots: &[Spec],
    ) -> (Vec<String>, Vec<(i64, i64)>) {
        let closure = closure(repo, roots);
        let outside = self.possible.iter().chain(self.virtuals.iter());
        (outside.filter(|name| !closure.contains(*name)).cloned().collect(), Vec::new())
    }

    /// Emit one request's spec facts into a control forked from the frozen base:
    /// root facts, root-condition impositions, and satisfies-map entries for
    /// constraint strings whose base copy the request does not keep (the base never
    /// emitted it, or only for referencers outside the request's closure). Condition
    /// ids continue above the base watermark, so requests never collide with base
    /// conditions (and, being independent solves, not colliding with each other is
    /// irrelevant).
    pub fn request(
        &self,
        repo: &Repository,
        ctl: &mut asp::Control,
        roots: &[Spec],
    ) -> Result<SetupInfo, ConcretizeError> {
        check_roots(repo, roots)?;
        let closure = closure(repo, roots);
        let mut builder = FactBuilder::new(repo, &self.site, None);
        builder.baseline = Some((self, &closure));
        builder.condition_id = self.condition_id;
        for root in roots {
            builder.root_facts(ctl, root)?;
        }
        builder.constraint_maps(ctl);
        Ok(SetupInfo {
            possible_packages: self.possible.len(),
            facts: ctl.fact_count(),
            conditions: self.conditions + builder.conditions,
            installed: self.installed,
            root_conditions: builder.root_conditions,
        })
    }
}

/// Generates facts into an [`asp::Control`].
pub struct FactBuilder<'a> {
    repo: &'a Repository,
    site: &'a SiteConfig,
    database: Option<&'a Database>,
    condition_id: i64,
    conditions: usize,
    /// (package, constraint string) pairs whose `version_satisfies_map` must be
    /// emitted, with their referencers.
    version_constraints: Referencers<(String, String)>,
    /// Compiler constraint strings (maps are global).
    compiler_constraints: Referencers<String>,
    /// Target constraint strings.
    target_constraints: Referencers<String>,
    /// The package whose recipe facts are being emitted (`None`: root specs).
    referencer: Option<String>,
    /// Versions known per package (declared plus installed), for the satisfies maps.
    known_versions: BTreeMap<String, BTreeSet<Version>>,
    possible: BTreeSet<String>,
    root_conditions: Vec<(i64, String)>,
    /// When generating *request* facts on a session: the frozen base (whose known
    /// versions feed the maps) and the request's closure (which decides whether the
    /// base's copy of a map is in the request's view).
    baseline: Option<(&'a BaseFacts, &'a BTreeSet<String>)>,
}

impl<'a> FactBuilder<'a> {
    /// Create a fact builder for a problem instance.
    pub fn new(repo: &'a Repository, site: &'a SiteConfig, database: Option<&'a Database>) -> Self {
        FactBuilder {
            repo,
            site,
            database,
            condition_id: CONDITION_ID_BASE,
            conditions: 0,
            version_constraints: BTreeMap::new(),
            compiler_constraints: BTreeMap::new(),
            target_constraints: BTreeMap::new(),
            referencer: None,
            known_versions: BTreeMap::new(),
            possible: BTreeSet::new(),
            root_conditions: Vec::new(),
            baseline: None,
        }
    }

    /// Generate the *base* half of a session's facts — site configuration, every
    /// package recipe in the repository, all virtual providers, and the installed
    /// database — and return the frozen [`BaseFacts`] snapshot (constraint-map
    /// baselines, condition-id watermark, digest). No root specs are involved: the
    /// base covers the whole repository so any later request is answerable.
    pub fn base(mut self, ctl: &mut asp::Control) -> Result<BaseFacts, ConcretizeError> {
        self.possible = self.repo.names().map(str::to_string).collect();
        let virtuals: BTreeSet<String> = self.repo.virtuals().map(str::to_string).collect();
        for v in &virtuals {
            self.possible.remove(v);
        }

        self.config_facts(ctl);
        let packages: Vec<String> = self.possible.iter().cloned().collect();
        for name in &packages {
            self.package_facts(ctl, name)?;
        }
        self.provider_facts(ctl, &virtuals);
        let installed = self.installed_facts(ctl);
        self.constraint_maps(ctl);

        Ok(BaseFacts {
            site: self.site.clone(),
            possible: self.possible,
            virtuals,
            known_versions: self.known_versions,
            version_constraints: self.version_constraints,
            compiler_constraints: self.compiler_constraints,
            target_constraints: self.target_constraints,
            condition_id: self.condition_id,
            conditions: self.conditions,
            installed,
            facts: ctl.fact_count(),
            digest: ctl.fact_digest(),
        })
    }

    /// Generate all facts for the given root specs into `ctl`.
    pub fn generate(
        mut self,
        ctl: &mut Control,
        roots: &[Spec],
    ) -> Result<SetupInfo, ConcretizeError> {
        // 1. Determine the possible-package set.
        check_roots(self.repo, roots)?;
        self.possible = closure(self.repo, roots);
        // Remove virtuals from the package set (they have their own facts).
        let virtuals: BTreeSet<String> =
            self.possible.iter().filter(|n| self.repo.is_virtual(n)).cloned().collect();
        for v in &virtuals {
            self.possible.remove(v);
        }

        // 2. Site configuration facts.
        self.config_facts(ctl);

        // 3. Package facts and directive conditions.
        let packages: Vec<String> = self.possible.iter().cloned().collect();
        for name in &packages {
            self.package_facts(ctl, name)?;
        }

        // 4. Virtual provider facts.
        self.provider_facts(ctl, &virtuals);

        // 5. Root specs.
        ctl.set_fact_owners::<&str>(&[]);
        for root in roots {
            self.root_facts(ctl, root)?;
        }

        // 6. Installed database (reuse).
        let installed = self.installed_facts(ctl);

        // 7. Constraint satisfaction maps.
        self.constraint_maps(ctl);

        Ok(SetupInfo {
            possible_packages: packages.len(),
            facts: ctl.fact_count(),
            conditions: self.conditions,
            installed,
            root_conditions: self.root_conditions.clone(),
        })
    }

    // ---- site configuration --------------------------------------------------------------

    fn config_facts(&mut self, ctl: &mut Control) {
        ctl.set_fact_owners::<&str>(&[]);
        ctl.add_fact("platform", &[self.site.platform.as_str().into()]);
        for (i, os) in self.site.operating_systems.iter().enumerate() {
            ctl.add_fact("os", &[os.name().into()]);
            ctl.add_fact("os_weight", &[os.name().into(), (i as i64).into()]);
        }
        let targets = self.site.available_targets();
        for info in &targets {
            ctl.add_fact("target", &[info.target.name().into()]);
            ctl.add_fact(
                "target_weight",
                &[info.target.name().into(), (info.weight as i64).into()],
            );
        }
        for (i, compiler) in self.site.compilers.iter().enumerate() {
            let id = SiteConfig::compiler_id(compiler);
            ctl.add_fact("compiler", &[id.as_str().into()]);
            ctl.add_fact("compiler_weight", &[id.as_str().into(), (i as i64).into()]);
            for info in &targets {
                if self.site.targets.compiler_supports(
                    &compiler.name,
                    &compiler.version,
                    info.target.name(),
                ) {
                    ctl.add_fact(
                        "compiler_supports_target",
                        &[id.as_str().into(), info.target.name().into()],
                    );
                }
            }
        }
    }

    // ---- package metadata ------------------------------------------------------------------

    fn package_facts(&mut self, ctl: &mut Control, name: &str) -> Result<(), ConcretizeError> {
        let pkg = match self.repo.get(name) {
            Some(p) => p,
            None => return Ok(()), // virtual or external; no recipe facts
        };
        ctl.set_fact_owners(&[name]);
        self.referencer = Some(name.to_string());
        ctl.add_fact("possible_node", &[name.into()]);

        // Versions, sorted newest first so the weight reflects "oldness" (Table II).
        let mut versions: Vec<_> = pkg.versions.clone();
        versions.sort_by(|a, b| b.version.cmp(&a.version));
        for (weight, decl) in versions.iter().enumerate() {
            let vstr = decl.version.to_string();
            ctl.add_fact(
                "version_declared",
                &[name.into(), vstr.as_str().into(), (weight as i64).into()],
            );
            if decl.deprecated {
                ctl.add_fact("deprecated_version", &[name.into(), vstr.as_str().into()]);
            }
            self.known_versions.entry(name.to_string()).or_default().insert(decl.version.clone());
        }

        // Variants.
        for variant in &pkg.variants {
            ctl.add_fact("variant", &[name.into(), variant.name.as_str().into()]);
            let kind = if variant.values.is_empty() { "bool" } else { "multi" };
            ctl.add_fact("variant_kind", &[name.into(), variant.name.as_str().into(), kind.into()]);
            let default = variant.default.as_str();
            ctl.add_fact(
                "variant_default",
                &[name.into(), variant.name.as_str().into(), default.as_str().into()],
            );
            let mut values: Vec<String> = if variant.values.is_empty() {
                vec!["true".to_string(), "false".to_string()]
            } else {
                variant.values.clone()
            };
            if !values.contains(&default) {
                values.push(default.clone());
            }
            for value in values {
                ctl.add_fact(
                    "variant_possible_value",
                    &[name.into(), variant.name.as_str().into(), value.as_str().into()],
                );
            }
        }

        // Dependencies.
        for dep in &pkg.dependencies {
            let dep_name = dep.spec.name.clone().expect("dependency specs are named");
            let id = self.new_condition(ctl);
            self.require_node(ctl, id, name);
            self.add_spec_requirements(ctl, id, name, &dep.when);
            if self.repo.is_virtual(&dep_name) {
                ctl.add_fact(
                    "virtual_dependency_condition",
                    &[id.into(), name.into(), dep_name.as_str().into()],
                );
            } else {
                // Every closure containing the package contains the dependency.
                ctl.set_fact_owners(&[name, dep_name.as_str()]);
                ctl.add_fact(
                    "dependency_condition",
                    &[id.into(), name.into(), dep_name.as_str().into()],
                );
                self.add_spec_impositions(ctl, id, &dep_name, &dep.spec);
                ctl.set_fact_owners(&[name]);
            }
        }

        // Conflicts. Each carries a human-readable description so a triggered conflict
        // can be rendered as a diagnostic naming the offending directive.
        for conflict in &pkg.conflicts {
            let id = self.new_condition(ctl);
            ctl.add_fact("conflict_condition", &[id.into()]);
            let when = conflict.when.to_string();
            let msg = if when.is_empty() {
                format!("conflicts with {}", conflict.spec)
            } else {
                format!("{when} conflicts with {}", conflict.spec)
            };
            ctl.add_fact("conflict_info", &[id.into(), name.into(), msg.as_str().into()]);
            self.require_node(ctl, id, name);
            self.add_spec_requirements(ctl, id, name, &conflict.when);
            self.add_spec_requirements(ctl, id, name, &conflict.spec);
        }

        // Provides.
        for provides in &pkg.provides {
            let id = self.new_condition(ctl);
            self.require_node(ctl, id, name);
            self.add_spec_requirements(ctl, id, name, &provides.when);
            ctl.add_fact(
                "imposed_constraint3",
                &[
                    id.into(),
                    "provides_ok".into(),
                    provides.virtual_name.as_str().into(),
                    name.into(),
                ],
            );
        }
        self.referencer = None;
        Ok(())
    }

    fn provider_facts(&mut self, ctl: &mut Control, virtuals: &BTreeSet<String>) {
        for v in virtuals {
            for (i, provider) in self.repo.providers(v).iter().enumerate() {
                if self.possible.contains(provider) {
                    ctl.set_fact_owners(&[v, provider]);
                    ctl.add_fact(
                        "possible_provider",
                        &[v.as_str().into(), provider.as_str().into()],
                    );
                    ctl.add_fact(
                        "provider_weight",
                        &[v.as_str().into(), provider.as_str().into(), (i as i64).into()],
                    );
                }
            }
        }
    }

    // ---- root specs ---------------------------------------------------------------------------

    fn root_facts(&mut self, ctl: &mut Control, root: &Spec) -> Result<(), ConcretizeError> {
        let name = root.name.clone().expect("validated in generate()");
        if self.repo.is_virtual(&name) {
            ctl.add_fact("root_requirement_virtual", &[name.as_str().into()]);
        } else {
            ctl.add_fact("root", &[name.as_str().into()]);
            // Impose the root's own constraints, conditional only on it being a node
            // (which it always is). The condition is assumption-guarded: its id goes
            // into the unsat core when the constraint cannot hold.
            let mut bare = root.clone();
            bare.dependencies.clear();
            let id = self.new_root_condition(ctl, &bare.to_string());
            self.require_node(ctl, id, &name);
            self.add_spec_impositions(ctl, id, &name, root);
        }
        // ^dependency constraints: force the named package into the DAG and impose its
        // constraints on it.
        for dep in &root.dependencies {
            let dep_name = dep.name.clone().ok_or_else(|| {
                ConcretizeError::Setup("anonymous ^ constraints are not supported".to_string())
            })?;
            if self.repo.is_virtual(&dep_name) {
                ctl.add_fact("root_requirement_virtual", &[dep_name.as_str().into()]);
            } else {
                ctl.add_fact("root_requirement_node", &[dep_name.as_str().into()]);
                let id = self.new_root_condition(ctl, &format!("^{dep}"));
                self.require_node(ctl, id, &dep_name);
                self.add_spec_impositions(ctl, id, &dep_name, dep);
            }
        }
        Ok(())
    }

    // ---- installed database (reuse) ------------------------------------------------------------

    fn installed_facts(&mut self, ctl: &mut Control) -> usize {
        let database = match self.database {
            Some(db) => db,
            None => return 0,
        };
        let mut count = 0;
        for record in database.iter() {
            if !self.possible.contains(&record.name) {
                continue;
            }
            // Only offer installations for this platform.
            if record.platform != self.site.platform {
                continue;
            }
            count += 1;
            let hash = record.hash.as_str();
            let name = record.name.as_str();
            ctl.set_fact_owners(&[name]);
            ctl.add_fact("installed_hash", &[name.into(), hash.into()]);
            // Adopted attributes go through the `*_set` demand indirection (see
            // concretize.lp): the node's chosen attribute must *agree* with the
            // installation's, and a disagreement is a relaxable error rather than a
            // hard choice-bound violation. Keeping demands off the choice atoms also
            // keeps the grounding small — no pairwise chosen-vs-chosen conflict rules.
            let version = record.version.to_string();
            ctl.add_fact(
                "hash_attr3",
                &["version_set".into(), hash.into(), name.into(), version.as_str().into()],
            );
            self.known_versions
                .entry(record.name.clone())
                .or_default()
                .insert(record.version.clone());
            let compiler_id = SiteConfig::compiler_id(&record.compiler);
            ctl.add_fact(
                "hash_attr3",
                &["compiler_set".into(), hash.into(), name.into(), compiler_id.as_str().into()],
            );
            // Compilers not present in the site configuration are added with a low
            // preference so reused specs referencing them remain representable, and
            // their installed artifacts vouch for their targets. Site compilers'
            // target support comes from the site configuration alone: a record must
            // not widen it.
            if !self.site.compilers.contains(&record.compiler) {
                ctl.add_fact("compiler", &[compiler_id.as_str().into()]);
                ctl.add_fact(
                    "compiler_weight",
                    &[compiler_id.as_str().into(), (self.site.compilers.len() as i64).into()],
                );
                ctl.add_fact(
                    "compiler_supports_target",
                    &[compiler_id.as_str().into(), record.target.as_str().into()],
                );
            }
            ctl.add_fact(
                "hash_attr3",
                &["node_os_set".into(), hash.into(), name.into(), record.os.as_str().into()],
            );
            ctl.add_fact(
                "hash_attr3",
                &[
                    "node_platform_set".into(),
                    hash.into(),
                    name.into(),
                    record.platform.as_str().into(),
                ],
            );
            ctl.add_fact(
                "hash_attr3",
                &[
                    "node_target_set".into(),
                    hash.into(),
                    name.into(),
                    record.target.as_str().into(),
                ],
            );
            for (variant, value) in &record.variants {
                ctl.add_fact(
                    "hash_attr4",
                    &[
                        "variant_set".into(),
                        hash.into(),
                        name.into(),
                        variant.as_str().into(),
                        value.as_str().as_str().into(),
                    ],
                );
            }
            for virtual_name in &record.provides {
                ctl.add_fact(
                    "hash_attr3",
                    &["provides_ok".into(), hash.into(), virtual_name.as_str().into(), name.into()],
                );
            }
            for (dep_name, dep_hash) in &record.deps {
                // Skip dangling dependency references (e.g. a pruned mirror): reusing this
                // record then simply falls back to resolving that dependency normally.
                if self.possible.contains(dep_name) && database.get(dep_hash).is_some() {
                    ctl.set_fact_owners(&[name, dep_name.as_str()]);
                    ctl.add_fact(
                        "hash_depends_on",
                        &[
                            hash.into(),
                            name.into(),
                            dep_name.as_str().into(),
                            dep_hash.as_str().into(),
                        ],
                    );
                }
            }
        }
        ctl.set_fact_owners::<&str>(&[]);
        count
    }

    // ---- constraint helpers -----------------------------------------------------------------

    fn new_condition(&mut self, ctl: &mut Control) -> i64 {
        self.condition_id += 1;
        self.conditions += 1;
        ctl.add_fact("condition", &[self.condition_id.into()]);
        self.condition_id
    }

    /// A condition owned by the user's root specs: emitted as `root_condition(ID, Text)`
    /// instead of a plain `condition(ID)` fact, so the logic program can guard it behind
    /// a free `assumed(ID)` choice that the concretizer pins with solver assumptions.
    fn new_root_condition(&mut self, ctl: &mut Control, text: &str) -> i64 {
        self.condition_id += 1;
        self.conditions += 1;
        ctl.add_fact("root_condition", &[self.condition_id.into(), text.into()]);
        self.root_conditions.push((self.condition_id, text.to_string()));
        self.condition_id
    }

    fn require_node(&mut self, ctl: &mut Control, id: i64, package: &str) {
        ctl.add_fact("condition_requirement2", &[id.into(), "node".into(), package.into()]);
    }

    /// Add `condition_requirementN` facts for every constraint piece of `spec`, applied to
    /// `subject` (or to the package the spec names, for `^dep` pieces).
    fn add_spec_requirements(&mut self, ctl: &mut Control, id: i64, subject: &str, spec: &Spec) {
        let target_pkg = spec.name.as_deref().unwrap_or(subject).to_string();
        if spec.name.is_some() && spec.name.as_deref() != Some(subject) {
            // A named constraint inside a when= clause refers to that package being in
            // the DAG (e.g. `when="+openmp ^openblas"` on berkeleygw).
            self.require_node(ctl, id, &target_pkg);
        }
        self.spec_pieces(ctl, id, &target_pkg, spec, true);
        for dep in &spec.dependencies {
            let dep_name = match &dep.name {
                Some(n) => n.clone(),
                None => continue,
            };
            self.require_node(ctl, id, &dep_name);
            self.spec_pieces(ctl, id, &dep_name, dep, true);
        }
    }

    /// Add `imposed_constraintN` facts for every constraint piece of `spec`, applied to
    /// `subject`.
    fn add_spec_impositions(&mut self, ctl: &mut Control, id: i64, subject: &str, spec: &Spec) {
        self.spec_pieces(ctl, id, subject, spec, false);
    }

    fn spec_pieces(
        &mut self,
        ctl: &mut Control,
        id: i64,
        package: &str,
        spec: &Spec,
        requirement: bool,
    ) {
        let pred3 = if requirement { "condition_requirement3" } else { "imposed_constraint3" };
        let pred4 = if requirement { "condition_requirement4" } else { "imposed_constraint4" };
        if !spec.versions.is_any() {
            let constraint = spec.versions.to_string();
            let referencer = self.referencer.clone();
            let key = (package.to_string(), constraint.clone());
            self.version_constraints.entry(key).or_default().insert(referencer);
            ctl.add_fact(
                pred3,
                &[
                    id.into(),
                    "version_satisfies".into(),
                    package.into(),
                    constraint.as_str().into(),
                ],
            );
        }
        // Requirements *test* the chosen variant value; impositions go through the
        // `variant_set` indirection so two conflicting demands surface as a
        // `variant-conflict` error instead of tripping the choice bound (which would
        // be a hard, unexplainable UNSAT).
        let variant_attr = if requirement { "variant_value" } else { "variant_set" };
        for (variant, value) in &spec.variants {
            ctl.add_fact(
                pred4,
                &[
                    id.into(),
                    variant_attr.into(),
                    package.into(),
                    variant.as_str().into(),
                    value.as_str().as_str().into(),
                ],
            );
        }
        if let Some(compiler) = &spec.compiler {
            let constraint = compiler.to_string();
            let referencer = self.referencer.clone();
            self.compiler_constraints.entry(constraint.clone()).or_default().insert(referencer);
            ctl.add_fact(
                pred3,
                &[
                    id.into(),
                    "compiler_satisfies".into(),
                    package.into(),
                    constraint.as_str().into(),
                ],
            );
        }
        if let Some(target) = &spec.target {
            let referencer = self.referencer.clone();
            self.target_constraints.entry(target.clone()).or_default().insert(referencer);
            ctl.add_fact(
                pred3,
                &[id.into(), "target_satisfies".into(), package.into(), target.as_str().into()],
            );
        }
        // Requirements test the chosen os/platform; impositions demand one through the
        // `*_set` indirection (same pattern as variants — see above).
        if let Some(os) = &spec.os {
            let os_attr = if requirement { "node_os" } else { "node_os_set" };
            ctl.add_fact(pred3, &[id.into(), os_attr.into(), package.into(), os.as_str().into()]);
        }
        if let Some(platform) = &spec.platform {
            let platform_attr = if requirement { "node_platform" } else { "node_platform_set" };
            ctl.add_fact(
                pred3,
                &[id.into(), platform_attr.into(), package.into(), platform.as_str().into()],
            );
        }
    }

    // ---- constraint satisfaction maps -------------------------------------------------------

    /// Versions known for `package`: locally collected ones, falling back to the
    /// frozen base's (session requests collect none of their own — the base already
    /// knows every declared and installed version).
    fn known_versions_of(&self, package: &str) -> Option<&BTreeSet<Version>> {
        self.known_versions
            .get(package)
            .or_else(|| self.baseline.and_then(|(b, _)| b.known_versions.get(package)))
    }

    fn constraint_maps(&mut self, ctl: &mut Control) {
        // Is the frozen base's copy of a map in this request's view? (Never, when
        // generating the base or a one-shot problem.)
        let in_view = |refs: Option<&BTreeSet<Option<String>>>| {
            self.baseline.is_some_and(|(_, closure)| {
                refs.is_some_and(|refs| refs.iter().flatten().any(|r| closure.contains(r)))
            })
        };
        let mut emit = |pred: &str, rows: Vec<Vec<asp::Value>>, owners: Vec<Vec<&str>>| {
            for owners in owners {
                ctl.set_fact_owners(&owners);
                for row in &rows {
                    ctl.add_fact(pred, row);
                }
            }
        };
        // version_satisfies_map(P, Constraint, V) for every known version in range.
        for (pair, referencers) in &self.version_constraints {
            let (package, constraint) = pair;
            let base_refs = self.baseline.and_then(|(b, _)| b.version_constraints.get(pair));
            let seen = self.baseline.is_some_and(|(_, closure)| closure.contains(package));
            if seen && in_view(base_refs) {
                continue;
            }
            let Some(versions) = self.known_versions_of(package) else { continue };
            let vc = VersionConstraint::parse(constraint);
            let rows = versions
                .iter()
                .filter(|v| vc.satisfies(v))
                .map(|v| {
                    vec![package.as_str().into(), constraint.as_str().into(), v.to_string().into()]
                })
                .collect();
            emit("version_satisfies_map", rows, map_owners(referencers, Some(package)));
        }
        // compiler_satisfies_map(Constraint, CompilerId).
        for (constraint, referencers) in &self.compiler_constraints {
            if in_view(self.baseline.and_then(|(b, _)| b.compiler_constraints.get(constraint))) {
                continue;
            }
            let cspec = spack_spec::parse_spec(constraint).ok().and_then(|s| s.compiler);
            let rows = (self.site.compilers.iter())
                .filter(|c| cspec.as_ref().is_some_and(|cs| cs.satisfied_by(&c.name, &c.version)))
                .map(|c| vec![constraint.as_str().into(), SiteConfig::compiler_id(c).into()])
                .collect();
            emit("compiler_satisfies_map", rows, map_owners(referencers, None));
        }
        // target_satisfies_map(Constraint, Target): exact name, family membership, or a
        // trailing-colon family range like `aarch64:`.
        for (constraint, referencers) in &self.target_constraints {
            if in_view(self.baseline.and_then(|(b, _)| b.target_constraints.get(constraint))) {
                continue;
            }
            let base = constraint.trim_end_matches(':');
            let rows = (self.site.available_targets().into_iter())
                .filter(|info| info.target.name() == base || info.family == base)
                .map(|info| vec![constraint.as_str().into(), info.target.name().into()])
                .collect();
            emit("target_satisfies_map", rows, map_owners(referencers, None));
        }
        ctl.set_fact_owners::<&str>(&[]);
    }
}

/// The owner sets a satisfies map is emitted under: once per referencing package
/// (together with `constrained`, the package a version map is about), or once,
/// globally, when a root spec references the constraint.
fn map_owners<'r>(
    referencers: &'r BTreeSet<Option<String>>,
    constrained: Option<&'r str>,
) -> Vec<Vec<&'r str>> {
    if referencers.contains(&None) {
        return vec![Vec::new()];
    }
    referencers
        .iter()
        .flatten()
        .map(|r| constrained.into_iter().chain([r.as_str()]).collect())
        .collect()
}

/// Convenience wrapper: create a control, generate facts, and return both.
pub fn setup_problem(
    repo: &Repository,
    site: &SiteConfig,
    database: Option<&Database>,
    roots: &[Spec],
    config: asp::SolverConfig,
) -> Result<(Control, SetupInfo), ConcretizeError> {
    let mut ctl = Control::new(config);
    let info = FactBuilder::new(repo, site, database).generate(&mut ctl, roots)?;
    Ok((ctl, info))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spack_repo::builtin_repo;
    use spack_spec::parse_spec;

    fn count_facts(roots: &[&str], database: Option<&Database>) -> (Control, SetupInfo) {
        let repo = builtin_repo();
        let site = SiteConfig::quartz();
        let specs: Vec<Spec> = roots.iter().map(|r| parse_spec(r).unwrap()).collect();
        setup_problem(&repo, &site, database, &specs, asp::SolverConfig::default()).unwrap()
    }

    #[test]
    fn zlib_generates_compact_instance() {
        let (ctl, info) = count_facts(&["zlib"], None);
        assert_eq!(info.possible_packages, 1);
        assert!(ctl.fact_count() > 20, "config + package facts expected");
        assert!(info.installed == 0);
    }

    #[test]
    fn hdf5_pulls_in_mpi_providers() {
        let (_, info) = count_facts(&["hdf5"], None);
        assert!(info.possible_packages > 20, "got {}", info.possible_packages);
        assert!(info.conditions > 30);
    }

    #[test]
    fn unknown_package_is_an_error() {
        let repo = builtin_repo();
        let site = SiteConfig::quartz();
        let spec = parse_spec("no-such-package").unwrap();
        let err = setup_problem(&repo, &site, None, &[spec], asp::SolverConfig::default());
        assert!(matches!(err, Err(ConcretizeError::UnknownPackage(_))));
    }

    #[test]
    fn installed_records_become_hash_facts() {
        let repo = builtin_repo();
        let db =
            spack_store::synthesize_buildcache(&repo, &spack_store::BuildcacheConfig::default());
        let (ctl, info) = count_facts(&["hdf5"], Some(&db));
        assert!(info.installed > 0);
        // The fact count grows roughly proportionally to the cache size (Section VII-C).
        let (ctl_nocache, _) = count_facts(&["hdf5"], None);
        assert!(ctl.fact_count() > ctl_nocache.fact_count() * 2);
    }

    #[test]
    fn base_fact_digest_is_stable_across_builds() {
        // Satellite of the session work: two builds of the same repo + site + cache
        // must produce byte-identical base fact streams (no hash-map iteration order
        // can leak), asserted through the order-sensitive digest.
        let repo = builtin_repo();
        let site = SiteConfig::quartz();
        let db =
            spack_store::synthesize_buildcache(&repo, &spack_store::BuildcacheConfig::default());
        let build = || {
            let mut ctl = asp::Control::new(asp::SolverConfig::default());
            let base = FactBuilder::new(&repo, &site, Some(&db)).base(&mut ctl).unwrap();
            (base.digest(), ctl.fact_count())
        };
        let (d1, n1) = build();
        let (d2, n2) = build();
        assert_eq!(n1, n2, "fact counts must agree");
        assert_eq!(d1, d2, "base digests must be identical across builds");
        assert_ne!(d1, 0, "digest must be computed");

        // A different database must change the digest (it is a cache *key*).
        let mut ctl = asp::Control::new(asp::SolverConfig::default());
        let no_db = FactBuilder::new(&repo, &site, None).base(&mut ctl).unwrap();
        assert_ne!(no_db.digest(), d1);
    }

    #[test]
    fn base_covers_the_whole_repository() {
        let repo = builtin_repo();
        let site = SiteConfig::quartz();
        let mut ctl = asp::Control::new(asp::SolverConfig::default());
        let base = FactBuilder::new(&repo, &site, None).base(&mut ctl).unwrap();
        assert_eq!(base.possible_packages(), repo.len());
        // Request facts ride on top: root conditions continue above the base ids.
        let spec = parse_spec("hdf5@1.10:").unwrap();
        let info = base.request(&repo, &mut ctl, std::slice::from_ref(&spec)).unwrap();
        assert_eq!(info.root_conditions.len(), 1);
        assert!(info.root_conditions[0].0 > 0);
        assert!(info.conditions > base.possible_packages(), "base + request conditions");
    }

    #[test]
    fn request_facts_skip_constraints_the_base_emitted() {
        // A root constraint string that also appears in a recipe directive must not
        // re-emit its satisfies map (the frozen base already has those facts).
        let repo = builtin_repo();
        let site = SiteConfig::quartz();
        let mut base_ctl = asp::Control::new(asp::SolverConfig::default());
        let base = FactBuilder::new(&repo, &site, None).base(&mut base_ctl).unwrap();
        let count_request_facts = |text: &str| {
            let mut ctl = asp::Control::new(asp::SolverConfig::default());
            let spec = parse_spec(text).unwrap();
            base.request(&repo, &mut ctl, &[spec]).unwrap();
            ctl.fact_count()
        };
        // `zlib@1.2.8:` is a recipe constraint (libxml2 depends on it); a fresh
        // constraint string like `@1.2.11:` needs new map entries on top.
        let reused = count_request_facts("libxml2 ^zlib@1.2.8:");
        let fresh = count_request_facts("libxml2 ^zlib@1.2.11:");
        assert!(
            fresh > reused,
            "fresh constraint must add map facts: fresh={fresh} reused={reused}"
        );
        // The base's copy is owned by its referencers (libxml2, example): a request
        // whose closure holds neither must emit the map itself, as one-shot does.
        let outside = count_request_facts("bzip2 ^zlib@1.2.8:");
        assert!(outside > reused, "out-of-view map must be emitted: {outside} vs {reused}");
    }

    #[test]
    fn version_constraints_produce_maps() {
        let (ctl, _) = count_facts(&["example@1.0.0"], None);
        // The dependency `bzip2@1.0.7:` of example plus the root constraint must both
        // appear; we can't inspect facts directly via Control, but the count reflects
        // the maps (several per constraint).
        assert!(ctl.fact_count() > 100);
    }
}
