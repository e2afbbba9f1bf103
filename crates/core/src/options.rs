//! [`SolveOptions`]: every knob of a concretization in one value.
//!
//! A [`Concretizer`](crate::Concretizer) takes all of its options as one value, which
//! a server carrying options *per request* can also hold, log, or serialize:
//!
//! ```
//! use spack_concretizer::{Concretizer, SiteConfig, SolveOptions};
//! use spack_repo::builtin_repo;
//!
//! let repo = builtin_repo();
//! let options = SolveOptions::new().site(SiteConfig::minimal()).seed(2);
//! let result = Concretizer::new(&repo).with_options(options).concretize_str("zlib");
//! assert!(result.is_ok());
//! ```
//!
//! # Wire form
//!
//! `SolveOptions` holds live references (`database`) and full site descriptions,
//! neither of which can cross a socket. Its serialized counterpart is
//! [`crate::server::wire::RequestOptions`]: the site is named by preset
//! (`"quartz"`, `"lassen"`, `"minimal"`), the database by the `reuse` flag, and the
//! solver knobs (budget, nogood store, seed) travel as plain JSON
//! fields. [`crate::server::wire::RequestOptions::apply`] folds a parsed wire value
//! onto a base `SolverConfig`, which is exactly what the server does per request.

use asp::{SolveBudget, SolverConfig};
use spack_store::Database;

use crate::SiteConfig;

/// Every option of a concretization, in one place: the site model, the optional
/// installed-package database for reuse, and the solver configuration (preset,
/// seed, nogood sharing, solve budget).
///
/// `Default` is the same configuration [`Concretizer::new`] starts from: the
/// Quartz-like site, no reuse, default solver. Construct with struct syntax or
/// with the `site`/`database`/... setters, then pass to
/// [`Concretizer::with_options`].
///
/// [`Concretizer::new`]: crate::Concretizer::new
/// [`Concretizer::with_options`]: crate::Concretizer::with_options
#[derive(Debug, Clone, Default)]
pub struct SolveOptions<'a> {
    /// The site configuration (compilers, operating systems, targets).
    pub site: SiteConfig,
    /// The installed-package database / buildcache to reuse from, when any.
    pub database: Option<&'a Database>,
    /// The solver configuration, including the per-solve budget and the session
    /// nogood-store switch.
    pub solver: SolverConfig,
}

impl<'a> SolveOptions<'a> {
    /// The default options: Quartz-like site, no reuse, default solver.
    pub fn new() -> Self {
        Self::default()
    }

    /// Use a specific site configuration.
    pub fn site(mut self, site: SiteConfig) -> Self {
        self.site = site;
        self
    }

    /// Enable reuse of the given installed-package database / buildcache.
    pub fn database(mut self, database: &'a Database) -> Self {
        self.database = Some(database);
        self
    }

    /// Use a specific solver configuration wholesale (preset, strategy, seed, ...).
    pub fn solver(mut self, solver: SolverConfig) -> Self {
        self.solver = solver;
        self
    }

    /// Bound every solve by a [`SolveBudget`] (wall deadline and/or conflict
    /// limit). An unbounded budget clears any previous one.
    pub fn budget(mut self, budget: SolveBudget) -> Self {
        self.solver.budget = budget.is_bounded().then_some(budget);
        self
    }

    /// Enable or disable the session's cross-request nogood store, which carries
    /// loop nogoods only (default on). Results are byte-identical either way.
    pub fn nogood_store(mut self, enabled: bool) -> Self {
        self.solver.share_nogoods = enabled;
        self
    }

    /// Use a specific solver seed for randomized tie-breaking.
    pub fn seed(mut self, seed: u64) -> Self {
        self.solver.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_concretizer_new() {
        let options = SolveOptions::default();
        assert!(options.database.is_none());
        assert_eq!(options.site.target_family, SiteConfig::quartz().target_family);
        assert_eq!(options.solver.seed, SolverConfig::default().seed);
    }

    #[test]
    fn setters_compose() {
        let options = SolveOptions::new()
            .site(SiteConfig::lassen())
            .nogood_store(false)
            .seed(7)
            .budget(SolveBudget { wall_deadline: None, conflict_limit: Some(100) });
        assert_eq!(options.site.target_family, "ppc64le");
        assert!(!options.solver.share_nogoods);
        assert_eq!(options.solver.seed, 7);
        assert_eq!(options.solver.budget.unwrap().conflict_limit, Some(100));
    }

    #[test]
    fn unbounded_budget_clears() {
        let options = SolveOptions::new()
            .budget(SolveBudget { wall_deadline: None, conflict_limit: Some(1) })
            .budget(SolveBudget::unlimited());
        assert!(options.solver.budget.is_none());
    }
}
