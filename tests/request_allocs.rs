//! Allocation budgets of one request, counted by a global allocator that counts only
//! on the thread that asked for it.
//!
//! A session request reads its frozen base through a view: it does not copy the base's
//! atoms, and its minimize conditions are grouped by ranks computed at freeze time. A
//! change that copies the base per request again (tens of thousands of atom clones,
//! index entries and tuple-key clones) blows the session budget. The one-shot budget
//! pins the unindexed auxiliary minimize atoms and the map-free minimize grouping.
//!
//! Both budgets also pin the solver's flat lists: each solver keeps its watch lists
//! and its linear occurrences in one buffer each, and lays the watch lists out once
//! before the bulk load, so building a solver over about 20k variables allocates a
//! handful of blocks instead of one or two per list. Going back to one vector per
//! watch list and per variable blows both budgets by tens of thousands.
//!
//! They pin the flat ground program too: a grounding keeps its rule and choice bodies
//! in one buffer each, and translation keys shared bodies by slices of that buffer and
//! groups supports with one counting sort. Going back to a `Vec` per ground rule (the
//! re-emitted frozen records of a session request alone are thousands of rules), a
//! `Vec` per body key or a `Vec` of supports per atom blows both budgets.
//!
//! And they pin the shown model: `concretize.lp` `#show`s only the predicates
//! extraction and diagnostics read, and a model copies nothing of a hidden atom. Copying
//! a `String` per true atom again (about 10,800 more allocations for this request, with
//! its argument strings) blows both budgets.
//!
//! Each budget is the count measured when it was set plus 10%; the counts are exact
//! and deterministic for a given build of the code, so a budget moves only when the
//! code does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use spack_concretizer::{Concretizer, SolveOptions};
use spack_repo::builtin_repo;
use spack_store::{synthesize_buildcache, BuildcacheConfig};

/// Allocations of one warm session request for `hdf5` with reuse (measured: 10,781;
/// before models kept only shown atoms: 22,092; before the ground program was flat:
/// 41,629; before the solver's lists were flat as well: 79,045).
const SESSION_BUDGET: u64 = 11_859;
/// Allocations of one one-shot request for `hdf5` with reuse (measured: 45,842;
/// before models kept only shown atoms: 57,128; before the ground program was flat:
/// 77,310; before the solver's lists were flat as well: 114,995).
const ONESHOT_BUDGET: u64 = 50_426;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f`, counting the allocations (and reallocations) it makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATIONS.with(Cell::get))
}

#[test]
fn session_and_one_shot_requests_stay_within_their_allocation_budgets() {
    let repo = builtin_repo();
    let cache = synthesize_buildcache(&repo, &BuildcacheConfig::default());
    let concretizer = Concretizer::new(&repo).with_options(SolveOptions::new().database(&cache));
    let session = concretizer.session().expect("session builds");
    // The first request pays one-time costs; the budget is for a warm one.
    let first = session.concretize_str("hdf5").expect("hdf5 concretizes");
    let (warm, session_allocs) = allocations(|| session.concretize_str("hdf5"));
    let warm = warm.expect("hdf5 concretizes");
    assert_eq!(warm.spec.to_string(), first.spec.to_string());
    assert!(warm.reuse_count() > 0, "the request must reuse installed builds");
    let (one_shot, oneshot_allocs) = allocations(|| concretizer.concretize_str("hdf5"));
    assert_eq!(one_shot.expect("hdf5 concretizes").spec.to_string(), first.spec.to_string());
    eprintln!("allocations: session request {session_allocs}, one-shot request {oneshot_allocs}");
    assert!(
        session_allocs <= SESSION_BUDGET,
        "a session request made {session_allocs} allocations (budget {SESSION_BUDGET}): is it \
         copying the frozen base again, allocating a vector per ground rule or solver list, or \
         copying hidden model atoms?"
    );
    assert!(
        oneshot_allocs <= ONESHOT_BUDGET,
        "a one-shot request made {oneshot_allocs} allocations (budget {ONESHOT_BUDGET})"
    );
}
