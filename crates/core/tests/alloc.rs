//! Heap allocations per expanded search node.
//!
//! A counting global allocator wraps the system allocator, and the test
//! runs the 5-wire greedy search pinned by
//! `wide_search_decisions_are_pinned` (seeded random permutation,
//! greedy first-solution, 1500 nodes). Up to 6 wires a popped node's
//! state is a copy of its membership words and the expansion buffers
//! belong to the search, so what is left per node is its two `Rc`s
//! (node and path link) plus the amortized growth of the queue, the
//! dedup map and the buffers.
//!
//! Release builds only: in debug builds the substitution kernels
//! cross-check every call against the sorted kernel, which allocates.
//! Run it with `cargo test --release -p rmrls-core --test alloc`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rmrls_core::{synthesize, Pruning, StopReason, SynthesisOptions};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per expanded node this search may make. The word-copy
/// child state and the per-search buffers bring it to 2.04 (3064 over
/// 1501 nodes, with rustc 1.95); with a `Vec<Pprm>` per state and fresh
/// expansion buffers per node it was 22.9. The bound leaves room only
/// for a standard library that grows its collections differently.
const MAX_ALLOCATIONS_PER_NODE: f64 = 2.1;

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn a_five_wire_search_node_expands_without_per_node_allocation() {
    let mut rng = StdRng::seed_from_u64(21);
    let spec = rmrls_spec::random_permutation(5, &mut rng).to_multi_pprm();
    let opts = SynthesisOptions::new()
        .with_pruning(Pruning::Greedy)
        .with_stop_at_first(true)
        .with_max_nodes(1500);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let stats = synthesize(&spec, &opts).unwrap_err().stats;
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    // The first row of the wide pins: this is the pinned search.
    assert_eq!(stats.stop_reason, Some(StopReason::NodeBudget));
    assert_eq!(stats.nodes_expanded, 1501);
    assert_eq!(stats.children_pushed, 7280);
    let per_node = allocations as f64 / stats.nodes_expanded as f64;
    assert!(
        per_node <= MAX_ALLOCATIONS_PER_NODE,
        "{allocations} allocations over {} nodes = {per_node:.2} per node",
        stats.nodes_expanded
    );
}
