//! Pins "a model costs no kernel state" with a byte-counting global
//! allocator: building every app with its default configuration and
//! extracting its model allocates only stage profiles and small tables.
//! Network weights and lookup tables wait for the first execution.
//!
//! This file deliberately holds a single test: the byte counter is
//! process-global, so a concurrently running allocating test would alias
//! into the bracketed section.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use bt_kernels::apps;

static ALLOCATED: AtomicUsize = AtomicUsize::new(0);

struct CountingBytes;

// SAFETY: delegates verbatim to `System`; the counter has no effect on
// allocation behaviour.
unsafe impl GlobalAlloc for CountingBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingBytes = CountingBytes;

#[test]
fn app_models_allocate_no_kernel_state() {
    let before = ALLOCATED.load(Ordering::Relaxed);
    let models = [
        apps::octree_app(Default::default()).model(),
        apps::alexnet_dense_app(Default::default()).model(),
        apps::alexnet_sparse_app(Default::default()).model(),
        apps::perception_app(Default::default()).model(),
        apps::sensor_app(Default::default()).model(),
    ];
    let allocated = ALLOCATED.load(Ordering::Relaxed) - before;
    assert_eq!(models.len(), 5);
    assert!(
        allocated < 256 << 10,
        "building five apps and their models allocated {allocated} bytes"
    );
}
