//! Allocation ledger: heap traffic of the static model build, pinned.
//!
//! A counting global allocator tallies, per thread, every allocation and
//! the bytes it asks for, and the bytes still live. The one row measures
//! [`ImageModel::build`] over every corpus program and payload image (the
//! images `static_report_digests.txt` pins): allocations made, bytes
//! allocated, and bytes the finished models still hold. Each image is
//! cloned before its build starts, so the image's own bytes are not
//! counted.
//!
//! `tests/fixtures/alloc_ledger.txt` holds one ceiling per count. A count
//! above its ceiling fails the test; a count below it passes and prints
//! the new value, so the ceiling can be lowered to pin the gain.

use faros_repro::analyze::ImageModel;
use faros_repro::corpus::{attacks, sample_registry};
use faros_repro::kernel::FdlImage;
use faros_repro::replay::Scenario;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;

/// Forwards to [`System`] and counts on the calling thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Records an allocation of `size` bytes. `try_with` because the thread's
/// own teardown can allocate after its locals are gone.
fn count_alloc(size: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = ALLOCATED.try_with(|c| c.set(c.get() + size as u64));
    let _ = LIVE.try_with(|c| c.set(c.get() + size as i64));
}

fn count_free(size: usize) {
    let _ = LIVE.try_with(|c| c.set(c.get() - size as i64));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_free(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_free(layout.size());
        count_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// This thread's `(allocations, bytes allocated, live bytes)` so far.
fn snapshot() -> (u64, u64, i64) {
    (ALLOCS.with(Cell::get), ALLOCATED.with(Cell::get), LIVE.with(Cell::get))
}

/// Every corpus program and payload image, as the static digests list them.
fn corpus_images() -> Vec<(String, FdlImage)> {
    let mut images = Vec::new();
    for sample in sample_registry() {
        images.extend(sample.scenario.programs().iter().cloned());
    }
    images.extend(attacks::payload_images());
    images
}

#[test]
fn image_model_build_stays_under_its_allocation_ceilings() {
    let images = corpus_images();
    assert_eq!(images.len(), 166, "the static-digest image set changed size");
    let (mut allocs, mut allocated, mut live) = (0u64, 0u64, 0i64);
    for (path, image) in &images {
        let image = image.clone();
        let before = snapshot();
        let model = ImageModel::build(path, image);
        let after = snapshot();
        allocs += after.0 - before.0;
        allocated += after.1 - before.1;
        live += after.2 - before.2;
        drop(model);
    }
    let n = images.len() as u64;
    let measured = [
        ("model_build.allocs", allocs),
        ("model_build.bytes_allocated", allocated),
        ("model_build.live_bytes", u64::try_from(live).expect("live bytes are non-negative")),
    ];

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/alloc_ledger.txt");
    let text = std::fs::read_to_string(&path).expect("tests/fixtures/alloc_ledger.txt");
    let ceiling = |key: &str| -> u64 {
        text.lines()
            .filter(|l| !l.starts_with('#'))
            .find_map(|l| l.strip_prefix(key)?.trim().parse().ok())
            .unwrap_or_else(|| panic!("alloc_ledger.txt has no ceiling for {key}"))
    };
    let mut over = Vec::new();
    for (key, value) in measured {
        let max = ceiling(key);
        println!("{key} {value} (ceiling {max}, {} per build)", value / n);
        if value > max {
            over.push(format!("{key}: {value} > ceiling {max}"));
        } else if value < max {
            println!("  below its ceiling: `{key} {value}` pins the new value");
        }
    }
    assert!(over.is_empty(), "allocation ceilings exceeded: {over:?}");
}
