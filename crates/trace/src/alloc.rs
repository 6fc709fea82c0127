//! Heap high-water-mark tracking for the `phase.*.peak_bytes` gauges.
//!
//! [`TrackingAllocator`] wraps the system allocator and maintains two
//! process-wide atomics: the current live heap size and the peak since
//! the last [`reset_peak`]. A binary opts in by installing it as the
//! global allocator:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: spfactor_trace::alloc::TrackingAllocator =
//!     spfactor_trace::alloc::TrackingAllocator::new();
//! ```
//!
//! The pipeline's phase guard ([`crate::Current::phase`]) brackets each
//! phase with [`reset_peak`] / [`peak_bytes`] and publishes the mark as
//! a `phase.<name>.peak_bytes` gauge next to the `phase.<name>` span. In
//! binaries that do *not* install the allocator, [`installed`] stays
//! `false` and the gauges are simply not recorded — library code never
//! pays for tracking it didn't ask for.
//!
//! The bookkeeping is two relaxed atomic ops per allocation (an add and
//! a `fetch_max`); on the pipeline workloads this is noise next to the
//! allocations themselves. Counts are *net* sizes requested from the
//! allocator, not allocator-internal overhead.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live heap bytes allocated through the tracking allocator.
static CURRENT: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`CURRENT`] since the last [`reset_peak`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// A [`GlobalAlloc`] that forwards to [`System`] and tracks the live
/// heap size and its high-water mark in process-wide atomics.
pub struct TrackingAllocator;

impl TrackingAllocator {
    /// A tracking allocator (`const`, so it can sit in a
    /// `#[global_allocator]` static).
    pub const fn new() -> Self {
        TrackingAllocator
    }
}

impl Default for TrackingAllocator {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn add(bytes: usize) {
    let now = CURRENT.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

#[inline]
fn sub(bytes: usize) {
    CURRENT.fetch_sub(bytes, Ordering::Relaxed);
}

// SAFETY: forwards verbatim to `System`; the atomics only observe sizes.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            add(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            add(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        sub(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                add(new_size - layout.size());
            } else {
                sub(layout.size() - new_size);
            }
        }
        p
    }
}

/// Whether a [`TrackingAllocator`] is installed as the global allocator.
///
/// Detected by observing live tracked bytes: any Rust program that has
/// reached user code through a tracking global allocator holds heap
/// allocations, so `CURRENT > 0` exactly when the allocator is routing.
pub fn installed() -> bool {
    CURRENT.load(Ordering::Relaxed) > 0
}

/// Current live heap bytes (0 when no tracking allocator is installed).
pub fn current_bytes() -> usize {
    CURRENT.load(Ordering::Relaxed)
}

/// Peak live heap bytes since the last [`reset_peak`] (0 when no
/// tracking allocator is installed).
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Resets the high-water mark to the current live size, so the next
/// [`peak_bytes`] reading reflects only allocations from now on.
pub fn reset_peak() {
    PEAK.store(CURRENT.load(Ordering::Relaxed), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{current, scope, Recorder};
    use std::sync::{Arc, Mutex};

    // The test binary does not install the allocator, so the atomics
    // are exercised directly through the bookkeeping helpers — by one
    // test at a time.
    static STATICS: Mutex<()> = Mutex::new(());

    #[test]
    fn add_sub_track_peak() {
        let _serial = STATICS.lock().unwrap_or_else(|e| e.into_inner());
        CURRENT.store(0, Ordering::Relaxed);
        PEAK.store(0, Ordering::Relaxed);
        add(100);
        add(50);
        sub(120);
        add(10);
        assert_eq!(current_bytes(), 40);
        assert_eq!(peak_bytes(), 150);
        reset_peak();
        assert_eq!(peak_bytes(), 40);
        add(5);
        assert_eq!(peak_bytes(), 45);
        sub(45);
        assert!(!installed());
    }

    #[test]
    fn phase_guard_resets_the_peak_only_under_a_recorder() {
        let _serial = STATICS.lock().unwrap_or_else(|e| e.into_inner());
        CURRENT.store(0, Ordering::Relaxed);
        PEAK.store(0, Ordering::Relaxed);
        add(100);
        sub(60);
        assert!(installed());

        // Nothing in scope: the mark an outside measurement is reading
        // stays where it was, and no recorder hears of the phase.
        let bystander = Recorder::new();
        drop(current().phase("quiet"));
        assert_eq!(peak_bytes(), 100);
        assert_eq!(bystander.to_table(), "(no metrics recorded)\n");

        // In scope: span and peak come from the same guard.
        let rec = Arc::new(Recorder::new());
        {
            let _scope = scope(&rec);
            let _phase = current().phase("loud");
            add(10);
        }
        assert_eq!(rec.gauge_value("phase.loud.peak_bytes"), Some(50.0));
        assert_eq!(rec.span_stats("phase.loud").unwrap().count, 1);
        sub(50);
        assert!(!installed());
    }
}
