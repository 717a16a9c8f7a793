//! The one tracking global allocator every measuring binary installs.
//!
//! [`TrackingAllocator`] defers to [`System`] and keeps three relaxed
//! atomic counters: heap acquisitions (`alloc` and `realloc` calls; a
//! `dealloc` acquires nothing), live bytes, and the live-byte peak.
//! Zero-allocation contracts read [`acquisitions`] around a window;
//! memory ceilings read a [`peak_baseline`] / [`peak_since`] pair.
//! A binary installs it in two lines:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOCATOR: TrackingAllocator = TrackingAllocator;
//! ```
//!
//! The counters are process-wide, so a window measured while other
//! threads allocate also counts their acquisitions.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// [`System`] wrapped with acquisition and current/peak byte counters.
pub struct TrackingAllocator;

static ACQUISITIONS: AtomicU64 = AtomicU64::new(0);
static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let now = CURRENT.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

// SAFETY: every call defers to `System` with the caller's arguments;
// the counters are relaxed atomics with no effect on allocation.
unsafe impl GlobalAlloc for TrackingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) };
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ACQUISITIONS.fetch_add(1, Ordering::Relaxed);
        let ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !ptr.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                CURRENT.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        ptr
    }
}

/// Heap acquisitions (`alloc` + `realloc` calls) since process start.
#[must_use]
pub fn acquisitions() -> u64 {
    ACQUISITIONS.load(Ordering::Relaxed)
}

/// Resets the peak to the current live byte count and returns that
/// baseline, so a following [`peak_since`] measures one region.
#[must_use]
pub fn peak_baseline() -> usize {
    let now = CURRENT.load(Ordering::Relaxed);
    PEAK.store(now, Ordering::Relaxed);
    now
}

/// Peak live bytes above `baseline` since [`peak_baseline`].
#[must_use]
pub fn peak_since(baseline: usize) -> usize {
    PEAK.load(Ordering::Relaxed).saturating_sub(baseline)
}
