//! Deterministic parallel sweep engine for experiment grids.
//!
//! Every quantitative artifact in this reproduction is a *sweep*: a grid
//! of independent evaluation points (density × seed, posture × attack,
//! weather × seed, …) mapped through a pure evaluation function. Each
//! point carries its own RNG seed, so the points share no mutable state
//! and the map is embarrassingly parallel — scheduling order cannot
//! perturb the numbers.
//!
//! [`par_sweep`] exploits that: it fans the points out over a
//! crossbeam-scoped worker pool and returns results **in input order**,
//! bit-identical to the sequential `points.map(f)` it replaces. Callers
//! therefore need no feature flag and no tolerance windows — the
//! equivalence is exact and is enforced by a property test
//! (`tests/proptests.rs`).
//!
//! # Example
//!
//! ```
//! use silvasec_sim::sweep::par_sweep;
//!
//! let points: Vec<u64> = (0..32).collect();
//! let squares = par_sweep(&points, |&p| p * p);
//! assert_eq!(squares, points.iter().map(|&p| p * p).collect::<Vec<_>>());
//! ```
//!
//! The module lives in the simulation kernel (rather than the `silvasec`
//! umbrella crate, which re-exports it as `silvasec::sweep`) so that
//! mid-stack crates — notably the fleet's sharded shadow-site population
//! — can run on the same worker pool without a dependency cycle.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Timing and shape summary of one parallel sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepStats {
    /// Number of worker threads used.
    pub workers: usize,
    /// Number of sweep points evaluated.
    pub points: usize,
    /// Wall-clock time for the whole sweep, in seconds.
    pub wall_s: f64,
    /// Per-point wall-clock times, in input order, in seconds.
    pub point_wall_s: Vec<f64>,
}

impl SweepStats {
    /// Aggregate throughput in points (episodes) per second of
    /// wall-clock time. Zero-duration sweeps report zero rather than
    /// infinity.
    #[must_use]
    pub fn points_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.points as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Total CPU time spent inside point evaluations, in seconds. On a
    /// multi-core host this exceeds `wall_s` when the sweep scales.
    #[must_use]
    pub fn busy_s(&self) -> f64 {
        self.point_wall_s.iter().sum()
    }
}

/// Number of workers a sweep will use: the available hardware
/// parallelism, capped by the number of points (spawning more threads
/// than points only adds join overhead).
#[must_use]
pub fn worker_count(points: usize) -> usize {
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    hw.min(points).max(1)
}

/// Maps `f` over `points` on a scoped worker pool, returning results in
/// input order.
///
/// Determinism: `f` receives each point exactly once and results are
/// scattered back by input index, so the output is the same `Vec` the
/// sequential `points.iter().map(f).collect()` would produce — bit for
/// bit, for any worker count and any scheduling. Work is distributed by
/// atomic work-stealing (each worker grabs the next unclaimed index), so
/// uneven point costs balance automatically. This is
/// [`par_sweep_scoped`] with no scratch.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn par_sweep<P, R, F>(points: &[P], f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    par_sweep_scoped(points, || (), |(), p, _| f(p))
}

/// [`par_sweep`] variant that also times every point and reports
/// [`SweepStats`].
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn par_sweep_with_stats<P, R, F>(points: &[P], f: F) -> (Vec<R>, SweepStats)
where
    P: Sync,
    R: Send,
    F: Fn(&P) -> R + Sync,
{
    let started = Instant::now();
    let workers = worker_count(points.len());
    let timed = par_sweep_scoped_workers(
        points,
        workers,
        || (),
        |(), p, _| {
            let t0 = Instant::now();
            let r = f(p);
            (r, t0.elapsed().as_secs_f64())
        },
    );
    let (results, point_wall_s) = timed.into_iter().unzip();
    let stats = SweepStats {
        workers,
        points: points.len(),
        wall_s: started.elapsed().as_secs_f64(),
        point_wall_s,
    };
    (results, stats)
}

/// Maps `f` over mutable `items` on a scoped worker pool, returning the
/// per-item results in input order.
///
/// The mutable sibling of [`par_sweep`], built for *sharded state*: the
/// fleet-scale control plane splits its shadow-site population into
/// independent shards and steps every shard once per tick. Each worker
/// owns a contiguous `chunks_mut` slice (static assignment by position,
/// not work-stealing — safe mutable access needs disjoint borrows, and
/// the workspace forbids `unsafe`), applies `f` to its items in slice
/// order, and the per-chunk result vectors are concatenated in chunk
/// order. The output is therefore the same `Vec` the sequential
/// `items.iter_mut().enumerate().map(..)` loop would produce — bit for
/// bit, for any worker count — which is what lets a sharded fleet trace
/// stay byte-identical to its sequential reference.
///
/// `f` receives `(input_index, &mut item)`.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn par_sweep_mut<P, R, F>(items: &mut [P], f: F) -> Vec<R>
where
    P: Send,
    R: Send,
    F: Fn(usize, &mut P) -> R + Sync,
{
    let n = items.len();
    let workers = worker_count(n);
    if workers <= 1 {
        return items
            .iter_mut()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let chunk = n.div_ceil(workers);
    let f = &f;
    let gathered: Vec<Vec<R>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks_mut(chunk)
            .enumerate()
            .map(|(ci, slice)| {
                scope.spawn(move |_| {
                    slice
                        .iter_mut()
                        .enumerate()
                        .map(|(j, item)| f(ci * chunk + j, item))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    })
    .expect("sweep scope panicked");
    let mut out = Vec::with_capacity(n);
    for local in gathered {
        out.extend(local);
    }
    out
}

/// Maps `f` over `points` with one lazily-created **per-worker scratch
/// value**, returning results in input order.
///
/// The scratch sibling of [`par_sweep`], built for *reusable episode
/// state*: an episode sweep wants each worker to own one long-lived
/// `Worksite` (terrain grids, telemetry rings, session buffers) and
/// reset it per point instead of rebuilding it. The scratch is created
/// by `init()` **inside** the worker thread, so `S` needs no `Send`
/// bound — `Rc`-backed recorders are fine. `f` receives
/// `(&mut scratch, point, input_index)`.
///
/// Determinism contract: results are scattered back by input index, so
/// the output order matches the sequential map for any worker count and
/// scheduling — but the *values* only match when `f` fully re-derives
/// its output from the point (e.g. via `Worksite::reset_for_episode`),
/// never from scratch state a previous point left behind. That
/// point-independence is what the episode property tests enforce.
///
/// # Panics
///
/// Propagates panics from `init` and `f`.
pub fn par_sweep_scoped<P, S, R, I, F>(points: &[P], init: I, f: F) -> Vec<R>
where
    P: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &P, usize) -> R + Sync,
{
    par_sweep_scoped_workers(points, worker_count(points.len()), init, f)
}

/// [`par_sweep_scoped`] with an explicit worker count (still capped by
/// the number of points). `workers <= 1` runs sequentially with a
/// single scratch — the reference the property tests compare against.
///
/// # Panics
///
/// Propagates panics from `init` and `f`.
pub fn par_sweep_scoped_workers<P, S, R, I, F>(
    points: &[P],
    workers: usize,
    init: I,
    f: F,
) -> Vec<R>
where
    P: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &P, usize) -> R + Sync,
{
    let workers = workers.min(points.len()).max(1);
    if workers <= 1 {
        let mut scratch = init();
        return points
            .iter()
            .enumerate()
            .map(|(i, p)| f(&mut scratch, p, i))
            .collect();
    }

    let next = AtomicUsize::new(0);
    let (next, init, f) = (&next, &init, &f);
    let gathered: Vec<Vec<(usize, R)>> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move |_| {
                    let mut scratch = init();
                    let mut local = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        if idx >= points.len() {
                            break;
                        }
                        local.push((idx, f(&mut scratch, &points[idx], idx)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    })
    .expect("sweep scope panicked");

    let mut slots: Vec<Option<R>> = Vec::with_capacity(points.len());
    slots.resize_with(points.len(), || None);
    for (idx, r) in gathered.into_iter().flatten() {
        slots[idx] = Some(r);
    }
    slots
        .into_iter()
        .map(|s| s.expect("every sweep index is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let points: Vec<u64> = (0..257).collect();
        let out = par_sweep(&points, |&p| p.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let expected: Vec<u64> = points
            .iter()
            .map(|&p| p.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn empty_sweep() {
        let points: Vec<u64> = Vec::new();
        let (out, stats) = par_sweep_with_stats(&points, |&p| p);
        assert!(out.is_empty());
        assert_eq!(stats.points, 0);
        assert_eq!(stats.workers, 1);
        assert!(stats.point_wall_s.is_empty());
    }

    #[test]
    fn single_point_sweep() {
        let (out, stats) = par_sweep_with_stats(&[41u32], |&p| p + 1);
        assert_eq!(out, vec![42]);
        assert_eq!(stats.workers, 1);
        assert_eq!(stats.point_wall_s.len(), 1);
    }

    #[test]
    fn stats_are_consistent() {
        let points: Vec<u64> = (0..64).collect();
        let (out, stats) = par_sweep_with_stats(&points, |&p| {
            // A little real work so timings are non-trivial.
            (0..1000).fold(p, |acc, i| acc.wrapping_mul(31).wrapping_add(i))
        });
        assert_eq!(out.len(), 64);
        assert_eq!(stats.points, 64);
        assert_eq!(stats.point_wall_s.len(), 64);
        assert!(stats.workers >= 1);
        assert!(stats.wall_s >= 0.0);
        assert!(stats.point_wall_s.iter().all(|&s| s >= 0.0));
        assert!(stats.points_per_s() > 0.0);
        assert!(stats.busy_s() >= 0.0);
    }

    #[test]
    fn results_can_borrow_from_points() {
        let points: Vec<String> = (0..16).map(|i| format!("point-{i}")).collect();
        let lens = par_sweep(&points, String::len);
        assert_eq!(lens, points.iter().map(String::len).collect::<Vec<_>>());
    }

    #[test]
    fn float_results_are_bit_identical_to_sequential() {
        // The determinism contract the experiment sweeps rely on:
        // floating-point results match the sequential map exactly.
        let points: Vec<(f64, u64)> = (0..128u32)
            .map(|i| (f64::from(i) * 0.37, u64::from(i)))
            .collect();
        let eval = |&(x, seed): &(f64, u64)| {
            let mut acc = x;
            for k in 1..200u64 {
                acc = (acc * 1.000_1 + (seed ^ k) as f64 * 1e-9)
                    .sin()
                    .mul_add(0.5, acc);
            }
            acc
        };
        let par = par_sweep(&points, eval);
        let seq: Vec<f64> = points.iter().map(eval).collect();
        assert_eq!(par.len(), seq.len());
        for (a, b) in par.iter().zip(&seq) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn mut_sweep_matches_sequential_reference() {
        // The determinism contract the sharded fleet relies on: the
        // parallel mutable sweep leaves the items in the same state and
        // returns the same results as the sequential loop.
        let eval = |i: usize, item: &mut u64| {
            *item = item.wrapping_mul(31).wrapping_add(i as u64);
            *item ^ 0x5555_5555_5555_5555
        };
        let mut par_items: Vec<u64> = (0..137).map(|i| i * 7 + 3).collect();
        let mut seq_items = par_items.clone();
        let par_out = par_sweep_mut(&mut par_items, eval);
        let seq_out: Vec<u64> = seq_items
            .iter_mut()
            .enumerate()
            .map(|(i, item)| eval(i, item))
            .collect();
        assert_eq!(par_out, seq_out);
        assert_eq!(par_items, seq_items);
    }

    #[test]
    fn mut_sweep_empty_and_single() {
        let mut empty: Vec<u32> = Vec::new();
        assert!(par_sweep_mut(&mut empty, |_, x| *x).is_empty());
        let mut one = vec![41u32];
        assert_eq!(
            par_sweep_mut(&mut one, |i, x| {
                *x += 1;
                *x + i as u32
            }),
            vec![42]
        );
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn scoped_sweep_matches_sequential_for_any_worker_count() {
        // Per-worker scratch must not leak across points: f re-derives
        // everything from the point, so any worker count agrees with
        // the single-scratch sequential reference.
        let points: Vec<u64> = (0..61).map(|i| i * 13 + 5).collect();
        let eval = |scratch: &mut Vec<u64>, &p: &u64, i: usize| {
            scratch.clear(); // episode reset
            scratch.extend((0..8).map(|k| p.wrapping_mul(k ^ i as u64)));
            scratch
                .iter()
                .fold(0u64, |a, &x| a.wrapping_add(x).rotate_left(7))
        };
        let reference = par_sweep_scoped_workers(&points, 1, Vec::new, eval);
        for workers in [2usize, 3, 4] {
            let out = par_sweep_scoped_workers(&points, workers, Vec::new, eval);
            assert_eq!(out, reference, "diverged at {workers} workers");
        }
        assert_eq!(par_sweep_scoped(&points, Vec::new, eval), reference);
    }

    #[test]
    fn scoped_sweep_scratch_is_not_send_constrained() {
        // Rc is !Send: the scratch is created inside each worker, so
        // this must compile and run.
        use std::rc::Rc;
        let points: Vec<u32> = (0..17).collect();
        let out = par_sweep_scoped_workers(&points, 3, || Rc::new(7u32), |rc, &p, _| p + **rc);
        assert_eq!(out, points.iter().map(|p| p + 7).collect::<Vec<_>>());
    }

    #[test]
    fn scoped_sweep_empty_and_single() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_sweep_scoped(&empty, || 0u32, |_, &p, _| p).is_empty());
        let out = par_sweep_scoped_workers(&[9u32], 8, || 1u32, |s, &p, i| p + *s + i as u32);
        assert_eq!(out, vec![10]);
    }

    #[test]
    fn worker_count_is_capped_by_points() {
        assert_eq!(worker_count(0), 1);
        assert_eq!(worker_count(1), 1);
        assert!(worker_count(1024) >= 1);
        assert!(worker_count(2) <= 2);
    }
}
