//! Sequential reference kernels, the tap-pass tiling the back-propagation
//! kernels share, and the (trivially parallel) forward pass.

use crate::{ConvScalar, Stencil3};
use ompsim::{Schedule, ThreadPool};
use std::mem::MaybeUninit;
use std::ops::Range;

/// Items per tile of the tap-pass loops. A tile's contribution buffer
/// (2 KiB of `f32`) stays L1-resident next to the input and output
/// stretches it pairs with. A constant, not a tuning knob.
pub(crate) const TILE: usize = 512;

/// The tap-pass form of the back-propagation scatter over iterations
/// `range`: for each [`TILE`]-item tile, and for each tap from `+R` down
/// to `-R`, the tap's contributions `w·inp[i]` are computed into a stack
/// buffer and handed to `sink(first output index, run)` as one run.
///
/// Output `j` still receives its contributions in increasing item order
/// (tap `+R` carries item `j-R`, tap `-R` carries item `j+R`), exactly
/// the order of the per-item loop. Sums are therefore bit-identical to
/// it, while every pass is a contiguous, vectorizable stream.
pub(crate) fn tap_passes<T: ConvScalar>(
    inp: &[T],
    range: Range<usize>,
    weights: &[T],
    mut sink: impl FnMut(usize, &[T]),
) {
    let r = weights.len() / 2;
    // Left uninitialized: zeroing 512 elements per call would cost more
    // than the whole chunk when a schedule hands out chunks of a few
    // items.
    let mut buf = [MaybeUninit::<T>::uninit(); TILE];
    let mut lo = range.start;
    while lo < range.end {
        let hi = (lo + TILE).min(range.end);
        let x = &inp[lo..hi];
        let run = &mut buf[..hi - lo];
        for (k, &w) in weights.iter().enumerate().rev() {
            for (c, &x) in run.iter_mut().zip(x) {
                c.write(w * x);
            }
            // SAFETY: the loop above initialized every element of `run`,
            // and `MaybeUninit<T>` has the layout of `T`.
            let run = unsafe { &*(run as *const [MaybeUninit<T>] as *const [T]) };
            sink(lo + k - r, run);
        }
        lo = hi;
    }
}

/// Sequential back-propagation for a general odd-width stencil
/// (radius `R = weights.len()/2`, iteration space `R..n-R`), in the same
/// tiled tap-pass shape as the parallel kernels: per 512-item tile, one
/// pass per tap from `+R` down to `-R`. Each output still sums its
/// products in increasing item order, so the result is bit-identical to
/// the per-item loop `out[i+k-R] += weights[k]*in[i]`.
pub fn backprop_seq<T: ConvScalar>(out: &mut [T], inp: &[T], weights: &[T]) {
    assert_eq!(out.len(), inp.len());
    assert!(weights.len() % 2 == 1, "stencil width must be odd");
    let r = weights.len() / 2;
    let n = inp.len();
    if n < 2 * r + 1 {
        return;
    }
    for lo in (r..n - r).step_by(TILE) {
        let x = &inp[lo..(lo + TILE).min(n - r)];
        for (k, &w) in weights.iter().enumerate().rev() {
            let dst = &mut out[lo + k - r..][..x.len()];
            for (o, &x) in dst.iter_mut().zip(x) {
                *o = *o + w * x;
            }
        }
    }
}

/// Sequential 3-point back-propagation, Fig. 9 of the paper:
/// `out[i-1] += wl*in[i]; out[i] += wc*in[i]; out[i+1] += wr*in[i]`
/// for `i in 1..n-1`. Accumulates into existing `out` content. Runs as
/// [`backprop_seq`] with weights `[wl, wc, wr]`, so it is tiled and
/// bit-identical to that per-item loop.
pub fn backprop3_seq<T: ConvScalar>(out: &mut [T], inp: &[T], w: Stencil3<T>) {
    backprop_seq(out, inp, &[w.wl, w.wc, w.wr]);
}

/// Sequential 3-point forward convolution (the gather whose exact adjoint
/// is [`backprop3_seq`]): `out[i] = wl*in[i-1] + wc*in[i] + wr*in[i+1]`
/// restricted to the interior — transposition swaps the read/write roles
/// of the stencil, not its offsets. Overwrites `out` in the interior; the
/// two boundary elements are left untouched.
pub fn forward3_seq<T: ConvScalar>(out: &mut [T], inp: &[T], w: Stencil3<T>) {
    assert_eq!(out.len(), inp.len());
    let n = inp.len();
    for i in 1..n.saturating_sub(1) {
        out[i] = w.wl * inp[i - 1] + w.wc * inp[i] + w.wr * inp[i + 1];
    }
}

/// Sequential forward convolution for a general odd-width stencil. The
/// gather index pattern is the exact transpose of [`backprop_seq`], which
/// is what the adjoint-identity test checks.
pub fn forward_seq<T: ConvScalar>(out: &mut [T], inp: &[T], weights: &[T]) {
    assert_eq!(out.len(), inp.len());
    assert!(weights.len() % 2 == 1, "stencil width must be odd");
    let r = weights.len() / 2;
    let n = inp.len();
    if n < 2 * r + 1 {
        return;
    }
    for i in r..n - r {
        let mut acc = T::default();
        for (k, &w) in weights.iter().enumerate() {
            // Same offsets as the scatter (out[i+k-r] += w*in[i]); the
            // transpose only swaps which side is read and which written.
            acc = acc + w * inp[i + k - r];
        }
        out[i] = acc;
    }
}

/// Disjoint-write shared output for the gather loop.
struct GatherOut<T>(*mut T);
// SAFETY: each index is written by exactly one schedule chunk (exact-cover
// property of `ompsim` schedules), so writes never alias.
unsafe impl<T: Send> Send for GatherOut<T> {}
unsafe impl<T: Send> Sync for GatherOut<T> {}

impl<T> GatherOut<T> {
    /// # Safety
    /// `i` must be in bounds and written by exactly one thread.
    #[inline(always)]
    unsafe fn write(&self, i: usize, v: T) {
        *self.0.add(i) = v;
    }
}

/// Parallel forward convolution: a plain DOALL loop (each `out[i]` is
/// written by exactly one thread) — no reduction machinery needed, which
/// is the paper's point of contrast with the backward pass.
pub fn par_forward<T: ConvScalar>(pool: &ThreadPool, out: &mut [T], inp: &[T], weights: &[T]) {
    assert_eq!(out.len(), inp.len());
    assert!(weights.len() % 2 == 1, "stencil width must be odd");
    let r = weights.len() / 2;
    let n = inp.len();
    if n < 2 * r + 1 {
        return;
    }
    let shared = GatherOut(out.as_mut_ptr());
    pool.for_each(r..n - r, Schedule::default(), |i| {
        let mut acc = T::default();
        for (k, &w) in weights.iter().enumerate() {
            acc = acc + w * inp[i + k - r];
        }
        // SAFETY: index i is assigned to exactly one thread by the
        // schedule, so this is the only write to out[i].
        unsafe { shared.write(i, acc) };
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-item loop `backprop_seq` ran before it moved to tap
    /// passes, kept as its bit-exact oracle.
    fn backprop_loop<T: ConvScalar>(out: &mut [T], inp: &[T], weights: &[T]) {
        let r = weights.len() / 2;
        let n = inp.len();
        if n < 2 * r + 1 {
            return;
        }
        for i in r..n - r {
            let x = inp[i];
            for (k, &w) in weights.iter().enumerate() {
                out[i + k - r] = out[i + k - r] + w * x;
            }
        }
    }

    /// The per-item loop `backprop3_seq` ran before, likewise.
    fn backprop3_loop<T: ConvScalar>(out: &mut [T], inp: &[T], w: Stencil3<T>) {
        let n = inp.len();
        for i in 1..n.saturating_sub(1) {
            let x = inp[i];
            out[i - 1] = out[i - 1] + w.wl * x;
            out[i] = out[i] + w.wc * x;
            out[i + 1] = out[i + 1] + w.wr * x;
        }
    }

    #[test]
    fn tap_passes_are_bit_identical_to_the_per_item_loops() {
        // Sizes on both sides of the 512-item tile edges. `out` starts
        // nonzero because both functions accumulate into it.
        for n in [
            0usize, 1, 2, 3, 4, 5, 9, 511, 512, 513, 514, 1025, 1537, 5000,
        ] {
            let inp: Vec<f32> = (0..n)
                .map(|i| ((i * 7919) % 1013) as f32 / 1013.0 - 0.37)
                .collect();
            let init: Vec<f32> = (0..n).map(|i| (i % 11) as f32 * 0.1).collect();
            let w = Stencil3 {
                wl: 0.3f32,
                wc: 0.45,
                wr: 0.2,
            };
            let (mut a, mut b) = (init.clone(), init.clone());
            backprop3_seq(&mut a, &inp, w);
            backprop3_loop(&mut b, &inp, w);
            assert_eq!(a, b, "backprop3 n={n}");
            for weights in [
                &[0.7f32][..],
                &[0.3, 0.45, 0.2],
                &[0.1, 0.3, 0.45, 0.2, 0.15],
            ] {
                let (mut a, mut b) = (init.clone(), init.clone());
                backprop_seq(&mut a, &inp, weights);
                backprop_loop(&mut b, &inp, weights);
                assert_eq!(a, b, "backprop r={} n={n}", weights.len() / 2);
            }
        }
    }

    #[test]
    fn backprop3_tiny() {
        // n = 3: single interior iteration i = 1.
        let inp = [1.0f64, 2.0, 3.0];
        let mut out = [0.0f64; 3];
        backprop3_seq(
            &mut out,
            &inp,
            Stencil3 {
                wl: 1.0,
                wc: 10.0,
                wr: 100.0,
            },
        );
        assert_eq!(out, [2.0, 20.0, 200.0]);
    }

    #[test]
    fn degenerate_sizes_are_noops() {
        for n in 0..3 {
            let inp = vec![1.0f64; n];
            let mut out = vec![0.0f64; n];
            backprop3_seq(&mut out, &inp, Stencil3::default());
            if n < 3 {
                assert!(out.iter().all(|&x| x == 0.0));
            }
        }
        let mut out = vec![0.0f64; 2];
        backprop_seq(&mut out, &[1.0, 1.0], &[0.5, 0.5, 0.5]);
        assert_eq!(out, [0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_stencil_rejected() {
        let mut out = vec![0.0f64; 4];
        backprop_seq(&mut out, &[1.0; 4], &[0.5, 0.5]);
    }
}
