//! # spray-conv — 1-D convolution forward & back-propagation kernels
//!
//! The paper's first test case (§VI-A): convolutions are gather stencils
//! and trivially parallel, but *back-propagation* (reverse-mode AD) through
//! a convolution turns the gather into a **scatter** — every iteration
//! updates a neighborhood `out[i-R..=i+R]`, creating loop-carried reduction
//! dependencies (Fig. 9):
//!
//! ```text
//! for i in 1..n-1 {
//!     out[i-1] += wl * in[i];
//!     out[i]   += wc * in[i];
//!     out[i+1] += wr * in[i];
//! }
//! ```
//!
//! This crate provides the forward convolution, sequential back-propagation
//! baselines, and [`spray::Kernel`] implementations so the scatter can be
//! run under any reduction strategy. The adjoint identity
//! `⟨conv(x), y⟩ = ⟨x, convᵀ(y)⟩` ties the two together and is verified by
//! the tests.

#![warn(missing_docs)]

use spray::{Kernel, ReducerView};
use std::ops::{Add, Mul, Range};

pub mod conv2d;
mod kernels;
use kernels::tap_passes;
pub use kernels::{backprop3_seq, backprop_seq, forward3_seq, forward_seq, par_forward};

/// Minimal numeric bound for convolution elements: a spray-reducible,
/// summable element that also supports `*` and `+` (weights × inputs).
pub trait ConvScalar:
    spray::AtomicElement + spray::SumOps + Mul<Output = Self> + Add<Output = Self> + Default
{
}
impl<T> ConvScalar for T where
    T: spray::AtomicElement + spray::SumOps + Mul<Output = T> + Add<Output = T> + Default
{
}

/// Weights of the paper's 3-point stencil (Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stencil3<T> {
    /// Weight applied to `out[i-1]`.
    pub wl: T,
    /// Weight applied to `out[i]`.
    pub wc: T,
    /// Weight applied to `out[i+1]`.
    pub wr: T,
}

impl Default for Stencil3<f32> {
    fn default() -> Self {
        Stencil3 {
            wl: 0.25,
            wc: 0.5,
            wr: 0.25,
        }
    }
}

impl Default for Stencil3<f64> {
    fn default() -> Self {
        Stencil3 {
            wl: 0.25,
            wc: 0.5,
            wr: 0.25,
        }
    }
}

/// Back-propagation scatter for the 3-point stencil, usable with
/// [`spray::reduce_strategy`]. Iteration space: `1..n-1`.
pub struct Backprop3Kernel<'a, T> {
    /// Incoming adjoint values (`in` in Fig. 9).
    pub inp: &'a [T],
    /// Stencil weights.
    pub w: Stencil3<T>,
}

impl<T: ConvScalar> Kernel<T> for Backprop3Kernel<'_, T> {
    #[inline(always)]
    fn item<V: ReducerView<T>>(&self, view: &mut V, i: usize) {
        let x = self.inp[i];
        view.apply(i - 1, self.w.wl * x);
        view.apply(i, self.w.wc * x);
        view.apply(i + 1, self.w.wr * x);
    }

    /// Tap passes over 512-item tiles: right, centre, then left, one
    /// [`ReducerView::apply_run`] each. Every output keeps the per-item
    /// combine order, so results are bit-identical within a thread and
    /// the apply count is unchanged (3 per item).
    fn items<V: ReducerView<T>>(&self, view: &mut V, range: Range<usize>) {
        let Stencil3 { wl, wc, wr } = self.w;
        tap_passes(self.inp, range, &[wl, wc, wr], |start, run| {
            view.apply_run(start, run)
        });
    }
}

/// Back-propagation scatter for a general odd-width stencil of radius
/// `R = weights.len() / 2`. Iteration space: `R..n-R`.
pub struct BackpropKernel<'a, T> {
    /// Incoming adjoint values.
    pub inp: &'a [T],
    /// `2R+1` stencil weights, centered.
    pub weights: &'a [T],
}

impl<T: ConvScalar> Kernel<T> for BackpropKernel<'_, T> {
    #[inline(always)]
    fn item<V: ReducerView<T>>(&self, view: &mut V, i: usize) {
        let r = self.weights.len() / 2;
        let x = self.inp[i];
        for (k, &w) in self.weights.iter().enumerate() {
            view.apply(i + k - r, w * x);
        }
    }

    /// One [`ReducerView::apply_run`] per tap per 512-item tile, from tap
    /// `+R` down to tap `-R`, keeping each output's per-item combine
    /// order.
    fn items<V: ReducerView<T>>(&self, view: &mut V, range: Range<usize>) {
        tap_passes(self.inp, range, self.weights, |start, run| {
            view.apply_run(start, run)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ompsim::{Schedule, ThreadPool};
    use spray::{reduce_strategy, Strategy, Sum};

    fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    #[test]
    fn backprop3_matches_seq_under_every_strategy() {
        let n = 500;
        let inp: Vec<f64> = (0..n).map(|i| ((i * 31) % 17) as f64 * 0.5).collect();
        let w = Stencil3 {
            wl: 0.5,
            wc: 1.0,
            wr: 0.25,
        };
        let mut expected = vec![0.0f64; n];
        backprop3_seq(&mut expected, &inp, w);

        let pool = ThreadPool::new(4);
        let kernel = Backprop3Kernel { inp: &inp, w };
        for strategy in Strategy::all(64) {
            let mut out = vec![0.0f64; n];
            reduce_strategy::<f64, Sum, _>(
                strategy,
                &pool,
                &mut out,
                1..n - 1,
                Schedule::default(),
                &kernel,
            );
            for (i, (&got, &want)) in out.iter().zip(&expected).enumerate() {
                assert!(
                    (got - want).abs() < 1e-9,
                    "{} differs at {i}: {got} vs {want}",
                    strategy.label()
                );
            }
        }
    }

    #[test]
    fn adjoint_identity() {
        // <conv(x), y> == <x, convT(y)> for the same weights.
        let n = 200;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let y: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
        let w = [0.2, 0.5, 0.3];

        let mut fx = vec![0.0; n];
        forward_seq(&mut fx, &x, &w);
        let mut fty = vec![0.0; n];
        backprop_seq(&mut fty, &y, &w);

        assert!((dot(&fx, &y) - dot(&x, &fty)).abs() < 1e-9);
    }

    #[test]
    fn general_kernel_radius2() {
        let n = 300;
        let inp: Vec<f64> = (0..n).map(|i| (i % 13) as f64).collect();
        let w = [0.1, 0.2, 0.4, 0.2, 0.1];
        let mut expected = vec![0.0f64; n];
        backprop_seq(&mut expected, &inp, &w);

        let pool = ThreadPool::new(3);
        let kernel = BackpropKernel {
            inp: &inp,
            weights: &w,
        };
        let mut out = vec![0.0f64; n];
        reduce_strategy::<f64, Sum, _>(
            Strategy::Keeper,
            &pool,
            &mut out,
            2..n - 2,
            Schedule::default(),
            &kernel,
        );
        for (got, want) in out.iter().zip(&expected) {
            assert!((got - want).abs() < 1e-9);
        }
    }

    /// Forwards only `item`, so the executor runs the default per-item
    /// loop instead of the kernel's `items` override.
    struct PerItem<'a, K>(&'a K);

    impl<T: spray::Element, K: Kernel<T>> Kernel<T> for PerItem<'_, K> {
        fn item<V: ReducerView<T>>(&self, view: &mut V, i: usize) {
            self.0.item(view, i);
        }
    }

    #[test]
    fn general_kernel_items_match_per_item() {
        let w = [0.1, 0.3, 0.45, 0.2, 0.15];
        for n in [5usize, 6, 515, 1030, 3000] {
            let inp: Vec<f64> = (0..n)
                .map(|i| ((i * 31) % 97) as f64 / 97.0 - 0.4)
                .collect();
            let mut expected = vec![0.0f64; n];
            backprop_seq(&mut expected, &inp, &w);
            let kernel = BackpropKernel {
                inp: &inp,
                weights: &w,
            };
            for threads in [1, 3] {
                let pool = ThreadPool::new(threads);
                for strategy in Strategy::competitive(64) {
                    for schedule in [Schedule::default(), Schedule::Dynamic { chunk: 37 }] {
                        let mut tiled = vec![0.0f64; n];
                        reduce_strategy::<f64, Sum, _>(
                            strategy,
                            &pool,
                            &mut tiled,
                            2..n - 2,
                            schedule,
                            &kernel,
                        );
                        let mut per_item = vec![0.0f64; n];
                        reduce_strategy::<f64, Sum, _>(
                            strategy,
                            &pool,
                            &mut per_item,
                            2..n - 2,
                            schedule,
                            &PerItem(&kernel),
                        );
                        if threads == 1 {
                            assert_eq!(tiled, per_item, "{} n={n}", strategy.label());
                        }
                        for (got, want) in tiled.iter().zip(&expected) {
                            assert!((got - want).abs() < 1e-12, "{} n={n}", strategy.label());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn forward3_equals_general_forward() {
        let n = 100;
        let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let w3 = Stencil3 {
            wl: 0.25,
            wc: 0.5,
            wr: 0.25,
        };
        let mut a = vec![0.0; n];
        forward3_seq(&mut a, &x, w3);
        let mut b = vec![0.0; n];
        forward_seq(&mut b, &x, &[0.25, 0.5, 0.25]);
        assert_eq!(a, b);
    }

    #[test]
    fn par_forward_matches_seq() {
        let n = 1000;
        let x: Vec<f64> = (0..n).map(|i| ((i * 7) % 23) as f64).collect();
        let w = [0.3, 0.4, 0.3];
        let mut seq = vec![0.0; n];
        forward_seq(&mut seq, &x, &w);
        let pool = ThreadPool::new(4);
        let mut par = vec![0.0; n];
        par_forward(&pool, &mut par, &x, &w);
        assert_eq!(seq, par);
    }
}
