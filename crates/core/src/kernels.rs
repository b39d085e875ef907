//! Vectorized merge/refill kernels for the block data plane.
//!
//! The merge phase of every privatizing strategy is the same contiguous
//! sweep — `out[i] = op(out[i], priv[i])` over a block — and the refill
//! that readies a private copy for the next region is a contiguous
//! identity fill. The C++ SPRAY exemplars hand both loops to
//! `#pragma omp simd aligned`; this module is the Rust analogue, with
//! three tiers:
//!
//! * **Scalar (default, stable).** Plain loops over `&mut [T]`/`&[T]`
//!   slices built from the kernel's pointers. The slice types tell LLVM
//!   the two sides do not alias, so its auto-vectorizer emits vector
//!   code on any stable toolchain; over raw pointers it must assume each
//!   store may feed the next load and stays scalar (DESIGN.md has the
//!   measurement).
//! * **`std::simd` (nightly, `--features simd`).** Explicit
//!   `portable_simd` vectors, dispatched per concrete element type. The
//!   dispatch is a monomorphization-time `TypeId` comparison — the branch
//!   folds away, there is no runtime cost and no `unsafe` specialization.
//! * **Fused merge-then-refill.** The epilogue's merge and `finish`'s
//!   identity refill visit the same block back to back; fusing them into
//!   one pass streams each private block through the core once instead of
//!   twice.
//!
//! # Operator dispatch contract
//!
//! The `simd` tier combines lanes by [`ReduceOp::KIND`], exactly like the
//! atomic fast paths in `elem.rs` pick `fetch_add` by `KIND`: a
//! custom `ReduceOp` whose `combine` disagrees with its declared `KIND`
//! semantics on the built-in numeric types is out of contract there and
//! here alike. The identity value is *not* re-derived from the kind — it
//! is taken from `O::identity()` — so custom identities survive. The
//! scalar tiers call `O::combine` directly and carry no such caveat.
//!
//! # Alignment
//!
//! Kernels accept any element-aligned pointers (the destination is the
//! user's own output array, which is only element-aligned) and
//! `debug_assert!` that much; the [`crate::arena`] hands out 64/256-byte
//! aligned source blocks so the SIMD loads on the private side hit full
//! aligned lines. The `simd` tier uses unaligned vector ops, which on
//! every ISA that matters are penalty-free when the address happens to be
//! aligned — the arena makes that the common case without making
//! misalignment unsound.

use crate::elem::{Element, ReduceOp};
use std::mem::MaybeUninit;

#[inline(always)]
fn debug_assert_elem_aligned<T>(ptr: *const T) {
    debug_assert!(
        (ptr as usize) % std::mem::align_of::<T>() == 0,
        "kernel pointer {ptr:p} is not aligned to {}",
        std::mem::align_of::<T>()
    );
}

/// Merges `n` contiguous elements: `dst[i] = O::combine(dst[i], src[i])`.
///
/// # Safety
/// `dst` and `src` must each be valid for `n` elements, element-aligned,
/// non-overlapping, and not concurrently accessed by another thread.
#[inline]
pub unsafe fn merge_into<T: Element, O: ReduceOp<T>>(dst: *mut T, src: *const T, n: usize) {
    debug_assert_elem_aligned(dst);
    debug_assert_elem_aligned(src);
    #[cfg(feature = "simd")]
    if simd::merge::<T, O>(dst, src, n) {
        return;
    }
    // Slices, not pointer arithmetic: the no-alias facts are what let
    // LLVM vectorize (see the module docs).
    let dst = std::slice::from_raw_parts_mut(dst, n);
    let src = std::slice::from_raw_parts(src, n);
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = O::combine(*d, s);
    }
}

/// Fills `n` contiguous elements with the operator identity, in place.
///
/// This is the arena's refill path: the seed code built a fresh
/// `vec![O::identity(); n]` per block, paying an allocation plus an
/// unaligned fill; the arena refills its existing aligned slab instead.
///
/// # Safety
/// `dst` must be valid for writes of `n` elements (they may be
/// uninitialized), element-aligned, and not concurrently accessed by
/// another thread.
#[inline]
pub unsafe fn refill_into<T: Element, O: ReduceOp<T>>(dst: *mut T, n: usize) {
    debug_assert_elem_aligned(dst);
    #[cfg(feature = "simd")]
    if simd::refill::<T, O>(dst, n) {
        return;
    }
    // `MaybeUninit`: fresh arena slabs are refilled before their first
    // read, so no `&mut [T]` may be formed over them.
    std::slice::from_raw_parts_mut(dst.cast::<MaybeUninit<T>>(), n)
        .fill(MaybeUninit::new(O::identity()));
}

/// Fused merge-then-refill: `dst[i] = O::combine(dst[i], src[i])` and
/// `src[i] = O::identity()` in one pass over `src`.
///
/// The value just loaded for the merge is still in a register when the
/// identity store retires, so the private block is streamed through the
/// core once; the separate-pass formulation (epilogue merge, then a
/// `finish`-time refill sweep) loads it twice.
///
/// # Safety
/// Same contract as [`merge_into`], plus `src` must be writable.
#[inline]
pub unsafe fn merge_refill_into<T: Element, O: ReduceOp<T>>(dst: *mut T, src: *mut T, n: usize) {
    debug_assert_elem_aligned(dst);
    debug_assert_elem_aligned(src);
    #[cfg(feature = "simd")]
    if simd::merge_refill::<T, O>(dst, src, n) {
        return;
    }
    let id = O::identity();
    let dst = std::slice::from_raw_parts_mut(dst, n);
    let src = std::slice::from_raw_parts_mut(src, n);
    for (d, s) in dst.iter_mut().zip(src) {
        *d = O::combine(*d, std::mem::replace(s, id));
    }
}

/// Element-at-a-time merge, kept as the in-harness baseline for the
/// `apply_overhead` microbenchmark (the same role
/// `BlockView::apply_uncached` plays for the apply path): it reproduces
/// the seed epilogue's shape — one combine per loop iteration through a
/// raw pointer — so the kernel tiers are measured against the real legacy
/// cost, not a reconstruction.
///
/// # Safety
/// Same contract as [`merge_into`].
#[inline(never)]
pub unsafe fn merge_into_scalar<T: Element, O: ReduceOp<T>>(dst: *mut T, src: *const T, n: usize) {
    for i in 0..n {
        // `black_box` pins the index so LLVM cannot autovectorize the
        // baseline out from under the comparison: the whole point of this
        // function is one combine per loop iteration, matching the
        // element-at-a-time codegen the seed epilogue produced.
        let i = std::hint::black_box(i);
        let d = dst.add(i);
        *d = O::combine(*d, std::ptr::read(src.add(i)));
    }
}

/// Safe slice form of [`merge_into`]; merges `src` into the front of
/// `dst`.
///
/// # Panics
/// Panics if `src` is longer than `dst`.
pub fn merge_slices<T: Element, O: ReduceOp<T>>(dst: &mut [T], src: &[T]) {
    assert!(
        src.len() <= dst.len(),
        "merge source longer than destination"
    );
    // SAFETY: both slices are valid, element-aligned and disjoint (`dst`
    // is exclusively borrowed), and `src.len()` is within both.
    unsafe { merge_into::<T, O>(dst.as_mut_ptr(), src.as_ptr(), src.len()) }
}

/// Safe slice form of [`refill_into`].
pub fn refill_slice<T: Element, O: ReduceOp<T>>(dst: &mut [T]) {
    // SAFETY: exclusive, valid, element-aligned.
    unsafe { refill_into::<T, O>(dst.as_mut_ptr(), dst.len()) }
}

/// Explicit `portable_simd` tier. Each entry point returns `true` when it
/// handled the call (the element type is one of the built-in numerics),
/// `false` to fall back to the scalar tier; the `TypeId`
/// comparisons resolve at monomorphization time.
#[cfg(feature = "simd")]
mod simd {
    use crate::elem::{Element, OpKind, ReduceOp};
    use std::any::TypeId;
    use std::simd::{cmp::SimdOrd, num::SimdFloat, Simd, SimdElement};

    /// 64 bytes of lanes per vector op, whatever the element width.
    const fn lanes<T>() -> usize {
        64 / std::mem::size_of::<T>()
    }

    /// Reads `O::identity()` as the concrete lane type. Only called after
    /// the `TypeId` equality proves `T == E`, which makes the transmute a
    /// no-op copy.
    #[inline(always)]
    fn identity_as<T: Element, O: ReduceOp<T>, E: Copy + 'static>() -> E {
        debug_assert_eq!(TypeId::of::<T>(), TypeId::of::<E>());
        // SAFETY: T == E (checked above), so sizes and layouts match.
        unsafe { std::mem::transmute_copy::<T, E>(&O::identity()) }
    }

    macro_rules! dispatch {
        (@case $T:ty, $O:ty, $handler:ident, ($($arg:expr),*), $t:ty) => {
            if TypeId::of::<$T>() == TypeId::of::<$t>() {
                typed::$handler::<$t, { lanes::<$t>() }>(
                    $($arg as _,)*
                    <$O as ReduceOp<$T>>::KIND,
                    identity_as::<$T, $O, $t>(),
                );
                return true;
            }
        };
        ($T:ty, $O:ty, $handler:ident($($arg:expr),*)) => {{
            dispatch!(@case $T, $O, $handler, ($($arg),*), f32);
            dispatch!(@case $T, $O, $handler, ($($arg),*), f64);
            dispatch!(@case $T, $O, $handler, ($($arg),*), i32);
            dispatch!(@case $T, $O, $handler, ($($arg),*), i64);
            dispatch!(@case $T, $O, $handler, ($($arg),*), u32);
            dispatch!(@case $T, $O, $handler, ($($arg),*), u64);
            dispatch!(@case $T, $O, $handler, ($($arg),*), usize);
            false
        }};
    }

    /// SIMD merge; `true` iff handled.
    ///
    /// # Safety
    /// Same contract as [`super::merge_into`].
    #[inline(always)]
    pub unsafe fn merge<T: Element, O: ReduceOp<T>>(dst: *mut T, src: *const T, n: usize) -> bool {
        dispatch!(T, O, merge(dst, src, n))
    }

    /// SIMD refill; `true` iff handled.
    ///
    /// # Safety
    /// Same contract as [`super::refill_into`].
    #[inline(always)]
    pub unsafe fn refill<T: Element, O: ReduceOp<T>>(dst: *mut T, n: usize) -> bool {
        dispatch!(T, O, refill(dst, n))
    }

    /// SIMD fused merge+refill; `true` iff handled.
    ///
    /// # Safety
    /// Same contract as [`super::merge_refill_into`].
    #[inline(always)]
    pub unsafe fn merge_refill<T: Element, O: ReduceOp<T>>(
        dst: *mut T,
        src: *mut T,
        n: usize,
    ) -> bool {
        dispatch!(T, O, merge_refill(dst, src, n))
    }

    /// Marker trait gathering the per-type SIMD ops the typed kernels
    /// need, so one generic body serves floats and integers.
    pub(super) trait SimdCombine: SimdElement {
        fn combine<const L: usize>(
            kind: OpKind,
            a: Simd<Self, L>,
            b: Simd<Self, L>,
        ) -> Simd<Self, L>;
        fn combine1(kind: OpKind, a: Self, b: Self) -> Self;
    }

    macro_rules! impl_simd_combine {
        (float: $($t:ty),*) => {$(
            impl SimdCombine for $t {
                #[inline(always)]
                fn combine<const L: usize>(
                    kind: OpKind,
                    a: Simd<Self, L>,
                    b: Simd<Self, L>,
                ) -> Simd<Self, L> {
                    match kind {
                        OpKind::Sum => a + b,
                        OpKind::Prod => a * b,
                        OpKind::Min => a.simd_min(b),
                        OpKind::Max => a.simd_max(b),
                    }
                }
                #[inline(always)]
                fn combine1(kind: OpKind, a: Self, b: Self) -> Self {
                    match kind {
                        OpKind::Sum => a + b,
                        OpKind::Prod => a * b,
                        OpKind::Min => a.min(b),
                        OpKind::Max => a.max(b),
                    }
                }
            }
        )*};
        (int: $($t:ty),*) => {$(
            impl SimdCombine for $t {
                #[inline(always)]
                fn combine<const L: usize>(
                    kind: OpKind,
                    a: Simd<Self, L>,
                    b: Simd<Self, L>,
                ) -> Simd<Self, L> {
                    match kind {
                        OpKind::Sum => a + b,
                        OpKind::Prod => a * b,
                        OpKind::Min => a.simd_min(b),
                        OpKind::Max => a.simd_max(b),
                    }
                }
                #[inline(always)]
                fn combine1(kind: OpKind, a: Self, b: Self) -> Self {
                    match kind {
                        OpKind::Sum => a.wrapping_add(b),
                        OpKind::Prod => a.wrapping_mul(b),
                        OpKind::Min => a.min(b),
                        OpKind::Max => a.max(b),
                    }
                }
            }
        )*};
    }
    impl_simd_combine!(float: f32, f64);
    impl_simd_combine!(int: i32, i64, u32, u64, usize);

    mod typed {
        use super::{OpKind, Simd, SimdCombine};

        #[inline]
        pub(super) unsafe fn merge<E, const L: usize>(
            dst: *mut E,
            src: *const E,
            n: usize,
            kind: OpKind,
            _id: E,
        ) where
            E: SimdCombine,
        {
            let mut i = 0;
            while i + L <= n {
                let a = Simd::<E, L>::from_slice(std::slice::from_raw_parts(dst.add(i), L));
                let b = Simd::<E, L>::from_slice(std::slice::from_raw_parts(src.add(i), L));
                let c = E::combine::<L>(kind, a, b);
                c.copy_to_slice(std::slice::from_raw_parts_mut(dst.add(i), L));
                i += L;
            }
            while i < n {
                let d = dst.add(i);
                *d = E::combine1(kind, *d, *src.add(i));
                i += 1;
            }
        }

        #[inline]
        pub(super) unsafe fn refill<E, const L: usize>(dst: *mut E, n: usize, _kind: OpKind, id: E)
        where
            E: SimdCombine,
        {
            let idv = Simd::<E, L>::splat(id);
            let mut i = 0;
            while i + L <= n {
                idv.copy_to_slice(std::slice::from_raw_parts_mut(dst.add(i), L));
                i += L;
            }
            while i < n {
                *dst.add(i) = id;
                i += 1;
            }
        }

        #[inline]
        pub(super) unsafe fn merge_refill<E, const L: usize>(
            dst: *mut E,
            src: *mut E,
            n: usize,
            kind: OpKind,
            id: E,
        ) where
            E: SimdCombine,
        {
            let idv = Simd::<E, L>::splat(id);
            let mut i = 0;
            while i + L <= n {
                let a = Simd::<E, L>::from_slice(std::slice::from_raw_parts(dst.add(i), L));
                let b = Simd::<E, L>::from_slice(std::slice::from_raw_parts(src.add(i), L));
                idv.copy_to_slice(std::slice::from_raw_parts_mut(src.add(i), L));
                let c = E::combine::<L>(kind, a, b);
                c.copy_to_slice(std::slice::from_raw_parts_mut(dst.add(i), L));
                i += L;
            }
            while i < n {
                let s = src.add(i);
                let d = dst.add(i);
                let v = *s;
                *s = id;
                *d = E::combine1(kind, *d, v);
                i += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elem::{Max, Min, Prod, Sum};

    /// All three kernels (and the safe slice wrappers) against a
    /// per-element reference, at every length 0..=70 and at
    /// element-aligned but vector-misaligned offsets into both sides.
    /// Elements outside the window must stay untouched.
    fn check_kernels<T: Element, O: ReduceOp<T>>(gen: impl Fn(usize) -> T) {
        for n in 0..=70 {
            for (doff, soff) in [(0, 0), (1, 3), (3, 1)] {
                let dst0: Vec<T> = (0..n + doff + 2).map(|i| gen(3 * i + 2)).collect();
                let src0: Vec<T> = (0..n + soff + 2).map(|i| gen(7 * i + 1)).collect();
                let want: Vec<T> = dst0[doff..doff + n]
                    .iter()
                    .zip(&src0[soff..soff + n])
                    .map(|(&d, &s)| O::combine(d, s))
                    .collect();
                let window = |v: &[T], off: usize, expect: &[T], orig: &[T]| {
                    assert_eq!(&v[off..off + n], expect, "n={n} off={off}");
                    assert_eq!(&v[..off], &orig[..off], "n={n}: prefix clobbered");
                    assert_eq!(&v[off + n..], &orig[off + n..], "n={n}: suffix clobbered");
                };

                let mut dst = dst0.clone();
                merge_slices::<T, O>(&mut dst[doff..doff + n], &src0[soff..soff + n]);
                window(&dst, doff, &want, &dst0);

                let mut dst = dst0.clone();
                let mut src = src0.clone();
                // SAFETY: as above; `src` is exclusively borrowed too.
                unsafe {
                    merge_refill_into::<T, O>(
                        dst.as_mut_ptr().add(doff),
                        src.as_mut_ptr().add(soff),
                        n,
                    )
                };
                window(&dst, doff, &want, &dst0);
                window(&src, soff, &vec![O::identity(); n], &src0);

                let mut dst = dst0.clone();
                refill_slice::<T, O>(&mut dst[doff..doff + n]);
                window(&dst, doff, &vec![O::identity(); n], &dst0);
            }
        }
    }

    #[test]
    fn kernels_match_reference_at_misaligned_offsets() {
        macro_rules! every_op {
            ($t:ty, $gen:expr) => {{
                check_kernels::<$t, Sum>($gen);
                check_kernels::<$t, Prod>($gen);
                check_kernels::<$t, Min>($gen);
                check_kernels::<$t, Max>($gen);
            }};
        }
        every_op!(f32, |i| (i % 17) as f32 * 0.75 - 4.0);
        every_op!(f64, |i| (i % 19) as f64 * 0.375 - 3.0);
        every_op!(i32, |i| (i % 23) as i32 - 11);
        every_op!(i64, |i| (i as i64 * 7919) % 101 - 50);
        every_op!(u32, |i| (i as u32).wrapping_mul(0x9E37_79B9));
        every_op!(u64, |i| (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        every_op!(usize, |i| i % 29);
    }

    #[test]
    fn scalar_reference_agrees() {
        let n = 50;
        let src: Vec<u64> = (0..n as u64).collect();
        let mut a: Vec<u64> = vec![7; n];
        let mut b = a.clone();
        // SAFETY: disjoint, valid slices.
        unsafe {
            merge_into::<u64, Sum>(a.as_mut_ptr(), src.as_ptr(), n);
            merge_into_scalar::<u64, Sum>(b.as_mut_ptr(), src.as_ptr(), n);
        }
        assert_eq!(a, b);
    }
}
