//! The server-side fold: adding the workers' staged deltas into a model.
//!
//! f64 addition is not associative, so what keeps every arm, every
//! split and every interleaving bit-identical is that each model slot
//! receives the same additions in the same order: one per worker, in
//! worker-id order. Every function here keeps that order per slot.
//!
//! This module uses `std` alone, so `tests/sparse_props.rs` compiles the
//! very same source to hold the one-pass fold to per-worker folds.

use std::ops::Range;

/// Models of fewer slots than this fold on the APPLY's own thread; from
/// here up the fold is split one part per worker ([`split_count`]), the
/// parts after the first on scoped helper threads. One spawn and join
/// costs about 35 µs: on idle cores two threads break even between 2¹⁶
/// and 2¹⁷ slots and win ×1.4–1.9 from 2¹⁷ up, while with the other
/// core busy they lose ×0.75–1.0 at every size. The floor sits a step
/// above the idle break-even (DESIGN.md §7 tables both).
pub(crate) const SPLIT_FOLD_MIN_SLOTS: usize = 1 << 18;

/// Adds `delta` into `model` slot by slot: the dense fold kernel behind
/// `StripedModel::stripe_add` and the PS runtime's APPLY subtasks.
///
/// # Panics
///
/// Panics if `model` and `delta` differ in length.
pub(crate) fn fold_dense(model: &mut [f64], delta: &[f64]) {
    assert_eq!(model.len(), delta.len(), "fold length mismatch");
    for (w, d) in model.iter_mut().zip(delta) {
        *w += d;
    }
}

/// Adds two deltas into `model`, `(m + a) + b` per slot: the same two
/// additions in the same order as `fold_dense(model, a)` followed by
/// `fold_dense(model, b)`, with one store per slot instead of two. (On
/// NaN inputs, which payload survives an addition of two NaNs is left
/// open by Rust under either formulation.)
///
/// # Panics
///
/// Panics if the three slices differ in length.
pub(crate) fn fold_dense_pair(model: &mut [f64], a: &[f64], b: &[f64]) {
    assert_eq!(model.len(), a.len(), "fold length mismatch");
    assert_eq!(model.len(), b.len(), "fold length mismatch");
    for ((w, x), y) in model.iter_mut().zip(a).zip(b) {
        *w = (*w + x) + y;
    }
}

/// Scatter-adds the part of a coordinate-sparse delta that falls inside
/// `model`, a slice holding model-global slots `start..start +
/// model.len()`: `indices` are sorted unique model-global coordinates
/// and `values[k]` is the delta at `indices[k]`. The coordinates in
/// range are found by binary search, so a range crossed by none costs
/// `O(log nnz)`. The sparse kernel behind
/// `StripedModel::stripe_add_sparse` and the PS runtime's APPLY
/// subtasks; see there for why it folds to the dense kernel's bits.
///
/// # Panics
///
/// Panics if `indices` and `values` differ in length.
pub(crate) fn fold_sparse(model: &mut [f64], start: usize, indices: &[u32], values: &[f64]) {
    assert_eq!(indices.len(), values.len(), "sparse delta length mismatch");
    let end = start + model.len();
    let lo = indices.partition_point(|&i| (i as usize) < start);
    let hi = indices.partition_point(|&i| (i as usize) < end);
    for (&i, &v) in indices[lo..hi].iter().zip(&values[lo..hi]) {
        model[i as usize - start] += v;
    }
}

/// One worker's staged delta, as a fold reads it.
pub(crate) enum Delta<'a> {
    /// A full-length update.
    Dense(&'a [f64]),
    /// Sorted unique model-global indices and the values at them.
    Sparse(&'a [u32], &'a [f64]),
}

/// The deltas one fold adds, in worker-id order. Each delta is lent to
/// a closure rather than returned, so an implementation can hold
/// whatever lock guards it while the fold reads; every part of a split
/// fold reads them on its own thread.
pub(crate) trait Roster: Sync {
    /// Number of deltas.
    fn len(&self) -> usize;

    /// Calls `f` with delta `w`.
    fn with_delta<R>(&self, w: usize, f: impl FnOnce(Delta<'_>) -> R) -> R;
}

/// Parts a fold over `model_len` slots for `dop` workers is split into:
/// one per worker from [`SPLIT_FOLD_MIN_SLOTS`] up, else one.
pub(crate) fn split_count(dop: usize, model_len: usize) -> usize {
    if model_len >= SPLIT_FOLD_MIN_SLOTS {
        dop.max(1)
    } else {
        1
    }
}

/// The model slots part `n` of `parts` folds: the model split as evenly
/// as it divides, so the parts are disjoint, in order, and cover it.
pub(crate) fn split_range(n: usize, parts: usize, model_len: usize) -> Range<usize> {
    n * model_len / parts..(n + 1) * model_len / parts
}

/// Folds every delta of `roster` into `part`, which holds model slots
/// `start..start + part.len()`, in worker-id order: each run of two
/// consecutive dense deltas through [`fold_dense_pair`], a lone dense
/// one through [`fold_dense`], a sparse one through [`fold_sparse`].
fn fold_part(part: &mut [f64], start: usize, roster: &impl Roster) {
    let range = start..start + part.len();
    let mut w = 0;
    while w < roster.len() {
        let paired = roster.with_delta(w, |delta| match delta {
            Delta::Dense(a) if w + 1 < roster.len() => {
                roster.with_delta(w + 1, |next| match next {
                    Delta::Dense(b) => {
                        fold_dense_pair(part, &a[range.clone()], &b[range.clone()]);
                        true
                    }
                    Delta::Sparse(..) => {
                        fold_dense(part, &a[range.clone()]);
                        false
                    }
                })
            }
            Delta::Dense(a) => {
                fold_dense(part, &a[range.clone()]);
                false
            }
            Delta::Sparse(indices, values) => {
                fold_sparse(part, start, indices, values);
                false
            }
        });
        w += if paired { 2 } else { 1 };
    }
}

/// Folds every delta of `roster` into `model`, in `parts` disjoint
/// [`split_range`]s: the first on the calling thread, each other one on
/// a thread scoped to this call. Every slot gets the same additions in
/// the same order whatever `parts` is, so the result is too.
pub(crate) fn fold_split(model: &mut [f64], parts: usize, roster: &impl Roster) {
    if parts <= 1 {
        fold_part(model, 0, roster);
        return;
    }
    let len = model.len();
    let (head, mut rest) = model.split_at_mut(split_range(0, parts, len).end);
    std::thread::scope(|scope| {
        for n in 1..parts {
            let range = split_range(n, parts, len);
            let (part, tail) = std::mem::take(&mut rest).split_at_mut(range.len());
            rest = tail;
            scope.spawn(move || fold_part(part, range.start, roster));
        }
        fold_part(head, 0, roster);
    });
}
