//! Property tests: the coordinate-sparse scatter-apply is bit-identical
//! to the dense stripe fold for *every* delta the runtime contract
//! admits — NaN payloads, signed zeros, empty and single-coordinate
//! supports, ragged stripe layouts, mixed sparse/dense worker rosters,
//! and arbitrary stripe application orders — and, through the runtime
//! itself, for a worker whose support crosses the density cutoff in
//! both directions mid-run (its staging is checked out on demand).
//! The APPLY's one-pass fold — dense workers two at a time, split into
//! parts folded on scoped threads — is held to one fold per worker in
//! worker-id order for any roster and any split count.
//!
//! The contract under test (see `StripedModel::stripe_add_sparse` and
//! `PsAlgorithm::sparse_support`): a sparse PUSH may omit exactly the
//! slots where the dense update holds `±0.0`, because
//!
//! * adding `-0.0` to any non-signaling value is a bit-identity, and
//! * adding `+0.0` changes bits only on a `-0.0` slot — and server
//!   model slots can never hold `-0.0` (IEEE round-to-nearest sums
//!   produce `-0.0` only from `(-0.0) + (-0.0)`, and initial models
//!   contain none).
//!
//! Signaling NaN slots are excluded the same way `-0.0` slots are:
//! `sNaN + (±0.0)` quiets the NaN (flips its quiet bit), but a server
//! slot only ever holds IEEE arithmetic results (always *quiet* NaNs)
//! or finite initial values, never an sNaN. The strategies therefore
//! quiet generated NaNs and normalize the sign of zero — the invariant
//! real servers maintain — while a dedicated test keeps `-0.0` model
//! slots and omits only `-0.0` entries, the case that is neutral on
//! any non-signaling model.

use proptest::prelude::*;

use harmony_ml::PsAlgorithm;
use harmony_ps::{
    JobBuilder, PsCluster, PsConfig, StripedModel, DEFAULT_STRIPE_LEN, SPARSE_DENSITY_THRESHOLD,
};

/// The runtime's fold module itself, compiled into this test: it is
/// crate-private and depends on `std` alone.
#[allow(dead_code)]
#[path = "../src/fold.rs"]
mod fold;

use fold::{Delta, Roster};

fn to_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// IEEE-754 binary64 quiet bit (mantissa MSB).
const QUIET_BIT: u64 = 0x0008_0000_0000_0000;

/// Normalizes a raw bit pattern to a value a real server slot can hold:
/// arbitrary payloads, infinities, and subnormals survive, but `-0.0`
/// becomes `+0.0` and signaling NaNs get their quiet bit set — slots
/// only ever hold arithmetic results, which are never either.
fn server_slot(b: u64) -> f64 {
    let v = f64::from_bits(b);
    if v.is_nan() {
        f64::from_bits(b | QUIET_BIT)
    } else if v == 0.0 {
        0.0
    } else {
        v
    }
}

/// Model slots: arbitrary bit patterns (NaN payloads, infinities,
/// subnormals) run through [`server_slot`], mirroring the server
/// invariant the omission rule relies on.
fn server_model(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((0u64..=u64::MAX).prop_map(server_slot), 1..max_len)
}

/// One worker's raw delta material: `(index_seed, value_bits)` pairs
/// (indices are reduced mod the model length in the test body) plus a
/// seed choosing the sign of every off-support zero.
type RawWorker = (Vec<(u64, u64)>, u64);

fn raw_workers(max_pairs: usize) -> impl Strategy<Value = Vec<RawWorker>> {
    prop::collection::vec(
        (
            prop::collection::vec(((0u64..=u64::MAX), (0u64..=u64::MAX)), 0..max_pairs),
            0u64..=u64::MAX,
        ),
        1..5,
    )
}

/// Expands one worker's raw material against a model length: returns
/// `(support, packed_values, dense_delta)` where off-support slots of
/// the dense form hold `±0.0` with pseudo-random signs (exactly what a
/// real `compute_update_into` leaves behind after seeding/zero-fill).
fn expand(len: usize, raw: &RawWorker) -> (Vec<u32>, Vec<f64>, Vec<f64>) {
    let (pairs, zero_signs) = raw;
    let mut support: Vec<u32> = pairs
        .iter()
        .map(|&(i, _)| (i % len as u64) as u32)
        .collect();
    support.sort_unstable();
    support.dedup();
    let mut dense: Vec<f64> = (0..len)
        .map(|i| {
            if (zero_signs >> (i % 64)) & 1 == 1 {
                -0.0
            } else {
                0.0
            }
        })
        .collect();
    // Last write wins per index — any deterministic merge works, both
    // arms read the same dense buffer.
    for &(i, bits) in pairs {
        dense[(i % len as u64) as usize] = f64::from_bits(bits);
    }
    let values: Vec<f64> = support.iter().map(|&i| dense[i as usize]).collect();
    (support, values, dense)
}

/// Folds every worker into `store` stripe-major, worker-id order inside
/// each stripe — per slot, the additions the runtime's APPLY makes, in
/// its order. `sparse[w]` selects
/// the wire form per worker (the density-adaptive mix).
fn fold(
    store: &StripedModel,
    deltas: &[(Vec<u32>, Vec<f64>, Vec<f64>)],
    sparse: impl Fn(usize) -> bool,
    stripe_order: impl Iterator<Item = usize>,
) {
    for s in stripe_order {
        for (w, (support, values, dense)) in deltas.iter().enumerate() {
            if sparse(w) {
                store.stripe_add_sparse(s, support, values);
            } else {
                store.stripe_add(s, dense);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// All-sparse fold == all-dense fold, bit for bit, at any stripe
    /// layout (including stripes longer than the model and ragged
    /// tails) and any support size (empty through full).
    #[test]
    fn sparse_fold_matches_dense_fold(
        model in server_model(64),
        raw in raw_workers(24),
        stripe_len in 1usize..80,
    ) {
        let deltas: Vec<_> = raw.iter().map(|r| expand(model.len(), r)).collect();
        let dense_store = StripedModel::new(model.len(), stripe_len);
        dense_store.restore(&model);
        let sparse_store = StripedModel::new(model.len(), stripe_len);
        sparse_store.restore(&model);
        let stripes = dense_store.stripe_count();
        fold(&dense_store, &deltas, |_| false, 0..stripes);
        fold(&sparse_store, &deltas, |_| true, 0..stripes);
        prop_assert_eq!(to_bits(&sparse_store.pull()), to_bits(&dense_store.pull()));
    }

    /// A mixed roster — some workers sparse, some fallen back to dense,
    /// chosen per worker — still matches the all-dense fold, and the
    /// stripes may land in any order (they are disjoint).
    #[test]
    fn mixed_roster_and_stripe_order_match(
        model in server_model(64),
        raw in raw_workers(24),
        stripe_len in 1usize..40,
        sparse_mask in 0u64..=u64::MAX,
        rotation in 0usize..32,
    ) {
        let deltas: Vec<_> = raw.iter().map(|r| expand(model.len(), r)).collect();
        let reference = StripedModel::new(model.len(), stripe_len);
        reference.restore(&model);
        let mixed = StripedModel::new(model.len(), stripe_len);
        mixed.restore(&model);
        let stripes = reference.stripe_count();
        fold(&reference, &deltas, |_| false, 0..stripes);
        let mut order: Vec<usize> = (0..stripes).collect();
        order.rotate_left(rotation % stripes.max(1));
        fold(
            &mixed,
            &deltas,
            |w| (sparse_mask >> (w % 64)) & 1 == 1,
            order.into_iter(),
        );
        prop_assert_eq!(to_bits(&mixed.pull()), to_bits(&reference.pull()));
    }

    /// The wider neutral case: when every omitted slot holds `-0.0`,
    /// the fold is bit-identical even on models that DO contain `-0.0`
    /// slots — no reliance on the signed-zero half of the server
    /// invariant (NaN slots are still quieted: `sNaN + (-0.0)` flips
    /// the quiet bit on the dense arm no matter the zero's sign).
    #[test]
    fn negative_zero_omissions_are_neutral_on_any_model(
        model_bits in prop::collection::vec(0u64..=u64::MAX, 1..64),
        raw in raw_workers(16),
        stripe_len in 1usize..40,
    ) {
        let model: Vec<f64> = model_bits
            .iter()
            .map(|&b| {
                let v = f64::from_bits(b);
                if v.is_nan() {
                    f64::from_bits(b | QUIET_BIT)
                } else {
                    v
                }
            })
            .collect();
        let deltas: Vec<_> = raw
            .iter()
            .map(|(pairs, _)| expand(model.len(), &(pairs.clone(), u64::MAX)))
            .collect();
        let dense_store = StripedModel::new(model.len(), stripe_len);
        dense_store.restore(&model);
        let sparse_store = StripedModel::new(model.len(), stripe_len);
        sparse_store.restore(&model);
        let stripes = dense_store.stripe_count();
        fold(&dense_store, &deltas, |_| false, 0..stripes);
        fold(&sparse_store, &deltas, |_| true, 0..stripes);
        prop_assert_eq!(to_bits(&sparse_store.pull()), to_bits(&dense_store.pull()));
    }
}

/// Deterministic edge cases the strategies only hit by chance: an empty
/// delta, a single-coordinate delta at each boundary slot, and a stripe
/// layout whose tail stripe holds one element.
#[test]
fn empty_and_single_coordinate_deltas() {
    let model = [1.5, -2.25, f64::NAN, 0.0, 7.0e-300, -1.0, 3.0];
    for stripe_len in [1usize, 2, 3, 4, 7, 100] {
        let dense_store = StripedModel::new(model.len(), stripe_len);
        dense_store.restore(&model);
        let sparse_store = StripedModel::new(model.len(), stripe_len);
        sparse_store.restore(&model);
        for s in 0..dense_store.stripe_count() {
            // Empty delta: dense folds all-zeros, sparse folds nothing.
            dense_store.stripe_add(s, &[0.0; 7]);
            sparse_store.stripe_add_sparse(s, &[], &[]);
            // Single coordinate at the first and last slots.
            for idx in [0u32, 6] {
                let mut dense = [0.0; 7];
                dense[idx as usize] = -0.5;
                dense_store.stripe_add(s, &dense);
                sparse_store.stripe_add_sparse(s, &[idx], &[-0.5]);
            }
        }
        assert_eq!(
            to_bits(&sparse_store.pull()),
            to_bits(&dense_store.pull()),
            "stripe_len {stripe_len}"
        );
    }
}

/// A worker whose support size follows a script, one entry per COMP —
/// no shipped algorithm flips between wire forms mid-run, so this is
/// the only way to walk the on-demand staging through "dense for k
/// iterations, then sparse, then dense again".
struct Flicker {
    len: usize,
    /// Support size of each successive COMP.
    script: Vec<usize>,
    calls: usize,
    support: Vec<u32>,
    /// Distinguishes the workers' values, so the fold order shows.
    salt: f64,
}

impl PsAlgorithm for Flicker {
    fn model_len(&self) -> usize {
        self.len
    }

    fn init_model(&self, _seed: u64) -> Vec<f64> {
        (0..self.len).map(|i| 0.25 + i as f64 / 7.0).collect()
    }

    fn compute_update_into(&mut self, model: &[f64], update: &mut [f64]) {
        let n = self.script[self.calls];
        self.calls += 1;
        // Off-support slots hold a signed zero, of either sign.
        update.fill(if self.calls.is_multiple_of(2) {
            -0.0
        } else {
            0.0
        });
        self.support.clear();
        for k in 0..n {
            // `n` coordinates spread over every stripe, ascending.
            let i = k * self.len / n;
            update[i] = self.salt * (model[i] / 3.0 + 1.0 / (k + self.calls) as f64);
            self.support.push(i as u32);
        }
    }

    fn sparse_support(&self) -> Option<&[u32]> {
        Some(&self.support)
    }

    fn loss(&self, model: &[f64]) -> f64 {
        model.iter().sum::<f64>() * self.salt
    }

    fn num_examples(&self) -> usize {
        1
    }
}

#[test]
fn support_crossing_the_cutoff_mid_run_stays_bit_identical() {
    // Three stripes with a ragged tail.
    let len = 2 * DEFAULT_STRIPE_LEN + 100;
    let cutoff = (SPARSE_DENSITY_THRESHOLD * len as f64) as usize;
    assert_eq!(cutoff as f64, SPARSE_DENSITY_THRESHOLD * len as f64);
    // Per iteration: dense beside sparse, exactly at the cutoff, an
    // empty support, one past the cutoff, both sparse, both dense.
    let scripts = [
        vec![len, cutoff, 0, cutoff + 1, 5, len, 10, len],
        vec![3, len, len, cutoff - 1, len, 0, 10, len],
    ];
    let iters = scripts[0].len();
    let run = |sparse_push: bool, scripts: &[Vec<usize>]| {
        let cluster = PsCluster::new(PsConfig {
            nodes: 2,
            sparse_push,
            ..PsConfig::default()
        });
        let workers = scripts.iter().enumerate().map(|(w, script)| {
            Box::new(Flicker {
                len,
                script: script.clone(),
                calls: 0,
                support: Vec::new(),
                salt: 1.0 + w as f64 / 3.0,
            }) as Box<dyn PsAlgorithm>
        });
        let job = JobBuilder::new("flicker")
            .workers(workers)
            .max_iterations(iters as u64)
            .build();
        (cluster.run_jobs(vec![job]).remove(0), cluster.pool_stats())
    };

    let (sparse, pool) = run(true, &scripts);
    let (dense, _) = run(false, &scripts);
    assert_eq!(to_bits(&sparse.final_model), to_bits(&dense.final_model));
    assert_eq!(sparse.loss_history, dense.loss_history);

    // Pairs (12 bytes: `u32` index + `f64` value) are charged on
    // exactly the iterations a support sat at or below the cutoff.
    let dense_bytes = (len * 8) as u64;
    for (i, volume) in sparse.push_volumes.iter().enumerate() {
        let expected: u64 = scripts
            .iter()
            .map(|script| match script[i] {
                n if n <= cutoff => n as u64 * 12,
                _ => dense_bytes,
            })
            .sum();
        assert_eq!(volume.bytes, expected, "iteration {}", i + 1);
        assert_eq!(volume.dense_bytes, 2 * dense_bytes);
    }
    assert_eq!(dense.push_density(), 1.0);

    // Both workers went sparse at some point: the model + 2 updates + 2
    // staging pairs, each checked out once however often the wire form
    // flipped. A peer that never does holds no staging.
    assert_eq!((pool.allocations, pool.outstanding), (1 + 3 * 2, 0));
    let (_, pool) = run(true, &[scripts[0].clone(), vec![len; iters]]);
    assert_eq!((pool.allocations, pool.outstanding), (1 + 2 + 2, 0));
}

/// SplitMix64: a cheap deterministic stream, so a case can fill models
/// of a quarter-million slots without drawing each one from the runner.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d1_049b_133b_11eb);
    z ^ (z >> 31)
}

/// A value for the fold test: one in four a special — `±0.0`, a
/// subnormal of either sign, `±∞` — the rest arbitrary non-NaN bit
/// patterns. NaN inputs are left out: Rust leaves open which payload an
/// addition of two NaNs keeps, so no formulation of a fold is
/// bit-stable on them. `∞ + (-∞)` still makes NaNs here, all of them
/// the one NaN the hardware produces.
fn fold_value(seed: u64) -> f64 {
    const SPECIAL: [f64; 6] = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE / 3.0,
        -f64::MIN_POSITIVE / 7.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    let z = mix(seed);
    if z & 3 == 0 {
        SPECIAL[(z >> 2) as usize % SPECIAL.len()]
    } else {
        let bits = mix(z);
        match f64::from_bits(bits) {
            // Clearing the exponent's top bit leaves a finite value.
            v if v.is_nan() => f64::from_bits(bits & !(1 << 62)),
            v => v,
        }
    }
}

/// One worker's staged delta in the fold test.
enum Staged {
    Dense(Vec<f64>),
    Sparse(Vec<u32>, Vec<f64>),
}

/// The first `len` of `deltas`: every worker, or slot 0 alone after a
/// ring all-reduce.
struct TestRoster {
    deltas: Vec<Staged>,
    len: usize,
}

impl Roster for TestRoster {
    fn len(&self) -> usize {
        self.len
    }

    fn with_delta<R>(&self, w: usize, f: impl FnOnce(Delta<'_>) -> R) -> R {
        f(match &self.deltas[w] {
            Staged::Dense(d) => Delta::Dense(d),
            Staged::Sparse(i, v) => Delta::Sparse(i, v),
        })
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The one-pass fold gives the bits of one `fold_dense` or
    /// `fold_sparse` per worker in worker-id order, for rosters of DoP
    /// 1–8 mixing dense and sparse workers, an all-reduce slot, models
    /// on both sides of the split floor and every split count 1–8.
    #[test]
    fn one_pass_split_fold_matches_per_worker_folds(
        size in (0usize..4, 1usize..300),
        dop in 1usize..9,
        sparse_mask in 0u64..256,
        all_reduce in any::<bool>(),
        seed in 0u64..=u64::MAX,
    ) {
        const FLOOR: usize = fold::SPLIT_FOLD_MIN_SLOTS;
        let len = match size {
            (0 | 1, n) => n,
            (2, n) => FLOOR - n,
            (_, n) => FLOOR + n,
        };
        let stream = |w: usize, salt: u64| mix(seed ^ ((w as u64) << 40) ^ (salt << 56));
        let deltas: Vec<Staged> = (0..dop)
            .map(|w| {
                let s = stream(w, 1);
                if (sparse_mask >> w) & 1 == 1 && !(all_reduce && w == 0) {
                    let mut support: Vec<u32> = (0..mix(s) % 64)
                        .map(|k| (mix(s ^ k) % len as u64) as u32)
                        .collect();
                    support.sort_unstable();
                    support.dedup();
                    let values = support.iter().map(|&i| fold_value(s ^ u64::from(i))).collect();
                    Staged::Sparse(support, values)
                } else {
                    Staged::Dense((0..len as u64).map(|i| fold_value(s ^ i)).collect())
                }
            })
            .collect();
        let roster = TestRoster {
            deltas,
            len: if all_reduce { 1 } else { dop },
        };
        let model: Vec<f64> = (0..len as u64).map(|i| fold_value(stream(0, 2) ^ i)).collect();

        let mut want = model.clone();
        for delta in &roster.deltas[..roster.len] {
            match delta {
                Staged::Dense(d) => fold::fold_dense(&mut want, d),
                Staged::Sparse(i, v) => fold::fold_sparse(&mut want, 0, i, v),
            }
        }
        for parts in 1..=8 {
            let mut got = model.clone();
            fold::fold_split(&mut got, parts, &roster);
            prop_assert!(
                to_bits(&got) == to_bits(&want),
                "len {len} dop {dop} mask {sparse_mask:#x} all-reduce {all_reduce} parts {parts}"
            );
        }
    }
}
