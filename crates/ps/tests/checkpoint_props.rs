//! Property tests: checkpoint serialization is a lossless bit-level
//! round trip for *every* f64 bit pattern — NaNs with payloads, signed
//! zeros, subnormals, infinities — and composes with the striped model
//! store at any layout, including empty models and odd-sized stripes.
//! This is the foundation the migration-equivalence gate stands on: if
//! any bit pattern failed to survive capture → wire → restore,
//! migrate-at-boundary could not be bit-identical to checkpoint →
//! fresh-restart.

use proptest::prelude::*;

use harmony_ps::{Checkpoint, StripedModel};

fn to_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Strategy: arbitrary f64 *bit patterns*, not just arbitrary values —
/// `from_bits` over the full u64 range reaches every NaN payload, both
/// zeros, and all subnormals.
fn raw_model() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((0u64..=u64::MAX).prop_map(f64::from_bits), 0..96)
}

/// Strategy: like [`raw_model`] but non-empty — the model stores
/// reject zero-length models by construction.
fn nonempty_model() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((0u64..=u64::MAX).prop_map(f64::from_bits), 1..96)
}

/// Strategy: bit patterns guaranteed to include the adversarial cases.
fn spiked_model() -> impl Strategy<Value = Vec<f64>> {
    raw_model().prop_map(|mut v| {
        v.extend([
            f64::from_bits(0x7ff8_0000_dead_beef), // NaN with payload
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            f64::MIN_POSITIVE / 2.0, // subnormal
        ]);
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn capture_restore_is_bit_identity(model in raw_model()) {
        let ckpt = Checkpoint::capture(&model);
        prop_assert_eq!(ckpt.param_count(), model.len());
        prop_assert_eq!(ckpt.byte_len(), 8 * model.len() as u64);
        prop_assert_eq!(to_bits(&ckpt.restore()), to_bits(&model));
    }

    #[test]
    fn wire_form_round_trips(model in spiked_model()) {
        // Serialize, ship the raw bytes, rehydrate on the other side.
        let ckpt = Checkpoint::capture(&model);
        let wire = ckpt.as_bytes().to_vec();
        let back = Checkpoint::from_bytes(wire);
        prop_assert_eq!(&back, &ckpt);
        prop_assert_eq!(to_bits(&back.restore()), to_bits(&model));
    }

    #[test]
    fn restore_into_matches_restore(model in spiked_model()) {
        let ckpt = Checkpoint::capture(&model);
        let mut out = vec![0.0; model.len()];
        ckpt.restore_into(&mut out);
        prop_assert_eq!(to_bits(&out), to_bits(&ckpt.restore()));
    }

    #[test]
    fn double_capture_is_idempotent(model in raw_model()) {
        // capture ∘ restore ∘ capture == capture.
        let once = Checkpoint::capture(&model);
        let twice = Checkpoint::capture(&once.restore());
        prop_assert_eq!(once, twice);
    }

    /// A `StripedModel` restored in place through a checkpoint keeps
    /// every bit: odd stripe lengths leave a ragged tail stripe, and a
    /// stripe longer than the model degenerates to a single stripe.
    #[test]
    fn striped_relayout_preserves_bits(
        model in nonempty_model(),
        stripe_len in 1usize..200,
    ) {
        let striped = StripedModel::new(model.len(), stripe_len);
        striped.restore(&model);
        let ckpt = Checkpoint::capture(&striped.pull());
        let mut staged = vec![0.0; ckpt.param_count()];
        ckpt.restore_into(&mut staged);
        striped.restore(&staged);
        prop_assert_eq!(to_bits(&striped.pull()), to_bits(&model));
    }
}
