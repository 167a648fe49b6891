//! Frozen PS training digests: FNV-1a over the `to_bits` of each job's
//! final model and of its loss history, captured from the reference
//! runtime arm (`PsConfig::fast_runtime` off) under a `VirtualClock`.
//!
//! `ps_equivalence` and `migration_equivalence` compare two arms of the
//! *same* build, so a change that moves both arms together passes them.
//! These constants pin the bits across commits instead, so a PS arm can
//! be changed or retired against them. The matrix covers MLR, Lasso, NMF
//! and LDA at DoP 1, 2 and 4 on one-stripe models, on models spanning
//! several stripes and on models of more than 2¹⁹ parameters, plus
//! all-reduce, a mid-iteration abort and a live migration. Every cell runs the
//! reference arm and the fast arm with sparse PUSH on and off; all three
//! must hit the pinned digests. A change meant to alter training
//! numerics re-captures them (`GOLDEN_PRINT=1 cargo test --test
//! ps_goldens -- --nocapture`) and says why.

use std::sync::Arc;
use std::time::Duration;

use harmony::ml::{synth, Lasso, Lda, Mlr, Nmf, PsAlgorithm};
use harmony::ps::{JobBuilder, JobReport, PsCluster, PsConfig, SubtaskKind, VirtualClock};

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn model_digest(model: &[f64]) -> u64 {
    fnv1a(model.iter().flat_map(|x| x.to_bits().to_le_bytes()))
}

fn loss_digest(history: &[(u64, f64)]) -> u64 {
    fnv1a(
        history
            .iter()
            .flat_map(|&(i, l)| i.to_le_bytes().into_iter().chain(l.to_bits().to_le_bytes())),
    )
}

/// How large a cell's model is.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Size {
    /// Within one `DEFAULT_STRIPE_LEN` stripe.
    Small,
    /// Across several stripes: 9 000 to 20 000 parameters.
    Wide,
    /// More than 2¹⁹ parameters: 600 000 to 600 003.
    Large,
}

/// Deterministic workers: same synth data and seeds on every call, so
/// each arm builds identical inputs.
fn workers(algo: &str, w: usize, size: Size) -> Vec<Box<dyn PsAlgorithm>> {
    match algo {
        "mlr" => {
            let (features, density, rate) = match size {
                Size::Small => (12, 0.3, 0.5),
                Size::Wide => (3_000, 0.02, 0.005),
                Size::Large => (200_000, 0.000_5, 0.005),
            };
            let data = synth::classification(96, features, 3, density, 5);
            synth::partition(&data, w)
                .into_iter()
                .map(|p| Box::new(Mlr::new(p, features, 3, rate)) as Box<dyn PsAlgorithm>)
                .collect()
        }
        "lasso" => {
            let (features, density) = match size {
                Size::Small => (16, 0.3),
                Size::Wide => (20_000, 0.01),
                Size::Large => (600_000, 0.000_5),
            };
            let data = synth::regression(96, features, density, 6);
            synth::partition(&data, w)
                .into_iter()
                .map(|p| Box::new(Lasso::new(p, features, 0.05, 0.01)) as Box<dyn PsAlgorithm>)
                .collect()
        }
        "nmf" => {
            let items = match size {
                Size::Small => 30,
                Size::Wide => 6_000,
                Size::Large => 200_000,
            };
            let ratings = synth::ratings(24, items, 8, 3, 7);
            synth::partition(&ratings, w)
                .into_iter()
                .map(|p| Box::new(Nmf::new(p, items as usize, 3, 0.05)) as Box<dyn PsAlgorithm>)
                .collect()
        }
        "lda" => {
            let vocab = match size {
                Size::Small => 120,
                Size::Wide => 3_000,
                Size::Large => 200_000,
            };
            let docs = synth::bag_of_words(24, vocab, 30, 3, 8);
            synth::partition(&docs, w)
                .into_iter()
                .enumerate()
                .map(|(i, p)| {
                    Box::new(Lda::new(p, vocab as usize, 3, i as u64)) as Box<dyn PsAlgorithm>
                })
                .collect()
        }
        other => panic!("unknown algorithm {other}"),
    }
}

#[derive(Clone, Copy)]
struct Cell {
    algo: &'static str,
    dop: usize,
    size: Size,
    all_reduce: bool,
    abort_after: Option<u64>,
    /// `(after_iteration, new DoP)`.
    migrate: Option<(u64, usize)>,
}

impl Cell {
    fn new(algo: &'static str, dop: usize) -> Self {
        Self {
            algo,
            dop,
            size: Size::Small,
            all_reduce: false,
            abort_after: None,
            migrate: None,
        }
    }

    fn wide(self) -> Self {
        Self {
            size: Size::Wide,
            ..self
        }
    }

    fn large(self) -> Self {
        Self {
            size: Size::Large,
            ..self
        }
    }

    fn label(&self) -> String {
        let mut s = format!("{}-{}w", self.algo, self.dop);
        match self.size {
            Size::Small => {}
            Size::Wide => s.push_str("-wide"),
            Size::Large => s.push_str("-large"),
        }
        if self.all_reduce {
            s.push_str("-allreduce");
        }
        if let Some(at) = self.abort_after {
            s.push_str(&format!("-abort{at}"));
        }
        if let Some((at, to)) = self.migrate {
            s.push_str(&format!("-migrate{at}to{to}"));
        }
        s
    }

    fn run(&self, fast_runtime: bool, sparse_push: bool) -> JobReport {
        let nodes = self.dop.max(self.migrate.map_or(0, |(_, to)| to));
        // Durations depend on (job, node, kind, iteration) only, so the
        // timing records replay exactly however threads interleave.
        let clock = VirtualClock::new(|job, node, kind, iter| {
            let base = if kind == SubtaskKind::Comp { 900 } else { 70 };
            Duration::from_micros(base + 100 * job as u64 + 10 * node as u64 + iter)
        });
        let cluster = PsCluster::with_clock(
            PsConfig {
                nodes,
                network_bytes_per_sec: None,
                fast_runtime,
                live_migration: self.migrate.is_some(),
                sparse_push,
            },
            Arc::new(clock),
        );
        let mut b = JobBuilder::new(self.label())
            .workers(workers(self.algo, self.dop, self.size))
            .max_iterations(6)
            .check_every(2);
        if self.all_reduce {
            b = b.all_reduce();
        }
        if let Some(at) = self.abort_after {
            b = b.abort_after(at);
        }
        if let Some((at, to)) = self.migrate {
            b = b.migrate_after(at, workers(self.algo, to, self.size));
        }
        cluster.run_jobs(vec![b.build()]).remove(0)
    }
}

/// A cell and its pinned `(iterations, model digest, loss digest)`.
type Row = (Cell, u64, u64, u64);

/// Runs each cell on the reference arm and on the fast arm with sparse
/// PUSH on and off, and holds every arm to the cell's pinned outcome.
fn assert_rows(rows: &[Row]) {
    for &(cell, iterations, model, loss) in rows {
        let label = cell.label();
        let arms = [
            ("reference", cell.run(false, false)),
            ("fast-dense", cell.run(true, false)),
            ("fast-sparse", cell.run(true, true)),
        ];
        for (arm, r) in &arms {
            let (got_model, got_loss) =
                (model_digest(&r.final_model), loss_digest(&r.loss_history));
            if std::env::var_os("GOLDEN_PRINT").is_some() {
                println!(
                    "golden {label} [{arm}]: iterations {}, model {got_model:#018x}, loss {got_loss:#018x}",
                    r.iterations
                );
                continue;
            }
            assert_eq!(r.iterations, iterations, "{label} [{arm}]: iterations");
            assert_eq!(
                got_model, model,
                "{label} [{arm}]: final model moved ({got_model:#018x}, pinned {model:#018x})"
            );
            assert_eq!(
                got_loss, loss,
                "{label} [{arm}]: loss history moved ({got_loss:#018x}, pinned {loss:#018x})"
            );
        }
        // The reference arm has no sparse wire; the fast arm must take
        // it whenever the workload is sparse enough, or the cell tests
        // nothing.
        let sparse = &arms[2].1;
        if cell.algo == "lda" && !cell.all_reduce && sparse.iterations > 0 {
            assert!(
                sparse.push_density() < 1.0,
                "{label}: the sparse PUSH path never engaged"
            );
        }
    }
}

/// Every algorithm at DoP 1, 2 and 4 on one-stripe models. LDA's
/// PUSHes go sparse on the fast arm.
#[test]
fn algorithms_across_dop() {
    let c = Cell::new;
    assert_rows(&[
        (c("mlr", 1), 6, 0x2911_15ea_b44d_0ea0, 0x320b_e233_b404_7e8c),
        (c("mlr", 2), 6, 0x9780_c57d_7900_1668, 0x14e1_2762_d38b_5ce6),
        (c("mlr", 4), 6, 0x3d76_fa61_ff17_67ae, 0x1e52_c3bd_8841_c65f),
        (
            c("lasso", 1),
            6,
            0x8be6_1fad_1581_83d1,
            0xbd8d_8011_734c_add5,
        ),
        (
            c("lasso", 2),
            6,
            0x5a74_4738_c9c6_4e76,
            0x2719_b72d_4549_a25c,
        ),
        (
            c("lasso", 4),
            6,
            0x6a14_7f5f_e3fd_767a,
            0xe964_bff5_b0c6_30ae,
        ),
        (c("nmf", 1), 6, 0x21eb_5694_cb6c_d49e, 0x1ee7_d503_c91a_0706),
        (c("nmf", 2), 6, 0xa6de_35cf_0209_7edc, 0x1ff3_9f08_f780_3a86),
        (c("nmf", 4), 6, 0x75b0_2944_f404_63e3, 0xfa7a_7a99_3c4c_dd4a),
        (c("lda", 1), 6, 0x6b45_01ec_95a5_2607, 0xc749_09ab_33ad_1cd0),
        (c("lda", 2), 6, 0x9d5f_64bb_2414_9846, 0xeb26_6d1d_8980_73cb),
        (c("lda", 4), 6, 0xfa75_8851_5857_a5b8, 0x99a4_d82c_cc84_cfc4),
    ]);
}

/// Models of 9 000 to 20 000 parameters span two or three
/// `DEFAULT_STRIPE_LEN` stripes; the NMF and LDA cells fold sparse
/// supports across the reference arm's shard boundaries.
#[test]
fn wide_models_across_apply_tasks() {
    let c = |algo, dop| Cell::new(algo, dop).wide();
    assert_rows(&[
        (c("mlr", 2), 6, 0xd070_631d_6fe7_2be4, 0xa4cd_128d_4cf5_d2be),
        (
            c("lasso", 2),
            6,
            0x4a4f_bbe8_9994_c1ff,
            0xd3ec_d2d1_7b23_7027,
        ),
        (
            c("lasso", 4),
            6,
            0x36e1_bb74_1e08_3696,
            0xa4e7_fa93_3914_f392,
        ),
        (c("nmf", 4), 6, 0xa8b5_4733_8624_3f77, 0xb0a5_936e_9617_46b9),
        (c("lda", 2), 6, 0xcbe4_7fb3_7386_0e25, 0xeb67_4b64_80b6_4134),
        (c("lda", 4), 6, 0xfb09_2945_8a3c_b051, 0xcba9_2e88_6c0a_e74c),
    ]);
}

/// Models of 600 000 to 600 003 parameters, above the size at which an
/// APPLY may split its fold across threads: dense Lasso at DoP 2 and 4,
/// LDA whose sparse supports land on both sides of the model's midpoint,
/// and MLR through a ring all-reduce.
#[test]
fn large_models() {
    let c = |algo, dop| Cell::new(algo, dop).large();
    assert_rows(&[
        (
            c("lasso", 2),
            6,
            0x5ab3_3214_3fb6_2b2c,
            0x36a5_ebc5_1715_83db,
        ),
        (
            c("lasso", 4),
            6,
            0x9fae_4e85_43c3_730c,
            0x10d3_e8fa_8f1c_60a9,
        ),
        (c("lda", 2), 6, 0xf0b7_bfb7_245b_3319, 0x892e_b1a4_9491_d377),
        (
            Cell {
                all_reduce: true,
                ..c("mlr", 2)
            },
            6,
            0x1fca_5ad9_89a4_86ee,
            0xd033_2855_562a_5608,
        ),
    ]);
}

/// Ring all-reduce: every rank ends the reduction holding the sum, and
/// APPLY folds it once.
#[test]
fn all_reduce() {
    let c = |algo, dop| Cell {
        all_reduce: true,
        ..Cell::new(algo, dop)
    };
    assert_rows(&[
        (c("mlr", 2), 6, 0x5194_f3be_d00c_34ee, 0x2917_cd62_6313_67a3),
        (
            c("lasso", 4),
            6,
            0x2e79_0eaf_90f1_63df,
            0xe964_bff5_b0c6_30ae,
        ),
        (
            c("mlr", 4).wide(),
            6,
            0x35e9_984f_84a6_4a0a,
            0x15cf_c904_0f6c_e9f5,
        ),
    ]);
}

/// An abort as iteration `at` begins leaves the model as of iteration
/// `at - 1`; at iteration 1 no COMP ever runs.
#[test]
fn abort_mid_iteration() {
    let c = |algo, dop, at| Cell {
        abort_after: Some(at),
        ..Cell::new(algo, dop)
    };
    assert_rows(&[
        (
            c("mlr", 4, 4),
            3,
            0xe902_0b81_7584_d9f0,
            0x4bd3_44b3_e6bf_3ab8,
        ),
        (
            c("lda", 2, 3),
            2,
            0xa4d3_fa4a_9212_9397,
            0x28f8_df85_890c_108e,
        ),
        (
            c("lasso", 2, 1),
            0,
            0xb1a0_1776_b50e_866c,
            0xb21e_45a5_75cb_6b4c,
        ),
        (
            c("nmf", 2, 4).wide(),
            3,
            0x4315_6e96_13ff_7d6f,
            0x5752_a40e_cdd7_d6ae,
        ),
    ]);
}

/// Live migration: checkpoint, restore and the new workers'
/// pre-training pushes at an iteration boundary, then training on at
/// the new DoP.
#[test]
fn live_migration() {
    let c = |algo, dop, at, to| Cell {
        migrate: Some((at, to)),
        ..Cell::new(algo, dop)
    };
    assert_rows(&[
        (
            c("lasso", 2, 3, 4),
            6,
            0xe7cb_cc87_5a11_d6a3,
            0x4579_2b30_511c_0026,
        ),
        (
            c("lda", 4, 2, 1),
            6,
            0xfc54_639b_cbeb_fdab,
            0x3d51_408a_ed36_4f16,
        ),
        (
            c("nmf", 1, 3, 2),
            6,
            0xb800_5970_9993_019c,
            0x097f_4372_f6ea_f357,
        ),
        (
            c("lda", 2, 3, 4).wide(),
            6,
            0xc025_33f0_30cf_1815,
            0x1d72_c9fe_a5c0_1373,
        ),
    ]);
}
