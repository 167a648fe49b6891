//! Co-located PS training: two real ML jobs multiplexed on one
//! in-process cluster.
//!
//! A CPU-heavy multinomial logistic regression and a
//! communication-light Lasso regression train *simultaneously* through
//! the same per-node executors, with Harmony's subtask discipline (one
//! COMP at a time, two COMM slots). Their losses both converge, and the
//! executor statistics prove no CPU subtasks ever overlapped.
//!
//! ```sh
//! cargo run --example co_located_training
//! ```

use harmony::ml::{synth, Lasso, Mlr, PsAlgorithm};
use harmony::ps::{JobBuilder, PsCluster, PsConfig};

fn main() {
    let nodes = 3;
    let cluster = PsCluster::new(PsConfig {
        nodes,
        network_bytes_per_sec: None,
        ..PsConfig::default()
    });

    // Job A: 6-class MLR over 300 sparse examples.
    let mlr_data = synth::classification(300, 48, 6, 0.25, 7);
    let mlr = JobBuilder::new("mlr")
        .workers(
            synth::partition(&mlr_data, nodes)
                .into_iter()
                .map(|part| Box::new(Mlr::new(part, 48, 6, 0.5)) as Box<dyn PsAlgorithm>),
        )
        .max_iterations(60)
        .check_every(10)
        .loss_threshold(0.05)
        .build();

    // Job B: Lasso over a sparse linear ground truth.
    let reg_data = synth::regression(300, 48, 0.3, 8);
    let lasso = JobBuilder::new("lasso")
        .workers(
            synth::partition(&reg_data, nodes)
                .into_iter()
                .map(|part| Box::new(Lasso::new(part, 48, 0.05, 0.01)) as Box<dyn PsAlgorithm>),
        )
        .max_iterations(60)
        .check_every(10)
        .build();

    println!("training MLR and Lasso co-located on {nodes} nodes...\n");
    let reports = cluster.run_jobs(vec![mlr, lasso]);

    for r in &reports {
        println!("{}:", r.name);
        for (iter, loss) in &r.loss_history {
            println!("  iter {iter:>3}: loss {loss:.5}");
        }
        println!(
            "  -> {} iterations, converged: {}, profiled Tcpu {:.3} ms / Tnet {:.3} ms\n",
            r.iterations,
            r.converged,
            r.mean_tcpu * 1000.0,
            r.mean_tnet * 1000.0
        );
    }

    // No network is simulated here, so PULL and PUSH have no wire time
    // and complete on the master: the COMM executors run APPLY folds only.
    for (node, (cpu, comm)) in cluster.executor_stats().iter().enumerate() {
        println!(
            "node {node}: {} CPU subtasks (peak concurrency {}), {} COMM subtasks (peak {})",
            cpu.completed, cpu.peak_concurrency, comm.completed, comm.peak_concurrency
        );
    }
}
