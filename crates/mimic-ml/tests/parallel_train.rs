//! Worker-count invariance of training.
//!
//! The sharded BPTT path fixes both the shard layout (a constant shard
//! height) and the gradient reduction order (shard 0, 1, 2, … regardless
//! of which worker produced which shard), so the trained parameters must
//! be byte-identical for every worker count. On a multi-core machine this
//! exercises real scoped threads; on a single core the effective thread
//! count is clamped, which by the same invariant must change nothing.

use mimic_ml::dataset::PacketDataset;
use mimic_ml::loss::Target;
use mimic_ml::model::SeqModel;
use mimic_ml::rng::MlRng;
use mimic_ml::train::{train, TrainConfig};

/// Synthetic learnable workload: bursty latency plus random drops.
fn synthetic(n: usize, seed: u64) -> PacketDataset {
    let mut rng = MlRng::new(seed);
    let mut d = PacketDataset::default();
    let mut burst = 0usize;
    for _ in 0..n {
        if rng.next_f64() < 0.1 {
            burst = 4;
        }
        let hot = burst > 0;
        burst = burst.saturating_sub(1);
        let f1 = rng.next_f64() as f32;
        d.push(
            vec![if hot { 1.0 } else { 0.0 }, f1],
            Target {
                latency: if hot { 0.8 } else { 0.2 },
                dropped: if f1 > 0.9 { 1.0 } else { 0.0 },
                ecn: 0.0,
            },
        );
    }
    d
}

fn train_with_workers(data: &PacketDataset, workers: usize) -> String {
    let cfg = TrainConfig {
        epochs: 3,
        window: 4,
        workers,
        ..TrainConfig::default()
    };
    let mut model = SeqModel::new(2, 8, 1234);
    train(&mut model, data, &cfg, &mut dcn_obs::Obs::off(), "train", None)
        .expect("valid training setup");
    model.to_json()
}

#[test]
fn worker_count_does_not_change_parameters() {
    let data = synthetic(400, 21);
    let sequential = train_with_workers(&data, 1);
    for workers in [2, 4, 8] {
        let parallel = train_with_workers(&data, workers);
        assert_eq!(
            sequential, parallel,
            "{workers}-worker training diverged from sequential"
        );
    }
}
