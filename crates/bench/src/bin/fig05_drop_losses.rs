//! Figure 5: drop prediction under BCE vs. weighted BCE.
//!
//! Paper: "Ground truth and LSTM-predicted drops for a one-second test set
//! using different loss functions. … Ground truth has 0.3% drop rate and
//! BCE loss has 0.01%. WBCE results in more realistic drop rates depending
//! on the weight (w=0.6: 0.14%; w=0.9: 0.49%)." Plain BCE learns "never
//! drop" because of class imbalance; the positive-class weight restores
//! realistic rates (and overshoots when set too high).

use dcn_sim::rng::SplitMix64;
use mimic_ml::loss::{sigmoid, ClsLoss};
use mimic_ml::model::OUT_DROP;
use mimic_ml::train::TrainConfig;
use mimicnet_bench::{header, pipeline_config, Scale};
use mimicnet::datagen::{generate, DataGenConfig};
use mimicnet::internal_model::InternalModel;

fn main() {
    let scale = Scale::from_env();
    header(
        "Figure 5",
        "predicted drop rates under BCE vs WBCE(0.6) vs WBCE(0.9)",
    );

    // One shared trace with meaningful (but rare) drops: raise the load
    // and shrink buffers a little.
    let mut dg = DataGenConfig {
        sim: pipeline_config(scale, 77).base,
        ..DataGenConfig::default()
    };
    // Stress the cluster enough that the trace carries real (but rare)
    // drops, like the paper's 0.3%-drop-rate example trace.
    dg.sim.traffic.load = 1.1;
    dg.sim.queue.capacity_bytes = 15_000;
    dg.sim.traffic.inter_cluster_fraction = 0.7;
    dg.sim.duration_s = scale.duration_s() * 6.0;
    let td = generate(&dg);
    let (train_set, test_set) = td.egress.split(0.7);
    let truth_rate = test_set.drop_rate();
    println!("trace: {} egress packets, ground-truth drop rate {:.3}%", td.egress.len(), truth_rate * 100.0);
    println!("{:>12} | {:>17} | {:>14}", "loss", "pred drop rate", "rate ratio");

    for (name, loss) in [
        ("BCE", ClsLoss::Bce),
        ("WBCE w=0.6", ClsLoss::Wbce { w: 0.6 }),
        ("WBCE w=0.9", ClsLoss::Wbce { w: 0.9 }),
    ] {
        let mut tc = TrainConfig {
            epochs: scale.epochs() + 1,
            window: 8,
            seed: 3,
            ..TrainConfig::default()
        };
        tc.loss.drop = loss;
        // Isolate the drop task so the comparison is clean.
        tc.loss.w_drop = 1.0;
        tc.loss.w_latency = 0.25;
        tc.loss.w_ecn = 0.0;
        let (model, _) = InternalModel::train_stacked(&train_set, td.egress_disc, 16, 1, &tc)
            .expect("training data");
        // Generatively sample drops over the held-out set (the paper's
        // realized drop-rate comparison).
        let mut state = model.init_state();
        let mut rng = SplitMix64::new(9);
        let mut drops = 0usize;
        for f in &test_set.features {
            let out = model.model.step(f, &mut state);
            if rng.bernoulli(sigmoid(out[OUT_DROP]) as f64) {
                drops += 1;
            }
        }
        let rate = drops as f64 / test_set.len() as f64;
        println!(
            "{name:>12} | {:>16.3}% | {:>13.2}x",
            rate * 100.0,
            rate / truth_rate.max(1e-9)
        );
    }
    println!(
        "\npaper shape: BCE massively under-predicts the drop rate; WBCE 0.6\n\
         lands near truth; WBCE 0.9 overshoots."
    );
}
