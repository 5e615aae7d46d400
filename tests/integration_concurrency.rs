//! Concurrency-determinism suite: the pipeline's training job queue is a
//! pure wall-clock optimization — results must be bit-identical to serial
//! training at every thread budget.

use mimicnet::pipeline::{Pipeline, PipelineConfig};

fn quick_cfg(seed: u64) -> PipelineConfig {
    let mut cfg = PipelineConfig::default();
    cfg.base.duration_s = 0.25;
    cfg.base.seed = seed;
    cfg.hidden = 8;
    cfg.train.epochs = 1;
    cfg.train.window = 4;
    cfg
}

// ---------------------------------------------------------------------
// Parallel training: per-direction and per-bundle jobs must be
// bit-identical to serial training at any budget; budget 3 on a bundle
// pair's four jobs leaves the queue uneven.
// ---------------------------------------------------------------------

#[test]
fn direction_fanout_matches_serial_training() {
    let serial =
        Pipeline::new(quick_cfg(91)).try_train().expect("training succeeds").0.to_json();
    for workers in [2usize, 3, 4, 8] {
        let mut cfg = quick_cfg(91);
        cfg.train.workers = workers;
        let parallel = Pipeline::new(cfg).try_train().expect("training succeeds").0.to_json();
        assert_eq!(serial, parallel, "direction fan-out diverged at {workers} workers");
    }
}

#[test]
fn bundle_fanout_matches_serial_training() {
    let cfgs = [quick_cfg(17), quick_cfg(23)];
    let serial: Vec<String> = Pipeline::try_train_bundles(&cfgs, 1)
        .expect("serial bundle training")
        .iter()
        .map(|t| t.to_json())
        .collect();
    for workers in [2usize, 3, 4, 8] {
        let parallel: Vec<String> = Pipeline::try_train_bundles(&cfgs, workers)
            .expect("parallel bundle training")
            .iter()
            .map(|t| t.to_json())
            .collect();
        assert_eq!(serial, parallel, "bundle fan-out diverged at {workers} workers");
    }
}
