//! The seeded scenarios that several untimed rows read, each built at most
//! once per process: the seed-42 bundle, the seed-42 ground truth and
//! estimate at each cluster count, and the four seed-11 protocol
//! scenarios. Every run is deterministic in its seed, so a row reads the
//! same numbers from the cache as from a run of its own.

use crate::{pipeline_config, Scale};
use dcn_transport::Protocol;
use mimicnet::datagen::TrainingData;
use mimicnet::metrics::ObservedSamples;
use mimicnet::mimic::TrainedMimic;
use mimicnet::pipeline::{EstimateReport, Pipeline, PipelineConfig};
use mimicnet::PipelineError;
use std::collections::BTreeMap;
use std::rc::Rc;

/// The transports of Figures 14 and 18/19, in the order they print.
const PROTOCOLS: [Protocol; 4] = [
    Protocol::Homa,
    Protocol::Dctcp { k: 20 },
    Protocol::Vegas,
    Protocol::Westwood,
];

/// The seed-42 pipeline, its bundle and the data the bundle was fit on.
pub(crate) struct Base {
    pub pipe: Pipeline,
    pub trained: TrainedMimic,
    pub data: TrainingData,
}

/// A loss-free full-fidelity run of the seed-42 scenario.
pub(crate) struct Truth {
    /// The observable cluster's samples.
    pub samples: ObservedSamples,
    pub events: u64,
    pub fault_drops: u64,
}

/// The seed-42 bundle's loss-free estimate of the seed-42 scenario, and
/// the LSTM work its Mimic fleet did.
pub(crate) struct Estimate {
    pub report: EstimateReport,
    /// Boundary verdicts (`mimic.fleet.packets_seen`).
    pub verdicts: u64,
    /// Feeder interarrival clocks drawn (`mimic.fleet.feeder_packets`).
    pub feeder_draws: u64,
    /// Feeder rows replayed through the LSTM (`mimic.fleet.feeder_steps`).
    pub feeder_steps: u64,
}

/// One protocol's seed-11 scenario at [`Scale::large`], each protocol
/// with a bundle trained on its own small-scale run.
pub(crate) struct ProtocolRun {
    pub protocol: Protocol,
    pub truth: ObservedSamples,
    pub est: ObservedSamples,
}

/// The cache of shared scenarios at one scale.
pub struct Scenarios {
    scale: Scale,
    base: Option<Base>,
    truths: BTreeMap<u32, Rc<Truth>>,
    estimates: BTreeMap<u32, Rc<Estimate>>,
    protocols: Option<Rc<[ProtocolRun]>>,
}

impl Scenarios {
    pub fn new(scale: Scale) -> Scenarios {
        Scenarios {
            scale,
            base: None,
            truths: BTreeMap::new(),
            estimates: BTreeMap::new(),
            protocols: None,
        }
    }

    /// The seed-42 configuration: `pipeline_config(scale, 42)`.
    pub(crate) fn config(&self) -> PipelineConfig {
        pipeline_config(self.scale, 42)
    }

    /// The seed-42 bundle, trained on first use.
    pub(crate) fn base(&mut self) -> Result<&mut Base, PipelineError> {
        let base = match self.base.take() {
            Some(base) => base,
            None => {
                let mut pipe = Pipeline::new(self.config());
                let (trained, data) = pipe.try_train()?;
                Base {
                    pipe,
                    trained,
                    data,
                }
            }
        };
        Ok(self.base.insert(base))
    }

    /// The seed-42 ground truth at `clusters`.
    pub(crate) fn truth(&mut self, clusters: u32) -> Result<Rc<Truth>, PipelineError> {
        if let Some(truth) = self.truths.get(&clusters) {
            return Ok(truth.clone());
        }
        let (samples, m, _) = Pipeline::new(self.config()).try_ground_truth(clusters, None)?;
        let truth = Rc::new(Truth {
            samples,
            events: m.events_processed,
            fault_drops: m.fault_drops,
        });
        self.truths.insert(clusters, truth.clone());
        Ok(truth)
    }

    /// The seed-42 estimate at `clusters`. It runs with the recorder on to
    /// count the fleet's work; recording never changes the numbers.
    pub(crate) fn estimate(&mut self, clusters: u32) -> Result<Rc<Estimate>, PipelineError> {
        if let Some(est) = self.estimates.get(&clusters) {
            return Ok(est.clone());
        }
        let base = self.base()?;
        let mut pipe = Pipeline::new(base.pipe.cfg).with_obs();
        let report = pipe.try_estimate(&base.trained, clusters, None)?;
        let fleet = pipe.obs.take_report().unwrap_or_default();
        let est = Rc::new(Estimate {
            report,
            verdicts: fleet.counter("mimic.fleet.packets_seen"),
            feeder_draws: fleet.counter("mimic.fleet.feeder_packets"),
            feeder_steps: fleet.counter("mimic.fleet.feeder_steps"),
        });
        self.estimates.insert(clusters, est.clone());
        Ok(est)
    }

    /// The seed-11 protocol scenarios, in [`PROTOCOLS`] order. The four
    /// bundles train on one job queue, bit-identically to one at a time.
    pub(crate) fn protocols(&mut self) -> Result<Rc<[ProtocolRun]>, PipelineError> {
        if let Some(runs) = &self.protocols {
            return Ok(runs.clone());
        }
        let large = self.scale.large();
        let cfgs: Vec<PipelineConfig> = PROTOCOLS
            .iter()
            .map(|&protocol| PipelineConfig {
                protocol,
                ..pipeline_config(self.scale, 11)
            })
            .collect();
        let bundles = Pipeline::try_train_bundles(&cfgs, cfgs[0].train.workers)?;
        let runs = cfgs
            .into_iter()
            .zip(bundles)
            .map(|(cfg, trained)| {
                let mut pipe = Pipeline::new(cfg);
                let truth = pipe.try_ground_truth(large, None)?.0;
                let est = pipe.try_estimate(&trained, large, None)?.samples;
                Ok(ProtocolRun {
                    protocol: cfg.protocol,
                    truth,
                    est,
                })
            })
            .collect::<Result<Rc<[ProtocolRun]>, PipelineError>>()?;
        self.protocols = Some(runs.clone());
        Ok(runs)
    }
}
