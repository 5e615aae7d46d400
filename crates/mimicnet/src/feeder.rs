//! Feeder models: generative stand-ins for inter-Mimic traffic (paper §6).
//!
//! Internal models are trained on *all* external traffic of the modeled
//! cluster, but in a composition the Mimic-Mimic share of that traffic no
//! longer exists as packets. Feeders re-create its *effect*: from the
//! small-scale trace MimicNet derives "characteristic packet interarrival
//! distributions for all external flows, separated by their direction",
//! observing (as the paper and the self-similarity literature do) that
//! "simple log-normal or Pareto distributions produced reasonable
//! approximations". At composition time the feeder draws synthetic packets
//! from the fitted distribution — scaled by how much of the cluster's
//! demand is now invisible — passes their feature vectors through the
//! internal models to update the LSTM hidden state, "and immediately
//! discard[s] any output".

use crate::features::PacketView;
use dcn_sim::packet::{Ecn, PacketKind};
use dcn_sim::rng::SplitMix64;
use dcn_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Fitted interarrival + size model for one direction. The default is the
/// fit of an empty trace: no traffic, so its feeder never fires.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DirFit {
    /// Log-normal parameters of interarrival times (seconds).
    pub mu: f64,
    pub sigma: f64,
    /// Observed boundary packet rate in the training trace, packets/s.
    pub rate_pps: f64,
    /// Wire-size quantiles (32 evenly spaced) for size sampling.
    pub size_quantiles: Vec<f64>,
}

impl DirFit {
    /// Fit from interarrival samples (seconds) and wire sizes (bytes).
    ///
    /// Log-normal fit by matching moments of `ln(dt)`; zero interarrivals
    /// (simultaneous boundary events) are clamped to 1 ns.
    pub fn fit(interarrivals: &[f64], sizes: &[f64]) -> DirFit {
        assert!(!interarrivals.is_empty(), "no interarrival samples");
        assert!(!sizes.is_empty(), "no size samples");
        let logs: Vec<f64> = interarrivals.iter().map(|&x| x.max(1e-9).ln()).collect();
        let mu = logs.iter().sum::<f64>() / logs.len() as f64;
        let var = logs.iter().map(|l| (l - mu) * (l - mu)).sum::<f64>() / logs.len() as f64;
        let sigma = var.sqrt().clamp(1e-6, 4.0);
        let total_t: f64 = interarrivals.iter().sum();
        let rate_pps = if total_t > 0.0 {
            interarrivals.len() as f64 / total_t
        } else {
            1.0
        };
        let mut sorted = sizes.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let size_quantiles = (0..32)
            .map(|i| sorted[(i * (sorted.len() - 1)) / 31])
            .collect();
        DirFit {
            mu,
            sigma,
            rate_pps,
            size_quantiles,
        }
    }

    /// Mean of the fitted log-normal, seconds.
    pub fn mean_interarrival(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

/// Both directions' fits.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FeederFit {
    pub ingress: DirFit,
    pub egress: DirFit,
}

/// The fraction of a Mimic's external traffic that is invisible (and thus
/// feeder-supplied) in an `n`-cluster composition.
///
/// In the 2-cluster training run *all* inter-cluster traffic touches the
/// (future) observable cluster. At `n` clusters, destinations are uniform
/// over `n−1` remote clusters, so only `1/(n−1)` of the demand still
/// exists as real packets; the feeder supplies the other `(n−2)/(n−1)`.
pub fn invisible_fraction(n_clusters: u32) -> f64 {
    assert!(n_clusters >= 2);
    (n_clusters as f64 - 2.0) / (n_clusters as f64 - 1.0)
}

/// A running feeder for one direction of one Mimic.
#[derive(Clone, Debug)]
pub struct Feeder {
    fit: DirFit,
    /// Multiplier applied to sampled interarrivals so the synthetic rate
    /// equals `rate_pps × invisible_fraction`.
    dt_scale: f64,
    /// Next injection time; `None` when the feeder is disabled (n = 2).
    next: Option<SimTime>,
    rng: SplitMix64,
    /// Local topology dimensions for sampling endpoints.
    racks: u32,
    hosts_per_rack: u32,
    aggs: u32,
    cores: u32,
}

impl Feeder {
    /// Build for an `n_clusters` composition.
    pub fn new(
        fit: DirFit,
        n_clusters: u32,
        racks: u32,
        hosts_per_rack: u32,
        aggs: u32,
        cores: u32,
        seed: u64,
    ) -> Feeder {
        let frac = invisible_fraction(n_clusters);
        let mut rng = SplitMix64::derive(seed, 0xFEED);
        let (next, dt_scale) = if frac > 0.0 && fit.rate_pps > 0.0 {
            let target_mean = 1.0 / (fit.rate_pps * frac);
            let dt_scale = target_mean / fit.mean_interarrival();
            let first = fit_sample(&fit, dt_scale, &mut rng);
            (Some(SimTime::ZERO + SimDuration::from_secs_f64(first)), dt_scale)
        } else {
            (None, 1.0)
        };
        Feeder {
            fit,
            dt_scale,
            next,
            rng,
            racks,
            hosts_per_rack,
            aggs,
            cores,
        }
    }

    /// When this feeder next wants to inject.
    pub fn next_time(&self) -> Option<SimTime> {
        self.next
    }

    /// If due at `now`, synthesize one packet view (stamped with its own
    /// due time, so interarrival features stay exact even when wakeups are
    /// batched) and schedule the next injection. Returns `None` when not
    /// due. Exactly [`Feeder::tick`] then `Feeder::view`.
    pub fn fire(&mut self, now: SimTime) -> Option<PacketView> {
        let (due, position) = self.tick(now)?;
        Some(self.view(due, position))
    }

    /// The clock half of [`Feeder::fire`]: if due at `now`, draw the next
    /// interarrival gap, skip the packet's five view draws and return
    /// `(due, position)`, the packet's due time and the stream position
    /// its view is drawn from. Returns `None` when not due.
    pub fn tick(&mut self, now: SimTime) -> Option<(SimTime, u64)> {
        let due = self.next?;
        if due > now {
            return None;
        }
        let dt = fit_sample(&self.fit, self.dt_scale, &mut self.rng);
        self.next = Some(due + SimDuration::from_secs_f64(dt.max(1e-9)));
        let position = self.rng.state();
        self.rng.skip(VIEW_DRAWS);
        Some((due, position))
    }

    /// The view of the packet [`Feeder::tick`] returned `(due, position)`
    /// for: its size and endpoints, drawn from the stream at `position`.
    pub(crate) fn view(&self, due: SimTime, position: u64) -> PacketView {
        let mut rng = SplitMix64::new(position);
        let size = self.fit.size_quantiles[rng.next_below(32) as usize];
        PacketView {
            time: due,
            wire_bytes: size.max(40.0) as u32,
            rack: rng.next_below(self.racks as u64) as u32,
            server: rng.next_below(self.hosts_per_rack as u64) as u32,
            agg: rng.next_below(self.aggs as u64) as u32,
            core: rng.next_below(self.cores as u64) as u32,
            kind: PacketKind::Data,
            ecn: Ecn::Ect,
            prio: 0,
        }
    }
}

/// Random draws in one packet's view (size, rack, server, agg, core).
const VIEW_DRAWS: u64 = 5;

fn fit_sample(fit: &DirFit, dt_scale: f64, rng: &mut SplitMix64) -> f64 {
    rng.log_normal(fit.mu, fit.sigma) * dt_scale
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_fit() -> DirFit {
        // Interarrivals around 1 ms; sizes mixed.
        let inter: Vec<f64> = (0..1000).map(|i| 0.001 * (1.0 + 0.2 * ((i % 7) as f64 - 3.0) / 3.0)).collect();
        let sizes: Vec<f64> = (0..1000).map(|i| if i % 3 == 0 { 40.0 } else { 1500.0 }).collect();
        DirFit::fit(&inter, &sizes)
    }

    #[test]
    fn fit_recovers_rate() {
        let f = toy_fit();
        assert!((f.rate_pps - 1000.0).abs() / 1000.0 < 0.05, "rate {}", f.rate_pps);
        assert!((f.mean_interarrival() - 0.001).abs() < 2e-4);
    }

    #[test]
    fn lognormal_fit_on_lognormal_data() {
        let mut rng = SplitMix64::new(3);
        let data: Vec<f64> = (0..20_000).map(|_| rng.log_normal(-7.0, 0.5)).collect();
        let f = DirFit::fit(&data, &[1500.0]);
        assert!((f.mu + 7.0).abs() < 0.02, "mu {}", f.mu);
        assert!((f.sigma - 0.5).abs() < 0.02, "sigma {}", f.sigma);
    }

    #[test]
    fn invisible_fraction_matches_paper_analysis() {
        assert_eq!(invisible_fraction(2), 0.0);
        assert_eq!(invisible_fraction(3), 0.5);
        assert!((invisible_fraction(128) - 126.0 / 127.0).abs() < 1e-12);
    }

    #[test]
    fn feeder_disabled_at_two_clusters() {
        let f = Feeder::new(toy_fit(), 2, 2, 2, 2, 2, 1);
        assert!(f.next_time().is_none());
    }

    #[test]
    fn feeder_rate_scales_with_cluster_count() {
        // Count injections over simulated 10 s for n = 3 (half rate) vs
        // n = 128 (nearly full rate).
        let count = |n: u32| {
            let mut f = Feeder::new(toy_fit(), n, 2, 2, 2, 2, 5);
            let end = SimTime::from_secs_f64(10.0);
            let mut k = 0u64;
            while let Some(t) = f.next_time() {
                if t > end {
                    break;
                }
                assert!(f.fire(t).is_some());
                k += 1;
            }
            k as f64 / 10.0
        };
        let r3 = count(3);
        let r128 = count(128);
        assert!((r3 - 500.0).abs() / 500.0 < 0.15, "n=3 rate {r3}");
        assert!(
            (r128 - 1000.0 * 126.0 / 127.0).abs() / 1000.0 < 0.15,
            "n=128 rate {r128}"
        );
        assert!(r128 > r3 * 1.5);
    }

    #[test]
    fn feeder_views_are_in_local_ranges() {
        let mut f = Feeder::new(toy_fit(), 4, 2, 3, 2, 4, 9);
        for _ in 0..200 {
            let now = f.next_time().unwrap();
            let v = f.fire(now).unwrap();
            assert!(v.rack < 2);
            assert!(v.server < 3);
            assert!(v.agg < 2);
            assert!(v.core < 4);
            assert!(v.wire_bytes >= 40);
        }
    }

    #[test]
    fn tick_then_view_equals_fire() {
        let (mut fired, mut ticked) = (
            Feeder::new(toy_fit(), 8, 3, 4, 2, 5, 11),
            Feeder::new(toy_fit(), 8, 3, 4, 2, 5, 11),
        );
        for _ in 0..500 {
            let now = fired.next_time().expect("active feeder");
            let want = fired.fire(now).expect("due");
            let (due, position) = ticked.tick(now).expect("due");
            assert_eq!(format!("{:?}", ticked.view(due, position)), format!("{want:?}"));
            assert_eq!(format!("{ticked:?}"), format!("{fired:?}"));
        }
    }

    #[test]
    fn fire_before_due_returns_none() {
        let mut f = Feeder::new(toy_fit(), 4, 2, 2, 2, 2, 9);
        let due = f.next_time().unwrap();
        assert!(f.fire(SimTime::ZERO).is_none() || due == SimTime::ZERO);
    }
}
