//! Packet traces ([`PacketDataset`], one direction's supervised trace, in
//! order) and the layout truncated-BPTT training walks them in
//! ([`Streams`]).

use crate::loss::Target;
use crate::rng::MlRng;

/// A time-ordered supervised packet trace.
#[derive(Clone, Debug, Default)]
pub struct PacketDataset {
    /// Feature vectors, one per packet, in trace order.
    pub features: Vec<Vec<f32>>,
    /// Targets aligned with `features`.
    pub targets: Vec<Target>,
}

impl PacketDataset {
    pub fn len(&self) -> usize {
        self.features.len()
    }

    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    pub fn push(&mut self, features: Vec<f32>, target: Target) {
        debug_assert!(
            self.features.is_empty() || self.features[0].len() == features.len(),
            "inconsistent feature width"
        );
        self.features.push(features);
        self.targets.push(target);
    }

    /// Feature width.
    pub fn width(&self) -> usize {
        self.features.first().map_or(0, |f| f.len())
    }

    /// Split chronologically into train/test at `train_frac`.
    pub fn split(&self, train_frac: f64) -> (PacketDataset, PacketDataset) {
        assert!((0.0..=1.0).contains(&train_frac));
        let cut = (self.len() as f64 * train_frac) as usize;
        (
            PacketDataset {
                features: self.features[..cut].to_vec(),
                targets: self.targets[..cut].to_vec(),
            },
            PacketDataset {
                features: self.features[cut..].to_vec(),
                targets: self.targets[cut..].to_vec(),
            },
        )
    }

    /// Fraction of samples with `dropped == 1` (class-imbalance reporting).
    pub fn drop_rate(&self) -> f64 {
        if self.targets.is_empty() {
            return 0.0;
        }
        self.targets.iter().filter(|t| t.dropped > 0.5).count() as f64 / self.targets.len() as f64
    }
}

/// One epoch's layout of a trace of `len` packets as `streams` streams,
/// one batch row each, stepped side by side in [`Streams::chunks`] chunks
/// of `window` packets (the truncation length; Appendix C's BDP).
///
/// The trace is padded to `streams · steps` positions (fewer than
/// `streams · window` padding positions, which are never supervised) and
/// read as a circle from the phase: stream `r` covers positions
/// `phase + r·steps ..` of it. The phase, the stream length and the
/// padded length are multiples of `window`, so the trace's start — where
/// the wrap-around lands — is always a chunk boundary, and a stream that
/// reaches it starts again from the zero state, as it does at its own
/// start.
#[derive(Clone, Copy, Debug)]
pub struct Streams {
    len: usize,
    streams: usize,
    window: usize,
    steps: usize,
    phase: usize,
}

impl Streams {
    /// The layout of one epoch over `len` packets, its phase drawn from
    /// `rng`. `streams`, `window` ≥ 1.
    pub fn draw(len: usize, streams: usize, window: usize, rng: &mut MlRng) -> Streams {
        assert!(streams >= 1 && window >= 1, "need at least one stream and one step");
        let chunks = len.div_ceil(streams * window).max(1);
        Streams {
            len,
            streams,
            window,
            steps: chunks * window,
            phase: window * rng.below(chunks),
        }
    }

    /// Chunks per epoch: one optimizer step each.
    pub fn chunks(&self) -> usize {
        self.steps / self.window
    }

    /// Position on the padded circle of step `k` of stream `r`.
    fn position(&self, r: usize, k: usize) -> usize {
        (self.phase + r * self.steps + k) % (self.streams * self.steps)
    }

    /// The trace index stream `r` reads at step `k`, or `None` on padding.
    pub fn index(&self, r: usize, k: usize) -> Option<usize> {
        Some(self.position(r, k)).filter(|&p| p < self.len)
    }

    /// Whether stream `r` starts chunk `chunk` from the zero state: at the
    /// stream's start, and where it wraps around to the trace's start.
    pub fn fresh(&self, r: usize, chunk: usize) -> bool {
        chunk == 0 || self.position(r, chunk * self.window) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize) -> PacketDataset {
        let mut d = PacketDataset::default();
        for i in 0..n {
            d.push(
                vec![i as f32, 2.0 * i as f32],
                Target {
                    latency: i as f32,
                    dropped: if i % 10 == 0 { 1.0 } else { 0.0 },
                    ecn: 0.0,
                },
            );
        }
        d
    }

    #[test]
    fn split_is_chronological() {
        let d = toy(100);
        let (train, test) = d.split(0.8);
        assert_eq!(train.len(), 80);
        assert_eq!(test.len(), 20);
        assert_eq!(test.features[0][0], 80.0);
    }

    #[test]
    fn drop_rate_counts_positives() {
        let d = toy(100);
        assert!((d.drop_rate() - 0.1).abs() < 1e-9);
    }

    /// Every (stream, step) of one epoch, chunk by chunk.
    fn walk(s: &Streams, streams: usize, window: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for c in 0..s.chunks() {
            for t in 0..window {
                for r in 0..streams {
                    out.push((r, c * window + t));
                }
            }
        }
        out
    }

    #[test]
    fn batches_cover_all_samples_once() {
        // Every packet is read exactly once per epoch, whatever the phase;
        // padding stays under one row per stream-chunk.
        for (len, streams, window) in [(23usize, 3usize, 2usize), (100, 3, 12), (5, 4, 3), (36, 3, 12)] {
            let mut rng = MlRng::new(2);
            for _ in 0..8 {
                let s = Streams::draw(len, streams, window, &mut rng);
                let mut seen = vec![0usize; len];
                let mut padding = 0;
                for (r, k) in walk(&s, streams, window) {
                    match s.index(r, k) {
                        Some(i) => seen[i] += 1,
                        None => padding += 1,
                    }
                }
                assert!(seen.iter().all(|&n| n == 1), "len {len}: {seen:?}");
                assert!(padding < streams * window, "padding {padding}");
            }
        }
    }

    #[test]
    fn batch_rows_align_with_targets() {
        // Each stream reads consecutive packets between its fresh starts:
        // within a stream, step k + 1 reads the packet after step k unless
        // it is padding or the wrap-around, and the wrap-around is a fresh
        // chunk start.
        let d = toy(50);
        let (streams, window) = (3usize, 4usize);
        let mut rng = MlRng::new(3);
        for _ in 0..8 {
            let s = Streams::draw(d.len(), streams, window, &mut rng);
            for r in 0..streams {
                for k in 1..s.chunks() * window {
                    let (prev, cur) = (s.index(r, k - 1), s.index(r, k));
                    if let (Some(p), Some(c)) = (prev, cur) {
                        if c == 0 {
                            assert!(k % window == 0 && s.fresh(r, k / window));
                        } else {
                            assert_eq!(c, p + 1, "stream {r} step {k}");
                            // Feature 0 is the packet index; latency too.
                            assert_eq!(d.features[c][0], d.targets[c].latency);
                        }
                    }
                    if k % window == 0 && s.fresh(r, k / window) {
                        assert_eq!(cur, Some(0), "a stream restarts only at the trace start");
                    }
                }
            }
        }
    }

    #[test]
    fn shuffle_is_deterministic_per_seed() {
        // The phase (where streams start) is drawn from the seed.
        let starts = |seed| {
            let mut rng = MlRng::new(seed);
            (0..6)
                .map(|_| Streams::draw(1000, 3, 12, &mut rng).index(0, 0))
                .collect::<Vec<_>>()
        };
        assert_eq!(starts(7), starts(7));
        assert_ne!(starts(7), starts(8));
    }
}
