//! Wide-area network model: latency matrix, bandwidth, jitter and loss.
//!
//! The paper's protocol behaviour is driven entirely by *which replica
//! answers when*: the 3rd- versus 4th-closest data center decides classic
//! versus fast quorum latency. A symmetric RTT matrix between data centers,
//! halved into one-way delays and multiplied by lognormal jitter,
//! reproduces exactly that structure ("delays ... differ between pairs of
//! locations, and also over time", §1).
//!
//! On top of propagation delay, every link has a **bandwidth**: a message
//! of `b` bytes occupies the link for `b / bandwidth` (its transmission
//! delay), and the world serializes concurrent transmissions FIFO per
//! directed data-center pair — so a recovery burst congests the link it
//! rides instead of teleporting, which is the cost model the simulator
//! previously ignored (all messages were free to be arbitrarily large).

use mdcc_common::{DcId, SimDuration};
use rand::Rng;

/// Default inter-data-center link bandwidth: 10 Gbit/s in bytes/second
/// (a dedicated wide-area backbone; tighten with
/// [`NetworkModel::with_inter_dc_bandwidth`] to study congestion).
pub const DEFAULT_INTER_DC_BANDWIDTH: f64 = 1_250_000_000.0;

/// Default intra-data-center fabric bandwidth: 100 Gbit/s in
/// bytes/second.
pub const DEFAULT_INTRA_DC_BANDWIDTH: f64 = 12_500_000_000.0;

/// One edge of the latency matrix, in round-trip milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// First endpoint.
    pub a: DcId,
    /// Second endpoint.
    pub b: DcId,
    /// Round-trip time in milliseconds.
    pub rtt_ms: f64,
    /// Link bandwidth in bytes/second; `None` uses the model default.
    pub bandwidth_bps: Option<f64>,
}

impl LinkSpec {
    /// Convenience constructor (default bandwidth).
    pub fn new(a: u8, b: u8, rtt_ms: f64) -> Self {
        Self {
            a: DcId(a),
            b: DcId(b),
            rtt_ms,
            bandwidth_bps: None,
        }
    }

    /// Sets this link's bandwidth in bytes/second.
    pub fn with_bandwidth(mut self, bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0);
        self.bandwidth_bps = Some(bytes_per_sec);
        self
    }
}

/// Samples message delays between data centers.
#[derive(Debug, Clone)]
pub struct NetworkModel {
    /// Symmetric RTT matrix in ms; diagonal holds the intra-DC RTT.
    rtt_ms: Vec<Vec<f64>>,
    /// Symmetric bandwidth matrix in bytes/second; diagonal holds the
    /// intra-DC fabric bandwidth.
    bandwidth_bps: Vec<Vec<f64>>,
    /// Lognormal sigma applied multiplicatively to each one-way delay.
    jitter_sigma: f64,
    /// Probability a message is silently lost.
    drop_prob: f64,
}

impl NetworkModel {
    /// Builds a model for `dcs` data centers from pairwise links.
    ///
    /// Links are symmetric; unspecified pairs default to the largest
    /// specified RTT (conservative). `intra_rtt_ms` fills the diagonal.
    pub fn from_links(dcs: usize, links: &[LinkSpec], intra_rtt_ms: f64) -> Self {
        let max_rtt = links.iter().map(|l| l.rtt_ms).fold(1.0, f64::max);
        let mut rtt = vec![vec![max_rtt; dcs]; dcs];
        let mut bw = vec![vec![DEFAULT_INTER_DC_BANDWIDTH; dcs]; dcs];
        for i in 0..dcs {
            rtt[i][i] = intra_rtt_ms;
            bw[i][i] = DEFAULT_INTRA_DC_BANDWIDTH;
        }
        for l in links {
            let (a, b) = (l.a.0 as usize, l.b.0 as usize);
            assert!(a < dcs && b < dcs, "link endpoint outside topology");
            rtt[a][b] = l.rtt_ms;
            rtt[b][a] = l.rtt_ms;
            if let Some(bps) = l.bandwidth_bps {
                bw[a][b] = bps;
                bw[b][a] = bps;
            }
        }
        Self {
            rtt_ms: rtt,
            bandwidth_bps: bw,
            jitter_sigma: 0.08,
            drop_prob: 0.0,
        }
    }

    /// A uniform model: every inter-DC pair has the same RTT. Useful in
    /// tests that do not care about geography.
    pub fn uniform(dcs: usize, inter_rtt_ms: f64, intra_rtt_ms: f64) -> Self {
        Self::from_links(dcs, &[], intra_rtt_ms).with_default_rtt(inter_rtt_ms)
    }

    fn with_default_rtt(mut self, rtt: f64) -> Self {
        let n = self.rtt_ms.len();
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    self.rtt_ms[i][j] = rtt;
                }
            }
        }
        self
    }

    /// Sets the lognormal jitter sigma (0 disables jitter).
    pub fn with_jitter(mut self, sigma: f64) -> Self {
        assert!(sigma >= 0.0);
        self.jitter_sigma = sigma;
        self
    }

    /// Sets the message loss probability.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        self.drop_prob = p;
        self
    }

    /// Sets every inter-DC link's bandwidth (bytes/second); the intra-DC
    /// diagonal is left alone.
    pub fn with_inter_dc_bandwidth(mut self, bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0);
        let n = self.bandwidth_bps.len();
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    self.bandwidth_bps[i][j] = bytes_per_sec;
                }
            }
        }
        self
    }

    /// Sets one link's bandwidth (bytes/second), symmetrically.
    pub fn with_link_bandwidth(mut self, a: DcId, b: DcId, bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0);
        self.bandwidth_bps[a.0 as usize][b.0 as usize] = bytes_per_sec;
        self.bandwidth_bps[b.0 as usize][a.0 as usize] = bytes_per_sec;
        self
    }

    /// The configured bandwidth between two data centers, bytes/second.
    pub fn bandwidth_bps(&self, a: DcId, b: DcId) -> f64 {
        self.bandwidth_bps[a.0 as usize][b.0 as usize]
    }

    /// How long `bytes` occupy the `from → to` link: the transmission
    /// delay `bytes / bandwidth`, rounded to the clock's microsecond
    /// granularity. The world serializes transmissions FIFO per link, so
    /// this is also each message's contribution to queueing behind it.
    pub fn transmission_delay(&self, from: DcId, to: DcId, bytes: usize) -> SimDuration {
        let bps = self.bandwidth_bps(from, to);
        SimDuration::from_micros(((bytes as f64 / bps) * 1_000_000.0).round() as u64)
    }

    /// Number of data centers the model covers.
    pub fn dc_count(&self) -> usize {
        self.rtt_ms.len()
    }

    /// The configured (jitter-free) RTT between two data centers, ms.
    pub fn base_rtt_ms(&self, a: DcId, b: DcId) -> f64 {
        self.rtt_ms[a.0 as usize][b.0 as usize]
    }

    /// Samples the one-way delay for a message from `from` to `to`, or
    /// `None` if the message is lost.
    pub fn sample_delay<R: Rng>(&self, from: DcId, to: DcId, rng: &mut R) -> Option<SimDuration> {
        if self.drop_prob > 0.0 && rng.gen::<f64>() < self.drop_prob {
            return None;
        }
        let half_rtt = self.base_rtt_ms(from, to) / 2.0;
        let jitter = if self.jitter_sigma == 0.0 {
            1.0
        } else {
            lognormal_multiplier(rng, self.jitter_sigma)
        };
        Some(SimDuration::from_millis_f64((half_rtt * jitter).max(0.01)))
    }
}

/// Samples `exp(sigma * z)` with `z` standard normal (Box–Muller),
/// truncated to ±3σ so pathological tails cannot dominate an experiment.
fn lognormal_multiplier<R: Rng>(rng: &mut R, sigma: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (sigma * z.clamp(-3.0, 3.0)).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_model_has_requested_rtts() {
        let net = NetworkModel::uniform(3, 100.0, 1.0);
        assert_eq!(net.base_rtt_ms(DcId(0), DcId(1)), 100.0);
        assert_eq!(net.base_rtt_ms(DcId(2), DcId(2)), 1.0);
        assert_eq!(net.dc_count(), 3);
    }

    #[test]
    fn links_are_symmetric_and_default_to_max() {
        let net = NetworkModel::from_links(
            3,
            &[LinkSpec::new(0, 1, 80.0), LinkSpec::new(0, 2, 200.0)],
            1.0,
        );
        assert_eq!(net.base_rtt_ms(DcId(1), DcId(0)), 80.0);
        assert_eq!(net.base_rtt_ms(DcId(0), DcId(2)), 200.0);
        // The 1-2 pair was unspecified: defaults to the max (200).
        assert_eq!(net.base_rtt_ms(DcId(1), DcId(2)), 200.0);
    }

    #[test]
    fn delay_is_about_half_rtt() {
        let net = NetworkModel::uniform(2, 100.0, 1.0).with_jitter(0.0);
        let mut rng = SmallRng::seed_from_u64(7);
        let d = net.sample_delay(DcId(0), DcId(1), &mut rng).unwrap();
        assert_eq!(d.as_millis(), 50);
    }

    #[test]
    fn jitter_spreads_but_stays_reasonable() {
        let net = NetworkModel::uniform(2, 100.0, 1.0).with_jitter(0.1);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut min = f64::MAX;
        let mut max: f64 = 0.0;
        let mut sum = 0.0;
        const TRIALS: usize = 2_000;
        for _ in 0..TRIALS {
            let d = net
                .sample_delay(DcId(0), DcId(1), &mut rng)
                .unwrap()
                .as_millis_f64();
            min = min.min(d);
            max = max.max(d);
            sum += d;
        }
        let mean = sum / TRIALS as f64;
        assert!(min < 50.0 && max > 50.0, "jitter must straddle the base");
        assert!(
            (mean - 50.0).abs() < 2.5,
            "mean should stay near 50, got {mean}"
        );
        assert!(max < 50.0 * 1.4, "truncated tail, got {max}");
    }

    #[test]
    fn transmission_delay_is_proportional_to_bytes() {
        let net = NetworkModel::uniform(2, 100.0, 1.0)
            .with_inter_dc_bandwidth(1_000_000.0) // 1 MB/s
            .with_link_bandwidth(DcId(0), DcId(1), 2_000_000.0);
        // 2 MB/s on the 0↔1 link: 1 MB takes 500 ms.
        let d = net.transmission_delay(DcId(0), DcId(1), 1_000_000);
        assert_eq!(d.as_millis(), 500);
        // Proportionality: half the bytes, half the delay.
        let half = net.transmission_delay(DcId(1), DcId(0), 500_000);
        assert_eq!(half.as_millis(), 250);
        // Tiny messages at default intra-DC bandwidth are effectively free.
        let tiny = net.transmission_delay(DcId(0), DcId(0), 100);
        assert_eq!(tiny.as_micros(), 0);
    }

    #[test]
    fn link_spec_bandwidth_overrides_default() {
        let net = NetworkModel::from_links(
            2,
            &[LinkSpec::new(0, 1, 80.0).with_bandwidth(10_000.0)],
            1.0,
        );
        assert_eq!(net.bandwidth_bps(DcId(0), DcId(1)), 10_000.0);
        assert_eq!(net.bandwidth_bps(DcId(1), DcId(0)), 10_000.0);
        assert_eq!(
            net.bandwidth_bps(DcId(0), DcId(0)),
            DEFAULT_INTRA_DC_BANDWIDTH
        );
    }

    #[test]
    fn drops_follow_probability() {
        let net = NetworkModel::uniform(2, 100.0, 1.0).with_drop_prob(0.5);
        let mut rng = SmallRng::seed_from_u64(42);
        let lost = (0..10_000)
            .filter(|_| net.sample_delay(DcId(0), DcId(1), &mut rng).is_none())
            .count();
        assert!((4_000..6_000).contains(&lost), "got {lost} losses");
    }

    #[test]
    fn zero_drop_never_loses() {
        let net = NetworkModel::uniform(2, 100.0, 1.0);
        let mut rng = SmallRng::seed_from_u64(1);
        assert!((0..1_000).all(|_| net.sample_delay(DcId(0), DcId(1), &mut rng).is_some()));
    }
}
