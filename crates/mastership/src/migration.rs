//! Access-driven migration for one shard: the holder counts the origin
//! data center of every mastered request it serves and, once a remote
//! data center dominates past a hysteresis threshold for several
//! consecutive evaluations, says "hand the lease to data center *d*".
//! Pure: inputs are origins, whether the node is serving, and the clock.

use mdcc_common::{DcId, SimDuration, SimTime};

/// Access-driven migration fires when a remote data center's
/// mastered-request count reaches this percentage of the holder's local
/// count (200 = twice the local traffic).
pub const MIGRATE_THRESHOLD_PCT: u64 = 200;

/// A remote data center must additionally sustain at least this many
/// mastered requests *per second* over the observation window.
/// Rate-normalized, so it means the same thing at `--scale=quick`,
/// `paper` and `10x` (a per-tick count would not: client pools and tick
/// cadence change with scale).
pub const MIGRATE_MIN_RATE: u64 = 20;

/// Observation window for the migration rate. The holder only evaluates
/// the hysteresis once a window's worth of traffic has accumulated; the
/// window then decays exponentially (counts halve, the window start
/// moves halfway forward).
pub const MIGRATE_WINDOW: SimDuration = SimDuration::from_millis(400);

/// The same remote data center must stay dominant for this many
/// consecutive evaluations before the lease is handed off (hysteresis).
pub const MIGRATE_ROUNDS: u32 = 2;

/// The holder's view of where one shard's mastered traffic comes from.
#[derive(Debug, Clone)]
pub(crate) struct Migration {
    my_dc: usize,
    /// Mastered requests served in the current window, by origin data
    /// center.
    origin_counts: Vec<u64>,
    /// Start of the current rate-measurement window.
    window_start: SimTime,
    dominant_streak: u32,
    last_dominant: Option<usize>,
}

impl Migration {
    pub(crate) fn new(my_dc: DcId, dcs: usize) -> Self {
        Self {
            my_dc: my_dc.0 as usize,
            origin_counts: vec![0; dcs],
            window_start: SimTime::ZERO,
            dominant_streak: 0,
            last_dominant: None,
        }
    }

    /// One mastered request from `origin` was served under the lease.
    pub(crate) fn note(&mut self, origin: DcId) {
        if let Some(slot) = self.origin_counts.get_mut(origin.0 as usize) {
            *slot += 1;
        }
    }

    /// Forgets everything: a fresh window starts at `now`.
    fn reset(&mut self, now: SimTime) {
        self.dominant_streak = 0;
        self.last_dominant = None;
        self.window_start = now;
        self.origin_counts.fill(0);
    }

    /// The hysteresis, evaluated at a heartbeat tick: the data center to
    /// hand the lease to, if a remote one sustained at least
    /// [`MIGRATE_MIN_RATE`] req/s *and* dominated the holder's local
    /// traffic for [`MIGRATE_ROUNDS`] consecutive window evaluations.
    ///
    /// Dominance is judged on request *rate over a window*
    /// ([`MIGRATE_WINDOW`]), not raw per-tick counts, so the rule is
    /// scale-free: quick/paper/10x scales shift absolute traffic by an
    /// order of magnitude but leave req/s-per-client untouched.
    pub(crate) fn evaluate(&mut self, serving: bool, now: SimTime) -> Option<usize> {
        if !serving {
            self.reset(now);
            return None;
        }
        // Evaluate only once a full window of traffic has accumulated.
        let elapsed = now.since(self.window_start);
        if elapsed < MIGRATE_WINDOW {
            return None;
        }
        let my_dc = self.my_dc;
        let local = self.origin_counts.get(my_dc).copied().unwrap_or(0);
        let (dom_dc, dom_count) = self
            .origin_counts
            .iter()
            .copied()
            .enumerate()
            .filter(|(dc, _)| *dc != my_dc)
            .max_by_key(|(dc, c)| (*c, std::cmp::Reverse(*dc)))
            .unwrap_or((my_dc, 0));
        let dom_rate = dom_count * 1_000 / elapsed.as_millis().max(1);
        let dominant =
            dom_rate >= MIGRATE_MIN_RATE && dom_count * 100 >= MIGRATE_THRESHOLD_PCT * local.max(1);
        if dominant && self.last_dominant == Some(dom_dc) {
            self.dominant_streak += 1;
        } else if dominant {
            self.last_dominant = Some(dom_dc);
            self.dominant_streak = 1;
        } else {
            self.last_dominant = None;
            self.dominant_streak = 0;
        }
        // Exponential decay: halve both the counts and the elapsed
        // window so the rate estimate tracks recent traffic.
        for c in &mut self.origin_counts {
            *c /= 2;
        }
        self.window_start += elapsed / 2;
        if self.dominant_streak < MIGRATE_ROUNDS {
            return None;
        }
        self.reset(now);
        Some(dom_dc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(millis: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(millis)
    }

    /// One window of `remote` requests from data center 1 and `local`
    /// from the holder's own, evaluated at `at` ms.
    fn window(m: &mut Migration, remote: u32, local: u32, at: u64) -> Option<usize> {
        for _ in 0..remote {
            m.note(DcId(1));
        }
        for _ in 0..local {
            m.note(DcId(4));
        }
        m.evaluate(true, ms(at))
    }

    /// The hysteresis: `MIGRATE_ROUNDS` consecutive dominant windows
    /// hand the lease off; one calm window in between forgets the streak.
    #[test]
    fn needs_consecutive_dominant_windows_and_forgets_on_a_calm_one() {
        assert_eq!(MIGRATE_ROUNDS, 2);
        let mut m = Migration::new(DcId(4), 5);
        assert_eq!(window(&mut m, 40, 3, 400), None, "first dominant window");
        assert_eq!(window(&mut m, 0, 60, 600), None, "a calm one");
        assert_eq!(
            window(&mut m, 60, 0, 800),
            None,
            "dominant again: streak of one"
        );
        assert_eq!(
            window(&mut m, 60, 0, 1_000),
            Some(1),
            "and again: hand to DC 1"
        );
        // The handoff forgot everything: the next window starts empty.
        assert_eq!(window(&mut m, 60, 0, 1_200), None, "not a full window yet");
        assert_eq!(window(&mut m, 0, 0, 1_400), None, "streak of one");
    }

    /// Evaluated while not serving, the machine only forgets.
    #[test]
    fn a_node_that_is_not_serving_counts_nothing() {
        let mut m = Migration::new(DcId(4), 5);
        assert_eq!(window(&mut m, 60, 0, 400), None);
        for _ in 0..60 {
            m.note(DcId(1));
        }
        assert_eq!(m.evaluate(false, ms(800)), None);
        assert_eq!(
            window(&mut m, 60, 0, 1_200),
            None,
            "the streak was forgotten"
        );
        assert_eq!(window(&mut m, 60, 0, 1_400), Some(1));
    }

    /// A request from a data center the group does not span is ignored.
    #[test]
    fn an_unknown_origin_is_not_counted() {
        let mut m = Migration::new(DcId(0), 3);
        m.note(DcId(7));
        assert_eq!(m.origin_counts, [0, 0, 0]);
    }
}
