//! The CoDel AQM control law (RFC 8289), applied per flow-queue inside
//! FQ-CoDel. Drops at the head of a queue when packets' sojourn times stay
//! above [`TARGET`] for longer than [`INTERVAL`], with the square-root
//! control law for the drop cadence.

use cebinae_sim::{Duration, Time};

/// RFC 8289 target: the acceptable standing sojourn time.
pub const TARGET: Duration = Duration::from_millis(5);
/// RFC 8289 interval: how long the sojourn may stay above [`TARGET`]
/// before the first drop.
pub const INTERVAL: Duration = Duration::from_millis(100);

/// Per-queue CoDel state; `Codel::default()` is a queue that has never
/// been above target.
#[derive(Clone, Debug, Default)]
pub struct Codel {
    /// Time when the sojourn time went (and stayed) above target.
    first_above_time: Option<Time>,
    /// Next scheduled drop while in the dropping state.
    drop_next: Time,
    /// Drops in the current dropping episode.
    count: u32,
    /// `count` when the last episode ended, for the RFC's count restoration.
    last_count: u32,
    dropping: bool,
}

/// Verdict for the packet at the head of the queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodelVerdict {
    /// Forward this packet.
    Deliver,
    /// Drop this packet and ask again for the next one.
    Drop,
}

impl Codel {
    fn control_law(&self, t: Time) -> Time {
        let count = self.count.max(1);
        t + Duration((INTERVAL.as_nanos() as f64 / (count as f64).sqrt()) as u64)
    }

    /// Decide the fate of the head packet which was enqueued at `enq_time`
    /// and is being considered at `now`. `queue_bytes` is the queue length
    /// after removing this packet (CoDel exits dropping on small queues).
    pub fn on_dequeue(&mut self, enq_time: Time, now: Time, queue_bytes: u64) -> CodelVerdict {
        let sojourn = now.saturating_since(enq_time);
        let ok_to_deliver = sojourn < TARGET || queue_bytes < 1500;
        if ok_to_deliver {
            self.first_above_time = None;
            if self.dropping {
                self.dropping = false;
            }
            return CodelVerdict::Deliver;
        }

        if !self.dropping {
            match self.first_above_time {
                None => {
                    self.first_above_time = Some(now + INTERVAL);
                    return CodelVerdict::Deliver;
                }
                Some(fat) if now < fat => {
                    return CodelVerdict::Deliver;
                }
                Some(_) => {
                    // Sojourn has been above target a full interval: enter
                    // the dropping state.
                    self.dropping = true;
                    // RFC count restoration: resume an aggressive cadence if
                    // we were dropping recently.
                    self.count = if self.count > 2 && self.count - self.last_count < 8 {
                        (self.count - self.last_count).max(1)
                    } else {
                        1
                    };
                    self.drop_next = self.control_law(now);
                    self.last_count = self.count;
                    return CodelVerdict::Drop;
                }
            }
        }

        // In dropping state: drop on schedule.
        if now >= self.drop_next {
            self.count += 1;
            self.drop_next = self.control_law(self.drop_next);
            CodelVerdict::Drop
        } else {
            CodelVerdict::Deliver
        }
    }

    pub fn is_dropping(&self) -> bool {
        self.dropping
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Time {
        Time::from_millis(v)
    }

    #[test]
    fn low_delay_always_delivers() {
        let mut c = Codel::default();
        for t in 0..100 {
            let v = c.on_dequeue(ms(t), ms(t + 2), 100_000);
            assert_eq!(v, CodelVerdict::Deliver);
        }
        assert!(!c.is_dropping());
    }

    #[test]
    fn sustained_delay_triggers_drop_after_interval() {
        let mut c = Codel::default();
        // Sojourn of 50ms, well above the 5ms target.
        let mut drops = 0;
        for t in 0..300 {
            let now = ms(t + 50);
            if c.on_dequeue(ms(t), now, 100_000) == CodelVerdict::Drop {
                drops += 1;
            }
        }
        assert!(drops > 0, "must start dropping");
        // First drop happens only after a full interval above target.
        let mut c2 = Codel::default();
        assert_eq!(c2.on_dequeue(ms(0), ms(50), 100_000), CodelVerdict::Deliver);
        assert_eq!(
            c2.on_dequeue(ms(10), ms(60), 100_000),
            CodelVerdict::Deliver,
            "still inside the grace interval"
        );
        assert_eq!(
            c2.on_dequeue(ms(101), ms(151), 100_000),
            CodelVerdict::Drop,
            "past first_above_time"
        );
    }

    #[test]
    fn drop_cadence_accelerates() {
        let mut c = Codel::default();
        // Force into dropping state.
        c.on_dequeue(ms(0), ms(50), 100_000);
        let mut now = ms(151);
        assert_eq!(c.on_dequeue(ms(101), now, 100_000), CodelVerdict::Drop);
        // Collect inter-drop gaps over a long congested period.
        let mut gaps = Vec::new();
        let mut last_drop = now;
        for i in 0..2000 {
            now = ms(151 + i);
            if c.on_dequeue(now - Duration::from_millis(50), now, 100_000) == CodelVerdict::Drop {
                gaps.push(now.saturating_since(last_drop).as_nanos());
                last_drop = now;
            }
        }
        assert!(gaps.len() > 3);
        let first = gaps[1];
        let last = *gaps.last().unwrap();
        assert!(last < first, "drop cadence must accelerate: {gaps:?}");
    }

    #[test]
    fn small_queue_exits_dropping() {
        let mut c = Codel::default();
        c.on_dequeue(ms(0), ms(50), 100_000);
        c.on_dequeue(ms(101), ms(151), 100_000); // enter dropping
        assert!(c.is_dropping());
        // Queue nearly empty: deliver and exit dropping even with high sojourn.
        let v = c.on_dequeue(ms(120), ms(170), 100);
        assert_eq!(v, CodelVerdict::Deliver);
        assert!(!c.is_dropping());
    }

    #[test]
    fn recovery_resets_state() {
        let mut c = Codel::default();
        c.on_dequeue(ms(0), ms(50), 100_000);
        // Delay clears before the interval elapses.
        assert_eq!(c.on_dequeue(ms(60), ms(61), 100_000), CodelVerdict::Deliver);
        // A later burst must again wait a full interval before dropping.
        assert_eq!(
            c.on_dequeue(ms(100), ms(150), 100_000),
            CodelVerdict::Deliver
        );
        assert_eq!(
            c.on_dequeue(ms(140), ms(190), 100_000),
            CodelVerdict::Deliver
        );
    }
}
