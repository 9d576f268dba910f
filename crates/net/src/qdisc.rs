//! The queueing-discipline abstraction — the pluggability seam of the whole
//! reproduction.
//!
//! Each simulated link egress owns one `Qdisc`. The engine pushes arriving
//! packets in with [`Qdisc::enqueue`] and, whenever the link is idle, pulls
//! the next packet to serialize with [`Qdisc::dequeue`]. Disciplines that
//! need periodic control-plane work (Cebinae's queue rotations and rate
//! recomputations) expose it through [`Qdisc::control`], which the engine
//! schedules as ordinary simulation events.
//!
//! This mirrors the structure of the paper's ns-3 prototype, which attaches
//! Cebinae as a traffic-control-layer module to L2 NetDevices.

use cebinae_sim::Time;

use crate::packet::Packet;

/// Why a packet was dropped (for diagnostics; TCP only observes the loss).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// Shared buffer exhausted (drop-tail).
    BufferFull,
    /// An AQM (CoDel) decided to drop.
    Aqm,
    /// Cebinae's leaky-bucket filter: the packet's computed departure time
    /// is beyond both available queues (`past_tail > 0` in Figure 5).
    LbfPastTail,
    /// AFQ-style calendar queue: target round more than `n_queues` ahead.
    CalendarHorizon,
    /// Fault injection.
    Injected,
}

/// Cumulative counters every qdisc maintains.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QdiscStats {
    pub enq_pkts: u64,
    pub enq_bytes: u64,
    pub drop_pkts: u64,
    pub drop_bytes: u64,
    /// Packets/bytes handed to the link (egress, i.e. "transmitted").
    pub tx_pkts: u64,
    pub tx_bytes: u64,
    pub ecn_marked: u64,
    /// Of `drop_pkts`/`drop_bytes`: packets that were dropped *after*
    /// admission (AQM head drops, overload evictions) and therefore already
    /// counted in `enq_*`. Splitting these out gives every discipline one
    /// uniform byte-conservation identity, checked by `cebinae-check`:
    /// `enq_bytes == tx_bytes + drop_queued_bytes + byte_len()`.
    pub drop_queued_pkts: u64,
    pub drop_queued_bytes: u64,
    /// High-water mark of buffer occupancy (bytes queued after an
    /// enqueue) — the telemetry layer's view of how close the discipline
    /// ran to its buffer limit.
    pub peak_queued_bytes: u64,
}

impl QdiscStats {
    #[inline]
    pub fn on_enqueue(&mut self, bytes: u32) {
        self.enq_pkts = self.enq_pkts.saturating_add(1);
        self.enq_bytes = self.enq_bytes.saturating_add(bytes as u64);
    }

    /// Record the post-enqueue occupancy; keeps the high-water mark.
    #[inline]
    pub fn note_queued(&mut self, queued_bytes: u64) {
        self.peak_queued_bytes = self.peak_queued_bytes.max(queued_bytes);
    }

    /// A packet rejected at admission (never counted by `on_enqueue`).
    #[inline]
    pub fn on_drop(&mut self, bytes: u32) {
        self.drop_pkts = self.drop_pkts.saturating_add(1);
        self.drop_bytes = self.drop_bytes.saturating_add(bytes as u64);
    }

    /// A packet dropped after it was admitted (already counted by
    /// `on_enqueue`): CoDel head drops, fattest-queue overload evictions.
    #[inline]
    pub fn on_drop_queued(&mut self, bytes: u32) {
        self.on_drop(bytes);
        self.drop_queued_pkts = self.drop_queued_pkts.saturating_add(1);
        self.drop_queued_bytes = self.drop_queued_bytes.saturating_add(bytes as u64);
    }

    #[inline]
    pub fn on_tx(&mut self, bytes: u32) {
        self.tx_pkts = self.tx_pkts.saturating_add(1);
        self.tx_bytes = self.tx_bytes.saturating_add(bytes as u64);
    }
}

/// A queueing discipline attached to one link egress.
pub trait Qdisc: Send + std::any::Any {
    /// Concrete-type access for state probes (e.g. sampling Cebinae's
    /// saturation phase from the engine).
    fn as_any(&self) -> &dyn std::any::Any;

    /// Offer `pkt` to the queue at time `now`. Returns the packet (with a
    /// reason) if it was dropped instead of enqueued. Implementations may
    /// mark ECN on the packet before queuing it.
    fn enqueue(&mut self, pkt: Packet, now: Time) -> Result<(), (Packet, DropReason)>;

    /// Pull the next packet to transmit. Implementations may drop packets
    /// internally during the search (e.g. CoDel), reflected in `stats`.
    fn dequeue(&mut self, now: Time) -> Option<Packet>;

    /// Bytes currently queued.
    fn byte_len(&self) -> u64;

    /// Packets currently queued.
    fn pkt_len(&self) -> usize;

    /// Called once when the owning link comes up. Returns the absolute time
    /// of the first control event, if the discipline needs one.
    fn activate(&mut self, _now: Time) -> Option<Time> {
        None
    }

    /// Periodic control-plane hook; returns the time of the next control
    /// event. The engine guarantees calls happen exactly at the requested
    /// instants, in timestamp order relative to packet events.
    fn control(&mut self, _now: Time) -> Option<Time> {
        None
    }

    /// Cumulative statistics, by reference: the uniform read path for
    /// telemetry scrapes and tests (no `as_any` downcasting), required of
    /// every discipline.
    fn stats(&self) -> &QdiscStats;
}

/// Configuration shared by buffer-limited disciplines: capacity expressed in
/// MTUs, as in the paper's Table 2 "Buf." column.
#[derive(Clone, Copy, Debug)]
pub struct BufferConfig {
    pub bytes: u64,
}

impl BufferConfig {
    /// Buffer of `mtus` full-sized (1500 B) frames.
    pub fn mtus(mtus: u64) -> BufferConfig {
        BufferConfig {
            bytes: mtus * crate::packet::DATA_FRAME_BYTES as u64,
        }
    }

    pub fn bytes(bytes: u64) -> BufferConfig {
        BufferConfig { bytes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_config_units() {
        assert_eq!(BufferConfig::mtus(420).bytes, 420 * 1500);
        assert_eq!(BufferConfig::bytes(1_000_000).bytes, 1_000_000);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = QdiscStats::default();
        s.on_enqueue(1500);
        s.note_queued(1500);
        s.on_enqueue(52);
        s.note_queued(1552);
        s.on_drop(1500);
        s.on_tx(52);
        s.note_queued(1500);
        assert_eq!(s.enq_pkts, 2);
        assert_eq!(s.enq_bytes, 1552);
        assert_eq!(s.drop_pkts, 1);
        assert_eq!(s.tx_bytes, 52);
        assert_eq!(s.peak_queued_bytes, 1552, "high-water mark, not last value");
    }

    #[test]
    fn post_admission_drops_counted_in_both_totals() {
        let mut s = QdiscStats::default();
        s.on_enqueue(1500);
        s.on_enqueue(1500);
        s.on_drop(52); // admission reject: total only
        s.on_drop_queued(1500); // head drop: total + queued split
        assert_eq!(s.drop_pkts, 2);
        assert_eq!(s.drop_bytes, 1552);
        assert_eq!(s.drop_queued_pkts, 1);
        assert_eq!(s.drop_queued_bytes, 1500);
        // The uniform identity with one packet still queued:
        let queued = 1500u64; // one admitted packet remains
        assert_eq!(s.enq_bytes, s.tx_bytes + s.drop_queued_bytes + queued);
    }
}
