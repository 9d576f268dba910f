//! The simulated packet.
//!
//! Packets are plain structs, not byte buffers: the reproduction studies
//! congestion dynamics, not wire formats, so a packet carries exactly the
//! fields the qdiscs and TCP endpoints read. Sizes follow the conventions of
//! the paper's ns-3 setup: 1500-byte data frames carrying a 1448-byte
//! segment (52 bytes of TCP/IP header), and 52-byte pure ACKs — these ratios
//! are what make Table 2's goodput ≈ 96.4% of throughput.

use cebinae_sim::Time;

use crate::ids::FlowId;

/// Up to three SACK blocks (RFC 2018 fits 3 alongside a timestamp option).
/// Each block is a received byte range `[start, end)` above the cumulative
/// ACK. The first block is the one containing the most recently received
/// segment, as the RFC requires.
///
/// A block travels as two `u32` offsets from the ACK's `ack_seq`, packed
/// from the front, so every ACK (and every data packet, which shares the
/// layout) carries 24 bytes of SACK state, not 72. `(0, 0)` marks an
/// unused entry: a real block ends above the ACK, so its end offset is at
/// least 1. The sender's `rwnd` bound keeps every offset below 4 GiB.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SackBlocks([(u32, u32); 3]);

impl SackBlocks {
    pub const EMPTY: SackBlocks = SackBlocks([(0, 0); 3]);

    /// Encode absolute `[start, end)` blocks, in the order given, against
    /// the ACK's `ack_seq`. Panics on more than three blocks, on an empty
    /// block, on one that starts below `ack_seq` and on an offset of 4 GiB
    /// or more.
    pub fn new(ack_seq: u64, blocks: &[(u64, u64)]) -> SackBlocks {
        assert!(blocks.len() <= 3, "{} SACK blocks, at most 3 fit", blocks.len());
        let offset = |seq: u64| {
            let off = seq.checked_sub(ack_seq).expect("a SACK block starts at or above the ACK");
            u32::try_from(off).expect("a SACK block lies within 4 GiB of the ACK")
        };
        let mut out = SackBlocks::EMPTY;
        for (slot, &(start, end)) in out.0.iter_mut().zip(blocks) {
            assert!(start < end, "empty SACK block [{start}, {end})");
            *slot = (offset(start), offset(end));
        }
        out
    }

    /// The absolute `[start, end)` blocks of an ACK for `ack_seq`.
    pub fn iter(&self, ack_seq: u64) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.0
            .iter()
            .take_while(|&&(_, end)| end != 0)
            .map(move |&(start, end)| (ack_seq + u64::from(start), ack_seq + u64::from(end)))
    }

    pub fn is_empty(&self) -> bool {
        self.0[0].1 == 0
    }
}

/// Wire size of a full-sized data frame, in bytes (one "MTU" in the paper's
/// buffer-size units).
pub const DATA_FRAME_BYTES: u32 = 1500;
/// TCP/IP header overhead per data frame.
pub const HEADER_BYTES: u32 = 52;
/// Maximum segment size (application payload per full frame).
pub const MSS: u32 = DATA_FRAME_BYTES - HEADER_BYTES;
/// Wire size of a pure ACK.
pub const ACK_FRAME_BYTES: u32 = 52;

/// ECN codepoint state of a packet (RFC 3168 semantics, collapsed to what
/// the simulation needs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ecn {
    /// Sender is not ECN-capable; congested queues must drop instead.
    NotCapable,
    /// ECN-capable transport, not yet marked.
    Capable,
    /// Congestion Experienced mark set by a queue.
    CongestionExperienced,
}

impl Ecn {
    /// Whether a queue may signal congestion by marking rather than
    /// dropping this packet.
    #[inline]
    pub fn markable(self) -> bool {
        matches!(self, Ecn::Capable)
    }
}

/// Transport-level packet role.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketKind {
    /// A data segment. `seq` is the byte offset of the payload's first byte;
    /// the payload length is `size - HEADER_BYTES`.
    Data {
        seq: u64,
        /// Set on retransmissions so RTT sampling can apply Karn's rule.
        is_retx: bool,
    },
    /// A cumulative acknowledgement.
    Ack {
        /// Next expected byte at the receiver.
        ack_seq: u64,
        /// ECN-Echo: the receiver saw a CE mark (RFC 3168).
        ece: bool,
        /// Echo of the `sent_at` timestamp of the data packet that triggered
        /// this ACK, for RTT estimation.
        echo_ts: Time,
        /// The triggering data packet was a retransmission (Karn's rule:
        /// do not take an RTT sample).
        echo_retx: bool,
        /// Selective acknowledgement blocks (RFC 2018).
        sack: SackBlocks,
    },
}

/// A packet in flight or queued.
#[derive(Clone, Debug)]
pub struct Packet {
    pub flow: FlowId,
    /// Total wire size in bytes (headers included).
    pub size: u32,
    pub kind: PacketKind,
    pub ecn: Ecn,
    /// When the transport emitted this packet (stamped by the sender; used
    /// for RTT echo and queue-delay accounting).
    pub sent_at: Time,
    /// Current hop index along the flow's path, maintained by the engine.
    pub hop: u8,
    /// Set by fault injection: the packet traverses the network normally
    /// (consuming queue space and link capacity) but fails its checksum
    /// and is discarded at the receiving endpoint.
    pub corrupted: bool,
}

// Every queue, in-flight ring and stash slot holds packets by value.
const _: () = assert!(std::mem::size_of::<Packet>() == 72, "Packet left 72 bytes");

impl Packet {
    /// Construct a data segment of `payload` bytes at offset `seq`.
    pub fn data(flow: FlowId, seq: u64, payload: u32, is_retx: bool, now: Time) -> Packet {
        debug_assert!(payload > 0 && payload <= MSS);
        Packet {
            flow,
            size: payload + HEADER_BYTES,
            kind: PacketKind::Data { seq, is_retx },
            ecn: Ecn::NotCapable,
            sent_at: now,
            hop: 0,
            corrupted: false,
        }
    }

    /// Construct a pure ACK.
    pub fn ack(flow: FlowId, ack_seq: u64, ece: bool, echo_ts: Time, echo_retx: bool, now: Time) -> Packet {
        Packet::ack_with_sack(flow, ack_seq, ece, echo_ts, echo_retx, SackBlocks::EMPTY, now)
    }

    /// Construct a pure ACK carrying SACK blocks.
    pub fn ack_with_sack(
        flow: FlowId,
        ack_seq: u64,
        ece: bool,
        echo_ts: Time,
        echo_retx: bool,
        sack: SackBlocks,
        now: Time,
    ) -> Packet {
        Packet {
            flow,
            size: ACK_FRAME_BYTES,
            kind: PacketKind::Ack {
                ack_seq,
                ece,
                echo_ts,
                echo_retx,
                sack,
            },
            ecn: Ecn::NotCapable,
            sent_at: now,
            hop: 0,
            corrupted: false,
        }
    }

    /// Application payload bytes carried (0 for ACKs).
    #[inline]
    pub fn payload_bytes(&self) -> u32 {
        match self.kind {
            PacketKind::Data { .. } => self.size - HEADER_BYTES,
            PacketKind::Ack { .. } => 0,
        }
    }

    #[inline]
    pub fn is_data(&self) -> bool {
        matches!(self.kind, PacketKind::Data { .. })
    }

    /// Apply a congestion-experienced mark if the packet is ECN-capable.
    /// Returns true if the mark was applied.
    #[inline]
    pub fn try_mark_ce(&mut self) -> bool {
        if self.ecn.markable() {
            self.ecn = Ecn::CongestionExperienced;
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_constants_are_consistent() {
        assert_eq!(MSS + HEADER_BYTES, DATA_FRAME_BYTES);
        assert_eq!(MSS, 1448);
    }

    #[test]
    fn data_packet_payload_accounting() {
        let p = Packet::data(FlowId(0), 0, MSS, false, Time::ZERO);
        assert_eq!(p.size, DATA_FRAME_BYTES);
        assert_eq!(p.payload_bytes(), MSS);
        assert!(p.is_data());

        let small = Packet::data(FlowId(0), 100, 10, true, Time::ZERO);
        assert_eq!(small.payload_bytes(), 10);
        assert_eq!(small.size, 62);
    }

    #[test]
    fn ack_packet_has_no_payload() {
        let a = Packet::ack(FlowId(1), 4096, false, Time::from_millis(1), false, Time::from_millis(2));
        assert_eq!(a.payload_bytes(), 0);
        assert!(!a.is_data());
        assert_eq!(a.size, ACK_FRAME_BYTES);
    }

    #[test]
    fn sack_blocks_round_trip_as_offsets() {
        let blocks = [(5000, 6448), (2000, 3000), (7000, 7001)];
        let sack = SackBlocks::new(1000, &blocks);
        assert!(!sack.is_empty());
        assert_eq!(sack.iter(1000).collect::<Vec<_>>(), blocks);
        let one = SackBlocks::new(1000, &[(1000, 1001)]);
        assert_eq!(one.iter(1000).collect::<Vec<_>>(), [(1000, 1001)], "a block at the ACK");
        let top = 1000 + u64::from(u32::MAX);
        assert_eq!(SackBlocks::new(1000, &[(top - 1, top)]).iter(1000).next(), Some((top - 1, top)));
        assert!(SackBlocks::new(1000, &[]).is_empty());
        assert_eq!(SackBlocks::new(7, &[]), SackBlocks::EMPTY);
        assert_eq!(SackBlocks::EMPTY.iter(7).count(), 0);
    }

    #[test]
    #[should_panic(expected = "starts at or above the ACK")]
    fn sack_block_below_the_ack_panics() {
        SackBlocks::new(1000, &[(999, 2000)]);
    }

    #[test]
    #[should_panic(expected = "within 4 GiB of the ACK")]
    fn sack_block_4gib_above_the_ack_panics() {
        SackBlocks::new(1000, &[(2000, 1000 + (1 << 32))]);
    }

    #[test]
    #[should_panic(expected = "4 SACK blocks")]
    fn four_sack_blocks_panic() {
        SackBlocks::new(0, &[(1, 2), (3, 4), (5, 6), (7, 8)]);
    }

    #[test]
    fn ecn_marking_rules() {
        let mut p = Packet::data(FlowId(0), 0, MSS, false, Time::ZERO);
        assert!(!p.try_mark_ce(), "not-capable packets must not be marked");
        p.ecn = Ecn::Capable;
        assert!(p.try_mark_ce());
        assert_eq!(p.ecn, Ecn::CongestionExperienced);
        assert!(!p.try_mark_ce(), "already-marked packets stay marked");
    }
}
