//! Transport glue: endpoint delivery, TCP output application, and the
//! lazy RTO / pace timer discipline.

use cebinae_faults::FaultsRt;
use cebinae_net::{FlowId, LinkId, Packet, PacketKind};
use cebinae_sim::{Time, TimerId};
use cebinae_transport::{TcpOutput, TcpReceiver, TcpSender, TimerAction};

use super::links::{self, LinkPlane};
use super::{Ev, SchedDyn};

/// Per-flow runtime state.
pub(crate) struct FlowRt {
    pub(crate) sender: TcpSender,
    pub(crate) receiver: TcpReceiver,
    /// The data (`fwd`) and ACK (`rev`) paths, as `(start, end)` spans of
    /// [`FlowPlane::paths`].
    pub(crate) fwd: (u32, u32),
    pub(crate) rev: (u32, u32),
    pub(crate) start: Time,
    /// First instant at which all application data was acknowledged.
    pub(crate) completed_at: Option<Time>,
    /// Current RTO deadline; events that fire early re-arm themselves.
    pub(crate) rto_deadline: Option<Time>,
    /// Pending RTO event: (scheduled instant, scheduler handle). Deadlines
    /// that move *later* leave the event in place and re-arm on fire (cheap
    /// ACK path); earlier deadlines and cancellations go through
    /// [`Scheduler::rearm`](cebinae_sim::Scheduler::rearm) /
    /// [`Scheduler::cancel`](cebinae_sim::Scheduler::cancel).
    pub(crate) rto_timer: Option<(Time, TimerId)>,
    /// Pending pace event: (pace deadline, scheduler handle).
    pub(crate) pace_timer: Option<(Time, TimerId)>,
}

/// The flow-side hot-path context: every TCP endpoint, their paths, the
/// one sender output buffer they all write into, and the engine's
/// timer-cancellation telemetry counters.
pub(crate) struct FlowPlane {
    pub(crate) flows: Vec<FlowRt>,
    /// Every flow's forward and reverse path, back to back in one arena.
    pub(crate) paths: Vec<LinkId>,
    /// The output of the sender call being applied, drained by
    /// [`apply_output`]. Every sender call writes into it in place
    /// (`TcpSender::*_into`), so no event allocates an output.
    pub(crate) out: TcpOutput,
    pub(crate) rto_cancels: u64,
    pub(crate) pace_cancels: u64,
}

/// The links of one `(start, end)` span of the path arena.
fn span(paths: &[LinkId], (start, end): (u32, u32)) -> &[LinkId] {
    &paths[start as usize..end as usize]
}

/// `Ev::Arrive { link }`: pop the link's in-flight ring head — the
/// event/ring pairing invariant guarantees it is this event's packet —
/// then advance it one hop or deliver it to its endpoint.
pub(crate) fn on_arrive(
    lp: &mut LinkPlane,
    fp: &mut FlowPlane,
    fx: &mut FaultsRt,
    ev: &mut SchedDyn,
    now: Time,
    link: LinkId,
) {
    let Some(mut pkt) = lp.links[link.index()].inflight.pop_front() else {
        debug_assert!(false, "Arrive fired on an empty in-flight ring");
        return;
    };
    let f = &fp.flows[pkt.flow.index()];
    let path = span(&fp.paths, if pkt.is_data() { f.fwd } else { f.rev });
    let hop = pkt.hop as usize;
    debug_assert_eq!(path.get(hop), Some(&link), "packet took an unexpected link");
    if hop + 1 < path.len() {
        pkt.hop += 1;
        let next = path[pkt.hop as usize];
        links::enqueue_link(lp, fx, ev, path, now, next, pkt);
        return;
    }
    deliver(lp, fp, fx, ev, now, pkt);
}

/// Endpoint delivery: data turns into an ACK on the reverse path, an ACK
/// feeds the sender. Corrupted packets consumed queue space and link
/// capacity but fail their checksum here.
pub(crate) fn deliver(
    lp: &mut LinkPlane,
    fp: &mut FlowPlane,
    fx: &mut FaultsRt,
    ev: &mut SchedDyn,
    now: Time,
    pkt: Packet,
) {
    if pkt.corrupted {
        fx.note_corrupt_rx_drop();
        return;
    }
    let flow = pkt.flow;
    match pkt.kind {
        PacketKind::Data { .. } => {
            let f = &mut fp.flows[flow.index()];
            let mut ack = f.receiver.on_data(&pkt, now);
            ack.hop = 0;
            let path = span(&fp.paths, f.rev);
            links::enqueue_link(lp, fx, ev, path, now, path[0], ack);
        }
        PacketKind::Ack {
            ack_seq,
            ece,
            echo_ts,
            echo_retx,
            sack,
        } => {
            let FlowPlane { flows, out, .. } = fp;
            flows[flow.index()]
                .sender
                .on_ack_into(ack_seq, ece, echo_ts, echo_retx, &sack, now, out);
            apply_output(lp, fp, fx, ev, now, flow);
        }
    }
}

pub(crate) fn on_flow_start(
    lp: &mut LinkPlane,
    fp: &mut FlowPlane,
    fx: &mut FaultsRt,
    ev: &mut SchedDyn,
    now: Time,
    flow: FlowId,
) {
    fp.flows[flow.index()].sender.start_into(now, &mut fp.out);
    apply_output(lp, fp, fx, ev, now, flow);
}

pub(crate) fn on_pace(
    lp: &mut LinkPlane,
    fp: &mut FlowPlane,
    fx: &mut FaultsRt,
    ev: &mut SchedDyn,
    now: Time,
    flow: FlowId,
) {
    // Obsolete pace events are cancelled at re-arm time, so any that
    // fires is current.
    let f = &mut fp.flows[flow.index()];
    f.pace_timer = None;
    f.sender.on_pace_timer_into(now, &mut fp.out);
    apply_output(lp, fp, fx, ev, now, flow);
}

pub(crate) fn on_rto(
    lp: &mut LinkPlane,
    fp: &mut FlowPlane,
    fx: &mut FaultsRt,
    ev: &mut SchedDyn,
    now: Time,
    flow: FlowId,
) {
    fp.flows[flow.index()].rto_timer = None;
    match fp.flows[flow.index()].rto_deadline {
        Some(d) if d <= now => {
            let f = &mut fp.flows[flow.index()];
            f.rto_deadline = None;
            f.sender.on_rto_timer_into(now, &mut fp.out);
            apply_output(lp, fp, fx, ev, now, flow);
        }
        Some(d) => {
            // Deadline moved later (ACKs arrived); re-arm lazily.
            let id = ev.schedule(d, Ev::Rto { flow });
            fp.flows[flow.index()].rto_timer = Some((d, id));
        }
        None => {}
    }
}

/// Apply the sender output in `fp.out`: completion bookkeeping, fresh
/// packets onto the first forward hop (draining the buffer for the next
/// call), and the timer discipline.
pub(crate) fn apply_output(
    lp: &mut LinkPlane,
    fp: &mut FlowPlane,
    fx: &mut FaultsRt,
    ev: &mut SchedDyn,
    now: Time,
    flow: FlowId,
) {
    let FlowPlane { flows, paths, out, .. } = fp;
    let f = &mut flows[flow.index()];
    if f.completed_at.is_none() && f.sender.is_complete() {
        f.completed_at = Some(now);
    }
    let path = span(paths, f.fwd);
    for mut pkt in out.packets.drain(..) {
        pkt.hop = 0;
        links::enqueue_link(lp, fx, ev, path, now, path[0], pkt);
    }
    let (rto, pace_at) = (out.rto, out.pace_at);
    match rto {
        Some(TimerAction::Set(t)) => {
            fp.flows[flow.index()].rto_deadline = Some(t);
            // Deadlines that move later are handled lazily at fire time
            // (the common per-ACK case: zero scheduler operations). Only
            // an *earlier* deadline replaces the scheduled event.
            let timer = fp.flows[flow.index()].rto_timer;
            let rearmed = match timer {
                None => Some(ev.schedule(t, Ev::Rto { flow })),
                Some((s, id)) if t < s => {
                    fp.rto_cancels += 1;
                    Some(ev.rearm(id, t, Ev::Rto { flow }))
                }
                Some(_) => None,
            };
            if let Some(id) = rearmed {
                fp.flows[flow.index()].rto_timer = Some((t, id));
            }
        }
        Some(TimerAction::Cancel) => {
            let f = &mut fp.flows[flow.index()];
            f.rto_deadline = None;
            if let Some((_, id)) = f.rto_timer.take() {
                ev.cancel(id);
                fp.rto_cancels += 1;
            }
        }
        None => {}
    }
    if let Some(at) = pace_at {
        let timer = fp.flows[flow.index()].pace_timer;
        let rearmed = match timer {
            None => Some(ev.schedule(at.max(now), Ev::Pace { flow })),
            Some((s, id)) if at < s => {
                fp.pace_cancels += 1;
                Some(ev.rearm(id, at.max(now), Ev::Pace { flow }))
            }
            Some(_) => None,
        };
        if let Some(id) = rearmed {
            fp.flows[flow.index()].pace_timer = Some((at, id));
        }
    }
}
