// R14 fixture pair, flagged half: the same alias and field pinned to the
// wheel, which the enum exists to avoid.

pub(crate) type SchedDyn = WheelScheduler<Ev>;

struct Simulation {
    events: SchedDyn,
}

fn on_tx_done(ev: &mut SchedDyn, now: Time, link: LinkId) {
    ev.post(now, Ev::Arrive { link });
}
