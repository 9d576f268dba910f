// R14 fixture pair, clean half: the engine holds the scheduler as the
// `SchedulerBackend` enum, which names neither backend, so the heap and
// the wheel stay interchangeable behind `SchedulerKind`.

pub(crate) type SchedDyn = SchedulerBackend<Ev>;

struct Simulation {
    events: SchedDyn,
}

fn new_events(kind: SchedulerKind) -> SchedulerBackend<Ev> {
    kind.backend()
}

fn on_tx_done(ev: &mut SchedDyn, now: Time, link: LinkId) {
    ev.post(now, Ev::Arrive { link });
}
