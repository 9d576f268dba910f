//! The metric registry: counters, gauges, and histograms keyed by
//! `(scope, name)`, with NDJSON sampling on virtual-time boundaries.

use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

use crate::histogram::Histogram;

/// What a metric is about: a switch egress port (link), a flow, or a named
/// subsystem. `Ord` is derived, so exports list ports, then flows, then
/// subsystems, each ascending.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Scope {
    Port(u32),
    Flow(u32),
    /// A named subsystem ("engine", "faults", ...). Must be a JSON-safe
    /// identifier (compile-time literals only).
    Sys(&'static str),
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scope::Port(p) => write!(f, "port:{p}"),
            Scope::Flow(fl) => write!(f, "flow:{fl}"),
            Scope::Sys(s) => write!(f, "sys:{s}"),
        }
    }
}

type Key = (Scope, &'static str);

/// Append one counter or gauge row. `kind` is a literal spliced into the
/// format string: as a runtime argument it cost the ledger's
/// `telemetry.sample_ns` about a tenth.
macro_rules! write_value {
    ($out:expr, $t_ns:expr, $scope:expr, $name:expr, $kind:literal, $v:expr) => {{
        let _ = writeln!(
            $out,
            concat!(
                "{{\"t\":{},\"scope\":\"{}\",\"name\":\"{}\",\"kind\":\"",
                $kind,
                "\",\"v\":{}}}"
            ),
            $t_ns,
            $scope,
            $name,
            $v
        );
    }};
}

/// A counter's or gauge's current value and the value of the last row
/// written for it (`None` before its first row).
#[derive(Default)]
struct Value {
    v: u64,
    written: Option<u64>,
}

impl Value {
    /// The value to write at this sample, if it differs from the last row.
    fn take_change(&mut self) -> Option<u64> {
        if self.written == Some(self.v) {
            return None;
        }
        self.written = Some(self.v);
        Some(self.v)
    }
}

/// A histogram and the `count` of the last row written for it.
#[derive(Default)]
struct Hist {
    h: Histogram,
    written: Option<u64>,
}

/// One simulation's worth of metrics. Owned by the simulation (never
/// shared across trials); the engine scrapes instrumented components into
/// it and calls [`Registry::sample`] at each virtual-time boundary.
///
/// The export is written by change: a sample writes a key's row only if
/// its value differs from the last row written for that key (for a
/// histogram, if its `count` moved). A key's first sample always writes,
/// so the first block is a full snapshot; a reader recovers every key's
/// value at every sample instant by carrying each key's last row forward.
#[derive(Default)]
pub struct Registry {
    counters: BTreeMap<Key, Value>,
    gauges: BTreeMap<Key, Value>,
    hists: BTreeMap<Key, Hist>,
    /// Accumulated NDJSON export.
    out: String,
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Increment a cumulative counter.
    #[inline]
    pub fn add(&mut self, scope: Scope, name: &'static str, delta: u64) {
        self.counters.entry((scope, name)).or_default().v += delta;
    }

    /// Overwrite a cumulative counter with an externally-maintained total
    /// (the scrape path: qdisc stats, xstats, sender counters).
    #[inline]
    pub fn set_counter(&mut self, scope: Scope, name: &'static str, total: u64) {
        self.counters.entry((scope, name)).or_default().v = total;
    }

    /// Set an instantaneous gauge.
    #[inline]
    pub fn set(&mut self, scope: Scope, name: &'static str, value: u64) {
        self.gauges.entry((scope, name)).or_default().v = value;
    }

    /// Record one observation into a histogram.
    #[inline]
    pub fn observe(&mut self, scope: Scope, name: &'static str, value: u64) {
        self.hists.entry((scope, name)).or_default().h.record(value);
    }

    /// Emit, at virtual time `t_ns`, one NDJSON row per metric whose value
    /// changed since its last row (every metric, at its first sample).
    /// Row order is fully determined by the `BTreeMap` keys, so the export
    /// is byte-identical for identical simulations regardless of thread
    /// count or host.
    pub fn sample(&mut self, t_ns: u64) {
        for (&(scope, name), e) in &mut self.counters {
            if let Some(v) = e.take_change() {
                write_value!(self.out, t_ns, scope, name, "counter", v);
            }
        }
        for (&(scope, name), e) in &mut self.gauges {
            if let Some(v) = e.take_change() {
                write_value!(self.out, t_ns, scope, name, "gauge", v);
            }
        }
        for (&(scope, name), e) in &mut self.hists {
            if e.written != Some(e.h.count()) {
                e.written = Some(e.h.count());
                write_hist(&mut self.out, t_ns, scope, name, &e.h);
            }
        }
    }

    /// The NDJSON accumulated so far.
    pub fn ndjson(&self) -> &str {
        &self.out
    }

    /// Consume the registry, returning the final NDJSON export.
    pub fn into_ndjson(self) -> String {
        self.out
    }
}

fn write_hist(out: &mut String, t_ns: u64, scope: Scope, name: &str, h: &Histogram) {
    let mut buckets = String::new();
    for (i, (lo, c)) in h.nonzero_buckets().enumerate() {
        if i > 0 {
            buckets.push(',');
        }
        let _ = write!(buckets, "[{lo},{c}]");
    }
    let _ = writeln!(
        out,
        "{{\"t\":{t_ns},\"scope\":\"{scope}\",\"name\":\"{name}\",\"kind\":\"hist\",\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[{buckets}]}}",
        h.count(),
        h.sum(),
        h.max()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use cebinae_sim::rng::DetRng;

    #[test]
    fn scope_ordering_is_ports_then_flows_then_subsystems() {
        let mut scopes = vec![
            Scope::Sys("engine"),
            Scope::Flow(2),
            Scope::Port(1),
            Scope::Flow(0),
            Scope::Port(0),
        ];
        scopes.sort();
        assert_eq!(
            scopes,
            vec![
                Scope::Port(0),
                Scope::Port(1),
                Scope::Flow(0),
                Scope::Flow(2),
                Scope::Sys("engine"),
            ]
        );
    }

    #[test]
    fn sample_renders_all_kinds_in_key_order() {
        let mut r = Registry::new();
        r.add(Scope::Flow(1), "retx", 2);
        r.set(Scope::Port(0), "queued_bytes", 3000);
        r.set_counter(Scope::Port(0), "tx_pkts", 7);
        r.observe(Scope::Port(0), "occupancy_bytes", 1500);
        r.sample(100_000_000);
        let lines: Vec<&str> = r.ndjson().lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            "{\"t\":100000000,\"scope\":\"port:0\",\"name\":\"tx_pkts\",\"kind\":\"counter\",\"v\":7}"
        );
        assert_eq!(
            lines[1],
            "{\"t\":100000000,\"scope\":\"flow:1\",\"name\":\"retx\",\"kind\":\"counter\",\"v\":2}"
        );
        assert!(lines[2].contains("\"kind\":\"gauge\""));
        assert!(lines[3].contains("\"kind\":\"hist\""));
        // The histogram row carries its buckets.
        assert!(r.ndjson().contains("\"buckets\":[[1024,1]]"), "{}", r.ndjson());
    }

    #[test]
    fn hist_rows_sample_after_gauges() {
        let mut r = Registry::new();
        r.observe(Scope::Port(0), "h", 1);
        r.set(Scope::Port(0), "g", 1);
        r.sample(0);
        let lines: Vec<&str> = r.ndjson().lines().collect();
        assert!(lines[0].contains("gauge"));
        assert!(lines[1].contains("hist"));
    }

    #[test]
    fn hist_ndjson_round_trips_stably_under_reexport() {
        // Build a histogram covering the boundary values, export it, parse
        // the bucket list back, reconstruct a histogram with the same
        // bucket counts, and re-export: the bucket serialization must be
        // byte-identical. This is the stability contract the conformance
        // oracles' NDJSON parser relies on.
        let mut r = Registry::new();
        for v in [0u64, 1, (1 << 13) - 1, 1 << 13, 1500, 1500, u64::MAX] {
            r.observe(Scope::Port(3), "occ", v);
        }
        r.sample(5_000);
        let row = r
            .ndjson()
            .lines()
            .find(|l| l.contains("\"kind\":\"hist\""))
            .expect("hist row")
            .to_string();
        let bucket_str = row
            .split("\"buckets\":[")
            .nth(1)
            .and_then(|s| s.strip_suffix("]}"))
            .expect("bucket payload");
        // Parse "[lo,c],[lo,c],..." into pairs.
        let parsed: Vec<(u64, u64)> = bucket_str
            .split("],[")
            .map(|p| {
                let p = p.trim_start_matches('[').trim_end_matches(']');
                let (lo, c) = p.split_once(',').expect("pair");
                (lo.parse().unwrap(), c.parse().unwrap())
            })
            .collect();
        let mut h = Histogram::new();
        for &(lo, c) in &parsed {
            for _ in 0..c {
                h.record(lo); // a bucket's lower bound maps back into it
            }
        }
        let round_tripped: Vec<(u64, u64)> = h.nonzero_buckets().collect();
        assert_eq!(parsed, round_tripped);
        // A later sample with no new observation writes no row, and a
        // registry fed the same values exports the same bucket payload at
        // any instant.
        let before = r.ndjson().len();
        r.sample(6_000);
        assert_eq!(r.ndjson().len(), before, "an unchanged histogram wrote a row");
        let mut again = Registry::new();
        for v in [0u64, 1, (1 << 13) - 1, 1 << 13, 1500, 1500, u64::MAX] {
            again.observe(Scope::Port(3), "occ", v);
        }
        again.sample(6_000);
        assert!(again.ndjson().contains(bucket_str), "{}", again.ndjson());
    }

    #[test]
    fn identical_update_sequences_export_identical_bytes() {
        let run = || {
            let mut r = Registry::new();
            for i in 0..10u64 {
                r.add(Scope::Flow((i % 3) as u32), "pkts", i);
                r.observe(Scope::Port(0), "bytes", i * 100);
            }
            r.sample(1_000_000);
            r.sample(2_000_000);
            r.into_ndjson()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn a_sample_writes_only_what_changed() {
        let mut r = Registry::new();
        r.set_counter(Scope::Port(0), "tx_pkts", 7);
        r.set(Scope::Port(0), "queued_bytes", 3000);
        r.add(Scope::Flow(1), "retx", 0);
        r.observe(Scope::Port(0), "occupancy_bytes", 1500);
        r.sample(1);
        assert_eq!(r.ndjson().lines().count(), 4, "the first sample is a full snapshot");
        // Nothing moved: the second block is empty.
        r.set_counter(Scope::Port(0), "tx_pkts", 7);
        r.set(Scope::Port(0), "queued_bytes", 3000);
        r.add(Scope::Flow(1), "retx", 0);
        r.sample(2);
        assert_eq!(r.ndjson().lines().count(), 4);
        // One gauge moved and a histogram took an observation.
        r.set(Scope::Port(0), "queued_bytes", 0);
        r.observe(Scope::Port(0), "occupancy_bytes", 0);
        r.sample(3);
        let block: Vec<&str> = r.ndjson().lines().skip(4).collect();
        assert_eq!(block.len(), 2, "{block:?}");
        assert!(block[0].ends_with("\"name\":\"queued_bytes\",\"kind\":\"gauge\",\"v\":0}"));
        assert!(block[1].contains("\"count\":2"), "{}", block[1]);
        // A value that returns to an earlier number is a change again.
        r.set(Scope::Port(0), "queued_bytes", 3000);
        r.sample(4);
        let last = r.ndjson().lines().last().expect("a row");
        assert!(last.starts_with("{\"t\":4,") && last.ends_with("\"v\":3000}"), "{last}");
        // A key first touched later is written at its first sample.
        r.add(Scope::Sys("engine"), "events", 0);
        r.sample(5);
        let last = r.ndjson().lines().last().expect("a row");
        assert!(last.starts_with("{\"t\":5,") && last.contains("sys:engine"), "{last}");
    }

    impl Registry {
        /// Every metric's row at `t_ns`, changed or not: the renderer the
        /// change-only export replaced, kept as its reference.
        fn render_full(&self, t_ns: u64) -> String {
            let mut out = String::new();
            for (&(scope, name), e) in &self.counters {
                write_value!(out, t_ns, scope, name, "counter", e.v);
            }
            for (&(scope, name), e) in &self.gauges {
                write_value!(out, t_ns, scope, name, "gauge", e.v);
            }
            for (&(scope, name), e) in &self.hists {
                write_hist(&mut out, t_ns, scope, name, &e.h);
            }
            out
        }
    }

    /// `(t, the row with its "t" field cut off, the row's identity)`.
    fn split_row(line: &str) -> (u64, &str, &str) {
        let rest = line.strip_prefix("{\"t\":").expect("row leads with t");
        let (t, rest) = rest.split_once(',').expect("t is followed by fields");
        let kind_at = rest.find("\"kind\":\"").expect("row has a kind") + 8;
        let id_end = kind_at + rest[kind_at..].find('"').expect("kind is quoted");
        (t.parse().expect("numeric t"), rest, &rest[..id_end])
    }

    /// Seeded streams of `add`/`set`/`set_counter`/`observe` over 50
    /// samples: replaying the change-only export with carry-forward gives,
    /// at every sample instant, exactly the block the full renderer wrote
    /// there, and no row repeats its key's previous value.
    #[test]
    fn carried_forward_export_equals_the_full_export() {
        const SCOPES: [Scope; 5] =
            [Scope::Port(0), Scope::Port(7), Scope::Flow(2), Scope::Flow(10), Scope::Sys("engine")];
        const NAMES: [&str; 4] = ["a", "b", "tx_bytes", "ev_arrive"];
        let (mut written, mut rows) = (0usize, 0usize);
        for case in 0..32u64 {
            let mut rng = DetRng::seed_from_u64(0x7E1E_5EED ^ case);
            let mut r = Registry::new();
            let mut full = String::new();
            for k in 0..50u64 {
                for _ in 0..rng.gen_range_u64(0, 12) {
                    let scope = SCOPES[rng.gen_range_usize(0, SCOPES.len())];
                    let name = NAMES[rng.gen_range_usize(0, NAMES.len())];
                    // Small values, so keys often hold and often return.
                    let v = rng.gen_range_u64(0, 4);
                    match rng.gen_range_u64(0, 4) {
                        0 => r.add(scope, name, v / 2),
                        1 => r.set_counter(scope, name, k + v / 3),
                        2 => r.set(scope, name, v),
                        _ => r.observe(scope, name, v),
                    }
                }
                full += &r.render_full(k * 100);
                r.sample(k * 100);
            }
            // Replay: carry every key's last row forward to each instant.
            let delta = r.ndjson();
            let mut carried: BTreeMap<&str, &str> = BTreeMap::new();
            let mut delta_rows = delta.lines().map(split_row).peekable();
            let mut full_rows = full.lines().map(split_row).peekable();
            for k in 0..50u64 {
                let t = k * 100;
                while let Some(&(_, row, id)) = delta_rows.peek().filter(|d| d.0 == t) {
                    let prev = carried.insert(id, row);
                    assert_ne!(prev, Some(row), "case {case} t={t}: {id} repeats its last row");
                    delta_rows.next();
                    written += 1;
                }
                let mut want: Vec<&str> = Vec::new();
                while let Some(&(_, row, _)) = full_rows.peek().filter(|f| f.0 == t) {
                    want.push(row);
                    full_rows.next();
                }
                let mut got: Vec<&str> = carried.values().copied().collect();
                want.sort_unstable();
                got.sort_unstable();
                assert_eq!(got, want, "case {case} t={t}");
                rows += want.len();
            }
            assert!(delta_rows.next().is_none() && full_rows.next().is_none());
        }
        // The streams must leave room to skip: most rows repeat.
        assert!(written * 2 < rows, "{written} written of {rows}");
    }
}
