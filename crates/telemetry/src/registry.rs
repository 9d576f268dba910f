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

/// One simulation's worth of metrics. Owned by the simulation (never
/// shared across trials); the engine scrapes instrumented components into
/// it and calls [`Registry::sample`] at each virtual-time boundary.
#[derive(Default)]
pub struct Registry {
    counters: BTreeMap<Key, u64>,
    gauges: BTreeMap<Key, u64>,
    hists: BTreeMap<Key, Histogram>,
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
        *self.counters.entry((scope, name)).or_insert(0) += delta;
    }

    /// Overwrite a cumulative counter with an externally-maintained total
    /// (the scrape path: qdisc stats, xstats, sender counters).
    #[inline]
    pub fn set_counter(&mut self, scope: Scope, name: &'static str, total: u64) {
        self.counters.insert((scope, name), total);
    }

    /// Set an instantaneous gauge.
    #[inline]
    pub fn set(&mut self, scope: Scope, name: &'static str, value: u64) {
        self.gauges.insert((scope, name), value);
    }

    /// Record one observation into a histogram.
    #[inline]
    pub fn observe(&mut self, scope: Scope, name: &'static str, value: u64) {
        self.hists.entry((scope, name)).or_default().record(value);
    }

    /// Current counter value (tests / assertions).
    pub fn counter(&self, scope: Scope, name: &'static str) -> u64 {
        self.counters.get(&(scope, name)).copied().unwrap_or(0)
    }

    /// Current gauge value (tests / assertions).
    pub fn gauge(&self, scope: Scope, name: &'static str) -> u64 {
        self.gauges.get(&(scope, name)).copied().unwrap_or(0)
    }

    /// Emit one NDJSON row per registered metric at virtual time `t_ns`.
    /// Row order is fully determined by the `BTreeMap` keys, so the export
    /// is byte-identical for identical simulations regardless of thread
    /// count or host.
    pub fn sample(&mut self, t_ns: u64) {
        for (&(scope, name), &v) in &self.counters {
            let _ = writeln!(
                self.out,
                "{{\"t\":{t_ns},\"scope\":\"{scope}\",\"name\":\"{name}\",\"kind\":\"counter\",\"v\":{v}}}"
            );
        }
        for (&(scope, name), &v) in &self.gauges {
            let _ = writeln!(
                self.out,
                "{{\"t\":{t_ns},\"scope\":\"{scope}\",\"name\":\"{name}\",\"kind\":\"gauge\",\"v\":{v}}}"
            );
        }
        for (&(scope, name), h) in &self.hists {
            let mut buckets = String::new();
            for (i, (lo, c)) in h.nonzero_buckets().enumerate() {
                if i > 0 {
                    buckets.push(',');
                }
                let _ = write!(buckets, "[{lo},{c}]");
            }
            let _ = writeln!(
                self.out,
                "{{\"t\":{t_ns},\"scope\":\"{scope}\",\"name\":\"{name}\",\"kind\":\"hist\",\"count\":{},\"sum\":{},\"max\":{},\"buckets\":[{buckets}]}}",
                h.count(),
                h.sum(),
                h.max()
            );
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

#[cfg(test)]
mod tests {
    use super::*;

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
        // Re-exporting the same registry at a later instant renders the
        // same bucket payload again.
        r.sample(6_000);
        let again = r
            .ndjson()
            .lines()
            .filter(|l| l.contains("\"kind\":\"hist\""))
            .nth(1)
            .expect("second hist row");
        assert!(again.contains(bucket_str), "{again}");
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
}
