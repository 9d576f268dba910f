//! No simulated byte moves unless a change says so. The identity snapshot
//! (per-scenario digests of delivered bytes, packet traces, telemetry and
//! oracle verdicts) is rendered by the example's own code and must equal
//! the committed golden file; and the golden file itself must say that the
//! heap and the timing wheel are interchangeable, byte for byte.
//!
//! A change that deliberately moves simulated behaviour regenerates the
//! golden file in the same commit:
//! `cargo run --release --example identity_snapshot > examples/identity_snapshot.golden`.

// The example's `main` only prints what `render` returns.
#[allow(dead_code)]
#[path = "../examples/identity_snapshot.rs"]
mod snapshot;

use cebinae_sim::SchedulerKind;

const GOLDEN: &str = include_str!("../examples/identity_snapshot.golden");

/// The golden rows as `(tag, text after the tag)`: a row is a `[tag]`
/// header line and the indented lines under it.
fn rows(text: &str) -> Vec<(&str, String)> {
    let mut out: Vec<(&str, String)> = Vec::new();
    for line in text.lines() {
        match line.strip_prefix('[').and_then(|l| l.split_once("] ")) {
            Some((tag, rest)) => out.push((tag, format!("{rest}\n"))),
            None => {
                let (_, body) = out.last_mut().expect("the snapshot opens with a header");
                *body += &format!("{line}\n");
            }
        }
    }
    out
}

/// The golden rows tagged exactly `tag`, in order.
fn bodies<'a>(rows: &'a [(&str, String)], tag: &str) -> Vec<&'a str> {
    rows.iter().filter(|(t, _)| *t == tag).map(|(_, b)| b.as_str()).collect()
}

#[test]
fn snapshot_matches_the_golden_file() {
    let got = snapshot::render();
    if got == GOLDEN {
        return;
    }
    let (mut want_lines, mut got_lines) = (GOLDEN.lines(), got.lines());
    for n in 1.. {
        match (want_lines.next(), got_lines.next()) {
            (Some(w), Some(g)) if w == g => continue,
            (None, None) => break,
            (w, g) => panic!(
                "identity snapshot differs from examples/identity_snapshot.golden at line {n}:\n\
                 golden:   {}\n\
                 rendered: {}\n\
                 If the change means to move simulated behaviour, regenerate the file:\n\
                 cargo run --release --example identity_snapshot > examples/identity_snapshot.golden",
                w.unwrap_or("<end of file>"),
                g.unwrap_or("<end of file>"),
            ),
        }
    }
    panic!("identity snapshot differs from the golden file only in its line endings");
}

/// Every clean scenario, replayed on the heap, lands on its wheel row:
/// deliveries, events, trace, telemetry and oracle verdicts.
#[test]
fn clean_heap_rows_equal_their_wheel_rows() {
    let rows = rows(GOLDEN);
    for prefix in ["", "ref:"] {
        let wheel = bodies(&rows, &format!("{prefix}clean/wheel"));
        let heap = bodies(&rows, &format!("{prefix}clean/heap"));
        assert_eq!(wheel.len(), 8, "{prefix}clean/wheel rows");
        assert_eq!(heap, wheel, "{prefix}clean/heap rows diverge from their wheel rows");
    }
}

/// Chaos scenarios lean on the scheduler hardest: flaps park and release
/// links, reorder holdbacks and control stalls add timer churn the clean
/// scenarios never generate. Re-rendered on the heap, every fault family
/// must reproduce its golden `chaos/*` rows, rendered on the wheel.
#[test]
fn chaos_rows_hold_under_the_heap() {
    let rows = rows(GOLDEN);
    let mut n = 0;
    for (tag, mut sc) in snapshot::chaos_scenarios() {
        let want: String = ["", "ref:"]
            .iter()
            .map(|prefix| {
                let tag = format!("{prefix}{tag}");
                let b = bodies(&rows, &tag);
                assert_eq!(b.len(), 1, "golden rows tagged {tag}");
                format!("[{tag}] {}", b[0])
            })
            .collect();
        sc.scheduler = SchedulerKind::Heap;
        assert_eq!(snapshot::scenario_rows(&tag, &sc), want, "{tag} on the heap");
        n += 1;
    }
    assert_eq!(n, 8, "one chaos scenario per fault family");
}
