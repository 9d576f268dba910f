//! The paper's headline scenario (Figure 7): a herd of delay-based TCP
//! Vegas flows versus one loss-based NewReno flow. Under FIFO the NewReno
//! flow takes ~80% of the link; Cebinae redistributes it.
//!
//! ```sh
//! cargo run --release --example aggressive_flow [herd_cca] [hog_cca] [herd_size]
//! cargo run --release --example aggressive_flow vegas bbr 32
//! ```

use cebinae_repro::prelude::*;

/// The CCA whose label is `name`, in any case (`vegas`, `BBR`, ...).
fn cca(name: &str) -> CcKind {
    let found = CcKind::ALL.into_iter().find(|k| k.label().eq_ignore_ascii_case(name));
    found.unwrap_or_else(|| panic!("unknown CCA {name:?}"))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let herd_cc = args.get(1).map_or(CcKind::Vegas, |s| cca(s));
    let hog_cc = args.get(2).map_or(CcKind::NewReno, |s| cca(s));
    let herd: usize = args.get(3).map(|s| s.parse().expect("bad count")).unwrap_or(16);

    let mut flows: Vec<_> = (0..herd).map(|_| DumbbellFlow::new(herd_cc, 50)).collect();
    flows.push(DumbbellFlow::new(hog_cc, 50));

    println!(
        "{herd}x {} vs 1x {} over 100 Mbps (fair share: {:.1} Mbps each)\n",
        herd_cc.label(),
        hog_cc.label(),
        96.5 / (herd + 1) as f64
    );

    for discipline in [Discipline::Fifo, Discipline::FqCoDel, Discipline::Cebinae] {
        let mut params = ScenarioParams::new(100_000_000, 850, discipline);
        params.duration = Duration::from_secs(40);
        params.cebinae_p = Some(1);
        let (config, _) = dumbbell(&flows, &params);
        let result = Simulation::new(config).run();
        let g = result.goodputs_bps(Time::from_secs(4));
        let herd_avg = g[..herd].iter().sum::<f64>() / herd as f64 / 1e6;
        let hog = g[herd] / 1e6;
        println!(
            "{:8}  herd avg {herd_avg:5.2} Mbps   {} {hog:6.2} Mbps   JFI {:.3}",
            discipline.label(),
            hog_cc.label(),
            jfi(&g),
        );
    }
}
