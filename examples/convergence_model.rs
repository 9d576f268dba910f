//! The paper's fluid-model intuition, runnable: how fast does Cebinae's
//! τ-compounding taxation pull an aggressive flow to its fair share, and
//! how does the trajectory compare to the packet-level simulation?
//!
//! ```sh
//! cargo run --release --example convergence_model [tau_percent]
//! ```

use cebinae::{rounds_to_converge, FluidFlow, FluidModel};
use cebinae_repro::prelude::*;

fn main() {
    let tau: f64 = std::env::args()
        .nth(1)
        .map(|s| s.parse::<f64>().expect("tau percent") / 100.0)
        .unwrap_or(0.01);

    // Fluid model: the paper's Figure 2a (one 6x-aggressive flow vs four).
    println!("Fluid model (paper §3.2, Figure 2a) at τ = {}%:", tau * 100.0);
    println!(
        "closed form ln(1/3)/ln(1-τ): {:.0} rounds for the hog to reach fair share\n",
        rounds_to_converge(6.0, 2.0, tau)
    );
    let mut model = FluidModel {
        capacities: vec![10.0],
        flows: (0..5)
            .map(|i| FluidFlow {
                links: vec![0],
                weight: if i == 0 { 6.0 } else { 1.0 },
                rate: if i == 0 { 6.0 } else { 1.0 },
            })
            .collect(),
        tau,
        delta_p: 0.01,
        delta_f: 0.01,
    };
    println!("round  hog   others  jfi");
    let mut round = 0;
    for target in [0, 20, 50, 100, 200, 400] {
        while round < target {
            model.step();
            round += 1;
        }
        let rates = model.rates();
        println!(
            "{round:5}  {:.2}  {:.2}    {:.3}",
            rates[0],
            rates[1..].iter().sum::<f64>() / 4.0,
            jfi(&rates)
        );
    }

    // Packet-level counterpart: a BBR hog (the paper's own aggressive flow)
    // vs 4 NewReno flows on a 10 Mbps Cebinae link with matching τ.
    println!("\nPacket-level counterpart (BBR hog vs 4 NewReno, 10 Mbps):");
    let mut flows: Vec<_> = (0..4).map(|_| DumbbellFlow::new(CcKind::NewReno, 40)).collect();
    flows.push(DumbbellFlow::new(CcKind::Bbr, 40));
    let mut p = ScenarioParams::new(10_000_000, 100, Discipline::Cebinae);
    p.duration = Duration::from_secs(30);
    p.cebinae_thresholds = (0.01, 0.01, tau);
    p.cebinae_p = Some(1);
    let (cfg, _) = dumbbell(&flows, &p);
    let r = Simulation::new(cfg).run();
    println!("t[s]   hog[Mbps]  others-avg[Mbps]");
    for (i, (t, g)) in r.goodput.rates().iter().enumerate() {
        if i % 50 == 49 {
            println!(
                "{:4.0}   {:9.2}  {:16.2}",
                t.as_secs_f64(),
                g[4] * 8.0 / 1e6,
                g[..4].iter().sum::<f64>() * 8.0 / 4.0 / 1e6
            );
        }
    }
    let g = r.goodputs_bps(Time::from_secs(3));
    println!("\nfinal JFI: {:.3} (fair share {:.2} Mbps/flow)", jfi(&g), 9.65 / 5.0);
}
