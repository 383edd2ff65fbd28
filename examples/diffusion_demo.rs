//! Index-diffusion visualization (the paper's Fig. 2 and Fig. 3): compare
//! SID (spreading) and HID (hopping) reach from a top-corner node, and
//! verify Theorem 1's binary-decomposition bound on a line network.
//!
//! ```text
//! cargo run --release --example diffusion_demo
//! ```
#![expect(
    clippy::disallowed_methods,
    reason = "an example seeds a local RNG to build its overlay"
)]

use rand::rngs::SmallRng;
use rand::SeedableRng;
use soc_pidcan::can::CanOverlay;
use soc_pidcan::inscan::IndexTables;
use soc_pidcan::pidcan::diffusion::{line_diffusion_depths, simulate_diffusion};
use soc_pidcan::pidcan::DiffusionMethod;
use soc_pidcan::types::ResVec;
use std::collections::BTreeSet;

fn main() {
    // -- Fig. 2: Theorem 1 on a 19-node line ------------------------------
    println!("== Fig. 2: backward index diffusion on a 19-node line ==");
    let depths = line_diffusion_depths(19);
    for (hop, d) in depths.iter().enumerate() {
        println!("  node at distance {hop:>2}: notified after {d} relay hops");
    }
    let max = depths.iter().max().unwrap();
    println!(
        "max relay depth = {max} ≤ ⌈log2 19⌉ = {} (Theorem 1)\n",
        (19f64).log2().ceil() as usize
    );

    // -- Fig. 3: SID vs HID coverage --------------------------------------
    println!("== Fig. 3: SID vs HID diffusion from the top-corner node ==");
    let n = 256;
    let mut rng = SmallRng::seed_from_u64(3);
    let ov = CanOverlay::bootstrap(2, n, n, &mut rng);
    let mut tables = IndexTables::new(2, n, n);
    tables.refresh_all(&ov, &mut rng);
    let origin = ov.owner_of(&ResVec::from_slice(&[1.0, 1.0]));

    for (label, method) in [
        ("SID (spreading)", DiffusionMethod::Spreading),
        ("HID (hopping)  ", DiffusionMethod::Hopping),
    ] {
        let mut seen: BTreeSet<_> = BTreeSet::new();
        let mut msgs = 0usize;
        let mut depth = 0usize;
        let rounds = 50;
        for _ in 0..rounds {
            let out = simulate_diffusion(&ov, &tables, origin, method, 2, &mut rng);
            msgs += out.messages;
            depth = depth.max(out.max_depth);
            seen.extend(out.reached.iter().map(|(node, _)| *node));
        }
        println!(
            "  {label}: {rounds} rounds → {:>3} distinct nodes notified, \
             {:>4} msgs total, max depth {depth}",
            seen.len(),
            msgs
        );
    }
    println!(
        "\nHID compounds random 2^k jumps hop-by-hop, so repeated rounds cover\n\
         more distinct negative-direction nodes than SID at the same message\n\
         budget — the reason the paper recommends HID-CAN."
    );
}
