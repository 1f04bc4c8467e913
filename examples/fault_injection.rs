//! Fault injection: corrupt flits, kill a network plane mid-run, and
//! watch the recovery tiers (CRC retransmission, plane failover, mesh
//! rerouting) deliver everything anyway.
//!
//! Run with:
//! ```sh
//! cargo run --release --example fault_injection
//! ```

use powermanna::comm::reliable::ResilientNetwork;
use powermanna::net::fault::{FaultPlan, LinkRef};
use powermanna::net::mesh::{Mesh, MeshConfig, MeshError};
use powermanna::net::network::Network;
use powermanna::net::topology::Topology;
use powermanna::sim::time::Time;

fn main() {
    // --- 1. A seeded fault plan ------------------------------------------
    // Everything is a function of the seed: re-running this example
    // replays the exact same corruptions and link deaths.
    let plan = FaultPlan::clean(0xBADC_AB1E)
        .with_transient_rate(0.3) // 30% of transmissions take a bit flip
        .expect("rate in [0, 1)")
        .kill_link(
            Time::from_ps(400_000_000),              // 400 us into the run...
            LinkRef::NodeLink { node: 0, plane: 0 }, // ...node 0 loses plane 0
        );
    println!(
        "plan: seed {:#x}, transient rate {}, {} scheduled link death(s)",
        plan.seed(),
        plan.transient_rate(),
        plan.schedule().len()
    );

    // --- 2. Resilient transport over the duplicated network --------------
    // Tier 1: CRC-16 catches corrupted messages, capped retransmission
    // with exponential backoff resends them. Tier 2: when the plane-0
    // link dies, opens fail over to the secondary plane (240 -> 120
    // Mbyte/s, but zero loss).
    let mut rn = ResilientNetwork::new(Network::new(Topology::two_nodes()), plan)
        .expect("the plan names two_nodes links");
    let mut t = Time::ZERO;
    for seq in 0..16u8 {
        let payload = vec![seq; 8192];
        let d = rn.send(0, 1, 0, t, &payload).expect("a plane survives");
        println!(
            "  msg {seq:2}: delivered at {} on plane {} after {} attempt(s)",
            d.finished, d.plane, d.attempts
        );
        t = d.finished;
    }
    let s = rn.stats();
    println!(
        "stats: {} messages, {} transmissions, {} CRC failures, \
         {} severed, {} failovers, {} link death(s) applied",
        s.messages, s.transmissions, s.crc_failures, s.severed, s.failovers, s.link_downs
    );
    println!(
        "goodput: {:.1} Mbyte/s for {} payload bytes (zero loss)",
        s.goodput_mbs(t.since(Time::ZERO)),
        s.delivered_bytes
    );

    // --- 3. Tier 3: mesh rerouting around dead links ---------------------
    let mut mesh = Mesh::new(MeshConfig::powermanna_parts(4, 4));
    mesh.fail_link(1, 2);
    let mut c = mesh.open(0, 3, Time::ZERO).expect("detour exists");
    let done = c.transfer(c.ready_at(), 4096).finished;
    c.close(&mut mesh, done);
    println!(
        "mesh: link 1-2 dead, 0 -> 3 detoured ({} reroute) and finished at {}",
        mesh.reroutes(),
        done
    );

    // Cut the whole column and the partition is a typed error, not a hang.
    for row in 0..4 {
        mesh.fail_link(row * 4 + 1, row * 4 + 2);
    }
    match mesh.open(0, 3, done) {
        Err(MeshError::Unreachable { src, dst }) => {
            println!("mesh: column cut -> {src} to {dst} correctly unreachable");
        }
        other => panic!("expected Unreachable, got {other:?}"),
    }
}
