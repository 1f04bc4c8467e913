//! The four seeded workloads and the output checks of one repetition.
//!
//! Each workload is built from the benchmark seed alone; the simulator
//! sees only the generated inputs. A repetition calls nothing but the
//! top-level entry points the simulator keeps stable:
//! `matmultrun::{measure_single, measure_dual, measure_blocked}`,
//! `RouteSim::{run, run_resilient}` and `traffic::run_scenario(cfg, None)`.

use pm_core::hierarchy::x13_injection_capacity_bytes_per_s;
use pm_core::matmultrun::{measure_blocked, measure_dual, measure_single, MatMultMeasurement};
use pm_core::resilience::{X14_LOAD, X14_TRANSIENT_RATE};
use pm_core::systems::{self, System};
use pm_core::traffic::{run_scenario, ScenarioConfig, ScenarioTopology, TrafficReport};
use pm_net::fault::{FaultPlan, LinkRef};
use pm_net::routesim::{
    FailoverMode, ResilienceConfig, ResilientResult, RoutePolicy, RouteSim, RouteSimResult, Worm,
};
use pm_net::topology::Topology;
use pm_sim::rng::SimRng;
use pm_sim::time::{Duration, Time};
use pm_workloads::blocked::BlockedMatMult;
use pm_workloads::matmult::{MatMult, MatMultVersion};
use pm_workloads::traffic::{TrafficConfig, TrafficGen, TrafficPattern};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "node_incache",
    "node_smp_mem",
    "route1024",
    "fabric_traffic",
];

/// One seeded workload: inputs plus whatever simulator state outlives a
/// repetition.
pub trait Workload {
    /// What one repetition returns; compared bit for bit across
    /// repetitions.
    type Output: Send;
    /// Simulated work one repetition offers, in the workload's unit.
    fn units(&self) -> f64;
    /// One repetition through the top-level entry points.
    fn run(&mut self) -> Result<Self::Output, String>;
    /// Checks the ledgers and shapes of one repetition's output.
    fn verify(&self, out: &Self::Output) -> Result<(), String>;
    /// Whether two repetitions produced identical simulated results.
    fn same(a: &Self::Output, b: &Self::Output) -> bool;
    /// Writes the generated inputs, for the input digest.
    fn describe(&self, out: &mut dyn std::fmt::Write) -> std::fmt::Result;
}

/// Derives an independent seed for one input lane of a workload.
fn lane_seed(seed: u64, lane: u64) -> u64 {
    let mut rng = SimRng::seed_from(seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.next_u64()
}

/// A value in `lo..=hi` on a grid of `step`.
fn draw_size(rng: &mut SimRng, lo: usize, hi: usize, step: usize) -> usize {
    lo + step * rng.gen_range(0, ((hi - lo) / step + 1) as u64) as usize
}

/// The node machines the SMP workload runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Machine {
    /// The dual-MPC620 PowerMANNA node.
    PowerManna,
    /// The dual Pentium II/180 PC.
    Pentium180,
}

impl Machine {
    /// The system model behind this machine.
    pub fn system(self) -> System {
        match self {
            Machine::PowerManna => systems::powermanna(),
            Machine::Pentium180 => systems::pentium_180(),
        }
    }
}

/// One MatMult measurement of a node workload's case mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeCase {
    /// `measure_single` on PowerMANNA.
    Single {
        /// Matrix dimension.
        n: usize,
        /// Loop order.
        version: MatMultVersion,
    },
    /// `measure_blocked` on PowerMANNA.
    Blocked {
        /// Matrix dimension.
        n: usize,
        /// Tile edge.
        tile: usize,
    },
    /// `measure_dual` on `machine`.
    Dual {
        /// The node model.
        machine: Machine,
        /// Matrix dimension.
        n: usize,
        /// Loop order.
        version: MatMultVersion,
    },
}

impl NodeCase {
    /// Problem flops of this case (the whole multiply, sampled or not).
    pub fn flops(&self) -> u64 {
        match *self {
            NodeCase::Single { n, version } | NodeCase::Dual { n, version, .. } => {
                MatMult::new(n, version).flops_total()
            }
            NodeCase::Blocked { n, tile } => BlockedMatMult::new(n, tile).flops_total(),
        }
    }

    /// Runs the case through its top-level entry point.
    pub fn measure(&self) -> MatMultMeasurement {
        match *self {
            NodeCase::Single { n, version } => measure_single(&systems::powermanna(), n, version),
            NodeCase::Blocked { n, tile } => measure_blocked(&systems::powermanna(), n, tile),
            NodeCase::Dual {
                machine,
                n,
                version,
            } => measure_dual(&machine.system(), n, version),
        }
    }
}

/// The in-cache case mix, all on PowerMANNA: two full-simulation
/// MatMult sizes (n <= 96), one naive and one transposed in seed-drawn
/// order, plus one L1-tiled multiply. The largest case is pinned at
/// n = 62 so peak memory does not depend on the seed. Every trace of
/// the mix (34-47 MB) is past the allocator's 32 MB mmap threshold and
/// inside one capacity class, so neither host cost per flop nor peak
/// memory depends on which sizes the seed draws.
pub fn node_incache_cases(seed: u64) -> Vec<NodeCase> {
    let mut rng = SimRng::seed_from(lane_seed(seed, 1));
    let mut versions = [MatMultVersion::Naive, MatMultVersion::Transposed];
    rng.shuffle(&mut versions);
    vec![
        NodeCase::Single {
            n: 62,
            version: versions[0],
        },
        NodeCase::Single {
            n: draw_size(&mut rng, 56, 62, 2),
            version: versions[1],
        },
        // Two block rows, so the tiled case is simulated in full; a
        // 30-element tile of three matrices fits the 32 KB L1.
        NodeCase::Blocked { n: 60, tile: 30 },
    ]
}

/// The past-L2 case mix: `measure_dual` with a naive multiply on
/// PowerMANNA pinned at n = 320 (the peak-memory case; 3 * n^2 * 8
/// bytes exceeds its 2 MB L2 from n = 296) and a transposed multiply of
/// seed-drawn size on the Pentium II/180 (past its 512 KB L2 from
/// n = 148). Both are past the machines' TLB reach. The multiplies are
/// row-sampled, so host cost grows as n^2 while problem flops grow as
/// n^3; the narrow band keeps the seed from moving the throughput.
pub fn node_smp_mem_cases(seed: u64) -> Vec<NodeCase> {
    let mut rng = SimRng::seed_from(lane_seed(seed, 2));
    vec![
        NodeCase::Dual {
            machine: Machine::PowerManna,
            n: 320,
            version: MatMultVersion::Naive,
        },
        NodeCase::Dual {
            machine: Machine::Pentium180,
            n: draw_size(&mut rng, 240, 272, 16),
            version: MatMultVersion::Transposed,
        },
    ]
}

/// A node workload: one MatMult case mix, problem flops as its unit.
pub struct NodeMix {
    cases: Vec<NodeCase>,
}

impl NodeMix {
    /// Builds the mix from its cases.
    pub fn new(cases: Vec<NodeCase>) -> Self {
        NodeMix { cases }
    }
}

impl Workload for NodeMix {
    type Output = Vec<MatMultMeasurement>;

    fn units(&self) -> f64 {
        self.cases.iter().map(|c| c.flops() as f64).sum()
    }

    fn run(&mut self) -> Result<Self::Output, String> {
        Ok(self.cases.iter().map(NodeCase::measure).collect())
    }

    fn verify(&self, out: &Self::Output) -> Result<(), String> {
        if out.len() != self.cases.len() {
            return Err(format!(
                "{} measurements for {} cases",
                out.len(),
                self.cases.len()
            ));
        }
        for (case, m) in self.cases.iter().zip(out) {
            let n = match *case {
                NodeCase::Single { n, .. }
                | NodeCase::Blocked { n, .. }
                | NodeCase::Dual { n, .. } => n,
            };
            if m.n != n || !(m.mflops.is_finite() && m.mflops > 0.0) || m.runtime == Duration::ZERO
            {
                return Err(format!("{case:?} measured {m:?}"));
            }
        }
        Ok(())
    }

    fn same(a: &Self::Output, b: &Self::Output) -> bool {
        a == b
    }

    fn describe(&self, out: &mut dyn std::fmt::Write) -> std::fmt::Result {
        write!(out, "{:?}", self.cases)
    }
}

/// Offered load of the clean adaptive pass, as a fraction of plane-0
/// injection capacity: past the hierarchy's knee, so waiter FIFOs fill.
const ROUTE_CLEAN_LOAD: f64 = 1.6;
/// Worms in the clean pass.
const ROUTE_CLEAN_WORMS: u64 = 60_000;
/// Worms in the resilient pass (at X14's sub-knee load).
const ROUTE_RESILIENT_WORMS: u64 = 60_000;
/// Permanent link deaths in the resilient pass's fault plan.
const ROUTE_DEATHS: u32 = 24;

/// A Poisson batch of 4 KB worms over all 1024 nodes on plane 0, and
/// its last arrival instant.
fn poisson_worms(seed: u64, load: f64, messages: u64) -> (Vec<Worm>, Time) {
    let cfg = TrafficConfig {
        nodes: 1024,
        tenants: 1024,
        pattern: TrafficPattern::Poisson,
        offered_bytes_per_s: load * x13_injection_capacity_bytes_per_s(),
        payload: 4096,
        messages,
        seed,
    };
    let mut worms = Vec::with_capacity(messages as usize);
    let mut horizon = Time::ZERO;
    for m in TrafficGen::new(cfg) {
        horizon = m.at;
        worms.push(Worm {
            src: m.src as usize,
            dst: m.dst as usize,
            plane: 0,
            payload: m.bytes as u32,
            inject_at: m.at,
        });
    }
    (worms, horizon)
}

/// The resilient pass's plan: transients, rolling link deaths over the
/// first 60% of the batch, each repaired 500 us later.
fn route_fault_plan(seed: u64, topology: &Topology, horizon: Time) -> FaultPlan {
    FaultPlan::clean(seed)
        .with_transient_rate(X14_TRANSIENT_RATE)
        .expect("X14's rate is a probability")
        .random_link_downs(
            topology,
            ROUTE_DEATHS,
            Duration::from_ps(horizon.as_ps() * 3 / 5),
        )
        .repair_all_after(Duration::from_us(500))
}

/// The inputs of the route workload, built from the seed.
pub struct RouteInputs {
    /// The clean adaptive pass's batch.
    pub clean: Vec<Worm>,
    /// The resilient pass's batch.
    pub resilient: Vec<Worm>,
    /// The resilient pass's fault plan.
    pub plan: FaultPlan,
}

impl RouteInputs {
    /// Generates both batches and the plan against `topology`.
    pub fn new(seed: u64, topology: &Topology) -> Self {
        let (clean, _) = poisson_worms(lane_seed(seed, 3), ROUTE_CLEAN_LOAD, ROUTE_CLEAN_WORMS);
        let (resilient, horizon) =
            poisson_worms(lane_seed(seed, 4), X14_LOAD, ROUTE_RESILIENT_WORMS);
        let plan = route_fault_plan(lane_seed(seed, 5), topology, horizon);
        RouteInputs {
            clean,
            resilient,
            plan,
        }
    }

    /// The resilient pass's configuration: detected failover.
    pub fn config() -> ResilienceConfig {
        ResilienceConfig {
            failover: FailoverMode::Detected,
            ..ResilienceConfig::default()
        }
    }
}

/// Whether two clean route runs produced identical results.
pub fn same_route(a: &RouteSimResult, b: &RouteSimResult) -> bool {
    a.completions == b.completions
        && a.finished_at == b.finished_at
        && a.payload_bytes == b.payload_bytes
        && a.peak_inflight == b.peak_inflight
        && a.conflicts == b.conflicts
        && a.detours == b.detours
}

/// Whether two resilient route runs produced identical results.
pub fn same_resilient(a: &ResilientResult, b: &ResilientResult) -> bool {
    a.outcomes == b.outcomes
        && a.finished_at == b.finished_at
        && a.peak_inflight == b.peak_inflight
        && a.conflicts == b.conflicts
        && a.detours == b.detours
        && a.stats == b.stats
}

/// Checks both passes of a route repetition against their batches.
pub fn verify_route(
    inputs: &RouteInputs,
    clean: &RouteSimResult,
    res: &ResilientResult,
) -> Result<(), String> {
    let clean_bytes: u64 = inputs.clean.iter().map(|w| u64::from(w.payload)).sum();
    if clean.completions.len() != inputs.clean.len() || clean.payload_bytes != clean_bytes {
        return Err(format!(
            "clean pass: {} completions / {} B for {} worms / {clean_bytes} B",
            clean.completions.len(),
            clean.payload_bytes,
            inputs.clean.len()
        ));
    }
    let s = &res.stats;
    let res_bytes: u64 = inputs.resilient.iter().map(|w| u64::from(w.payload)).sum();
    if res.outcomes.len() != inputs.resilient.len()
        || s.offered != inputs.resilient.len() as u64
        || s.offered_bytes != res_bytes
        || s.offered != s.delivered + s.dropped
        || s.offered_bytes != s.delivered_bytes + s.dropped_bytes
    {
        return Err(format!("resilient pass ledger does not reconcile: {s:?}"));
    }
    Ok(())
}

/// The 1024-node route workload: a clean adaptive pass past the knee
/// and a self-healing pass under faults, on one pooled simulator.
pub struct Route1024 {
    sim: RouteSim,
    inputs: RouteInputs,
}

impl Route1024 {
    /// Builds the topology, the simulator and the seeded inputs.
    pub fn new(seed: u64) -> Self {
        let topology = Topology::system1024();
        let sim = RouteSim::new(&topology);
        let inputs = RouteInputs::new(seed, &topology);
        Route1024 { sim, inputs }
    }
}

impl Workload for Route1024 {
    type Output = (RouteSimResult, ResilientResult);

    fn units(&self) -> f64 {
        (self.inputs.clean.len() + self.inputs.resilient.len()) as f64
    }

    fn run(&mut self) -> Result<Self::Output, String> {
        let clean = self.sim.run(&self.inputs.clean, RoutePolicy::Adaptive);
        let res = self
            .sim
            .run_resilient(
                &self.inputs.resilient,
                &self.inputs.plan,
                &RouteInputs::config(),
            )
            .map_err(|e| format!("run_resilient: {e}"))?;
        Ok((clean, res))
    }

    fn verify(&self, (clean, res): &Self::Output) -> Result<(), String> {
        verify_route(&self.inputs, clean, res)
    }

    fn same(a: &Self::Output, b: &Self::Output) -> bool {
        same_route(&a.0, &b.0) && same_resilient(&a.1, &b.1)
    }

    fn describe(&self, out: &mut dyn std::fmt::Write) -> std::fmt::Result {
        write!(
            out,
            "{:?} {:?} {:?} {:?} {}",
            self.inputs.clean,
            self.inputs.resilient,
            self.inputs.plan.schedule(),
            self.inputs.plan.repairs(),
            self.inputs.plan.seed()
        )
    }
}

/// Offered load of every fabric scenario: twice the 0.3 knee of both
/// fabrics.
const FABRIC_LOAD: f64 = 0.6;
/// Messages per fabric scenario.
const FABRIC_MESSAGES: u64 = 150_000;

/// The three X12-style scenarios of the fabric workload, in order:
/// cluster8 crossbar, 4x4 mesh, crossbar with faults under load.
pub fn fabric_scenarios(seed: u64) -> Vec<ScenarioConfig> {
    let base = |topology, lane| ScenarioConfig {
        topology,
        pattern: TrafficPattern::Poisson,
        tenants: 1024,
        messages: FABRIC_MESSAGES,
        payload: 4096,
        offered_load: FABRIC_LOAD,
        deadline: Duration::from_us_f64(2_000.0),
        seed: lane_seed(seed, lane),
        faults: None,
    };
    let xbar = base(ScenarioTopology::Cluster8Xbar, 6);
    let mesh = base(ScenarioTopology::Mesh4x4, 7);
    let mut faulty = base(ScenarioTopology::Cluster8Xbar, 8);
    // As X12: 5% transients, and a node link dies a third of the way
    // through the expected window.
    let rate = FABRIC_LOAD * faulty.topology.injection_capacity_bytes_per_s();
    let horizon_ps = (FABRIC_MESSAGES * faulty.payload) as f64 / rate * 1e12;
    faulty.faults = Some(
        FaultPlan::clean(lane_seed(seed, 9))
            .with_transient_rate(0.05)
            .expect("rate in range")
            .kill_link(
                Time::from_ps((horizon_ps / 3.0) as u64),
                LinkRef::NodeLink { node: 0, plane: 0 },
            ),
    );
    vec![xbar, mesh, faulty]
}

/// Checks one fabric scenario's report against its config.
pub fn verify_report(cfg: &ScenarioConfig, r: &TrafficReport) -> Result<(), String> {
    if r.offered_messages != cfg.messages || !r.conserves_bytes() {
        return Err(format!(
            "{:?} scenario: {} of {} messages offered, conserves_bytes = {}",
            cfg.topology,
            r.offered_messages,
            cfg.messages,
            r.conserves_bytes()
        ));
    }
    Ok(())
}

/// The fabric workload: the three scenarios through `run_scenario`.
pub struct FabricTraffic {
    scenarios: Vec<ScenarioConfig>,
}

impl FabricTraffic {
    /// Builds the seeded scenarios.
    pub fn new(seed: u64) -> Self {
        FabricTraffic {
            scenarios: fabric_scenarios(seed),
        }
    }
}

impl Workload for FabricTraffic {
    type Output = Vec<TrafficReport>;

    fn units(&self) -> f64 {
        self.scenarios.iter().map(|c| c.messages as f64).sum()
    }

    fn run(&mut self) -> Result<Self::Output, String> {
        Ok(self
            .scenarios
            .iter()
            .map(|c| run_scenario(c, None))
            .collect())
    }

    fn verify(&self, out: &Self::Output) -> Result<(), String> {
        if out.len() != self.scenarios.len() {
            return Err(format!(
                "{} reports for {} scenarios",
                out.len(),
                self.scenarios.len()
            ));
        }
        self.scenarios
            .iter()
            .zip(out)
            .try_for_each(|(c, r)| verify_report(c, r))
    }

    fn same(a: &Self::Output, b: &Self::Output) -> bool {
        a == b
    }

    fn describe(&self, out: &mut dyn std::fmt::Write) -> std::fmt::Result {
        write!(out, "{:?}", self.scenarios)
    }
}
