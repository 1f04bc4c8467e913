//! The traced run: per-layer host time and simulated counts.
//!
//! Each round runs every workload twice, back to back: once untraced
//! through its top-level entry points, and once as the same sequence of
//! layer calls made from here, each wrapped in a span. The traced
//! repetition must reproduce the untraced output bit for bit. Probes
//! outside the repetitions time what no repetition isolates: a
//! memory-only replay of every node trace, `MemorySystem::new`, the
//! 1024-node topology build, the traffic generator, and `run_scenario`
//! with a metric registry attached.
//!
//! Host-time metrics take the fastest round; simulated counts come from
//! the first round and every later round must repeat them exactly.

use crate::measure::{median, Fnv};
use crate::spans::{Totals, Tracer};
use crate::workloads::{
    fabric_scenarios, node_incache_cases, node_smp_mem_cases, same_resilient, same_route,
    verify_report, verify_route, FabricTraffic, NodeCase, NodeMix, Route1024, RouteInputs,
    Workload,
};
use crate::{Metric, Report};
use pm_core::matmultrun::MatMultMeasurement;
use pm_core::resilience::x14_deadline;
use pm_core::systems;
use pm_core::traffic::{run_scenario, ScenarioConfig, TrafficReport};
use pm_cpu::{run_smp_at, Cpu, CpuConfig, RunResult};
use pm_isa::{Instr, OpClass, Trace};
use pm_mem::hierarchy::Access;
use pm_mem::pool::with_node_mem;
use pm_mem::{HierarchyConfig, MemorySystem};
use pm_net::routesim::{ResilientResult, RoutePolicy, RouteSim, RouteSimResult};
use pm_net::topology::Topology;
use pm_sim::metrics::MetricRegistry;
use pm_sim::time::{Duration, Time};
use pm_workloads::blocked::BlockedMatMult;
use pm_workloads::matmult::{MatMult, MatMultVersion};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Rows above which `matmultrun` samples (its `FULL_SIM_LIMIT`).
const FULL_SIM_LIMIT: usize = 96;
/// Measured rows when sampling (its `SAMPLE_ROWS`).
const SAMPLE_ROWS: usize = 2;

/// The memory references of one trace, for the replay probe.
struct Refs {
    config: HierarchyConfig,
    cpu: usize,
    /// `(is_store, virtual address)` in program order.
    refs: Vec<(bool, u64)>,
    /// Whether the trace ran through `Cpu::execute_at` (else `run_smp_at`).
    single: bool,
}

/// Simulated counts of the traced node cases; must repeat exactly.
#[derive(Default)]
struct NodeSim {
    instrs: u64,
    cycles: u64,
    operand_stall_ps: u64,
    unit_stall_ps: u64,
    frontend_stall_ps: u64,
    mispredicts: u64,
    l1_accesses: u64,
    l1_misses: u64,
    l2_accesses: u64,
    l2_misses: u64,
    tlb_accesses: u64,
    tlb_misses: u64,
    bus_addr_phases: u64,
    bus_addr_wait_ps: u64,
    dram_bank_conflicts: u64,
    interventions: u64,
    /// Largest set of traces built for one simulator call, in bytes.
    max_trace_bytes: u64,
}

/// What the node layer calls of one round accumulate.
#[derive(Default)]
struct NodeAcc {
    sim: NodeSim,
    exec_instrs: u64,
    smp_instrs: u64,
    built_instrs: u64,
    /// References replayed from `Cpu::execute_at` traces.
    replayed_single: u64,
    /// References replayed from `run_smp_at` traces.
    replayed_smp: u64,
    pending: Vec<Refs>,
}

impl NodeAcc {
    fn note_traces(&mut self, config: HierarchyConfig, traces: &[&Trace], single: bool) {
        let len: usize = traces.iter().map(|t| t.len()).sum();
        self.built_instrs += len as u64;
        let bytes = (len * std::mem::size_of::<Instr>()) as u64;
        self.sim.max_trace_bytes = self.sim.max_trace_bytes.max(bytes);
        for (cpu, trace) in traces.iter().enumerate() {
            let refs = trace
                .iter()
                .filter_map(|i| match (i.op, i.mem) {
                    (OpClass::Load, Some(m)) => Some((false, m.addr.0)),
                    (OpClass::Store, Some(m)) => Some((true, m.addr.0)),
                    _ => None,
                })
                .collect();
            self.pending.push(Refs {
                config,
                cpu,
                refs,
                single,
            });
        }
    }

    fn add_run(&mut self, r: &RunResult) {
        let s = &mut self.sim;
        s.instrs += r.instrs;
        s.cycles += r.cycles;
        s.operand_stall_ps += r.operand_stall.as_ps();
        s.unit_stall_ps += r.unit_stall.as_ps();
        s.frontend_stall_ps += r.frontend_stall.as_ps();
        s.mispredicts += r.mispredicts;
    }

    fn add_mem(&mut self, mem: &MemorySystem) {
        let s = &mut self.sim;
        for cpu in 0..mem.cpu_count() {
            let (l1, l2, tlb) = (mem.l1_stats(cpu), mem.l2_stats(cpu), mem.tlb_stats(cpu));
            s.l1_accesses += l1.hits + l1.misses;
            s.l1_misses += l1.misses;
            s.l2_accesses += l2.hits + l2.misses;
            s.l2_misses += l2.misses;
            s.tlb_accesses += tlb.hits + tlb.misses;
            s.tlb_misses += tlb.misses;
        }
        let bus = mem.bus_stats();
        s.bus_addr_phases += bus.addr_phases;
        s.bus_addr_wait_ps += bus.addr_wait.as_ps();
        s.dram_bank_conflicts += mem.dram_bank_conflicts();
        s.interventions += mem.interventions();
    }
}

/// The span that copies a trace's references for the replay probe: it
/// sits inside a traced repetition but is benchmark work, so the
/// overhead and unattributed figures leave it out.
const REFS_COPY: &str = "trace.refs_copy";

fn build<T>(t: &mut Tracer, f: impl FnOnce() -> T) -> T {
    t.span("isa.trace_build", |_| f())
}

#[allow(clippy::too_many_arguments)]
fn exec(
    t: &mut Tracer,
    acc: &mut NodeAcc,
    cpu: &mut Cpu,
    config: HierarchyConfig,
    trace: Trace,
    mem: &mut MemorySystem,
    start: Time,
) -> RunResult {
    t.span(REFS_COPY, |_| acc.note_traces(config, &[&trace], true));
    let r = t.span("cpu.exec", |_| cpu.execute_at(trace, mem, 0, start));
    acc.add_run(&r);
    acc.exec_instrs += r.instrs;
    r
}

fn smp(
    t: &mut Tracer,
    acc: &mut NodeAcc,
    configs: &[CpuConfig],
    config: HierarchyConfig,
    traces: Vec<Trace>,
    mem: &mut MemorySystem,
    start: Time,
) -> Duration {
    t.span(REFS_COPY, |_| {
        acc.note_traces(config, &traces.iter().collect::<Vec<_>>(), false)
    });
    let rs = t.span("cpu.smp", |_| run_smp_at(configs, traces, mem, start));
    for r in &rs {
        acc.add_run(r);
        acc.smp_instrs += r.instrs;
    }
    rs.iter()
        .map(|r| r.elapsed)
        .fold(Duration::ZERO, Duration::max)
}

fn measurement(n: usize, flops: u64, runtime: Duration, sampled: bool) -> MatMultMeasurement {
    MatMultMeasurement {
        n,
        mflops: flops as f64 / runtime.as_secs_f64() / 1e6,
        runtime,
        sampled,
    }
}

/// `measure_single`, as layer calls.
fn traced_single(
    t: &mut Tracer,
    acc: &mut NodeAcc,
    n: usize,
    version: MatMultVersion,
) -> MatMultMeasurement {
    let system = systems::powermanna();
    let config = system.node.mem;
    let kernel = MatMult::new(n, version);
    with_node_mem(config, |mem| {
        let mut cpu = Cpu::new(system.node.cpu.clone());
        let mut cursor = Time::ZERO;
        let mut runtime = Duration::ZERO;
        if version == MatMultVersion::Transposed {
            let tr = build(t, || kernel.transpose_trace());
            let r = exec(t, acc, &mut cpu, config, tr, mem, cursor);
            cursor = r.finished_at;
            runtime += r.elapsed;
        }
        let sampled = n > FULL_SIM_LIMIT;
        if !sampled {
            let tr = build(t, || kernel.trace_rows(0, n));
            runtime += exec(t, acc, &mut cpu, config, tr, mem, cursor).elapsed;
        } else {
            let tr = build(t, || kernel.trace_rows(0, 1));
            cursor = exec(t, acc, &mut cpu, config, tr, mem, cursor).finished_at;
            let tr = build(t, || kernel.trace_rows(1, 1 + SAMPLE_ROWS));
            let measured = exec(t, acc, &mut cpu, config, tr, mem, cursor);
            runtime += (measured.elapsed / SAMPLE_ROWS as u64) * n as u64;
        }
        acc.add_mem(mem);
        measurement(n, kernel.flops_total(), runtime, sampled)
    })
}

/// `measure_blocked`, as layer calls.
fn traced_blocked(t: &mut Tracer, acc: &mut NodeAcc, n: usize, tile: usize) -> MatMultMeasurement {
    let system = systems::powermanna();
    let config = system.node.mem;
    let kernel = BlockedMatMult::new(n, tile);
    with_node_mem(config, |mem| {
        let mut cpu = Cpu::new(system.node.cpu.clone());
        let blocks = kernel.block_rows();
        let sampled = blocks > 2;
        let runtime = if !sampled {
            let tr = build(t, || kernel.trace_block_rows(0, blocks));
            exec(t, acc, &mut cpu, config, tr, mem, Time::ZERO).elapsed
        } else {
            let tr = build(t, || kernel.trace_block_rows(0, 1));
            let warm = exec(t, acc, &mut cpu, config, tr, mem, Time::ZERO);
            let tr = build(t, || kernel.trace_block_rows(1, 2));
            exec(t, acc, &mut cpu, config, tr, mem, warm.finished_at).elapsed * blocks as u64
        };
        acc.add_mem(mem);
        measurement(n, kernel.flops_total(), runtime, sampled)
    })
}

/// `measure_dual`, as layer calls.
fn traced_dual(
    t: &mut Tracer,
    acc: &mut NodeAcc,
    system: &systems::System,
    n: usize,
    version: MatMultVersion,
) -> MatMultMeasurement {
    let config = system.node.mem;
    let kernel = MatMult::new(n, version);
    let configs = [system.node.cpu.clone(), system.node.cpu.clone()];
    let half = n / 2;
    with_node_mem(config, |mem| {
        let mut runtime = Duration::ZERO;
        let mut cursor = Time::ZERO;
        if version == MatMultVersion::Transposed {
            let lanes = build(t, || {
                let tr = kernel.transpose_trace();
                let mid = tr.len() / 2;
                let first: Trace = tr.iter().take(mid).copied().collect();
                let second: Trace = tr.iter().skip(mid).copied().collect();
                vec![first, second]
            });
            let slowest = smp(t, acc, &configs, config, lanes, mem, cursor);
            runtime += slowest;
            cursor += slowest;
        }
        let sampled = n > FULL_SIM_LIMIT;
        if !sampled {
            let lanes = build(t, || {
                vec![kernel.trace_rows(0, half), kernel.trace_rows(half, n)]
            });
            runtime += smp(t, acc, &configs, config, lanes, mem, cursor);
        } else {
            let lanes = build(t, || {
                vec![kernel.trace_rows(0, 1), kernel.trace_rows(half, half + 1)]
            });
            cursor += smp(t, acc, &configs, config, lanes, mem, cursor);
            let lanes = build(t, || {
                vec![
                    kernel.trace_rows(1, 1 + SAMPLE_ROWS),
                    kernel.trace_rows(half + 1, half + 1 + SAMPLE_ROWS),
                ]
            });
            let slowest = smp(t, acc, &configs, config, lanes, mem, cursor);
            runtime += (slowest / SAMPLE_ROWS as u64) * half as u64;
        }
        acc.add_mem(mem);
        measurement(n, kernel.flops_total(), runtime, sampled)
    })
}

fn traced_case(t: &mut Tracer, acc: &mut NodeAcc, case: &NodeCase) -> MatMultMeasurement {
    match *case {
        NodeCase::Single { n, version } => traced_single(t, acc, n, version),
        NodeCase::Blocked { n, tile } => traced_blocked(t, acc, n, tile),
        NodeCase::Dual {
            machine,
            n,
            version,
        } => traced_dual(t, acc, &machine.system(), n, version),
    }
}

/// Replays every pending trace's memory references through a fresh
/// memory system, serialised, each access issued when the last ends.
fn replay_pending(t: &mut Tracer, acc: &mut NodeAcc) {
    for r in std::mem::take(&mut acc.pending) {
        let mut mem = t.span("mem.build", |_| MemorySystem::new(r.config));
        let name = if r.single {
            "mem.replay_single"
        } else {
            "mem.replay_smp"
        };
        let end = t.span(name, |_| {
            let mut at = Time::ZERO;
            for &(store, addr) in &r.refs {
                let access = if store {
                    Access::write(addr)
                } else {
                    Access::read(addr)
                };
                at = mem.access(r.cpu, access, at).done_at;
            }
            at
        });
        black_box(end);
        let n = r.refs.len() as u64;
        if r.single {
            acc.replayed_single += n;
        } else {
            acc.replayed_smp += n;
        }
    }
}

/// How a per-round value combines across rounds.
#[derive(Clone, Copy)]
enum Kind {
    /// Host time: the fastest round.
    Fastest,
    /// Host-time ratio: the median round.
    Median,
    /// Simulated: identical in every round.
    Exact,
}

struct RoundMetric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    kind: Kind,
}

fn ratio(num: u64, den: u64) -> f64 {
    num as f64 / den.max(1) as f64
}

/// Untraced workload objects and their cold outputs.
struct Untraced {
    incache: (NodeMix, Vec<MatMultMeasurement>),
    smp: (NodeMix, Vec<MatMultMeasurement>),
    route: (Route1024, <Route1024 as Workload>::Output),
    fabric: (FabricTraffic, <FabricTraffic as Workload>::Output),
}

fn cold<W: Workload>(mut w: W) -> Result<(W, W::Output), String> {
    let out = w.run()?;
    w.verify(&out)?;
    Ok((w, out))
}

/// Times one untraced repetition, in ns, and checks it against the
/// cold one.
fn untraced_rep<W: Workload>((w, cold): &mut (W, W::Output), failed: &mut u64) -> u64 {
    let start = Instant::now();
    let out = w.run();
    let ns = start.elapsed().as_nanos() as u64;
    let ok = out.is_ok_and(|o| w.verify(&o).is_ok() && W::same(cold, &o));
    *failed += u64::from(!ok);
    ns
}

/// Simulated results of one traced round, beside the node counts.
struct RoundSim<'a> {
    inputs: &'a RouteInputs,
    clean: &'a RouteSimResult,
    res: &'a ResilientResult,
    reports: &'a [TrafficReport],
    scenarios: &'a [ScenarioConfig],
}

const CASE_SPANS: [&str; 4] = [
    "case.node_incache",
    "case.node_smp_mem",
    "case.route1024",
    "case.fabric_traffic",
];

/// Every per-layer metric of one round.
fn round_metrics(
    acc: &NodeAcc,
    tot: &BTreeMap<&'static str, Totals>,
    sim: &RoundSim,
    untraced_ns: u64,
) -> Vec<RoundMetric> {
    use Kind::{Exact, Fastest, Median};
    let ns = |name: &str| tot.get(name).map_or(0, |x| x.ns);
    let refs_copy = ns(REFS_COPY);
    let traced_ns = CASE_SPANS.iter().map(|n| ns(n)).sum::<u64>() - refs_copy;
    let layer_ns = CASE_SPANS
        .iter()
        .map(|n| tot.get(n).map_or(0, |x| x.ns - x.self_ns))
        .sum::<u64>()
        - refs_copy;
    let replay_single = ns("mem.replay_single");
    let replay_all = replay_single + ns("mem.replay_smp");
    let mem_builds = tot.get("mem.build").map_or(1, |x| x.count);
    let route_worms = (sim.inputs.clean.len() + sim.inputs.resilient.len()) as u64;
    let scenario_ns = ns("traffic.xbar") + ns("traffic.mesh") + ns("traffic.faults");
    let s = &acc.sim;
    let rs = &sim.res.stats;
    let clean_bytes: u64 = sim.inputs.clean.iter().map(|w| u64::from(w.payload)).sum();
    let on_time = sim.clean.on_time_bytes(&sim.inputs.clean, x14_deadline());
    let sum = |f: fn(&TrafficReport) -> u64| sim.reports.iter().map(f).sum::<u64>();
    let msgs = |i: usize| sim.scenarios[i].messages;

    let m = |name, value, unit, kind| RoundMetric {
        name,
        value,
        unit,
        kind,
    };
    vec![
        m(
            "isa.trace_build_ns_per_instr",
            ratio(ns("isa.trace_build"), acc.built_instrs),
            "ns/instr",
            Fastest,
        ),
        m("isa.trace_mb", s.max_trace_bytes as f64 / 1e6, "MB", Exact),
        m(
            "workloads.traffic_gen_ns_per_msg",
            ratio(ns("workloads.traffic_gen"), route_worms),
            "ns/msg",
            Fastest,
        ),
        m(
            "cpu.exec_ns_per_instr",
            ratio(ns("cpu.exec"), acc.exec_instrs),
            "ns/instr",
            Fastest,
        ),
        m(
            "cpu.self_ns_per_instr",
            (ns("cpu.exec") as f64 - replay_single as f64) / acc.exec_instrs.max(1) as f64,
            "ns/instr",
            Fastest,
        ),
        m(
            "cpu.smp_ns_per_instr",
            ratio(ns("cpu.smp"), acc.smp_instrs),
            "ns/instr",
            Fastest,
        ),
        m("cpu.sim_instrs", s.instrs as f64, "count", Exact),
        m("cpu.sim_cycles", s.cycles as f64, "cycles", Exact),
        m(
            "cpu.sim_ipc",
            ratio(s.instrs, s.cycles),
            "instr/cycle",
            Exact,
        ),
        m(
            "cpu.sim_operand_stall_ns",
            s.operand_stall_ps as f64 / 1e3,
            "sim_ns",
            Exact,
        ),
        m(
            "cpu.sim_unit_stall_ns",
            s.unit_stall_ps as f64 / 1e3,
            "sim_ns",
            Exact,
        ),
        m(
            "cpu.sim_frontend_stall_ns",
            s.frontend_stall_ps as f64 / 1e3,
            "sim_ns",
            Exact,
        ),
        m("cpu.sim_mispredicts", s.mispredicts as f64, "count", Exact),
        m(
            "mem.replay_ns_per_access",
            ratio(replay_all, acc.replayed_single + acc.replayed_smp),
            "ns/access",
            Fastest,
        ),
        m(
            "mem.build_s",
            ns("mem.build") as f64 / mem_builds as f64 / 1e9,
            "s",
            Fastest,
        ),
        m("mem.sim_accesses", s.l1_accesses as f64, "count", Exact),
        m(
            "mem.sim_l1_miss_rate",
            ratio(s.l1_misses, s.l1_accesses),
            "ratio",
            Exact,
        ),
        m(
            "mem.sim_l2_miss_rate",
            ratio(s.l2_misses, s.l2_accesses),
            "ratio",
            Exact,
        ),
        m(
            "mem.sim_tlb_miss_rate",
            ratio(s.tlb_misses, s.tlb_accesses),
            "ratio",
            Exact,
        ),
        m(
            "mem.sim_bus_addr_phases",
            s.bus_addr_phases as f64,
            "count",
            Exact,
        ),
        m(
            "mem.sim_bus_addr_wait_ns",
            s.bus_addr_wait_ps as f64 / 1e3,
            "sim_ns",
            Exact,
        ),
        m(
            "mem.sim_dram_bank_conflicts",
            s.dram_bank_conflicts as f64,
            "count",
            Exact,
        ),
        m(
            "mem.sim_interventions",
            s.interventions as f64,
            "count",
            Exact,
        ),
        m(
            "net.topology_build_s",
            ns("net.topology_build") as f64 / 1e9,
            "s",
            Fastest,
        ),
        m(
            "routesim.run_ns_per_worm",
            ratio(ns("routesim.run"), sim.inputs.clean.len() as u64),
            "ns/worm",
            Fastest,
        ),
        m(
            "routesim.resilient_ns_per_worm",
            ratio(
                ns("routesim.run_resilient"),
                sim.inputs.resilient.len() as u64,
            ),
            "ns/worm",
            Fastest,
        ),
        m(
            "routesim.sim_transmissions",
            rs.transmissions as f64,
            "count",
            Exact,
        ),
        m(
            "routesim.sim_useful_frac",
            ratio(rs.delivered, rs.transmissions),
            "ratio",
            Exact,
        ),
        m(
            "routesim.sim_failed_opens",
            rs.failed_opens as f64,
            "count",
            Exact,
        ),
        m("routesim.sim_severed", rs.severed as f64, "count", Exact),
        m(
            "routesim.sim_quarantines",
            rs.quarantines as f64,
            "count",
            Exact,
        ),
        m(
            "routesim.sim_reinstatements",
            rs.reinstatements as f64,
            "count",
            Exact,
        ),
        m(
            "routesim.sim_orphan_reclaims",
            rs.orphan_reclaims as f64,
            "count",
            Exact,
        ),
        m(
            "routesim.sim_availability",
            sim.res.availability(),
            "ratio",
            Exact,
        ),
        m(
            "routesim.sim_on_time_frac",
            ratio(on_time, clean_bytes),
            "ratio",
            Exact,
        ),
        m(
            "traffic.xbar_ns_per_msg",
            ratio(ns("traffic.xbar"), msgs(0)),
            "ns/msg",
            Fastest,
        ),
        m(
            "traffic.mesh_ns_per_msg",
            ratio(ns("traffic.mesh"), msgs(1)),
            "ns/msg",
            Fastest,
        ),
        m(
            "traffic.faults_ns_per_msg",
            ratio(ns("traffic.faults"), msgs(2)),
            "ns/msg",
            Fastest,
        ),
        m(
            "traffic.metrics_overhead_frac",
            ratio(ns("traffic.with_metrics"), scenario_ns) - 1.0,
            "ratio",
            Median,
        ),
        m(
            "traffic.sim_attempts",
            sum(|r| r.attempts) as f64,
            "count",
            Exact,
        ),
        m(
            "traffic.sim_useful_frac",
            ratio(sum(|r| r.delivered_messages), sum(|r| r.attempts)),
            "ratio",
            Exact,
        ),
        m(
            "traffic.sim_failovers",
            sum(|r| r.failovers) as f64,
            "count",
            Exact,
        ),
        m(
            "traffic.sim_reroutes",
            sum(|r| r.reroutes) as f64,
            "count",
            Exact,
        ),
        m(
            "traffic.sim_p99_latency_ns",
            sim.reports
                .iter()
                .map(TrafficReport::p99_latency_ns)
                .max()
                .unwrap_or(0) as f64,
            "sim_ns",
            Exact,
        ),
        m(
            "trace.overhead_frac",
            (traced_ns as f64 - untraced_ns as f64) / untraced_ns.max(1) as f64,
            "ratio",
            Median,
        ),
        m(
            "trace.unattributed_frac",
            (untraced_ns as f64 - layer_ns as f64) / untraced_ns.max(1) as f64,
            "ratio",
            Median,
        ),
    ]
}

/// Runs traced rounds for `seconds` (at least one) and reports every
/// per-layer metric.
pub fn run(seed: u64, seconds: f64) -> Result<Report, String> {
    let incache_cases = node_incache_cases(seed);
    let smp_cases = node_smp_mem_cases(seed);
    let scenarios = fabric_scenarios(seed);
    let mut u = Untraced {
        incache: cold(NodeMix::new(incache_cases.clone()))?,
        smp: cold(NodeMix::new(smp_cases.clone()))?,
        route: cold(Route1024::new(seed))?,
        fabric: cold(FabricTraffic::new(seed))?,
    };
    let mut digest = Fnv::new();
    for d in [
        Fnv::of(&u.incache.0),
        Fnv::of(&u.smp.0),
        Fnv::of(&u.route.0),
        Fnv::of(&u.fabric.0),
    ] {
        write!(digest, "{d:016x}").expect("hashing text cannot fail");
    }

    // The traced route passes run on a simulator of their own, warmed
    // by one pass as the untraced one is by its cold repetition.
    let topology = Topology::system1024();
    let mut sim = RouteSim::new(&topology);
    let inputs = RouteInputs::new(seed, &topology);
    black_box(sim.run(&inputs.clean, RoutePolicy::Adaptive));

    let mut t = Tracer::new();
    let mut attempted = 4u64;
    let mut failed = 0u64;
    let mut rounds: Vec<Vec<RoundMetric>> = Vec::new();
    let window = Instant::now();
    while rounds.is_empty() || window.elapsed().as_secs_f64() < seconds {
        let mark = t.mark();
        let mut acc = NodeAcc::default();
        let mut untraced_ns = 0u64;

        untraced_ns += untraced_rep(&mut u.incache, &mut failed);
        let out: Vec<_> = incache_cases
            .iter()
            .map(|case| {
                let m = t.span(CASE_SPANS[0], |t| traced_case(t, &mut acc, case));
                t.span("probe.mem", |t| replay_pending(t, &mut acc));
                m
            })
            .collect();
        failed += u64::from(out != u.incache.1);

        untraced_ns += untraced_rep(&mut u.smp, &mut failed);
        let out: Vec<_> = smp_cases
            .iter()
            .map(|case| {
                let m = t.span(CASE_SPANS[1], |t| traced_case(t, &mut acc, case));
                t.span("probe.mem", |t| replay_pending(t, &mut acc));
                m
            })
            .collect();
        failed += u64::from(out != u.smp.1);

        untraced_ns += untraced_rep(&mut u.route, &mut failed);
        let (clean, res) = t.span(CASE_SPANS[2], |t| {
            let clean = t.span("routesim.run", |_| {
                sim.run(&inputs.clean, RoutePolicy::Adaptive)
            });
            let res = t.span("routesim.run_resilient", |_| {
                sim.run_resilient(&inputs.resilient, &inputs.plan, &RouteInputs::config())
            });
            (clean, res)
        });
        let res = res.map_err(|e| format!("run_resilient: {e}"))?;
        let route_ok = verify_route(&inputs, &clean, &res).is_ok()
            && same_route(&clean, &u.route.1 .0)
            && same_resilient(&res, &u.route.1 .1);
        failed += u64::from(!route_ok);
        t.span("probe.route_setup", |t| {
            let topo = t.span("net.topology_build", |_| {
                let topo = Topology::system1024();
                black_box(RouteSim::new(&topo));
                topo
            });
            black_box(t.span("workloads.traffic_gen", |_| RouteInputs::new(seed, &topo)));
        });

        untraced_ns += untraced_rep(&mut u.fabric, &mut failed);
        let reports: Vec<_> = t.span(CASE_SPANS[3], |t| {
            scenarios
                .iter()
                .zip(["traffic.xbar", "traffic.mesh", "traffic.faults"])
                .map(|(cfg, name)| t.span(name, |_| run_scenario(cfg, None)))
                .collect()
        });
        let fabric_ok = reports == u.fabric.1
            && scenarios
                .iter()
                .zip(&reports)
                .all(|(c, r)| verify_report(c, r).is_ok());
        failed += u64::from(!fabric_ok);
        t.span("probe.metrics", |t| {
            for cfg in &scenarios {
                let mut reg = MetricRegistry::new();
                black_box(t.span("traffic.with_metrics", |_| {
                    run_scenario(cfg, Some(&mut reg))
                }));
            }
        });
        attempted += 8;

        let sim_out = RoundSim {
            inputs: &inputs,
            clean: &clean,
            res: &res,
            reports: &reports,
            scenarios: &scenarios,
        };
        rounds.push(round_metrics(
            &acc,
            &t.totals_since(mark),
            &sim_out,
            untraced_ns,
        ));
    }

    let path = std::path::Path::new(".bench_spans").join(format!("trace-seed{seed}.jsonl"));
    t.write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!(
        "perfbench: {} rounds, spans in {}",
        rounds.len(),
        path.display()
    );

    let mut metrics = Vec::new();
    for (i, m) in rounds[0].iter().enumerate() {
        let values: Vec<f64> = rounds.iter().map(|r| r[i].value).collect();
        let value = match m.kind {
            Kind::Fastest => values.iter().copied().fold(f64::INFINITY, f64::min),
            Kind::Median => median(&values),
            Kind::Exact => {
                if values.iter().any(|v| v.to_bits() != m.value.to_bits()) {
                    eprintln!(
                        "perfbench: simulated {} differs across rounds: {values:?}",
                        m.name
                    );
                    failed += 1;
                }
                m.value
            }
        };
        metrics.push(Metric::new(m.name, value, m.unit));
    }
    Ok(Report {
        attempted,
        failed,
        metrics,
        digest: digest.0,
    })
}
