//! Flit-level wormhole simulation of whole routes across a topology.
//!
//! [`crate::flitsim`] models contention inside *one* crossbar; the
//! hierarchical permutation network routes every worm through up to
//! three ([`crate::topology::MAX_ROUTE_CROSSBARS`]). This module
//! simulates the full route: a worm's route byte serialises over each
//! link, decodes at each crossbar, and claims each output port in turn.
//! A worm blocked at hop *k* keeps holding the ports of hops `0..k` —
//! the real wormhole dependency chains §3's blocking argument is about
//! — and queues FIFO on the contended output until its holder's close
//! byte releases it.
//!
//! Built to scale: a 1024-node system keeps 1000+ worms in flight at
//! once, so the per-event path allocates nothing. Routes live in one
//! flat pooled arena (`Vec<Hop>` plus per-worm spans), waiter queues
//! are indexed by a prefix-sum port base instead of a map, arrivals
//! merge from a sorted cursor against the event heap
//! ([`pm_sim::event::EventQueue::pop_if_before`]), and a [`RouteSim`]
//! reused across runs recycles every buffer.
//!
//! There is one event loop. [`RouteSim::run_resilient`] arms a fault
//! layer on it — link deaths and repairs, transient corruption, per-
//! source health tables, retransmission and a progress watchdog — and
//! [`RouteSim::run`] leaves it disarmed: no watchdog scans, no health
//! lookups, no link spans, no corruption draws.
//!
//! Routing is a policy decided at injection time:
//!
//! * [`RoutePolicy::Oblivious`] — always the first equivalent path in
//!   deterministic enumeration order (the fixed middle crossbar a
//!   source would be wired to use).
//! * [`RoutePolicy::Adaptive`] — consult the live crossbars: skip
//!   candidates with a held output, rank the rest by the sum of
//!   [`Crossbar::port_conflicts`] over their output ports (the
//!   per-port counters the observability layer publishes), and take
//!   the least-conflicted, first on ties. On an idle network this
//!   degrades to the oblivious choice.
//!
//! Deadlock freedom: worms acquire ports level by level (cluster
//! uplink, middle, cluster downlink), and every route walks levels in
//! the same order on the hierarchical topologies, so hold-and-wait
//! cycles cannot form. The simulator asserts every worm completes; a
//! topology with cyclic acquisition orders would trip that assert
//! rather than hang.

use crate::crossbar::Crossbar;
use crate::fault::{FaultPlan, FaultPlanError, LinkRef, TransientInjector};
use crate::health::{HealthConfig, HealthTable};
use crate::outcome::TransferOutcome;
use crate::topology::{Endpoint, Hop, LinkKey, NodeId, Topology};
use pm_sim::event::EventQueue;
use pm_sim::metrics::MetricRegistry;
use pm_sim::time::{Duration, Time};
use std::collections::VecDeque;

/// One worm to inject: a full-route message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Worm {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Network plane (0 or 1).
    pub plane: u32,
    /// Payload bytes (excluding route and close bytes).
    pub payload: u32,
    /// When its route byte reaches the source link interface.
    pub inject_at: Time,
}

/// How a worm picks among equivalent permutation-network paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RoutePolicy {
    /// First path in deterministic enumeration order, always.
    Oblivious,
    /// Skip held paths, then least conflict-count, first on ties.
    Adaptive,
}

/// Result of simulating a worm batch over a topology.
#[derive(Clone, Debug)]
pub struct RouteSimResult {
    /// Per-worm completion times (last payload byte out of the final
    /// crossbar), in the order worms were supplied.
    pub completions: Vec<Time>,
    /// The makespan: when the last worm completed.
    pub finished_at: Time,
    /// Total payload bytes moved.
    pub payload_bytes: u64,
    /// Most worms simultaneously holding their complete route at any
    /// instant (established and streaming).
    pub peak_inflight: usize,
    /// Route commands that waited for a busy output, summed over every
    /// crossbar (the same counters [`Crossbar::conflicts`] reports).
    pub conflicts: u64,
    /// Worms the adaptive policy steered off the oblivious first path.
    pub detours: u64,
}

impl RouteSimResult {
    /// Aggregate throughput over the makespan, in Mbyte/s.
    pub fn throughput_mbs(&self) -> f64 {
        if self.finished_at == Time::ZERO {
            return 0.0;
        }
        self.payload_bytes as f64 / self.finished_at.as_secs_f64() / 1e6
    }

    /// On-time payload bytes: worms whose last byte arrived within
    /// `deadline` of injection.
    ///
    /// # Panics
    ///
    /// Panics if `worms` disagrees in length with the simulated batch.
    pub fn on_time_bytes(&self, worms: &[Worm], deadline: Duration) -> u64 {
        assert_eq!(worms.len(), self.completions.len(), "batch mismatch");
        worms
            .iter()
            .zip(&self.completions)
            .filter(|(w, &done)| done <= w.inject_at + deadline)
            .map(|(w, _)| u64::from(w.payload))
            .sum()
    }
}

/// Whose knowledge drives route-around decisions in
/// [`RouteSim::run_resilient`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailoverMode {
    /// Route selection reads the true dead-link set the instant a death
    /// fires — an upper bound no real machine achieves (the schedule is
    /// information the hardware cannot have).
    Oracle,
    /// Route selection consults only the source's own [`HealthTable`],
    /// fed exclusively by its failed opens and delivery timeouts. Every
    /// route-around traces to an observed symptom.
    Detected,
}

/// Capped exponential backoff with optional deterministic jitter: the
/// gap a sender waits between retransmission attempts. The machine's
/// one backoff type — resilient route runs and `pm_comm`'s reliable
/// transports both space their retries with it.
///
/// Jitter matters on a shared fabric: without it, worms severed by the
/// same link death retry in lockstep and re-collide on the surviving
/// routes (synchronized retry storms). With a `jitter` seed the gap is
/// drawn uniformly from `[backoff/2, backoff]` by a splitmix64 hash of
/// `(seed, salt, attempt)` — deterministic per transfer, decorrelated
/// across transfers. Without one, the gap is exactly the backoff.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetransmitPolicy {
    /// Total transmission attempts (first try included) before the
    /// transfer is dropped.
    pub max_attempts: u32,
    /// Backoff ceiling for attempt 1; doubles per attempt.
    pub initial_backoff: Duration,
    /// Saturation cap on the doubling.
    pub max_backoff: Duration,
    /// `Some(seed)` jitters every gap, the seed decorrelating this
    /// run's jitter from other runs'; `None` keeps the exact doubling.
    pub jitter: Option<u64>,
}

impl Default for RetransmitPolicy {
    /// The route simulator's policy: 16 attempts, 2 µs doubling to a
    /// 256 µs cap, jittered.
    fn default() -> Self {
        RetransmitPolicy {
            max_attempts: 16,
            initial_backoff: Duration::from_us(2),
            max_backoff: Duration::from_us(256),
            jitter: Some(0x5EED),
        }
    }
}

impl RetransmitPolicy {
    /// Gap before the attempt after `attempt` (1-based) for the
    /// transfer identified by `salt`: capped exponential, jittered into
    /// `[backoff/2, backoff]` if the policy has a jitter seed.
    pub fn gap_after(&self, salt: u64, attempt: u32) -> Duration {
        let doublings = attempt.saturating_sub(1).min(20);
        let raw = self
            .initial_backoff
            .as_ps()
            .saturating_mul(1u64 << doublings);
        let backoff = raw.min(self.max_backoff.as_ps());
        let Some(seed) = self.jitter else {
            return Duration::from_ps(backoff);
        };
        let lo = backoff / 2;
        let span = backoff - lo + 1;
        let h = mix64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (u64::from(attempt) << 32));
        Duration::from_ps(lo + h % span)
    }
}

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mix.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Progress-watchdog policy: scan cadence and the no-progress window
/// after which a blocked worm is declared stalled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Interval between watchdog scans (also the port-timeout latency
    /// bound for reclaiming orphaned ports).
    pub scan_period: Duration,
    /// A blocked worm whose progress epoch has not advanced between
    /// scans and which has waited at least this long is stalled.
    pub stall_threshold: Duration,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            scan_period: Duration::from_us(250),
            stall_threshold: Duration::from_ms(5),
        }
    }
}

/// Everything [`RouteSim::run_resilient`] needs beyond the worm batch
/// and the fault plan.
#[derive(Clone, Copy, Debug)]
pub struct ResilienceConfig {
    /// Route-selection policy among healthy candidates.
    pub policy: RoutePolicy,
    /// Oracle or detected failover (see [`FailoverMode`]).
    pub failover: FailoverMode,
    /// Retransmission attempts and backoff jitter.
    pub retry: RetransmitPolicy,
    /// How long the source waits for the route-byte acknowledgement of
    /// a hop before declaring the open failed.
    pub open_timeout: Duration,
    /// How long after a mid-stream sever the source's delivery timeout
    /// lapses (the CRC trailer never arrives).
    pub sever_timeout: Duration,
    /// Quarantine policy for the per-source health tables.
    pub health: HealthConfig,
    /// Watchdog scan cadence and stall threshold.
    pub watchdog: WatchdogConfig,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            policy: RoutePolicy::Adaptive,
            failover: FailoverMode::Detected,
            retry: RetransmitPolicy::default(),
            open_timeout: Duration::from_us(5),
            sever_timeout: Duration::from_us(20),
            health: HealthConfig::default(),
            watchdog: WatchdogConfig::default(),
        }
    }
}

/// Conservation ledger for one resilient run. Everything the registry
/// publishes reconciles bit-exact against the outcomes:
/// `offered == delivered + dropped` (and likewise for bytes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Worms submitted.
    pub offered: u64,
    /// Payload bytes submitted.
    pub offered_bytes: u64,
    /// Worms delivered intact (exactly once).
    pub delivered: u64,
    /// Payload bytes delivered intact.
    pub delivered_bytes: u64,
    /// Worms dropped after exhausting retransmission attempts.
    pub dropped: u64,
    /// Payload bytes dropped.
    pub dropped_bytes: u64,
    /// Transmission attempts started (≥ offered).
    pub transmissions: u64,
    /// Opens that timed out on a dead link mid-acquisition.
    pub failed_opens: u64,
    /// In-flight worms cut by a link death.
    pub severed: u64,
    /// Deliveries rejected by the CRC trailer (transient corruption).
    pub corrupted: u64,
    /// Link deaths applied from the plan.
    pub link_downs: u64,
    /// Scheduled repairs applied.
    pub repairs: u64,
    /// Fresh health-table quarantines (first failure of a link).
    pub quarantines: u64,
    /// Route picks forced onto quarantined links because every
    /// candidate on both planes was suspect.
    pub forced_reprobes: u64,
    /// Health-table entries cleared by a successful delivery.
    pub reinstatements: u64,
    /// Watchdog scans executed.
    pub scans: u64,
    /// Orphaned ports (held by severed worms) reclaimed by the
    /// watchdog's port timeout.
    pub orphan_reclaims: u64,
    /// Stalled worms recovered by kill-and-retry.
    pub recoveries: u64,
}

impl ResilienceStats {
    /// Publishes the ledger under `prefix`: conservation counters at
    /// the root, detection counters under `health/`, recovery counters
    /// under `watchdog/`.
    pub fn publish(&self, registry: &mut MetricRegistry, prefix: &str) {
        registry.count(&format!("{prefix}/offered"), self.offered);
        registry.count(&format!("{prefix}/offered_bytes"), self.offered_bytes);
        registry.count(&format!("{prefix}/delivered"), self.delivered);
        registry.count(&format!("{prefix}/delivered_bytes"), self.delivered_bytes);
        registry.count(&format!("{prefix}/dropped"), self.dropped);
        registry.count(&format!("{prefix}/dropped_bytes"), self.dropped_bytes);
        registry.count(&format!("{prefix}/transmissions"), self.transmissions);
        registry.count(&format!("{prefix}/severed"), self.severed);
        registry.count(&format!("{prefix}/corrupted"), self.corrupted);
        registry.count(&format!("{prefix}/link_downs"), self.link_downs);
        registry.count(&format!("{prefix}/repairs"), self.repairs);
        registry.count(&format!("{prefix}/health/failed_opens"), self.failed_opens);
        registry.count(&format!("{prefix}/health/quarantines"), self.quarantines);
        registry.count(
            &format!("{prefix}/health/forced_reprobes"),
            self.forced_reprobes,
        );
        registry.count(
            &format!("{prefix}/health/reinstatements"),
            self.reinstatements,
        );
        registry.count(&format!("{prefix}/watchdog/scans"), self.scans);
        registry.count(
            &format!("{prefix}/watchdog/orphan_reclaims"),
            self.orphan_reclaims,
        );
        registry.count(&format!("{prefix}/watchdog/recoveries"), self.recoveries);
    }
}

/// Terminal fate of one worm in a resilient run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WormOutcome {
    /// Delivered intact; the outcome carries attempts, failovers and
    /// CRC rejections along the way.
    Delivered(TransferOutcome),
    /// Dropped after exhausting retransmission attempts.
    Dropped {
        /// Attempts made before giving up.
        attempts: u32,
    },
}

impl WormOutcome {
    /// The delivery outcome, if the worm made it.
    pub fn delivered(&self) -> Option<&TransferOutcome> {
        match self {
            WormOutcome::Delivered(o) => Some(o),
            WormOutcome::Dropped { .. } => None,
        }
    }
}

/// Result of a resilient run: per-worm fates plus the conservation
/// ledger.
#[derive(Clone, Debug)]
pub struct ResilientResult {
    /// Per-worm terminal outcomes, in the order worms were supplied.
    pub outcomes: Vec<WormOutcome>,
    /// When the last successful delivery completed.
    pub finished_at: Time,
    /// Most worms simultaneously streaming at any instant.
    pub peak_inflight: usize,
    /// Route commands that waited for a busy output, summed over every
    /// crossbar.
    pub conflicts: u64,
    /// Worms the adaptive policy steered off the first healthy path.
    pub detours: u64,
    /// The conservation ledger.
    pub stats: ResilienceStats,
}

impl ResilientResult {
    /// Payload bytes delivered within `deadline` of injection.
    ///
    /// # Panics
    ///
    /// Panics if `worms` disagrees in length with the simulated batch.
    pub fn on_time_bytes(&self, worms: &[Worm], deadline: Duration) -> u64 {
        assert_eq!(worms.len(), self.outcomes.len(), "batch mismatch");
        worms
            .iter()
            .zip(&self.outcomes)
            .filter_map(|(w, o)| o.delivered().map(|d| (w, d)))
            .filter(|(w, d)| d.finished <= w.inject_at + deadline)
            .map(|(w, _)| u64::from(w.payload))
            .sum()
    }

    /// Fraction of offered payload bytes delivered intact (eventually,
    /// not necessarily on time).
    pub fn availability(&self) -> f64 {
        if self.stats.offered_bytes == 0 {
            return 1.0;
        }
        self.stats.delivered_bytes as f64 / self.stats.offered_bytes as f64
    }
}

/// Per-worm in-flight bookkeeping (pooled, reset per run).
#[derive(Clone, Copy, Debug, Default)]
struct WormState {
    /// Start of this worm's hop span in the route arena.
    span_start: usize,
    /// Number of hops in the span.
    span_len: usize,
    /// Hops whose output port is already claimed.
    acquired: usize,
    /// Head time: when the route byte is ready to cross the next link
    /// (or, while blocked, when it asked for the contended port).
    head_at: Time,
}

/// Lifecycle of a worm while the fault layer is armed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum RPhase {
    /// Not yet injected (or queued behind its source interface).
    #[default]
    Idle,
    /// Acquiring ports; waiting on a contended output.
    Blocked,
    /// Full route established; payload streaming.
    Streaming,
    /// Attempt failed; waiting out the retransmission backoff.
    Backoff,
    /// Terminal: delivered intact.
    Delivered,
    /// Terminal: retransmission attempts exhausted.
    Dropped,
}

/// Per-worm resilience bookkeeping (pooled, reset per run).
#[derive(Clone, Copy, Debug, Default)]
struct RWorm {
    phase: RPhase,
    /// Transmission attempts started.
    attempts: u32,
    /// CRC-rejected deliveries along the way.
    crc_failures: u32,
    /// Times this worm was cut mid-flight by a link death.
    severed: u32,
    /// Plane of the current attempt.
    plane: u32,
    /// Ever carried on the non-preferred plane.
    failed_over: bool,
    /// Ever carried off the first candidate (or off-plane).
    rerouted: bool,
    /// Start of the current attempt's link span in the link arena
    /// (`nlinks` keys: in-link of each hop, then the final out-link).
    lstart: usize,
    nlinks: usize,
    /// When the current attempt started (kill-and-retry targets the
    /// youngest stalled worm).
    started_at: Time,
    /// Progress epoch: bumps on every port acquisition.
    epoch: u64,
    /// Epoch observed by the previous watchdog scan.
    last_epoch: u64,
    /// Scheduled completion of the current streaming attempt (stale
    /// `Done` events are recognised by mismatch).
    done_at: Time,
}

/// A scheduled change to the physical link state.
#[derive(Clone, Copy, Debug)]
enum FaultChange {
    Down,
    Up,
}

/// Events of the run loop. A disarmed run only ever schedules `Done`;
/// the armed fault layer adds retries, link-state changes and watchdog
/// scans to the same heap.
#[derive(Clone, Copy, Debug)]
enum Event {
    /// A streaming worm's last byte reached the destination.
    Done(usize),
    /// A backoff lapsed; retransmit.
    Retry(usize),
    /// Apply entry `i` of the resolved fault schedule.
    Fault(usize),
    /// Watchdog scan: reclaim orphans, kill-and-retry stalled worms.
    Scan,
}

/// Canonical link keys crossed by a hop span: the in-link of each hop
/// followed by the final hop's out-link (`hops.len() + 1` keys).
fn hop_links(hops: &[Hop], links: &mut [LinkKey; 4]) -> usize {
    let n = hops.len();
    links[0] = (hops[0].xbar, hops[0].in_port);
    for j in 1..n {
        let a = (hops[j - 1].xbar, hops[j - 1].out_port);
        let b = (hops[j].xbar, hops[j].in_port);
        links[j] = a.min(b);
    }
    links[n] = (hops[n - 1].xbar, hops[n - 1].out_port);
    n + 1
}

/// A reusable multi-crossbar wormhole simulator over one topology.
///
/// Construction compiles the topology into flat adjacency tables (node
/// attachments per plane, crossbar-to-crossbar links in port order);
/// [`RouteSim::run`] then touches only vectors. Both entry points drive
/// one event loop; [`RouteSim::run_resilient`] arms the fault, health
/// and watchdog layer on top of it, and [`RouteSim::run`] leaves it
/// disarmed, so a fault-free run pays for none of it. Reuse across runs
/// recycles the route arena, waiter queues, event heap and crossbar
/// state — results are identical to a fresh simulator's.
pub struct RouteSim {
    /// Live crossbars, one per topology crossbar — the same counters
    /// the metrics layer publishes feed the adaptive policy.
    crossbars: Vec<Crossbar>,
    /// Global output-port index base per crossbar (prefix sums).
    port_base: Vec<usize>,
    /// `attach[plane][node]` = the cluster crossbar and port the node's
    /// plane interface is wired to.
    attach: [Vec<Option<(usize, u32)>>; 2],
    /// Per crossbar, in ascending port order: `(out_port, peer_xbar,
    /// peer_in_port)` for every crossbar-to-crossbar link.
    xbar_adj: Vec<Vec<(u32, usize, u32)>>,
    byte_time: Duration,

    // --- pooled per-run state ---
    /// Flat route arena: every worm's chosen hops, contiguous.
    arena: Vec<Hop>,
    states: Vec<WormState>,
    /// Per global output port: worm indices blocked on it, FIFO.
    waiters: Vec<VecDeque<usize>>,
    /// Per source node: worms queued behind the busy link interface.
    src_queue: Vec<VecDeque<usize>>,
    /// Per source node: a worm currently owns the link interface.
    src_busy: Vec<bool>,
    /// The event heap: completions, plus retries, link-state changes
    /// and watchdog scans while the fault layer is armed.
    events: EventQueue<Event>,
    /// Worm indices sorted by inject time (arrival cursor scratch).
    order: Vec<usize>,
    /// Candidate-route scratch: flat hops plus span bounds.
    cand_hops: Vec<Hop>,
    cand_spans: Vec<(usize, usize)>,
    /// Eligible-candidate scratch: indices into `cand_spans`.
    cand_ok: Vec<usize>,
    completions: Vec<Time>,
    finished_at: Time,
    inflight: usize,
    peak_inflight: usize,
    detours: u64,
    /// Worms not yet terminal.
    live: usize,
    /// The run's ledger (a disarmed run fills only the delivery
    /// counters).
    stats: ResilienceStats,
    /// The run's configuration; a disarmed run reads only its policy.
    cfg: ResilienceConfig,
    /// Whether faults, health tables and the watchdog are in play.
    armed: bool,

    // --- pooled fault-layer state (armed runs only) ---
    /// Per global output port: canonical key of the wired link, if any
    /// (fault-ref resolution).
    port_link: Vec<Option<LinkKey>>,
    /// Per-worm resilience bookkeeping.
    rstates: Vec<RWorm>,
    /// Flat link-key arena: every attempt's span, contiguous.
    link_arena: Vec<LinkKey>,
    /// Truth: links physically dead right now (small, scanned).
    dead: Vec<LinkKey>,
    /// Per source node: its learned view of link health.
    health: Vec<HealthTable>,
    /// Ports held by severed worms, awaiting the watchdog's port
    /// timeout: `(xbar, out_port)`.
    orphans: Vec<(usize, u32)>,
    /// Resolved fault schedule: time-sorted deaths and repairs.
    fault_sched: Vec<(Time, FaultChange, LinkKey)>,
    /// Transient-corruption stream for the current run.
    injector: Option<TransientInjector>,
}

impl RouteSim {
    /// Compiles `topology` into a simulator.
    ///
    /// # Panics
    ///
    /// Panics if the topology has no crossbars.
    pub fn new(topology: &Topology) -> Self {
        let nx = topology.crossbars();
        assert!(nx > 0, "topology has no crossbars");
        let nodes = topology.nodes();
        let mut crossbars = Vec::with_capacity(nx);
        let mut port_base = Vec::with_capacity(nx);
        let mut attach = [vec![None; nodes], vec![None; nodes]];
        let mut xbar_adj: Vec<Vec<(u32, usize, u32)>> = vec![Vec::new(); nx];
        let mut port_link: Vec<Option<LinkKey>> = Vec::new();
        let mut total_ports = 0usize;
        for (x, adj) in xbar_adj.iter_mut().enumerate() {
            let cfg = topology.crossbar_config(x);
            port_base.push(total_ports);
            total_ports += cfg.ports as usize;
            crossbars.push(Crossbar::new(cfg));
            for p in 0..cfg.ports {
                match topology.port_peer(x, p) {
                    Some((Endpoint::Node { node, link }, _)) => {
                        attach[link as usize][node] = Some((x, p));
                        port_link.push(Some((x, p)));
                    }
                    Some((Endpoint::Xbar { xbar, port }, _)) => {
                        adj.push((p, xbar, port));
                        port_link.push(Some((x, p).min((xbar, port))));
                    }
                    None => port_link.push(None),
                }
            }
        }
        RouteSim {
            crossbars,
            port_base,
            attach,
            xbar_adj,
            byte_time: crate::wire::WireConfig::synchronous().byte_time,
            arena: Vec::new(),
            states: Vec::new(),
            waiters: vec![VecDeque::new(); total_ports],
            src_queue: vec![VecDeque::new(); nodes],
            src_busy: vec![false; nodes],
            events: EventQueue::new(),
            order: Vec::new(),
            cand_hops: Vec::new(),
            cand_spans: Vec::new(),
            cand_ok: Vec::new(),
            completions: Vec::new(),
            finished_at: Time::ZERO,
            inflight: 0,
            peak_inflight: 0,
            detours: 0,
            live: 0,
            stats: ResilienceStats::default(),
            cfg: ResilienceConfig::default(),
            armed: false,
            port_link,
            rstates: Vec::new(),
            link_arena: Vec::new(),
            dead: Vec::new(),
            health: vec![HealthTable::new(); nodes],
            orphans: Vec::new(),
            fault_sched: Vec::new(),
            injector: None,
        }
    }

    /// Enumerates every equivalent path for `(src, dst, plane)` into the
    /// candidate scratch, in deterministic order: the shared-crossbar
    /// path if the endpoints sit on one crossbar, else direct two-hop
    /// links in port order, else three-hop paths through each middle
    /// crossbar in uplink-port order — the same precedence
    /// [`Topology::equivalent_routes`] uses.
    fn enumerate_candidates(&mut self, src: NodeId, dst: NodeId, plane: u32) {
        self.cand_hops.clear();
        self.cand_spans.clear();
        let pl = plane as usize;
        let (sx, sp) = self.attach[pl][src].expect("source not attached on this plane");
        let (dx, dp) = self.attach[pl][dst].expect("destination not attached on this plane");
        if sx == dx {
            self.cand_hops.push(Hop {
                xbar: sx,
                in_port: sp,
                out_port: dp,
            });
            self.cand_spans.push((0, 1));
            return;
        }
        for &(p, peer, q) in &self.xbar_adj[sx] {
            if peer == dx {
                let start = self.cand_hops.len();
                self.cand_hops.push(Hop {
                    xbar: sx,
                    in_port: sp,
                    out_port: p,
                });
                self.cand_hops.push(Hop {
                    xbar: dx,
                    in_port: q,
                    out_port: dp,
                });
                self.cand_spans.push((start, 2));
            }
        }
        if !self.cand_spans.is_empty() {
            return;
        }
        for m in 0..self.xbar_adj[sx].len() {
            let (p, mid, q) = self.xbar_adj[sx][m];
            if mid == dx {
                continue;
            }
            // First link from the middle toward the destination crossbar
            // (hierarchical topologies have exactly one).
            let Some(&(r, _, s)) = self.xbar_adj[mid].iter().find(|&&(_, peer, _)| peer == dx)
            else {
                continue;
            };
            let start = self.cand_hops.len();
            self.cand_hops.push(Hop {
                xbar: sx,
                in_port: sp,
                out_port: p,
            });
            self.cand_hops.push(Hop {
                xbar: mid,
                in_port: q,
                out_port: r,
            });
            self.cand_hops.push(Hop {
                xbar: dx,
                in_port: s,
                out_port: dp,
            });
            self.cand_spans.push((start, 3));
        }
        assert!(
            !self.cand_spans.is_empty(),
            "no path from node {src} to node {dst} on plane {plane}"
        );
    }

    /// Chooses among the candidates in `cand_ok` per the run's policy.
    /// Oblivious takes the first. Adaptive prefers free paths by least
    /// conflict-sum; if every path has a held output, it takes the one
    /// with the fewest held hops (it frees soonest in expectation),
    /// conflicts as the tiebreak. `(held, conflicts, index)` sorts all
    /// of that lexicographically without allocating. `None` if no
    /// candidate survived the health filter.
    fn choose_candidate(&mut self) -> Option<usize> {
        match self.cfg.policy {
            RoutePolicy::Oblivious => self.cand_ok.first().copied(),
            RoutePolicy::Adaptive => {
                let mut best: Option<(usize, u64, usize)> = None;
                for &i in &self.cand_ok {
                    let (start, len) = self.cand_spans[i];
                    let mut held = 0usize;
                    let mut conflicts = 0u64;
                    for h in &self.cand_hops[start..start + len] {
                        let xb = &self.crossbars[h.xbar];
                        held += usize::from(xb.is_held(h.out_port));
                        conflicts += xb.port_conflicts(h.out_port);
                    }
                    let key = (held, conflicts, i);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
                let (_, _, i) = best?;
                if i != 0 {
                    self.detours += 1;
                }
                Some(i)
            }
        }
    }

    /// Simulates one worm batch under `policy` on a fault-free network:
    /// the shared run loop with the fault layer disarmed. Results are
    /// identical to a fresh simulator's — reuse only recycles
    /// allocations.
    ///
    /// # Panics
    ///
    /// Panics if a worm references a node or plane the topology does
    /// not attach, if no path exists, or if the topology's port
    /// acquisition order admits a hold-and-wait cycle (wormhole
    /// deadlock — impossible on the hierarchical configurations).
    pub fn run(&mut self, worms: &[Worm], policy: RoutePolicy) -> RouteSimResult {
        self.reset(
            worms,
            ResilienceConfig {
                policy,
                ..ResilienceConfig::default()
            },
        );
        self.drive(worms);
        RouteSimResult {
            completions: std::mem::take(&mut self.completions),
            finished_at: self.finished_at,
            payload_bytes: self.stats.delivered_bytes,
            peak_inflight: self.peak_inflight,
            conflicts: self.crossbars.iter().map(Crossbar::conflicts).sum(),
            detours: self.detours,
        }
    }

    /// Simulates `worms` under `plan`'s faults with retransmission and
    /// — in [`FailoverMode::Detected`] — purely symptom-driven
    /// route-around: the fault schedule only moves physical link state;
    /// route selection sees it exclusively through the per-source
    /// [`HealthTable`]s. This is [`RouteSim::run`]'s loop with the
    /// fault layer armed.
    ///
    /// # Errors
    ///
    /// [`FaultPlanError::ZeroScanPeriod`] or
    /// [`FaultPlanError::ZeroAttempts`] if `cfg` would reschedule the
    /// watchdog at the same instant forever or never transmit;
    /// [`FaultPlanError::UnknownLink`] if the plan names a link this
    /// topology lacks (application-time validation).
    ///
    /// # Panics
    ///
    /// Panics on unattached worm endpoints, as [`RouteSim::run`] does.
    pub fn run_resilient(
        &mut self,
        worms: &[Worm],
        plan: &FaultPlan,
        cfg: &ResilienceConfig,
    ) -> Result<ResilientResult, FaultPlanError> {
        if cfg.watchdog.scan_period == Duration::ZERO {
            return Err(FaultPlanError::ZeroScanPeriod);
        }
        if cfg.retry.max_attempts == 0 {
            return Err(FaultPlanError::ZeroAttempts);
        }
        self.reset(worms, *cfg);
        self.arm(worms, plan)?;
        self.drive(worms);
        let outcomes = worms
            .iter()
            .enumerate()
            .map(|(w, worm)| {
                let rs = &self.rstates[w];
                match rs.phase {
                    RPhase::Delivered => {
                        let done = self.completions[w];
                        let mut o = TransferOutcome::streamed(
                            done,
                            done,
                            u64::from(worm.payload),
                            rs.plane,
                        );
                        o.attempts = rs.attempts;
                        o.crc_failures = rs.crc_failures;
                        o.severed = rs.severed;
                        o.failed_over = rs.failed_over;
                        o.rerouted = rs.rerouted;
                        WormOutcome::Delivered(o)
                    }
                    RPhase::Dropped => WormOutcome::Dropped {
                        attempts: rs.attempts,
                    },
                    phase => unreachable!("worm {w} ended in non-terminal phase {phase:?}"),
                }
            })
            .collect();
        Ok(ResilientResult {
            outcomes,
            finished_at: self.finished_at,
            peak_inflight: self.peak_inflight,
            conflicts: self.crossbars.iter().map(Crossbar::conflicts).sum(),
            detours: self.detours,
            stats: self.stats,
        })
    }

    /// Clears the pooled per-run state for `worms` under `cfg`, with
    /// the fault layer disarmed.
    fn reset(&mut self, worms: &[Worm], cfg: ResilienceConfig) {
        self.cfg = cfg;
        self.armed = false;
        for xb in &mut self.crossbars {
            xb.reset();
        }
        self.arena.clear();
        self.states.clear();
        self.states.resize(worms.len(), WormState::default());
        self.waiters.iter_mut().for_each(VecDeque::clear);
        self.src_queue.iter_mut().for_each(VecDeque::clear);
        self.src_busy.iter_mut().for_each(|b| *b = false);
        self.events.clear();
        self.order.clear();
        self.order.extend(0..worms.len());
        // Stable: simultaneous injections keep supplied order.
        self.order.sort_by_key(|&i| worms[i].inject_at);
        self.completions = vec![Time::ZERO; worms.len()];
        self.finished_at = Time::ZERO;
        self.inflight = 0;
        self.peak_inflight = 0;
        self.detours = 0;
        self.live = worms.len();
        self.stats = ResilienceStats::default();
    }

    /// Arms the fault layer for one resilient run: resolves the plan
    /// against the compiled topology, schedules its deaths and repairs
    /// plus the first watchdog scan, and clears the per-worm
    /// bookkeeping, health tables and transient injector.
    fn arm(&mut self, worms: &[Worm], plan: &FaultPlan) -> Result<(), FaultPlanError> {
        self.fault_sched.clear();
        for d in plan.schedule() {
            let key = self
                .resolve_link(d.link)
                .ok_or(FaultPlanError::UnknownLink(d.link))?;
            self.fault_sched.push((d.at, FaultChange::Down, key));
        }
        for r in plan.repairs() {
            let key = self
                .resolve_link(r.link)
                .ok_or(FaultPlanError::UnknownLink(r.link))?;
            self.fault_sched.push((r.at, FaultChange::Up, key));
        }
        // Stable: a death and repair at the same instant apply in
        // schedule order (deaths first), deterministically.
        self.fault_sched.sort_by_key(|&(at, _, _)| at);
        let sched = &self.fault_sched;
        self.events.schedule_batch(
            sched
                .iter()
                .enumerate()
                .map(|(i, &(at, _, _))| (at, Event::Fault(i))),
        );
        self.rstates.clear();
        self.rstates.resize(worms.len(), RWorm::default());
        self.link_arena.clear();
        self.dead.clear();
        self.orphans.clear();
        self.health.iter_mut().for_each(HealthTable::clear);
        self.injector = Some(TransientInjector::new(plan));
        self.stats.offered = worms.len() as u64;
        self.stats.offered_bytes = worms.iter().map(|w| u64::from(w.payload)).sum();
        if self.live > 0 {
            self.events
                .schedule(Time::ZERO + self.cfg.watchdog.scan_period, Event::Scan);
        }
        self.armed = true;
        Ok(())
    }

    /// The run loop: merges the sorted arrival cursor against the event
    /// heap until every worm is terminal.
    ///
    /// # Panics
    ///
    /// Panics if a worm never reaches a terminal state (wormhole
    /// deadlock: a cyclic port acquisition order).
    fn drive(&mut self, worms: &[Worm]) {
        let mut cursor = 0;
        while cursor < self.order.len() {
            let at = worms[self.order[cursor]].inject_at;
            if let Some((now, ev)) = self.events.pop_if_before(at) {
                self.on_event(worms, ev, now);
            } else {
                let w = self.order[cursor];
                cursor += 1;
                let src = worms[w].src;
                self.src_queue[src].push_back(w);
                if !self.src_busy[src] {
                    self.start_queued(worms, src, at);
                }
            }
        }
        while let Some((now, ev)) = self.events.pop() {
            self.on_event(worms, ev, now);
        }
        assert_eq!(
            self.live, 0,
            "wormhole deadlock: a worm never completed (cyclic port acquisition order)"
        );
    }

    /// The health table `src` learned during the last resilient run.
    /// Only [`FailoverMode::Detected`] runs ever write it; every
    /// resilient run clears it at start, so this reads the final state
    /// of the most recent run (convergence checks, diagnostics).
    pub fn health_table(&self, src: usize) -> &HealthTable {
        &self.health[src]
    }

    /// Resolves a fault-plan link reference against the compiled
    /// topology tables.
    fn resolve_link(&self, link: LinkRef) -> Option<LinkKey> {
        match link {
            LinkRef::NodeLink { node, plane } => {
                let lane = self.attach.get(plane as usize)?;
                let &(x, p) = lane.get(node)?.as_ref()?;
                Some((x, p))
            }
            LinkRef::XbarPort { xbar, port } => {
                if xbar >= self.crossbars.len() {
                    return None;
                }
                let base = self.port_base[xbar];
                let end = self
                    .port_base
                    .get(xbar + 1)
                    .copied()
                    .unwrap_or(self.port_link.len());
                let slot = base + port as usize;
                if slot >= end {
                    return None;
                }
                self.port_link[slot]
            }
        }
    }

    fn on_event(&mut self, worms: &[Worm], ev: Event, now: Time) {
        match ev {
            Event::Done(w) => self.on_complete(worms, w, now),
            Event::Retry(w) => {
                if self.rstates[w].phase == RPhase::Backoff {
                    self.start_attempt(worms, w, now);
                }
            }
            Event::Fault(i) => {
                let (_, change, key) = self.fault_sched[i];
                self.apply_fault(worms, change, key, now);
            }
            Event::Scan => self.watchdog_scan(worms, now),
        }
    }

    /// Starts the next queued worm at source `src`, if any.
    fn start_queued(&mut self, worms: &[Worm], src: NodeId, now: Time) {
        let Some(w) = self.src_queue[src].pop_front() else {
            return;
        };
        self.src_busy[src] = true;
        self.start_attempt(worms, w, now.max(worms[w].inject_at));
    }

    /// Begins one transmission attempt: pick a route, copy its hops into
    /// the arena, and start acquiring ports. Armed, the pick is one the
    /// failover mode permits and the attempt stamps its link span; with
    /// no permissible route (oracle view: everything dead), the attempt
    /// is spent and the worm backs off — a repair may land meanwhile.
    fn start_attempt(&mut self, worms: &[Worm], w: usize, now: Time) {
        let worm = worms[w];
        if self.armed {
            self.rstates[w].attempts += 1;
            self.rstates[w].started_at = now;
            self.stats.transmissions += 1;
        }
        let Some(pick) = self.pick_route(worm, now) else {
            self.retry_or_drop(worms, w, now);
            return;
        };
        let (start, len) = self.cand_spans[pick.index];
        let span_start = self.arena.len();
        self.arena
            .extend_from_slice(&self.cand_hops[start..start + len]);
        if self.armed {
            let mut links = [(0usize, 0u32); 4];
            let nlinks = hop_links(&self.cand_hops[start..start + len], &mut links);
            let lstart = self.link_arena.len();
            self.link_arena.extend_from_slice(&links[..nlinks]);
            self.stats.forced_reprobes += u64::from(pick.forced_reprobe);
            let rs = &mut self.rstates[w];
            rs.plane = pick.plane;
            rs.failed_over |= pick.plane != worm.plane;
            rs.rerouted |= pick.index != 0 || pick.plane != worm.plane;
            rs.lstart = lstart;
            rs.nlinks = nlinks;
            rs.phase = RPhase::Blocked;
        }
        self.states[w] = WormState {
            span_start,
            span_len: len,
            acquired: 0,
            head_at: now,
        };
        self.acquire(worms, w);
    }

    /// Picks a route for one attempt; the chosen span is
    /// `cand_spans[pick.index]`. Disarmed, every candidate on the
    /// worm's own plane is eligible. Armed, it tries the preferred
    /// plane then the other; on each, candidates whose links the
    /// failover mode considers bad are filtered before the policy
    /// chooses. In detected mode, if every candidate on both planes is
    /// quarantined, the pick is forced onto the candidate whose worst
    /// quarantine lapses soonest (a deliberate re-probe — without it a
    /// source whose whole view went dark could never recover).
    fn pick_route(&mut self, worm: Worm, now: Time) -> Option<Pick> {
        let planes = [worm.plane, 1 - worm.plane];
        let tried = if self.armed { 2 } else { 1 };
        for &plane in &planes[..tried] {
            self.enumerate_candidates(worm.src, worm.dst, plane);
            self.cand_ok.clear();
            for i in 0..self.cand_spans.len() {
                if !(self.armed && self.suspect(worm.src, i, now)) {
                    self.cand_ok.push(i);
                }
            }
            if let Some(index) = self.choose_candidate() {
                return Some(Pick {
                    plane,
                    index,
                    forced_reprobe: false,
                });
            }
        }
        if self.cfg.failover != FailoverMode::Detected {
            return None;
        }
        // Forced re-probe: everything this source knows is quarantined.
        let mut best: Option<(Time, usize, usize)> = None; // (lapse, plane_rank, index)
        for (rank, &plane) in planes.iter().enumerate() {
            self.enumerate_candidates(worm.src, worm.dst, plane);
            let mut links = [(0usize, 0u32); 4];
            for (i, &(start, len)) in self.cand_spans.iter().enumerate() {
                let n = hop_links(&self.cand_hops[start..start + len], &mut links);
                let lapse = links[..n]
                    .iter()
                    .filter_map(|&k| self.health[worm.src].quarantined_until(k))
                    .max()
                    .unwrap_or(Time::ZERO);
                let key = (lapse, rank, i);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        let (_, rank, index) = best?;
        let plane = planes[rank];
        self.enumerate_candidates(worm.src, worm.dst, plane);
        Some(Pick {
            plane,
            index,
            forced_reprobe: true,
        })
    }

    /// Whether candidate `i` crosses a link the failover mode considers
    /// bad for `src`: physically dead (oracle) or quarantined in the
    /// source's own health table (detected).
    fn suspect(&self, src: NodeId, i: usize, now: Time) -> bool {
        let (start, len) = self.cand_spans[i];
        let mut links = [(0usize, 0u32); 4];
        let n = hop_links(&self.cand_hops[start..start + len], &mut links);
        match self.cfg.failover {
            FailoverMode::Oracle => links[..n].iter().any(|k| self.dead.contains(k)),
            FailoverMode::Detected => links[..n]
                .iter()
                .any(|&k| self.health[src].is_quarantined(k, now)),
        }
    }

    /// Acquires output ports hop by hop from the worm's current
    /// position. Blocks (registers as a waiter, keeping earlier hops
    /// held) at the first held output; schedules completion after the
    /// last. Armed, every link is checked against the physical dead set
    /// before the route byte crosses it — a dead cable swallows the
    /// byte and the open times out at the source (this is *physics*,
    /// identical in both failover modes; only route *choice* differs
    /// between them).
    fn acquire(&mut self, worms: &[Worm], w: usize) {
        let mut st = self.states[w];
        let lstart = if self.armed {
            self.rstates[w].lstart
        } else {
            0
        };
        while st.acquired < st.span_len {
            // The route byte serialises over the incoming link first.
            let want = st.head_at + self.byte_time;
            if self.armed {
                let in_key = self.link_arena[lstart + st.acquired];
                if self.dead.contains(&in_key) {
                    self.states[w] = st;
                    self.fail_open(worms, w, in_key, want + self.cfg.open_timeout);
                    return;
                }
            }
            let h = self.arena[st.span_start + st.acquired];
            if self.crossbars[h.xbar].is_held(h.out_port) {
                st.head_at = want;
                self.states[w] = st;
                self.waiters[self.port_base[h.xbar] + h.out_port as usize].push_back(w);
                return;
            }
            let grant = self.crossbars[h.xbar].route(h.in_port, h.out_port, want);
            st.head_at = grant.established;
            st.acquired += 1;
            if self.armed {
                self.rstates[w].epoch += 1;
            }
        }
        self.states[w] = st;
        if self.armed {
            // Full route held: the final link into the destination node
            // must also be up before the payload can stream.
            let out_key = self.link_arena[lstart + st.span_len];
            if self.dead.contains(&out_key) {
                let detect_at = st.head_at + self.byte_time + self.cfg.open_timeout;
                self.fail_open(worms, w, out_key, detect_at);
                return;
            }
        }
        self.inflight += 1;
        self.peak_inflight = self.peak_inflight.max(self.inflight);
        // Cut-through: payload + close byte stream at link rate behind
        // the established head.
        let done = st.head_at + self.byte_time * (u64::from(worms[w].payload) + 1);
        if self.armed {
            self.rstates[w].phase = RPhase::Streaming;
            self.rstates[w].done_at = done;
        }
        self.events.schedule(done, Event::Done(w));
    }

    /// An open failed: the route byte vanished into `key` and the
    /// source's open timeout lapsed at `detect_at`. Tear down the
    /// partial route, record the symptom, retry.
    fn fail_open(&mut self, worms: &[Worm], w: usize, key: LinkKey, detect_at: Time) {
        self.stats.failed_opens += 1;
        self.rstates[w].phase = RPhase::Backoff;
        let acquired = self.states[w].acquired;
        self.release_span(worms, w, 0, acquired, detect_at);
        self.learn_failure(worms[w].src, key, detect_at);
        self.retry_or_drop(worms, w, detect_at);
    }

    /// Records a failure symptom in the source's health table (detected
    /// mode only — the oracle needs no ledger).
    fn learn_failure(&mut self, src: NodeId, key: LinkKey, at: Time) {
        if self.cfg.failover != FailoverMode::Detected {
            return;
        }
        if self.health[src].record_failure(key, at, &self.cfg.health) {
            self.stats.quarantines += 1;
        }
    }

    /// Releases hops `from..upto` of `w`'s span: close each output in
    /// order (staggered one byte time apart, like a close byte trailing
    /// through) and wake the longest-blocked waiter per freed port.
    fn release_span(&mut self, worms: &[Worm], w: usize, from: usize, upto: usize, at: Time) {
        let st = self.states[w];
        let mut close_at = at;
        for k in from..upto {
            let h = self.arena[st.span_start + k];
            self.crossbars[h.xbar].close(h.out_port, close_at);
            self.wake_waiter(worms, h.xbar, h.out_port);
            close_at += self.byte_time;
        }
    }

    /// Grants a freed port to its longest-blocked waiter, if any, and
    /// lets that worm continue acquiring. The waiter asked at its
    /// `head_at`; the wait until this close is what the crossbar
    /// conflict counters record.
    fn wake_waiter(&mut self, worms: &[Worm], xbar: usize, out_port: u32) {
        let port = self.port_base[xbar] + out_port as usize;
        let Some(waiter) = self.waiters[port].pop_front() else {
            return;
        };
        let ws = self.states[waiter];
        let wh = self.arena[ws.span_start + ws.acquired];
        let grant = self.crossbars[wh.xbar].route(wh.in_port, wh.out_port, ws.head_at);
        self.states[waiter].head_at = grant.established;
        self.states[waiter].acquired += 1;
        if self.armed {
            self.rstates[waiter].epoch += 1;
        }
        self.acquire(worms, waiter);
    }

    /// Spends the failed attempt: schedule a jittered-backoff retry, or
    /// drop the worm if its attempts are exhausted (freeing the source
    /// interface for its next queued worm).
    fn retry_or_drop(&mut self, worms: &[Worm], w: usize, now: Time) {
        if self.rstates[w].attempts >= self.cfg.retry.max_attempts {
            self.rstates[w].phase = RPhase::Dropped;
            self.stats.dropped += 1;
            self.stats.dropped_bytes += u64::from(worms[w].payload);
            self.live -= 1;
            let src = worms[w].src;
            self.src_busy[src] = false;
            self.start_queued(worms, src, now);
        } else {
            self.rstates[w].phase = RPhase::Backoff;
            let gap = self.cfg.retry.gap_after(w as u64, self.rstates[w].attempts);
            self.events.schedule(now + gap, Event::Retry(w));
        }
    }

    /// A streaming worm's last byte reached the destination: the close
    /// byte trails through the route releasing each output in order,
    /// and the source link interface frees for its next queued worm.
    /// Armed, stale events (the attempt was severed meanwhile) are
    /// ignored, and the destination checks the CRC trailer: transient
    /// corruption rejects the delivery and the source retransmits.
    fn on_complete(&mut self, worms: &[Worm], w: usize, now: Time) {
        if self.armed {
            let rs = &self.rstates[w];
            if rs.phase != RPhase::Streaming || rs.done_at != now {
                return;
            }
        }
        self.inflight -= 1;
        let span_len = self.states[w].span_len;
        self.release_span(worms, w, 0, span_len, now);
        let payload = worms[w].payload;
        let src = worms[w].src;
        if self.armed {
            let corrupted = self
                .injector
                .as_mut()
                .expect("armed runs carry an injector")
                .draw(payload as usize)
                .is_some();
            if corrupted {
                self.rstates[w].crc_failures += 1;
                self.rstates[w].phase = RPhase::Backoff;
                self.stats.corrupted += 1;
                self.retry_or_drop(worms, w, now);
                return;
            }
            self.rstates[w].phase = RPhase::Delivered;
            if self.cfg.failover == FailoverMode::Detected {
                // A delivery is positive evidence for every link it
                // crossed: lapsed-quarantine re-probes get reinstated.
                let (lstart, nlinks) = (self.rstates[w].lstart, self.rstates[w].nlinks);
                for &key in &self.link_arena[lstart..lstart + nlinks] {
                    if self.health[src].record_success(key) {
                        self.stats.reinstatements += 1;
                    }
                }
            }
        }
        self.completions[w] = now;
        self.finished_at = self.finished_at.max(now);
        self.stats.delivered += 1;
        self.stats.delivered_bytes += u64::from(payload);
        self.live -= 1;
        self.src_busy[src] = false;
        self.start_queued(worms, src, now);
    }

    /// Applies a scheduled physical link-state change. A death severs
    /// every worm whose occupied span crosses the link.
    fn apply_fault(&mut self, worms: &[Worm], change: FaultChange, key: LinkKey, now: Time) {
        match change {
            FaultChange::Up => {
                if let Some(i) = self.dead.iter().position(|&k| k == key) {
                    self.dead.swap_remove(i);
                    self.stats.repairs += 1;
                }
            }
            FaultChange::Down => {
                if self.dead.contains(&key) {
                    return;
                }
                self.dead.push(key);
                self.stats.link_downs += 1;
                for w in 0..worms.len() {
                    let (phase, lstart, nlinks) = {
                        let rs = &self.rstates[w];
                        (rs.phase, rs.lstart, rs.nlinks)
                    };
                    // Links the worm physically occupies right now: a
                    // streaming worm spans all of them; a blocked worm
                    // has crossed the in-links of its acquired hops plus
                    // the one it is asking over.
                    let occupied = match phase {
                        RPhase::Streaming => nlinks,
                        RPhase::Blocked => (self.states[w].acquired + 1).min(nlinks),
                        _ => continue,
                    };
                    let Some(cut) = (0..occupied).find(|&j| self.link_arena[lstart + j] == key)
                    else {
                        continue;
                    };
                    self.sever(worms, w, cut, now);
                }
            }
        }
    }

    /// Cuts worm `w` at link index `cut` of its span. Hops upstream of
    /// the cut are torn down by the source; hops at or past it are
    /// unreachable — their ports stay held (orphaned) until the
    /// watchdog's port timeout reclaims them. The source only learns of
    /// the loss when its delivery timeout lapses.
    fn sever(&mut self, worms: &[Worm], w: usize, cut: usize, now: Time) {
        let st = self.states[w];
        self.stats.severed += 1;
        self.rstates[w].severed += 1;
        let held = match self.rstates[w].phase {
            RPhase::Streaming => {
                self.inflight -= 1;
                st.span_len
            }
            RPhase::Blocked => {
                self.leave_waiter_queue(w);
                st.acquired
            }
            phase => unreachable!("severing a worm in phase {phase:?}"),
        };
        self.rstates[w].phase = RPhase::Backoff;
        let reachable = cut.min(held);
        self.release_span(worms, w, 0, reachable, now);
        for k in reachable..held {
            let h = self.arena[st.span_start + k];
            self.orphans.push((h.xbar, h.out_port));
        }
        let detect_at = now + self.cfg.sever_timeout;
        let key = self.link_arena[self.rstates[w].lstart + cut];
        self.learn_failure(worms[w].src, key, detect_at);
        self.retry_or_drop(worms, w, detect_at);
    }

    /// Removes blocked worm `w` from the waiter queue of the port it is
    /// asking for.
    fn leave_waiter_queue(&mut self, w: usize) {
        let st = self.states[w];
        let h = self.arena[st.span_start + st.acquired];
        let port = self.port_base[h.xbar] + h.out_port as usize;
        if let Some(pos) = self.waiters[port].iter().position(|&x| x == w) {
            self.waiters[port].remove(pos);
        }
    }

    /// One watchdog scan: reclaim every orphaned port (the hardware
    /// port timeout), then kill-and-retry at most one stalled worm —
    /// the *youngest* blocked worm whose progress epoch did not advance
    /// since the previous scan and whose wait exceeds the threshold.
    /// Killing the youngest frees the resources the oldest (closest to
    /// done) are waiting on without sacrificing their progress.
    fn watchdog_scan(&mut self, worms: &[Worm], now: Time) {
        self.stats.scans += 1;
        while let Some((xbar, port)) = self.orphans.pop() {
            self.crossbars[xbar].close(port, now);
            self.stats.orphan_reclaims += 1;
            self.wake_waiter(worms, xbar, port);
        }
        let mut victim: Option<(Time, usize)> = None;
        for w in 0..worms.len() {
            if self.rstates[w].phase != RPhase::Blocked {
                continue;
            }
            let progressed = self.rstates[w].epoch != self.rstates[w].last_epoch;
            self.rstates[w].last_epoch = self.rstates[w].epoch;
            if progressed {
                continue;
            }
            if self.states[w].head_at + self.cfg.watchdog.stall_threshold > now {
                continue;
            }
            let key = (self.rstates[w].started_at, w);
            if victim.is_none_or(|v| key > v) {
                victim = Some(key);
            }
        }
        if let Some((_, w)) = victim {
            // Kill the stalled worm — it leaves its waiter queue and
            // releases everything it holds (waking waiters) — and retry
            // it under the normal backoff, route re-picked from current
            // knowledge. No payload was streaming, so nothing is lost.
            self.stats.recoveries += 1;
            self.leave_waiter_queue(w);
            self.rstates[w].phase = RPhase::Backoff;
            let acquired = self.states[w].acquired;
            self.release_span(worms, w, 0, acquired, now);
            self.retry_or_drop(worms, w, now);
        }
        if self.live > 0 {
            self.events
                .schedule(now + self.cfg.watchdog.scan_period, Event::Scan);
        }
    }
}

/// A chosen route for one attempt: its plane, its index in the
/// candidate scratch, and whether it was a forced re-probe.
struct Pick {
    plane: u32,
    index: usize,
    forced_reprobe: bool,
}

/// A perfect hierarchical permutation: node `(c, l)` sends to local
/// index `l` of cluster `(c + l + 1) mod clusters` — with `per` locals
/// per cluster and at least `per` middle crossbars, a greedy adaptive
/// policy finds a conflict-free matching that keeps every worm in
/// flight simultaneously.
pub fn permutation_worms(
    clusters: usize,
    per: usize,
    payload: u32,
    plane: u32,
    inject_at: Time,
) -> Vec<Worm> {
    let mut out = Vec::with_capacity(clusters * per);
    for c in 0..clusters {
        for l in 0..per {
            let dst_cluster = (c + l + 1) % clusters;
            out.push(Worm {
                src: c * per + l,
                dst: dst_cluster * per + l,
                plane,
                payload,
                inject_at,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossbar::CrossbarConfig;

    fn sim128() -> (Topology, RouteSim) {
        let t = Topology::system256();
        let s = RouteSim::new(&t);
        (t, s)
    }

    fn worm(src: usize, dst: usize, payload: u32, inject_at: Time) -> Worm {
        Worm {
            src,
            dst,
            plane: 0,
            payload,
            inject_at,
        }
    }

    /// `count` worms between distinct random nodes of `system256()`,
    /// injected uniformly over the first `spread_ns` nanoseconds.
    fn random_worms(seed: u64, count: usize, payload: u32, spread_ns: u64) -> Vec<Worm> {
        let mut rng = pm_sim::rng::SimRng::seed_from(seed);
        (0..count)
            .map(|_| {
                let src = rng.gen_range(0, 128) as usize;
                let mut dst = rng.gen_range(0, 128) as usize;
                if dst == src {
                    dst = (dst + 1) % 128;
                }
                let at = Time::ZERO + Duration::from_ns(rng.gen_range(0, spread_ns));
                worm(src, dst, payload, at)
            })
            .collect()
    }

    #[test]
    fn candidate_enumeration_matches_equivalent_routes() {
        let (t, mut s) = sim128();
        for &(src, dst, plane) in &[(0usize, 127usize, 0u32), (3, 77, 1), (8, 9, 0), (0, 7, 1)] {
            let expect = t.equivalent_routes(src, dst, plane, &Default::default());
            s.enumerate_candidates(src, dst, plane);
            assert_eq!(
                s.cand_spans.len(),
                expect.len(),
                "{src}->{dst} plane {plane}"
            );
            for (i, r) in expect.iter().enumerate() {
                let (start, len) = s.cand_spans[i];
                assert_eq!(&s.cand_hops[start..start + len], &r.hops[..]);
            }
        }
    }

    #[test]
    fn single_worm_timing_matches_route_length() {
        // Three crossbars: the route byte serialises over three links
        // and decodes three times before the payload streams.
        let (t, mut s) = sim128();
        let route = t.route(0, 127, 0).expect("routes exist");
        assert_eq!(route.crossbars(), 3);
        let worms = vec![worm(0, 127, 64, Time::ZERO)];
        let r = s.run(&worms, RoutePolicy::Oblivious);
        let bt = crate::wire::WireConfig::synchronous().byte_time;
        let decode = CrossbarConfig::powermanna().route_time;
        let expect = Time::ZERO + bt * 3 + decode * 3 + bt * 65;
        assert_eq!(r.completions[0], expect);
        assert_eq!(r.peak_inflight, 1);
        assert_eq!(r.conflicts, 0);
    }

    #[test]
    fn permutation_keeps_every_worm_in_flight_adaptively() {
        let t = Topology::system1024();
        let mut s = RouteSim::new(&t);
        let worms = permutation_worms(128, 8, 4096, 0, Time::ZERO);
        assert_eq!(worms.len(), 1024);
        let r = s.run(&worms, RoutePolicy::Adaptive);
        assert_eq!(r.completions.len(), 1024);
        assert!(
            r.peak_inflight >= 1000,
            "adaptive routing should keep 1000+ worms in flight, got {}",
            r.peak_inflight
        );
        assert!(r.detours > 0, "spreading over middles requires detours");
    }

    #[test]
    fn adaptive_beats_oblivious_under_contention() {
        // Every source in cluster 0 sends to a distinct cluster: the
        // oblivious policy funnels all eight worms through the uplink
        // to middle 0; adaptive spreads them over all eight middles.
        let (_, mut s) = sim128();
        let worms: Vec<Worm> = (0..8)
            .map(|l| worm(l, (l + 1) * 8 + l, 1024, Time::ZERO))
            .collect();
        let obl = s.run(&worms, RoutePolicy::Oblivious);
        let ada = s.run(&worms, RoutePolicy::Adaptive);
        assert!(
            ada.detours > 0,
            "adaptive should reroute off the shared uplink"
        );
        assert!(
            ada.finished_at < obl.finished_at,
            "adaptive {} must beat oblivious {}",
            ada.finished_at,
            obl.finished_at
        );
        assert!(ada.conflicts < obl.conflicts);
        assert_eq!(obl.detours, 0);
    }

    #[test]
    fn reused_simulator_matches_fresh_runs() {
        let t = Topology::system256();
        let mut reused = RouteSim::new(&t);
        for seed in [1u64, 2, 3] {
            let worms = random_worms(seed, 200, 256, 10_000);
            for policy in [RoutePolicy::Oblivious, RoutePolicy::Adaptive] {
                let fresh = RouteSim::new(&t).run(&worms, policy);
                let again = reused.run(&worms, policy);
                assert_eq!(fresh.completions, again.completions);
                assert_eq!(fresh.peak_inflight, again.peak_inflight);
                assert_eq!(fresh.conflicts, again.conflicts);
                assert_eq!(fresh.detours, again.detours);
            }
        }
    }

    #[test]
    fn blocked_worm_queues_and_completes_after_holder() {
        // Two worms to the same destination node: the second must wait
        // for the first's close on the final output port.
        let (_, mut s) = sim128();
        let worms = vec![worm(0, 127, 4096, Time::ZERO), worm(1, 127, 64, Time::ZERO)];
        let r = s.run(&worms, RoutePolicy::Adaptive);
        assert!(r.completions[1] > r.completions[0]);
        assert!(r.conflicts >= 1);
        assert_eq!(r.payload_bytes, 4096 + 64);
    }

    #[test]
    fn source_serialises_its_own_worms() {
        let (_, mut s) = sim128();
        let worms = vec![worm(0, 100, 2048, Time::ZERO), worm(0, 90, 64, Time::ZERO)];
        let r = s.run(&worms, RoutePolicy::Adaptive);
        // Head-of-line at the source: the second worm starts only after
        // the first completes, even though the adaptive policy could
        // have given it a network path disjoint from the first's.
        assert!(r.completions[1] > r.completions[0]);
    }

    #[test]
    fn on_time_bytes_respects_the_deadline() {
        let (_, mut s) = sim128();
        let worms = vec![worm(0, 127, 4096, Time::ZERO), worm(1, 127, 64, Time::ZERO)];
        let r = s.run(&worms, RoutePolicy::Adaptive);
        let all = r.on_time_bytes(&worms, Duration::from_us(100_000));
        assert_eq!(all, 4096 + 64);
        // A deadline only the unblocked worm meets drops the other's
        // payload from the on-time ledger.
        let tight = r.completions[0].since(Time::ZERO);
        assert_eq!(r.on_time_bytes(&worms, tight), 4096);
    }

    // --- resilient runs ---

    fn assert_conserved(r: &ResilientResult) {
        assert_eq!(r.stats.offered, r.stats.delivered + r.stats.dropped);
        assert_eq!(
            r.stats.offered_bytes,
            r.stats.delivered_bytes + r.stats.dropped_bytes
        );
        let delivered_bytes: u64 = r
            .outcomes
            .iter()
            .filter_map(|o| o.delivered().map(|d| d.bytes))
            .sum();
        assert_eq!(delivered_bytes, r.stats.delivered_bytes);
    }

    #[test]
    fn severed_worm_fails_over_to_the_other_plane() {
        let (_, mut s) = sim128();
        let worms = vec![worm(0, 127, 4096, Time::ZERO)];
        // Kill the source's plane-0 cable while the payload streams
        // (the worm establishes in under a microsecond and streams for
        // ~68 us).
        let plan = FaultPlan::clean(7).kill_link(
            Time::ZERO + Duration::from_us(30),
            LinkRef::NodeLink { node: 0, plane: 0 },
        );
        let cfg = ResilienceConfig::default();
        let r = s.run_resilient(&worms, &plan, &cfg).expect("plan valid");
        let d = r.outcomes[0].delivered().expect("retransmission delivers");
        assert_eq!(d.attempts, 2);
        assert_eq!(d.severed, 1);
        assert!(d.failed_over, "plane 0 is quarantined at the source");
        assert_eq!(d.plane, 1);
        assert_eq!(r.stats.severed, 1);
        assert_eq!(r.stats.link_downs, 1);
        assert_eq!(r.stats.quarantines, 1);
        // All three hops were downstream of the cut: orphaned, then
        // reclaimed by the watchdog's port timeout.
        assert_eq!(r.stats.orphan_reclaims, 3);
        assert_conserved(&r);
    }

    #[test]
    fn failed_open_is_learned_and_avoided() {
        let (t, mut s) = sim128();
        // Kill the first candidate's uplink-to-middle cable before any
        // worm starts.
        let route = &t.equivalent_routes(0, 127, 0, &Default::default())[0];
        let keys = t.route_link_keys(route);
        let (xbar, port) = keys[1];
        let plan = FaultPlan::clean(7).kill_link(Time::ZERO, LinkRef::XbarPort { xbar, port });
        let worms = vec![
            worm(0, 127, 1024, Time::ZERO + Duration::from_us(1)),
            worm(0, 127, 1024, Time::ZERO + Duration::from_us(2)),
        ];
        let cfg = ResilienceConfig {
            policy: RoutePolicy::Oblivious,
            ..ResilienceConfig::default()
        };
        let r = s.run_resilient(&worms, &plan, &cfg).expect("plan valid");
        // The first worm probes the dead uplink (one failed open), and
        // its quarantine spares the second worm the probe entirely.
        let a = r.outcomes[0].delivered().expect("worm 0 delivers");
        let b = r.outcomes[1].delivered().expect("worm 1 delivers");
        assert_eq!(a.attempts, 2);
        assert!(a.rerouted && !a.failed_over);
        assert_eq!(b.attempts, 1);
        assert!(b.rerouted, "worm 1 reroutes on learned knowledge alone");
        assert_eq!(r.stats.failed_opens, 1);
        assert_eq!(r.stats.quarantines, 1);
        assert_conserved(&r);
    }

    #[test]
    fn oracle_failover_routes_around_without_probing() {
        let (t, mut s) = sim128();
        let route = &t.equivalent_routes(0, 127, 0, &Default::default())[0];
        let keys = t.route_link_keys(route);
        let (xbar, port) = keys[1];
        let plan = FaultPlan::clean(7).kill_link(Time::ZERO, LinkRef::XbarPort { xbar, port });
        let worms = vec![worm(0, 127, 1024, Time::ZERO + Duration::from_us(1))];
        let cfg = ResilienceConfig {
            policy: RoutePolicy::Oblivious,
            failover: FailoverMode::Oracle,
            ..ResilienceConfig::default()
        };
        let r = s.run_resilient(&worms, &plan, &cfg).expect("plan valid");
        let d = r.outcomes[0].delivered().expect("oracle delivers");
        assert_eq!(d.attempts, 1, "the oracle never probes the dead link");
        assert!(d.rerouted);
        assert_eq!(r.stats.failed_opens, 0);
        assert_eq!(r.stats.quarantines, 0);
        assert_conserved(&r);
    }

    #[test]
    fn scheduled_repair_reinstates_the_link() {
        let (_, mut s) = sim128();
        // Dead from 0 to 500 us; the second worm (injected at 1 ms,
        // after the quarantine window lapses) re-probes and succeeds.
        let plan = FaultPlan::clean(7)
            .kill_link(Time::ZERO, LinkRef::NodeLink { node: 0, plane: 0 })
            .repair_link(
                Time::ZERO + Duration::from_us(500),
                LinkRef::NodeLink { node: 0, plane: 0 },
            );
        let worms = vec![
            worm(0, 127, 1024, Time::ZERO + Duration::from_us(1)),
            worm(0, 127, 1024, Time::ZERO + Duration::from_ms(1)),
        ];
        let cfg = ResilienceConfig::default();
        let r = s.run_resilient(&worms, &plan, &cfg).expect("plan valid");
        let a = r.outcomes[0].delivered().expect("worm 0 fails over");
        assert!(a.failed_over, "link dead: worm 0 must use plane 1");
        let b = r.outcomes[1].delivered().expect("worm 1 delivers");
        assert!(
            !b.failed_over,
            "after repair + lapse, the re-probe succeeds on plane 0"
        );
        assert_eq!(r.stats.repairs, 1);
        assert_eq!(r.stats.reinstatements, 1, "the re-probe clears the entry");
        assert_conserved(&r);
    }

    #[test]
    fn watchdog_recovers_a_stalled_worm() {
        let (_, mut s) = sim128();
        // Worm 0 streams ~2 ms holding node 8's downlink; worm 1 wants
        // the same port and trips the (deliberately tight) stall
        // threshold repeatedly until the holder closes.
        let worms = vec![worm(0, 8, 120_000, Time::ZERO), worm(1, 8, 64, Time::ZERO)];
        let cfg = ResilienceConfig {
            watchdog: WatchdogConfig {
                scan_period: Duration::from_us(100),
                stall_threshold: Duration::from_us(300),
            },
            ..ResilienceConfig::default()
        };
        let r = s
            .run_resilient(&worms, &FaultPlan::clean(7), &cfg)
            .expect("clean plan");
        let b = r.outcomes[1]
            .delivered()
            .expect("kill-and-retry loses nothing");
        assert!(r.stats.recoveries >= 1, "the watchdog must fire");
        assert!(b.attempts > 1, "each kill spends an attempt");
        assert_eq!(r.stats.delivered, 2);
        assert_eq!(r.stats.orphan_reclaims, 0, "no orphans without faults");
        assert_conserved(&r);
    }

    #[test]
    fn transient_corruption_is_retransmitted() {
        let (_, mut s) = sim128();
        let plan = FaultPlan::clean(11)
            .with_transient_rate(0.5)
            .expect("rate ok");
        let worms: Vec<Worm> = (0..8).map(|i| worm(i, 64 + i, 1024, Time::ZERO)).collect();
        let cfg = ResilienceConfig::default();
        let r = s.run_resilient(&worms, &plan, &cfg).expect("plan valid");
        assert!(r.stats.corrupted > 0, "a 50% rate must corrupt something");
        assert_eq!(r.stats.delivered, 8, "CRC rejections retransmit, not drop");
        assert_eq!(
            r.stats.transmissions,
            r.stats.delivered + r.stats.corrupted,
            "every transmission either delivers or was CRC-rejected"
        );
        assert_conserved(&r);
    }

    /// A Poisson batch of 1 KB worms over all 128 nodes of
    /// `system256()` at `load` times the plane-0 injection capacity.
    fn poisson_worms(seed: u64, load: f64, count: usize) -> Vec<Worm> {
        let bt = crate::wire::WireConfig::synchronous().byte_time;
        let per_node_ps = (bt * 1025).as_ps() as f64;
        let mean_gap_ps = per_node_ps / (128.0 * load);
        let mut rng = pm_sim::rng::SimRng::seed_from(seed);
        let mut at = Time::ZERO;
        (0..count)
            .map(|_| {
                let gap = -(1.0 - rng.gen_f64()).ln() * mean_gap_ps;
                at += Duration::from_ps(gap as u64);
                let src = rng.gen_range(0, 128) as usize;
                let dst = (src + 1 + rng.gen_range(0, 127) as usize) % 128;
                worm(src, dst, 1024, at)
            })
            .collect()
    }

    #[test]
    fn clean_resilient_run_matches_the_plain_simulation() {
        let t = Topology::system256();
        let mut s = RouteSim::new(&t);
        // A conflict-free permutation, and a Poisson batch past the knee
        // whose waiter FIFOs fill.
        let batches = [
            permutation_worms(16, 8, 1024, 0, Time::ZERO),
            poisson_worms(5, 1.6, 3000),
        ];
        for worms in &batches {
            let plain = s.run(worms, RoutePolicy::Adaptive);
            let cfg = ResilienceConfig::default();
            let r = s
                .run_resilient(worms, &FaultPlan::clean(7), &cfg)
                .expect("clean plan");
            // Same physics, same adaptive decisions: the fault machinery
            // must be invisible on a clean run…
            for (w, o) in r.outcomes.iter().enumerate() {
                let d = o.delivered().expect("clean runs deliver everything");
                assert_eq!(d.finished, plain.completions[w], "worm {w}");
                assert_eq!(d.attempts, 1);
            }
            assert_eq!(r.detours, plain.detours);
            assert_eq!(r.conflicts, plain.conflicts);
            assert_eq!(r.peak_inflight, plain.peak_inflight);
            // …and the watchdog stays silent.
            assert!(r.stats.scans > 0, "scans ran");
            assert_eq!(r.stats.recoveries, 0);
            assert_eq!(r.stats.orphan_reclaims, 0);
            assert_eq!(r.stats.failed_opens, 0);
            assert_conserved(&r);
        }
        assert!(
            s.run(&batches[1], RoutePolicy::Adaptive).conflicts > 0,
            "the Poisson batch must contend"
        );
    }

    #[test]
    fn reused_resilient_runs_match_fresh() {
        let t = Topology::system256();
        let mut reused = RouteSim::new(&t);
        let plan = FaultPlan::clean(13)
            .with_transient_rate(0.02)
            .expect("rate ok")
            .random_link_downs(&t, 6, Duration::from_us(200))
            .repair_all_after(Duration::from_us(300));
        let worms = random_worms(99, 200, 512, 400_000);
        for failover in [FailoverMode::Oracle, FailoverMode::Detected] {
            let cfg = ResilienceConfig {
                failover,
                ..ResilienceConfig::default()
            };
            let fresh = RouteSim::new(&t)
                .run_resilient(&worms, &plan, &cfg)
                .expect("plan valid");
            let again = reused
                .run_resilient(&worms, &plan, &cfg)
                .expect("plan valid");
            assert_eq!(fresh.outcomes, again.outcomes);
            assert_eq!(fresh.stats, again.stats);
            assert_conserved(&fresh);
        }
    }

    #[test]
    fn resilient_run_rejects_unknown_links() {
        let (_, mut s) = sim128();
        let bad = LinkRef::NodeLink {
            node: 4096,
            plane: 0,
        };
        let plan = FaultPlan::clean(1).kill_link(Time::ZERO, bad);
        let err = s
            .run_resilient(
                &[worm(0, 1, 64, Time::ZERO)],
                &plan,
                &ResilienceConfig::default(),
            )
            .expect_err("out-of-range ref");
        assert_eq!(err, FaultPlanError::UnknownLink(bad));
    }

    #[test]
    fn zero_scan_period_is_a_typed_error() {
        let (_, mut s) = sim128();
        let cfg = ResilienceConfig {
            watchdog: WatchdogConfig {
                scan_period: Duration::ZERO,
                ..WatchdogConfig::default()
            },
            ..ResilienceConfig::default()
        };
        let err = s
            .run_resilient(&[worm(0, 1, 64, Time::ZERO)], &FaultPlan::clean(1), &cfg)
            .expect_err("a zero scan period would never return");
        assert_eq!(err, FaultPlanError::ZeroScanPeriod);
    }

    #[test]
    fn zero_attempts_is_a_typed_error() {
        let (_, mut s) = sim128();
        let cfg = ResilienceConfig {
            retry: RetransmitPolicy {
                max_attempts: 0,
                ..RetransmitPolicy::default()
            },
            ..ResilienceConfig::default()
        };
        let err = s
            .run_resilient(&[worm(0, 1, 64, Time::ZERO)], &FaultPlan::clean(1), &cfg)
            .expect_err("zero attempts can never transmit");
        assert_eq!(err, FaultPlanError::ZeroAttempts);
    }

    #[test]
    fn retransmit_jitter_is_deterministic_and_bounded() {
        let p = RetransmitPolicy::default();
        for attempt in 1..=24 {
            let gap = p.gap_after(42, attempt);
            assert_eq!(gap, p.gap_after(42, attempt), "deterministic");
            let backoff = (p.initial_backoff * (1u64 << (attempt - 1).min(20))).min(p.max_backoff);
            assert!(gap >= Duration::from_ps(backoff.as_ps() / 2));
            assert!(gap <= backoff);
        }
        // Different worms decorrelate.
        let gaps: Vec<Duration> = (0..16).map(|salt| p.gap_after(salt, 4)).collect();
        assert!(
            gaps.iter().any(|&g| g != gaps[0]),
            "jitter must spread retries across worms"
        );
        // Without a jitter seed the gap is the exact capped doubling.
        let exact = RetransmitPolicy { jitter: None, ..p };
        assert_eq!(exact.gap_after(42, 1), Duration::from_us(2));
        assert_eq!(exact.gap_after(7, 4), Duration::from_us(16));
        assert_eq!(exact.gap_after(7, 40), Duration::from_us(256));
    }
}
