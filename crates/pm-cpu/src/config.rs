//! CPU configurations for the three machines of Table 1.

use pm_isa::OpClass;
use pm_sim::time::Clock;

/// The row of [`CpuConfig::units`] that executes arithmetic class `op`.
///
/// # Panics
///
/// If `op` is not one of the six unit classes.
pub(crate) fn unit_row(op: OpClass) -> usize {
    match op {
        OpClass::IntAlu => 0,
        OpClass::IntMul => 1,
        OpClass::IntDiv => 2,
        OpClass::FpAdd => 3,
        OpClass::FpMul => 4,
        OpClass::FpDiv => 5,
        // A static message: formatting `op` here measurably slows the
        // `Cpu::step` hot path it is inlined into.
        _ => panic!("not an arithmetic unit class"),
    }
}

/// Latency/throughput of one execution-unit class, in CPU cycles: one row
/// of the unit table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnitTiming {
    /// Number of identical unit instances.
    pub count: u32,
    /// Result latency in cycles.
    pub latency: u32,
    /// Cycles between back-to-back issues to one instance (1 = fully
    /// pipelined; `latency` = unpipelined).
    pub initiation: u32,
}

impl UnitTiming {
    /// A fully pipelined unit class.
    pub fn pipelined(count: u32, latency: u32) -> Self {
        UnitTiming {
            count,
            latency,
            initiation: 1,
        }
    }

    /// An unpipelined unit class.
    pub fn unpipelined(count: u32, latency: u32) -> Self {
        UnitTiming {
            count,
            latency,
            initiation: latency,
        }
    }
}

/// Full configuration of one CPU timing model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CpuConfig {
    /// Human-readable name used in reports.
    pub name: &'static str,
    /// Core clock.
    pub clock: Clock,
    /// Instructions dispatched per cycle.
    pub issue_width: u32,
    /// Completion-unit (reorder window) entries; dispatch stalls when full.
    pub reorder_window: u32,
    /// Rename buffers: maximum register-writing instructions in flight.
    pub rename_buffers: u32,
    /// Whether instructions may issue out of order past stalled elders
    /// (the MPC620 and Pentium II do; the UltraSPARC-I issues in order).
    pub out_of_order: bool,
    /// The arithmetic unit table: IntAlu, IntMul, IntDiv, FpAdd, FpMul and
    /// FpDiv rows, in that order. `FpMadd` has no row: fused it issues to
    /// the FpMul row, cracked to the FpMul row and then the FpAdd row.
    pub units: [UnitTiming; 6],
    /// Whether the FPU executes fused multiply-add as a single pipelined
    /// operation (PowerPC) or cracks it into multiply + add.
    pub fused_madd: bool,
    /// Maximum outstanding load misses. The MPC620's missing load
    /// pipelining is modelled as 1: a load miss blocks the next load until
    /// its data returns.
    pub max_outstanding_loads: u32,
    /// Store-buffer entries; stores retire asynchronously until the buffer
    /// fills.
    pub store_buffer: u32,
    /// Branch misprediction penalty in cycles (pipeline refill).
    pub mispredict_penalty: u32,
    /// Branch-history-table entries for the 2-bit predictor.
    pub bht_entries: usize,
}

impl CpuConfig {
    /// The Motorola MPC620 at 180 MHz, as shipped on the PowerMANNA node.
    ///
    /// Six execution units (two simple integer ALUs, one complex integer,
    /// one three-stage pipelined FPU with fused madd, one load/store unit,
    /// one branch unit implied by the issue logic), 4-wide issue, 16-entry
    /// completion window, 8+8 rename buffers, **no load pipelining**.
    pub fn mpc620() -> Self {
        CpuConfig {
            name: "PowerMANNA PPC620/180",
            clock: Clock::from_mhz(180.0),
            issue_width: 4,
            reorder_window: 16,
            rename_buffers: 16,
            out_of_order: true,
            units: [
                UnitTiming::pipelined(2, 1),    // IntAlu
                UnitTiming::pipelined(1, 3),    // IntMul
                UnitTiming::unpipelined(1, 20), // IntDiv
                UnitTiming::pipelined(1, 3),    // FpAdd
                UnitTiming::pipelined(1, 3),    // FpMul
                UnitTiming::unpipelined(1, 18), // FpDiv
            ],
            fused_madd: true,
            max_outstanding_loads: 1,
            store_buffer: 6,
            mispredict_penalty: 4,
            bht_entries: 2048,
        }
    }

    /// The SUN UltraSPARC-I at 168 MHz: 4-wide but in-order issue, no
    /// fused madd, modest load overlap.
    pub fn ultrasparc_i() -> Self {
        CpuConfig {
            name: "SUN UltraSPARC-I/168",
            clock: Clock::from_mhz(168.0),
            issue_width: 4,
            reorder_window: 16,
            rename_buffers: 16,
            out_of_order: false,
            // The UltraSPARC-I has no fast integer multiplier: mulx is a
            // long multi-cycle operation that blocks the unit.
            units: [
                UnitTiming::pipelined(2, 1),    // IntAlu
                UnitTiming::unpipelined(1, 12), // IntMul
                UnitTiming::unpipelined(1, 36), // IntDiv
                UnitTiming::pipelined(1, 3),    // FpAdd
                UnitTiming::pipelined(1, 3),    // FpMul
                UnitTiming::unpipelined(1, 22), // FpDiv
            ],
            fused_madd: false,
            max_outstanding_loads: 2,
            store_buffer: 8,
            mispredict_penalty: 4,
            bht_entries: 2048,
        }
    }

    /// The Pentium II at `mhz` (the paper uses both 180 MHz clock-matched
    /// and the original 266 MHz): 3-wide out-of-order core, split
    /// multiply/add FP pipes, non-blocking loads (4 outstanding), long
    /// pipeline (higher mispredict penalty).
    pub fn pentium_ii(mhz: f64) -> Self {
        let name = if mhz >= 250.0 {
            "PC PentiumII/266"
        } else {
            "PC PentiumII/180"
        };
        CpuConfig {
            name,
            clock: Clock::from_mhz(mhz),
            issue_width: 3,
            reorder_window: 40,
            rename_buffers: 40,
            out_of_order: true,
            // The x87 stack engine: a dependent faddp chain needs an fxch
            // per step (latency 4) and the stack port sustains one add
            // (or multiply) per two cycles.
            units: [
                UnitTiming::pipelined(2, 1),    // IntAlu
                UnitTiming::pipelined(1, 4),    // IntMul
                UnitTiming::unpipelined(1, 39), // IntDiv
                UnitTiming {
                    count: 1,
                    latency: 4,
                    initiation: 2,
                }, // FpAdd
                UnitTiming {
                    count: 1,
                    latency: 5,
                    initiation: 2,
                }, // FpMul
                UnitTiming::unpipelined(1, 32), // FpDiv
            ],
            fused_madd: false,
            max_outstanding_loads: 4,
            store_buffer: 12,
            mispredict_penalty: 11,
            bht_entries: 4096,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_reflect_table1() {
        let pm = CpuConfig::mpc620();
        assert_eq!(pm.clock.mhz(), 180.0);
        assert!(pm.fused_madd);
        assert_eq!(pm.max_outstanding_loads, 1, "620 has no load pipelining");

        let sun = CpuConfig::ultrasparc_i();
        assert_eq!(sun.clock.mhz(), 168.0);
        assert!(!sun.out_of_order);

        let pc = CpuConfig::pentium_ii(266.0);
        assert_eq!(pc.clock.mhz(), 266.0);
        assert!(pc.max_outstanding_loads > 1);
        assert_eq!(pc.name, "PC PentiumII/266");
        assert_eq!(CpuConfig::pentium_ii(180.0).name, "PC PentiumII/180");
    }

    #[test]
    fn unit_timing_constructors() {
        let p = UnitTiming::pipelined(2, 3);
        assert_eq!(p.initiation, 1);
        let u = UnitTiming::unpipelined(1, 20);
        assert_eq!(u.initiation, 20);
    }
}
