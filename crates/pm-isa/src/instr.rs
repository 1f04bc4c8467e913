//! Micro-operation definitions.

use core::fmt;

/// An abstract architectural register name.
///
/// The timing model treats registers purely as dependence-tracking names;
/// rename buffers in `pm-cpu` remove false dependences, so kernels may use
/// as many registers as is natural.
///
/// # Examples
///
/// ```
/// use pm_isa::Reg;
///
/// let r = Reg(3);
/// assert_eq!(format!("{r}"), "r3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Reg(pub u16);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// A virtual byte address.
///
/// # Examples
///
/// ```
/// use pm_isa::VAddr;
///
/// let a = VAddr(0x1000);
/// assert_eq!(a.offset(8), VAddr(0x1008));
/// assert_eq!(a.cache_line(64), 0x40);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct VAddr(pub u64);

impl VAddr {
    /// Returns the address advanced by `bytes`.
    pub const fn offset(self, bytes: u64) -> VAddr {
        VAddr(self.0 + bytes)
    }

    /// Returns the index of the cache line containing this address for the
    /// given line size in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is zero.
    pub fn cache_line(self, line_bytes: u64) -> u64 {
        assert!(line_bytes > 0, "zero cache line size");
        self.0 / line_bytes
    }
}

impl fmt::Display for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

/// The class of a micro-operation; classes map 1:1 onto the MPC620's six
/// execution units in `pm-cpu`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpClass {
    /// Simple integer ALU operation (add, compare, logical, shift).
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Integer divide (long latency, unpipelined on all modelled CPUs).
    IntDiv,
    /// Floating-point add/subtract.
    FpAdd,
    /// Floating-point multiply.
    FpMul,
    /// Fused multiply-add (the PowerPC `fmadd` the paper's MatMult uses).
    FpMadd,
    /// Floating-point divide.
    FpDiv,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional or unconditional branch.
    Branch,
    /// No-operation / padding.
    Nop,
}

impl OpClass {
    /// Whether this class reads or writes memory.
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }

    /// Floating-point operations contributed to MFLOPS accounting.
    pub fn flops(self) -> u64 {
        match self {
            OpClass::FpAdd | OpClass::FpMul | OpClass::FpDiv => 1,
            OpClass::FpMadd => 2,
            _ => 0,
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OpClass::IntAlu => "ialu",
            OpClass::IntMul => "imul",
            OpClass::IntDiv => "idiv",
            OpClass::FpAdd => "fadd",
            OpClass::FpMul => "fmul",
            OpClass::FpMadd => "fmadd",
            OpClass::FpDiv => "fdiv",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::Branch => "branch",
            OpClass::Nop => "nop",
        };
        f.write_str(s)
    }
}

/// Whether a memory reference is a read or a write.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MemKind {
    /// Data read.
    Read,
    /// Data write.
    Write,
}

/// A memory reference attached to a [`OpClass::Load`] or [`OpClass::Store`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MemRef {
    /// Virtual byte address.
    pub addr: VAddr,
    /// Access width in bytes (1, 2, 4 or 8).
    pub bytes: u8,
    /// Read or write.
    pub kind: MemKind,
}

/// A branch descriptor attached to a [`OpClass::Branch`].
///
/// The predictor in `pm-cpu` indexes on `pc` and compares its prediction to
/// `taken`; a mismatch costs the configured misprediction penalty.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BranchInfo {
    /// Identifying address of the branch instruction (used to index the
    /// branch predictor; kernels reuse stable ids per static branch).
    pub pc: u64,
    /// Actual outcome of this dynamic instance.
    pub taken: bool,
}

/// One micro-operation.
///
/// # Examples
///
/// ```
/// use pm_isa::{Instr, OpClass, Reg};
///
/// let i = Instr::alu(OpClass::FpAdd, Some(Reg(2)), Some(Reg(0)), Some(Reg(1)));
/// assert_eq!(i.op, OpClass::FpAdd);
/// assert_eq!(i.dst, Some(Reg(2)));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Instr {
    /// Operation class.
    pub op: OpClass,
    /// Destination register, if the op produces a value.
    pub dst: Option<Reg>,
    /// First source register.
    pub src1: Option<Reg>,
    /// Second source register.
    pub src2: Option<Reg>,
    /// Memory reference for loads/stores.
    pub mem: Option<MemRef>,
    /// Branch descriptor for branches.
    pub branch: Option<BranchInfo>,
}

impl Instr {
    /// Creates a register-to-register operation.
    ///
    /// # Panics
    ///
    /// Panics if `op` is a memory or branch class — use [`Instr::load`],
    /// [`Instr::store`] or [`Instr::branch_at`] for those.
    pub fn alu(op: OpClass, dst: Option<Reg>, src1: Option<Reg>, src2: Option<Reg>) -> Self {
        assert!(
            !op.is_mem() && op != OpClass::Branch,
            "use the dedicated constructor for {op}"
        );
        Instr {
            op,
            dst,
            src1,
            src2,
            mem: None,
            branch: None,
        }
    }

    /// Creates a load of `bytes` at `addr` into `dst`, address-dependent on
    /// `base` if given.
    pub fn load(dst: Reg, addr: VAddr, bytes: u8, base: Option<Reg>) -> Self {
        Instr {
            op: OpClass::Load,
            dst: Some(dst),
            src1: base,
            src2: None,
            mem: Some(MemRef {
                addr,
                bytes,
                kind: MemKind::Read,
            }),
            branch: None,
        }
    }

    /// Creates a store of `src` (`bytes` wide) to `addr`.
    pub fn store(src: Reg, addr: VAddr, bytes: u8) -> Self {
        Instr {
            op: OpClass::Store,
            dst: None,
            src1: Some(src),
            src2: None,
            mem: Some(MemRef {
                addr,
                bytes,
                kind: MemKind::Write,
            }),
            branch: None,
        }
    }

    /// Creates a branch at static id `pc` with outcome `taken`, condition-
    /// dependent on `cond` if given.
    pub fn branch_at(pc: u64, taken: bool, cond: Option<Reg>) -> Self {
        Instr {
            op: OpClass::Branch,
            dst: None,
            src1: cond,
            src2: None,
            mem: None,
            branch: Some(BranchInfo { pc, taken }),
        }
    }

    /// Creates a no-op.
    pub fn nop() -> Self {
        Instr {
            op: OpClass::Nop,
            dst: None,
            src1: None,
            src2: None,
            mem: None,
            branch: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vaddr_line_mapping() {
        let a = VAddr(0x107f);
        assert_eq!(a.cache_line(64), 0x41);
        assert_eq!(a.offset(1).cache_line(64), 0x42);
        assert_eq!(a.cache_line(32), 0x83);
    }

    #[test]
    #[should_panic(expected = "zero cache line")]
    fn vaddr_rejects_zero_line() {
        VAddr(0).cache_line(0);
    }

    #[test]
    fn opclass_flop_accounting() {
        assert_eq!(OpClass::FpMadd.flops(), 2);
        assert_eq!(OpClass::FpAdd.flops(), 1);
        assert_eq!(OpClass::Load.flops(), 0);
        assert!(OpClass::Store.is_mem());
        assert!(!OpClass::Branch.is_mem());
    }

    #[test]
    fn constructors_fill_fields() {
        let ld = Instr::load(Reg(1), VAddr(0x40), 8, Some(Reg(9)));
        assert_eq!(ld.op, OpClass::Load);
        assert_eq!(ld.mem.unwrap().kind, MemKind::Read);
        assert_eq!(ld.src1, Some(Reg(9)));

        let st = Instr::store(Reg(2), VAddr(0x80), 4);
        assert_eq!(st.mem.unwrap().kind, MemKind::Write);
        assert_eq!(st.dst, None);

        let br = Instr::branch_at(7, true, Some(Reg(0)));
        assert!(br.branch.unwrap().taken);
        assert_eq!(br.branch.unwrap().pc, 7);

        assert_eq!(Instr::nop().op, OpClass::Nop);
    }

    #[test]
    #[should_panic(expected = "dedicated constructor")]
    fn alu_rejects_memory_class() {
        let _ = Instr::alu(OpClass::Load, None, None, None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Reg(12)), "r12");
        assert_eq!(format!("{}", VAddr(0xff)), "0xff");
        assert_eq!(format!("{}", OpClass::FpMadd), "fmadd");
    }
}
