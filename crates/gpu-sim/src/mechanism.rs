//! The pluggable memory-safety mechanism interface, and the LMI hardware
//! mechanism itself.

use lmi_core::{ExtentChecker, Ocu, PtrConfig, Violation};
use lmi_isa::MemSpace;

/// Result of an integer-ALU check ([`Mechanism::on_marked_int`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntCheck {
    /// The value to write back (possibly poisoned).
    pub value: u64,
    /// Whether the check poisoned the pointer.
    pub poisoned: bool,
}

impl IntCheck {
    /// A passing check.
    pub fn pass(value: u64) -> IntCheck {
        IntCheck { value, poisoned: false }
    }
}

/// Context handed to [`Mechanism::on_mem_access`] for each lane's access.
#[derive(Debug, Clone, Copy)]
pub struct MemAccessCtx {
    /// Target memory space.
    pub space: MemSpace,
    /// The raw register value used as the address (may carry extent bits).
    pub raw: u64,
    /// The virtual address after metadata stripping.
    pub vaddr: u64,
    /// Access width in bytes.
    pub width: u8,
    /// `true` for stores.
    pub is_store: bool,
    /// Flat global thread id of the accessing lane.
    pub global_tid: u64,
    /// Program counter of the issuing instruction.
    pub pc: usize,
    /// Lane index within the warp.
    pub lane: usize,
    /// Global warp-level issue sequence number of the instruction this lane
    /// belongs to. All lanes of one issue share it, so a mechanism can tell
    /// warp-level issues apart.
    pub issue_index: u64,
}

/// Result of a memory-access check ([`Mechanism::on_mem_access`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemCheck {
    /// A violation, if the access must fault.
    pub violation: Option<Violation>,
    /// Extra cycles the access costs (e.g. a bounds-cache lookup port
    /// conflict). Metadata *memory* traffic uses `metadata_addr` instead.
    pub extra_cycles: u32,
    /// If set, the LSU must also fetch mechanism metadata at this address
    /// through the L2 before the access can complete (e.g. a GPUShield
    /// RCache miss filling from the bounds table).
    pub metadata_addr: Option<u64>,
}

impl MemCheck {
    /// Allow the access with no extra cost.
    pub fn allow() -> MemCheck {
        MemCheck { violation: None, extra_cycles: 0, metadata_addr: None }
    }

    /// Fault the access.
    pub fn fault(violation: Violation) -> MemCheck {
        MemCheck { violation: Some(violation), extra_cycles: 0, metadata_addr: None }
    }
}

/// A hardware memory-safety mechanism plugged into the pipeline.
pub trait Mechanism {
    /// Mechanism name for reports.
    fn name(&self) -> &'static str;

    /// Called with the selected input operand and the raw result of every
    /// hint-marked integer instruction (per active lane).
    fn on_marked_int(&mut self, _input: u64, result: u64) -> IntCheck {
        IntCheck::pass(result)
    }

    /// Extra writeback latency on hint-marked instructions (the OCU's
    /// pipelined register slices; paper §XI-C).
    fn marked_int_delay(&self) -> u32 {
        0
    }

    /// Called for every lane of every memory access before it issues.
    fn on_mem_access(&mut self, _ctx: &MemAccessCtx) -> MemCheck {
        MemCheck::allow()
    }

    /// Whether a successful device `free` nullifies the freed pointer's
    /// in-pointer metadata (paper §VIII: the LMI pass clears the extent
    /// right after the call). Mechanisms returning `true` get a forensics
    /// poison event recorded at the free site, so a later use-after-free
    /// fault reports its poison-to-fault latency.
    fn nullifies_on_free(&self) -> bool {
        false
    }
}

/// The unprotected baseline: no checks, no cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullMechanism;

impl Mechanism for NullMechanism {
    fn name(&self) -> &'static str {
        "baseline"
    }
}

/// LMI in hardware: the OCU on integer ALUs and the EC in the LSU.
#[derive(Debug, Clone, Copy)]
pub struct LmiMechanism {
    ocu: Ocu,
    ec: ExtentChecker,
    /// Statistics: pointers poisoned by the OCU.
    pub poisoned_count: u64,
    /// Statistics: faults raised by the EC.
    pub faults: u64,
}

impl LmiMechanism {
    /// LMI with the given pointer format.
    pub fn new(cfg: PtrConfig) -> LmiMechanism {
        LmiMechanism {
            ocu: Ocu::new(cfg),
            ec: ExtentChecker::new(cfg),
            poisoned_count: 0,
            faults: 0,
        }
    }

    /// LMI with the default pointer format (K = 256, 256 GiB limit).
    pub fn default_config() -> LmiMechanism {
        LmiMechanism::new(PtrConfig::default())
    }

    /// LMI with a custom OCU delay (ablation).
    pub fn with_ocu_delay(cfg: PtrConfig, delay: u32) -> LmiMechanism {
        let mut m = LmiMechanism::new(cfg);
        m.ocu = Ocu::with_delay(cfg, delay);
        m
    }
}

impl Mechanism for LmiMechanism {
    fn name(&self) -> &'static str {
        "lmi"
    }

    fn on_marked_int(&mut self, input: u64, result: u64) -> IntCheck {
        let (value, outcome) = self.ocu.check_marked(input, result);
        let poisoned = !outcome.passed();
        if poisoned {
            self.poisoned_count += 1;
        }
        IntCheck { value, poisoned }
    }

    fn marked_int_delay(&self) -> u32 {
        self.ocu.delay_cycles
    }

    fn nullifies_on_free(&self) -> bool {
        true
    }

    fn on_mem_access(&mut self, ctx: &MemAccessCtx) -> MemCheck {
        // Constant memory is outside the threat model; global/shared/local
        // and heap pointers all carry extents under LMI.
        if ctx.space == MemSpace::Const {
            return MemCheck::allow();
        }
        match self.ec.check_access(ctx.raw) {
            Ok(_) => MemCheck::allow(),
            Err(violation) => {
                self.faults += 1;
                MemCheck::fault(violation)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmi_core::DevicePtr;

    #[test]
    fn null_mechanism_allows_everything() {
        let mut m = NullMechanism;
        let check = m.on_marked_int(0, 0xDEAD);
        assert_eq!(check.value, 0xDEAD);
        assert!(!check.poisoned);
        assert_eq!(m.marked_int_delay(), 0);
    }

    #[test]
    fn lmi_mechanism_poisons_and_faults() {
        let cfg = PtrConfig::default();
        let mut m = LmiMechanism::new(cfg);
        assert_eq!(m.marked_int_delay(), 3, "paper §XI-C: three-cycle OCU delay");
        let p = DevicePtr::encode(0x1_0000, 256, &cfg).unwrap().raw();
        let check = m.on_marked_int(p, p + 256);
        assert!(check.poisoned);
        assert_eq!(m.poisoned_count, 1);
        let ctx = MemAccessCtx {
            space: MemSpace::Global,
            raw: check.value,
            vaddr: DevicePtr::from_raw(check.value).addr(),
            width: 4,
            is_store: false,
            global_tid: 0,
            pc: 0,
            lane: 0,
            issue_index: 0,
        };
        let mem = m.on_mem_access(&ctx);
        assert!(mem.violation.is_some());
        assert_eq!(m.faults, 1);
    }

    #[test]
    fn lmi_allows_const_accesses_without_extents() {
        let mut m = LmiMechanism::default_config();
        let ctx = MemAccessCtx {
            space: MemSpace::Const,
            raw: 0x28,
            vaddr: 0x28,
            width: 8,
            is_store: false,
            global_tid: 0,
            pc: 0,
            lane: 0,
            issue_index: 0,
        };
        assert_eq!(m.on_mem_access(&ctx), MemCheck::allow());
    }
}
