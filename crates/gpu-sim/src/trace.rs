//! Dynamic instruction metrics.
//!
//! The paper's DBI study (§X-B) instruments *dynamic* instruction streams:
//! overheads and the Fig. 13 check:LDST ratios are functions of what
//! actually executes, not the static binary. [`DynamicProfile`] derives
//! those metrics from a run's [`SimStats`].

use crate::stats::SimStats;

/// The paper's dynamic metrics, computed from a run's statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct DynamicProfile;

impl DynamicProfile {
    /// Dynamic LMI bound-check count: marked integer instructions issued.
    pub fn dynamic_checks(stats: &SimStats) -> u64 {
        stats.marked_issued
    }

    /// Dynamic LD/ST count over the protected spaces.
    pub fn dynamic_ldst(stats: &SimStats) -> u64 {
        stats.mem_total()
    }

    /// The paper's Fig. 13 metric: bound checks per LD/ST. LMI-DBI
    /// instruments checks *and* LD/STs, so its site count is the sum.
    pub fn check_to_ldst_ratio(stats: &SimStats) -> f64 {
        let ldst = Self::dynamic_ldst(stats).max(1) as f64;
        (Self::dynamic_checks(stats) + Self::dynamic_ldst(stats)) as f64 / ldst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Gpu, GpuConfig, Launch, NullMechanism};
    use lmi_isa::{abi, HintBits, Instruction, MemRef, ProgramBuilder, Reg};
    use lmi_mem::layout;

    #[test]
    fn dynamic_metrics_count_issued_checks_and_ldsts() {
        let mut b = ProgramBuilder::new("t");
        b.push(Instruction::ldc(Reg(4), abi::LAUNCH_BANK, abi::param_offset(0), 8));
        b.push(
            Instruction::lea64(Reg(6), Reg(4), Reg(0), 2).with_hints(HintBits::check_operand(0)),
        );
        b.push(Instruction::ldg(Reg(8), MemRef::new(Reg(6), 0, 4)));
        b.push(Instruction::stg(MemRef::new(Reg(6), 4, 4), Reg(8)));
        b.push(Instruction::exit());
        let launch = Launch::new(b.build()).grid(1).block(32).param(layout::GLOBAL_BASE);
        let stats = Gpu::new(GpuConfig::small()).run(&launch, &mut NullMechanism);
        assert_eq!(DynamicProfile::dynamic_checks(&stats), 1);
        assert_eq!(DynamicProfile::dynamic_ldst(&stats), 2, "LDG + STG (LDC excluded)");
        assert_eq!(DynamicProfile::check_to_ldst_ratio(&stats), 1.5);
    }
}
