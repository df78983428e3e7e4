//! Multi-stream traffic specifications for the `lmi-runtime` layer.
//!
//! A [`TrafficMix`] describes a whole *host program* rather than a single
//! kernel: several streams, each owned by a tenant, each submitting an
//! upload → kernel → readback pipeline built from one of the Table V
//! workload specs. The runtime benches and determinism tests replay the
//! same mix and compare results.
//!
//! This crate cannot depend on `lmi-runtime` (the runtime's dev-tests use
//! these specs), so a mix only *describes* traffic; [`prepare_in`] does
//! the per-tenant half of the work — building the kernel against buffers
//! carved from a caller-supplied allocator arena instead of the fixed
//! whole-GPU arena that [`crate::prepare()`] assumes.

use lmi_alloc::GlobalAllocator;
use lmi_core::DevicePtr;
use lmi_sim::Launch;

use crate::generator::{self, PERF_BUF_BYTES};
use crate::prepare::PreparedWorkload;
use crate::spec::{all_workloads, WorkloadSpec};

/// One stream's submissions within a [`TrafficMix`].
#[derive(Debug, Clone)]
pub struct StreamTraffic {
    /// Table V workload name the kernel is generated from.
    pub workload: &'static str,
    /// Tenant index within the mix (streams sharing a tenant share an
    /// arena and a mechanism).
    pub tenant: usize,
    /// 8-byte words uploaded into the first buffer before the kernel.
    pub h2d_words: usize,
    /// Bytes read back from the first buffer after the kernel.
    pub d2h_bytes: u64,
    /// `scaled_down` factor applied to the spec (1 = full size).
    pub scale: u32,
}

/// A whole multi-stream host program.
#[derive(Debug, Clone)]
pub struct TrafficMix {
    /// Mix name (benchmark dimension key).
    pub name: &'static str,
    /// Tenant protection flags; `tenants.len()` tenants, index = id.
    pub tenants: Vec<bool>,
    /// One entry per stream, in creation order.
    pub streams: Vec<StreamTraffic>,
}

impl TrafficMix {
    /// Resolves a stream's workload spec (scaled).
    pub fn spec_of(&self, stream: usize) -> WorkloadSpec {
        let t = &self.streams[stream];
        let spec = all_workloads()
            .into_iter()
            .find(|w| w.name == t.workload)
            .unwrap_or_else(|| panic!("unknown workload {:?}", t.workload));
        if t.scale > 1 {
            spec.scaled_down(t.scale)
        } else {
            spec
        }
    }
}

/// Builds the kernel for `spec` with its buffers allocated from `alloc` —
/// the tenant-arena variant of [`crate::prepare()`]. The allocator's policy
/// decides whether parameters carry LMI extents.
pub fn prepare_in(spec: &WorkloadSpec, alloc: &mut GlobalAllocator) -> PreparedWorkload {
    let embed = alloc.policy() == lmi_alloc::AlignmentPolicy::PowerOfTwo;
    let program = generator::generate_variant(spec, embed);
    let mut launch = Launch::new(program).grid(spec.blocks).block(spec.threads_per_block);
    let mut buffers = Vec::with_capacity(spec.num_buffers);
    for _ in 0..spec.num_buffers {
        let raw = alloc.alloc(PERF_BUF_BYTES).expect("tenant arena fits the workload buffers");
        buffers.push((DevicePtr::from_raw(raw).addr(), PERF_BUF_BYTES));
        launch = launch.param(raw);
    }
    PreparedWorkload { launch, buffers }
}

/// The canned mixes the runtime bench sweeps. Workloads are chosen for
/// contrast: `bfs` is global-dominant and uncoalesced, `hotspot` is
/// compute-heavy, `needle` is shared-memory/barrier-bound, `srad_v1`
/// mixes global and local traffic.
pub fn runtime_mixes() -> Vec<TrafficMix> {
    vec![
        TrafficMix {
            name: "solo",
            tenants: vec![true],
            streams: vec![StreamTraffic {
                workload: "hotspot",
                tenant: 0,
                h2d_words: 4096,
                d2h_bytes: 4096,
                scale: 2,
            }],
        },
        TrafficMix {
            name: "dual-tenant",
            tenants: vec![true, true],
            streams: vec![
                StreamTraffic {
                    workload: "hotspot",
                    tenant: 0,
                    h2d_words: 4096,
                    d2h_bytes: 4096,
                    scale: 2,
                },
                StreamTraffic {
                    workload: "bfs",
                    tenant: 1,
                    h2d_words: 4096,
                    d2h_bytes: 4096,
                    scale: 2,
                },
            ],
        },
        TrafficMix {
            name: "quad-stream",
            tenants: vec![true, true],
            streams: vec![
                StreamTraffic {
                    workload: "hotspot",
                    tenant: 0,
                    h2d_words: 2048,
                    d2h_bytes: 2048,
                    scale: 4,
                },
                StreamTraffic {
                    workload: "bfs",
                    tenant: 0,
                    h2d_words: 2048,
                    d2h_bytes: 2048,
                    scale: 4,
                },
                StreamTraffic {
                    workload: "needle",
                    tenant: 1,
                    h2d_words: 2048,
                    d2h_bytes: 2048,
                    scale: 4,
                },
                StreamTraffic {
                    workload: "srad_v1",
                    tenant: 1,
                    h2d_words: 2048,
                    d2h_bytes: 2048,
                    scale: 4,
                },
            ],
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmi_alloc::AlignmentPolicy;
    use lmi_core::PtrConfig;
    use lmi_mem::layout;

    #[test]
    fn mixes_reference_real_workloads_and_tenants() {
        for mix in runtime_mixes() {
            assert!(!mix.streams.is_empty());
            for (i, s) in mix.streams.iter().enumerate() {
                assert!(s.tenant < mix.tenants.len(), "{}: stream {i} tenant", mix.name);
                let spec = mix.spec_of(i);
                assert!(spec.blocks > 0 && spec.num_buffers > 0);
            }
        }
    }

    #[test]
    fn prepare_in_allocates_from_the_given_arena() {
        let base = layout::GLOBAL_BASE + (64 << 30);
        let mut alloc =
            GlobalAllocator::new(PtrConfig::default(), AlignmentPolicy::PowerOfTwo, base, 1 << 30);
        let spec = runtime_mixes()[0].spec_of(0);
        let p = prepare_in(&spec, &mut alloc);
        assert_eq!(p.buffers.len(), p.launch.params.len());
        for &(addr, _) in &p.buffers {
            assert!(addr >= base && addr < base + (1 << 30), "buffer in the tenant arena");
        }
        for &param in &p.launch.params {
            assert!(DevicePtr::from_raw(param).extent() > 0, "protected params carry extents");
        }
    }
}
