//! Benchmark specifications (paper Table V) with per-benchmark parameters
//! calibrated from the paper's own measurements.

/// Benchmark suite of origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// Rodinia heterogeneous-computing suite.
    Rodinia,
    /// Tango DNN benchmark suite.
    Tango,
    /// NVIDIA FasterTransformer kernels.
    FasterTransformer,
    /// Autonomous-driving models (BEVerse, DETR, MOTR, Segformer).
    Ad,
}

impl Suite {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Suite::Rodinia => "Rodinia",
            Suite::Tango => "Tango",
            Suite::FasterTransformer => "FasterTransformer",
            Suite::Ad => "AD",
        }
    }
}

/// A synthetic benchmark specification.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Benchmark name (Table V).
    pub name: &'static str,
    /// Suite of origin.
    pub suite: Suite,
    /// Fraction of memory instructions targeting global memory (Fig. 1).
    pub global_frac: f64,
    /// Fraction targeting shared memory (Fig. 1).
    pub shared_frac: f64,
    /// Fraction targeting local memory (Fig. 1).
    pub local_frac: f64,
    /// FFMA-class compute operations per memory operation.
    pub compute_per_mem: u32,
    /// Marked pointer-arithmetic operations per memory operation (×2
    /// fixed-point: 2 = one pointer op per mem op).
    pub ptr_ops_per_mem_x2: u32,
    /// `false` → unit-stride (coalesced) global accesses; `true` → each
    /// lane touches its own cache line.
    pub uncoalesced: bool,
    /// Number of distinct global kernel-argument buffers.
    pub num_buffers: usize,
    /// Cycle through all buffers on successive accesses (thrashes
    /// GPUShield's RCache — the `needle`/`LSTM` pattern).
    pub rcache_hostile: bool,
    /// Main-loop iterations.
    pub iters: u32,
    /// Thread blocks launched.
    pub blocks: usize,
    /// Threads per block.
    pub threads_per_block: usize,
    /// Host allocation-size profile `(bytes, count)` (Fig. 4).
    pub alloc_profile: &'static [(u64, u32)],
    /// The kernel also exercises device-side `malloc`/`free`.
    pub uses_kernel_malloc: bool,
    /// Block-wide barrier at the end of each iteration (wavefront
    /// algorithms like needle; sequential time steps like LSTM) — exposes
    /// per-iteration latency that warp scheduling cannot hide.
    pub barrier_per_iter: bool,
}

impl WorkloadSpec {
    /// Pointer ops per memory op as a float.
    pub fn ptr_ops_per_mem(&self) -> f64 {
        self.ptr_ops_per_mem_x2 as f64 / 2.0
    }

    /// A smaller copy of the spec (fewer iterations and blocks) for
    /// expensive instrumented runs (the DBI tools execute 20–60× more
    /// instructions). Normalized ratios are preserved because the baseline
    /// is measured at the same scale.
    pub fn scaled_down(&self, factor: u32) -> WorkloadSpec {
        let mut spec = self.clone();
        spec.iters = (self.iters / factor).max(2);
        spec.blocks = (self.blocks / factor as usize).max(8);
        spec
    }
}

macro_rules! spec {
    ($name:literal, $suite:expr, g=$g:expr, s=$s:expr, l=$l:expr,
     cpm=$cpm:expr, ppm2=$ppm:expr, unco=$unco:expr, bufs=$bufs:expr,
     hostile=$hostile:expr, profile=$profile:expr) => {
        WorkloadSpec {
            name: $name,
            suite: $suite,
            global_frac: $g,
            shared_frac: $s,
            local_frac: $l,
            compute_per_mem: $cpm,
            ptr_ops_per_mem_x2: $ppm,
            uncoalesced: $unco,
            num_buffers: $bufs,
            rcache_hostile: $hostile,
            iters: 12,
            blocks: 32,
            threads_per_block: 256,
            alloc_profile: $profile,
            uses_kernel_malloc: false,
            barrier_per_iter: $hostile,
        }
    };
}

/// Allocation profiles calibrated against paper Fig. 4 (backprop 85.9 %,
/// needle 92.9 %, hotspot/srad negligible, 18.73 % geometric mean).
mod profiles {
    pub const BACKPROP: &[(u64, u32)] = &[(65552, 16), (131072, 1), (32768, 1)]; // 85.9%
    pub const BFS: &[(u64, u32)] = &[(600000, 1), (1048576, 3)]; // 12.0%
    pub const DWT2D: &[(u64, u32)] = &[(300000, 2), (524288, 3)]; // 20.6%
    pub const GAUSSIAN: &[(u64, u32)] = &[(40000, 2), (65536, 4)]; // 14.8%
    pub const HOTSPOT: &[(u64, u32)] = &[(1048576, 4), (262144, 2)]; // 0.0%
    pub const LAVAMD: &[(u64, u32)] = &[(900000, 1), (1048576, 2)]; // 5.0%
    pub const LUD: &[(u64, u32)] = &[(700000, 1), (1048576, 2)]; // 12.5%
    pub const NEEDLE: &[(u64, u32)] = &[(16400, 16), (8192, 1), (2048, 1), (1024, 1)]; // 93.0%
    pub const NN: &[(u64, u32)] = &[(350000, 2), (524288, 2)]; // 19.9%
    pub const PF_FLOAT: &[(u64, u32)] = &[(150000, 2), (262144, 3)]; // 20.6%
    pub const PF_NAIVE: &[(u64, u32)] = &[(150000, 2), (131072, 5)]; // 23.5%
    pub const PATHFINDER: &[(u64, u32)] = &[(90000, 2), (131072, 4)]; // 11.6%
    pub const SC_GPU: &[(u64, u32)] = &[(500000, 2), (524288, 2)]; // 2.3%
    pub const SRAD1: &[(u64, u32)] = &[(524288, 4), (4096, 4)]; // 0.0%
    pub const SRAD2: &[(u64, u32)] = &[(262144, 8), (8192, 2)]; // 0.0%
    /// Model-style profile: large power-of-two weight tensors.
    pub const MODEL: &[(u64, u32)] = &[(4194304, 4), (1048576, 8)];
}

/// All 28 benchmarks of Table V.
pub fn all_workloads() -> Vec<WorkloadSpec> {
    use profiles::*;
    use Suite::*;
    let mut all = vec![
        spec!(
            "backprop",
            Rodinia,
            g = 0.55,
            s = 0.40,
            l = 0.05,
            cpm = 2,
            ppm2 = 2,
            unco = false,
            bufs = 4,
            hostile = false,
            profile = BACKPROP
        ),
        spec!(
            "bfs",
            Rodinia,
            g = 0.90,
            s = 0.05,
            l = 0.05,
            cpm = 1,
            ppm2 = 4,
            unco = true,
            bufs = 4,
            hostile = false,
            profile = BFS
        ),
        spec!(
            "dwt2d",
            Rodinia,
            g = 0.60,
            s = 0.35,
            l = 0.05,
            cpm = 3,
            ppm2 = 2,
            unco = false,
            bufs = 4,
            hostile = false,
            profile = DWT2D
        ),
        spec!(
            "gaussian",
            Rodinia,
            g = 0.85,
            s = 0.10,
            l = 0.05,
            cpm = 1,
            ppm2 = 12,
            unco = false,
            bufs = 4,
            hostile = false,
            profile = GAUSSIAN
        ),
        spec!(
            "hotspot",
            Rodinia,
            g = 0.45,
            s = 0.50,
            l = 0.05,
            cpm = 4,
            ppm2 = 2,
            unco = false,
            bufs = 4,
            hostile = false,
            profile = HOTSPOT
        ),
        spec!(
            "lavaMD",
            Rodinia,
            g = 0.40,
            s = 0.55,
            l = 0.05,
            cpm = 6,
            ppm2 = 2,
            unco = false,
            bufs = 4,
            hostile = false,
            profile = LAVAMD
        ),
        spec!(
            "lud_cuda",
            Rodinia,
            g = 0.15,
            s = 0.85,
            l = 0.00,
            cpm = 2,
            ppm2 = 2,
            unco = false,
            bufs = 4,
            hostile = false,
            profile = LUD
        ),
        spec!(
            "needle",
            Rodinia,
            g = 0.12,
            s = 0.85,
            l = 0.03,
            cpm = 1,
            ppm2 = 2,
            unco = true,
            bufs = 32,
            hostile = true,
            profile = NEEDLE
        ),
        spec!(
            "nn",
            Rodinia,
            g = 0.95,
            s = 0.00,
            l = 0.05,
            cpm = 1,
            ppm2 = 2,
            unco = false,
            bufs = 4,
            hostile = false,
            profile = NN
        ),
        spec!(
            "particlefilter_float",
            Rodinia,
            g = 0.70,
            s = 0.20,
            l = 0.10,
            cpm = 2,
            ppm2 = 2,
            unco = false,
            bufs = 4,
            hostile = false,
            profile = PF_FLOAT
        ),
        spec!(
            "particlefilter_naive",
            Rodinia,
            g = 0.85,
            s = 0.05,
            l = 0.10,
            cpm = 1,
            ppm2 = 2,
            unco = false,
            bufs = 4,
            hostile = false,
            profile = PF_NAIVE
        ),
        spec!(
            "pathfinder",
            Rodinia,
            g = 0.30,
            s = 0.65,
            l = 0.05,
            cpm = 2,
            ppm2 = 2,
            unco = false,
            bufs = 4,
            hostile = false,
            profile = PATHFINDER
        ),
        spec!(
            "sc_gpu",
            Rodinia,
            g = 0.80,
            s = 0.15,
            l = 0.05,
            cpm = 2,
            ppm2 = 2,
            unco = false,
            bufs = 4,
            hostile = false,
            profile = SC_GPU
        ),
        spec!(
            "srad_v1",
            Rodinia,
            g = 0.70,
            s = 0.25,
            l = 0.05,
            cpm = 3,
            ppm2 = 2,
            unco = false,
            bufs = 4,
            hostile = false,
            profile = SRAD1
        ),
        spec!(
            "srad_v2",
            Rodinia,
            g = 0.65,
            s = 0.30,
            l = 0.05,
            cpm = 3,
            ppm2 = 2,
            unco = false,
            bufs = 4,
            hostile = false,
            profile = SRAD2
        ),
        // Tango
        spec!(
            "AlexNet",
            Tango,
            g = 0.70,
            s = 0.25,
            l = 0.05,
            cpm = 8,
            ppm2 = 2,
            unco = false,
            bufs = 4,
            hostile = false,
            profile = MODEL
        ),
        spec!(
            "CifarNet",
            Tango,
            g = 0.75,
            s = 0.20,
            l = 0.05,
            cpm = 6,
            ppm2 = 2,
            unco = false,
            bufs = 4,
            hostile = false,
            profile = MODEL
        ),
        spec!(
            "GRU",
            Tango,
            g = 0.80,
            s = 0.15,
            l = 0.05,
            cpm = 4,
            ppm2 = 2,
            unco = false,
            bufs = 4,
            hostile = false,
            profile = MODEL
        ),
        spec!(
            "LSTM",
            Tango,
            g = 0.55,
            s = 0.40,
            l = 0.05,
            cpm = 4,
            ppm2 = 2,
            unco = true,
            bufs = 33,
            hostile = true,
            profile = MODEL
        ),
        // FasterTransformer
        spec!(
            "bert",
            FasterTransformer,
            g = 0.97,
            s = 0.02,
            l = 0.01,
            cpm = 10,
            ppm2 = 2,
            unco = false,
            bufs = 6,
            hostile = false,
            profile = MODEL
        ),
        spec!(
            "decoding",
            FasterTransformer,
            g = 0.96,
            s = 0.03,
            l = 0.01,
            cpm = 8,
            ppm2 = 2,
            unco = false,
            bufs = 6,
            hostile = false,
            profile = MODEL
        ),
        spec!(
            "swin",
            FasterTransformer,
            g = 0.85,
            s = 0.12,
            l = 0.03,
            cpm = 12,
            ppm2 = 1,
            unco = false,
            bufs = 6,
            hostile = false,
            profile = MODEL
        ),
        spec!(
            "wenet_decoder",
            FasterTransformer,
            g = 0.90,
            s = 0.08,
            l = 0.02,
            cpm = 8,
            ppm2 = 2,
            unco = false,
            bufs = 6,
            hostile = false,
            profile = MODEL
        ),
        spec!(
            "wenet_encoder",
            FasterTransformer,
            g = 0.90,
            s = 0.08,
            l = 0.02,
            cpm = 9,
            ppm2 = 2,
            unco = false,
            bufs = 6,
            hostile = false,
            profile = MODEL
        ),
        // Autonomous driving
        spec!(
            "BEVerse",
            Ad,
            g = 0.88,
            s = 0.10,
            l = 0.02,
            cpm = 10,
            ppm2 = 2,
            unco = false,
            bufs = 6,
            hostile = false,
            profile = MODEL
        ),
        spec!(
            "DETR",
            Ad,
            g = 0.90,
            s = 0.08,
            l = 0.02,
            cpm = 10,
            ppm2 = 2,
            unco = false,
            bufs = 6,
            hostile = false,
            profile = MODEL
        ),
        spec!(
            "MOTR",
            Ad,
            g = 0.88,
            s = 0.10,
            l = 0.02,
            cpm = 9,
            ppm2 = 2,
            unco = false,
            bufs = 6,
            hostile = false,
            profile = MODEL
        ),
        spec!(
            "segformer",
            Ad,
            g = 0.90,
            s = 0.08,
            l = 0.02,
            cpm = 11,
            ppm2 = 2,
            unco = false,
            bufs = 6,
            hostile = false,
            profile = MODEL
        ),
    ];
    // needle issues few global ops per iteration; lengthen it so the
    // RCache-hostile cycle covers more distinct buffers than the RCache
    // holds (the paper's 42.5% scenario). Its wavefront parallelism also
    // means low occupancy — one block per SM — so latency hiding cannot
    // absorb the bounds-fetch stalls.
    if let Some(needle) = all.iter_mut().find(|w| w.name == "needle") {
        needle.iters = 32;
        needle.blocks = 8;
        needle.threads_per_block = 128;
    }
    // LSTM's sequential time steps cap its parallelism similarly, though
    // less severely (paper: +24.0% under GPUShield vs needle's +42.5%).
    if let Some(lstm) = all.iter_mut().find(|w| w.name == "LSTM") {
        lstm.blocks = 32;
        lstm.threads_per_block = 256;
    }
    all
}

/// The 15 Rodinia benchmarks (the Fig. 4 fragmentation study population).
pub fn rodinia_workloads() -> Vec<WorkloadSpec> {
    all_workloads().into_iter().filter(|w| w.suite == Suite::Rodinia).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_has_28_benchmarks() {
        let all = all_workloads();
        assert_eq!(all.len(), 28);
        assert_eq!(all.iter().filter(|w| w.suite == Suite::Rodinia).count(), 15);
        assert_eq!(all.iter().filter(|w| w.suite == Suite::Tango).count(), 4);
        assert_eq!(all.iter().filter(|w| w.suite == Suite::FasterTransformer).count(), 5);
        assert_eq!(all.iter().filter(|w| w.suite == Suite::Ad).count(), 4);
    }

    #[test]
    fn region_fractions_are_sane() {
        for w in all_workloads() {
            let sum = w.global_frac + w.shared_frac + w.local_frac;
            assert!((0.99..=1.01).contains(&sum), "{}: fractions sum to {sum}", w.name);
        }
    }

    #[test]
    fn fig1_callouts_hold() {
        let all = all_workloads();
        let get = |n: &str| all.iter().find(|w| w.name == n).unwrap();
        assert!(get("bert").global_frac > 0.9, "bert is global-dominant");
        assert!(get("decoding").global_frac > 0.9);
        assert!(get("lud_cuda").shared_frac > 0.8, "lud_cuda >80% shared");
        assert!(get("needle").shared_frac > 0.8, "needle >80% shared");
    }

    #[test]
    fn rcache_hostile_benchmarks_are_needle_and_lstm() {
        let hostile: Vec<&str> =
            all_workloads().iter().filter(|w| w.rcache_hostile).map(|w| w.name).collect();
        assert_eq!(hostile, vec!["needle", "LSTM"]);
    }

    #[test]
    fn names_are_unique() {
        let all = all_workloads();
        let mut names: Vec<_> = all.iter().map(|w| w.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }
}

/// A device-heap stress workload (not part of Table V): every thread
/// allocates, touches, and frees a variable-size buffer each iteration —
/// the "thousands of concurrent threads perform memory operations across
/// buffers in heap and local memory" scenario of the paper's abstract.
pub fn malloc_stress_workload() -> WorkloadSpec {
    let mut spec = all_workloads().into_iter().find(|w| w.name == "bfs").expect("bfs exists");
    spec.name = "malloc_stress";
    spec.uses_kernel_malloc = true;
    spec.iters = 6;
    spec.blocks = 16;
    spec
}

#[cfg(test)]
mod stress_tests {
    use super::*;

    #[test]
    fn stress_spec_enables_kernel_malloc() {
        let s = malloc_stress_workload();
        assert!(s.uses_kernel_malloc);
        assert!(
            all_workloads().iter().all(|w| !w.uses_kernel_malloc),
            "Table V workloads stay faithful to their host-allocated form"
        );
    }
}
