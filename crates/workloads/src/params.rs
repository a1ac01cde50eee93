//! Parameters describing a synthetic workload's memory demand profile.

use serde::{Deserialize, Serialize};

/// How a workload's global loads address memory.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AccessPattern {
    /// Consecutive lines per warp across iterations — fully coalesced
    /// streaming (nn).
    Streaming,
    /// Constant-stride walks, as in row/column transforms (dwt2d, nw).
    Strided {
        /// Stride between consecutive iterations, in lines.
        stride: u64,
    },
    /// Data-dependent gathers across the working set (cfd, sc).
    Gather,
    /// Streaming base plus fixed plane offsets, as in structured-grid
    /// stencils (lbm).
    Stencil {
        /// Distance between planes, in lines.
        plane: u64,
    },
}

/// Full parameterisation of a [`crate::SyntheticKernel`].
///
/// Every field is a knob with a direct architectural meaning; the eight
/// benchmark models in [`crate::benchmarks`] are instances of this struct.
///
/// # Example
///
/// ```
/// use gpumem_workloads::{SyntheticKernel, WorkloadParams};
/// use gpumem_simt::KernelProgram;
///
/// let mut p = WorkloadParams::template("custom");
/// p.iters = 4;
/// p.loads_per_iter = 1;
/// let k = SyntheticKernel::new(p);
/// assert_eq!(k.name(), "custom");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadParams {
    /// Benchmark name used in reports.
    pub name: String,
    /// CTAs in the launch grid.
    pub ctas: u32,
    /// Warps per CTA.
    pub warps_per_cta: u32,
    /// Occupancy limit per core (models register/shared-memory pressure).
    pub max_ctas_per_core: usize,
    /// Main-loop iterations per warp.
    pub iters: u32,
    /// ALU instructions per iteration.
    pub alu_per_iter: u32,
    /// Latency of each ALU instruction.
    pub alu_latency: u32,
    /// Shared-memory instructions per iteration.
    pub shared_per_iter: u32,
    /// Latency of each shared-memory instruction (incl. bank conflicts).
    pub shared_latency: u32,
    /// Global loads per iteration.
    pub loads_per_iter: u32,
    /// Global stores per iteration.
    pub stores_per_iter: u32,
    /// Coalescing: min distinct lines per load (1 = fully coalesced).
    pub lines_per_load_min: u32,
    /// Coalescing: max distinct lines per load (32 = fully divergent).
    pub lines_per_load_max: u32,
    /// Instruction distance from a load to its first use (MLP /
    /// latency-tolerance knob).
    pub consume_distance: u32,
    /// Addressing pattern.
    pub pattern: AccessPattern,
    /// Working-set size in cache lines.
    pub working_set_lines: u64,
    /// Probability that a load targets the hot region instead of its
    /// pattern address (models inter-warp reuse caught by the L2).
    pub reuse_fraction: f64,
    /// Probability that a load re-reads one of the warp's own
    /// previous-iteration lines (models intra-warp temporal locality
    /// caught by the L1).
    pub l1_reuse_fraction: f64,
    /// Hot-region size in lines (should exceed one L1 but fit in L2 for
    /// L2-reuse behaviour).
    pub hot_lines: u64,
    /// Execute a CTA barrier every N iterations (None = no barriers).
    pub barrier_every: Option<u32>,
    /// RNG seed (runs are fully deterministic given the seed).
    pub seed: u64,
}

impl WorkloadParams {
    /// A neutral starting point for custom workloads: moderate size,
    /// streaming, fully coalesced, no reuse, no barriers.
    pub fn template(name: &str) -> Self {
        WorkloadParams {
            name: name.to_owned(),
            ctas: 30,
            warps_per_cta: 8,
            max_ctas_per_core: 8,
            iters: 16,
            alu_per_iter: 6,
            alu_latency: 4,
            shared_per_iter: 0,
            shared_latency: 24,
            loads_per_iter: 2,
            stores_per_iter: 0,
            lines_per_load_min: 1,
            lines_per_load_max: 1,
            consume_distance: 2,
            pattern: AccessPattern::Streaming,
            working_set_lines: 50_000,
            reuse_fraction: 0.0,
            l1_reuse_fraction: 0.0,
            hot_lines: 2_048,
            barrier_every: None,
            seed: 0xC0FFEE,
        }
    }

    /// Instructions in one loop iteration. When barriers are configured
    /// the iteration carries a synchronization slot, which holds a barrier
    /// on matching iterations and a filler ALU op otherwise.
    pub fn instrs_per_iter(&self) -> u32 {
        self.loads_per_iter
            + self.alu_per_iter
            + self.shared_per_iter
            + self.stores_per_iter
            + u32::from(self.barrier_every.is_some())
    }

    /// Approximate total warp instructions the kernel will retire.
    pub fn approx_total_instructions(&self) -> u64 {
        u64::from(self.ctas)
            * u64::from(self.warps_per_cta)
            * u64::from(self.iters)
            * u64::from(self.instrs_per_iter())
    }

    /// Scales the amount of work (grid and iterations) by `factor`,
    /// keeping the per-iteration behaviour identical. Used to produce fast
    /// variants for unit tests and quick `repro --scale` runs.
    pub fn scaled(&self, factor: f64) -> Self {
        let mut p = self.clone();
        p.ctas = ((f64::from(self.ctas) * factor).round() as u32).max(1);
        p.iters = ((f64::from(self.iters) * factor.sqrt()).round() as u32).max(1);
        p
    }

    /// Checks internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on zero grid/warps/iterations, an empty instruction body,
    /// inverted coalescing bounds, or an out-of-range reuse fraction.
    pub fn validate(&self) {
        assert!(self.ctas > 0, "{}: ctas must be positive", self.name);
        assert!(
            self.warps_per_cta > 0,
            "{}: warps_per_cta must be positive",
            self.name
        );
        assert!(self.iters > 0, "{}: iters must be positive", self.name);
        assert!(
            self.instrs_per_iter() > 0,
            "{}: iteration body must not be empty",
            self.name
        );
        assert!(
            self.lines_per_load_min >= 1 && self.lines_per_load_min <= self.lines_per_load_max,
            "{}: coalescing bounds invalid",
            self.name
        );
        assert!(
            self.lines_per_load_max <= 32,
            "{}: a warp has 32 lanes",
            self.name
        );
        assert!(
            (0.0..=1.0).contains(&self.reuse_fraction),
            "{}: reuse fraction out of range",
            self.name
        );
        assert!(
            (0.0..=1.0).contains(&self.l1_reuse_fraction),
            "{}: L1 reuse fraction out of range",
            self.name
        );
        assert!(
            self.working_set_lines > 0,
            "{}: empty working set",
            self.name
        );
        assert!(self.hot_lines > 0, "{}: empty hot region", self.name);
        if let Some(n) = self.barrier_every {
            assert!(n > 0, "{}: barrier_every must be positive", self.name);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_is_valid() {
        WorkloadParams::template("t").validate();
    }

    #[test]
    fn instr_counting() {
        let mut p = WorkloadParams::template("t");
        p.loads_per_iter = 2;
        p.alu_per_iter = 3;
        p.shared_per_iter = 1;
        p.stores_per_iter = 1;
        p.barrier_every = Some(1);
        assert_eq!(p.instrs_per_iter(), 8);
        p.barrier_every = None;
        assert_eq!(p.instrs_per_iter(), 7);
    }

    #[test]
    fn scaled_shrinks_work() {
        let p = WorkloadParams::template("t");
        let s = p.scaled(0.25);
        assert!(s.ctas < p.ctas);
        assert!(s.iters <= p.iters);
        assert!(s.ctas >= 1 && s.iters >= 1);
        s.validate();
    }

    #[test]
    #[should_panic(expected = "coalescing bounds invalid")]
    fn validate_rejects_inverted_bounds() {
        let mut p = WorkloadParams::template("t");
        p.lines_per_load_min = 4;
        p.lines_per_load_max = 2;
        p.validate();
    }

    #[test]
    #[should_panic(expected = "32 lanes")]
    fn validate_rejects_excess_divergence() {
        let mut p = WorkloadParams::template("t");
        p.lines_per_load_max = 64;
        p.validate();
    }
}
