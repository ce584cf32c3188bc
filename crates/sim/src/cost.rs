//! The cycle cost model.
//!
//! Every charge the simulator makes is a field of [`CostModel`], so
//! experiments can ablate individual mechanisms (`repro -- ablate` sweeps
//! issue overhead and mask behaviour to decompose the paper's speedups).
//!
//! The two "performance factors" of Section V map to the model like this:
//!
//! 1. *Mask saturation* — a vector repeat iteration costs
//!    [`CostModel::vector_per_repeat`] cycles **regardless of how many of
//!    the 128 mask lanes are enabled**. A kernel that can only enable the
//!    16 C0 lanes therefore needs 8x the repeats (or 8x the instructions)
//!    for the same useful work.
//! 2. *Repeat amortisation* — every instruction pays
//!    [`CostModel::issue_overhead`] once, covering decode, the scalar
//!    unit's address arithmetic, and the pipeline barrier between
//!    dependent vector instructions. A hardware repeat reissues without
//!    paying it again, so "a single instruction should operate over an
//!    entire tensor (or tile)".

/// How an AI Core dispatches instructions to its functional units.
///
/// The real DaVinci core decodes in order but hands instructions to
/// per-unit issue queues, so an MTE/SCU load can run while the Vector
/// Unit computes on previously-loaded data — exactly the overlap the
/// paper's `Im2Col` pipeline exploits. The simulator models both the
/// idealised serial machine (every instruction waits for the previous
/// one) and the two-queue machine with a hazard scoreboard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IssueModel {
    /// Strictly serial: each instruction issues when the previous one
    /// retires. This is the PR 1 model; cycle totals equal the sum of
    /// per-instruction charges by construction.
    SingleIssue,
    /// Two in-order pipes — MTE/SCU (`mte_move`, `im2col`) on one,
    /// Vector/Cube (`vmax`, `vadd`, `col2im`, `cube_mmad`) on the other —
    /// synchronised only by a per-buffer byte-range scoreboard enforcing
    /// RAW/WAR/WAW hazards. Cycle totals are the makespan, which is never
    /// larger than the single-issue sum.
    #[default]
    DualPipe,
}

/// How the *host* executes the functional simulation. Purely a
/// host-side choice: every backend computes the same f16 bytes, charges
/// the same cycles through [`CostModel::instr_cycles`], and books the
/// same counters, peaks, and traces — the differential test wall
/// (`backend_is_bit_identical`) and the host-throughput gate both
/// enforce it. Only wall-clock time on the machine running the
/// simulator changes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// The reference interpreter: every f16 element goes through the
    /// `Result`-checked [`crate::buffers::BufferSet::read_f16`] /
    /// `write_f16` path, and the chip runs its cores sequentially.
    /// Slowest, and the semantics oracle the other backends are
    /// differentially tested against.
    Scalar,
    /// Each executor validates every operand's full byte span once per
    /// instruction, decodes what is fixed for the whole instruction once
    /// (the vector op and its mask's lane runs, an SCU patch walk, the
    /// Cube's f32 operand tiles), then runs the element loop over raw
    /// slices with no per-element checks; f16 arithmetic on a run of
    /// lanes or `Col2Im` rows goes through `dv_fp16`'s batch kernels
    /// (F16C where the host CPU has it). Instructions whose conservative
    /// span validation declines (an out-of-range operand, an odd stride,
    /// an f16 view of L0C) fall back to the `Scalar` interpreter so error
    /// values and partial-write effects stay bit-identical. Cores run one
    /// after another on the calling thread, reusing one scratchpad set.
    Sliced,
    /// `Sliced` executors, with the chip's active cores spread over
    /// `min(active cores, available_parallelism())` host threads in
    /// [`crate::chip::Chip::run`]. Each host thread reuses one scratchpad
    /// set across its simulated cores, and every simulated core writes
    /// GM only into its own copy-on-write pages, so core-level
    /// parallelism never reorders anything observable. The default.
    #[default]
    Threaded,
}

impl Backend {
    /// All backends, `Scalar` (the oracle) first.
    pub const ALL: [Backend; 3] = [Backend::Scalar, Backend::Sliced, Backend::Threaded];

    /// Stable lowercase name (`scalar` / `sliced` / `threaded`).
    pub const fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Sliced => "sliced",
            Backend::Threaded => "threaded",
        }
    }

    /// Parse a backend name as accepted by `--backend` flags.
    pub fn parse(s: &str) -> Option<Backend> {
        match s {
            "scalar" => Some(Backend::Scalar),
            "sliced" => Some(Backend::Sliced),
            "threaded" => Some(Backend::Threaded),
            _ => None,
        }
    }

    /// Whether the functional executors may take the span-validated
    /// slice fast paths (everything but the reference interpreter).
    pub(crate) fn sliced_exec(self) -> bool {
        !matches!(self, Backend::Scalar)
    }
}

impl core::fmt::Display for Backend {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Cycle charges for each simulated mechanism.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Per-instruction overhead: decode + Scalar Unit index/address
    /// arithmetic + inter-instruction barrier.
    pub issue_overhead: u64,
    /// Cycles per vector repeat iteration (one 256-byte block, mask
    /// lanes enabled or not).
    pub vector_per_repeat: u64,
    /// Cycles per fractal an `Im2Col` issue produces (SCU transform
    /// overlapped with the L1 -> target-buffer transfer).
    pub im2col_per_fractal: u64,
    /// Cycles per fractal a `Col2Im` issue merges (load scattered target
    /// lines, add, store back — a read-modify-write).
    pub col2im_per_fractal: u64,
    /// MTE bandwidth: bytes moved per cycle on the GM <-> scratchpad and
    /// scratchpad <-> scratchpad paths.
    pub move_bytes_per_cycle: u64,
    /// Cycles per fractal-pair multiplication in the Cube Unit ("can
    /// multiply two data-fractals per clock cycle" -> 1).
    pub cube_per_fractal_pair: u64,
    /// Per-tile dispatch overhead the chip charges when handing a program
    /// to a core (block scheduling, parameter registers).
    pub core_dispatch: u64,
    /// How instructions issue to the functional units (dual-pipe by
    /// default; [`IssueModel::SingleIssue`] reproduces the legacy serial
    /// timing exactly).
    pub issue_model: IssueModel,
    /// Host execution backend. Affects wall-clock speed of the simulator
    /// process only — simulated results, cycles, counters, traces, and
    /// peaks are backend-invariant by construction (the fast paths
    /// delegate to the reference interpreter whenever semantics could
    /// diverge).
    pub backend: Backend,
}

impl CostModel {
    /// Defaults calibrated so the reproduced figures land in the paper's
    /// regime (Fig. 7: ~3x forward, ~5x forward+argmax, ~6x backward at
    /// the largest InceptionV3 shape; Fig. 8: direct pooling wins at
    /// stride (1,1)). See EXPERIMENTS.md for the calibration record.
    pub const fn ascend910_like() -> CostModel {
        CostModel {
            issue_overhead: 16,
            vector_per_repeat: 1,
            // The SCU transformations gather/scatter strided C0 groups,
            // ~25.6 B/cyc — slightly below the MTE's sequential 32 B/cyc:
            // one 512-byte fractal every 20 cycles. Col2Im's scattered
            // read-modify-write fits the same stream window.
            im2col_per_fractal: 20,
            col2im_per_fractal: 20,
            move_bytes_per_cycle: 32,
            cube_per_fractal_pair: 1,
            core_dispatch: 64,
            issue_model: IssueModel::DualPipe,
            backend: Backend::Threaded,
        }
    }

    /// The same cost model under a different host execution backend.
    /// Simulated behaviour is unchanged; only host wall-clock speed
    /// differs.
    pub const fn with_backend(mut self, backend: Backend) -> CostModel {
        self.backend = backend;
        self
    }

    /// The legacy serial machine: identical charges, but every
    /// instruction waits for the previous one to retire. Reproduces the
    /// PR 1 cycle counts (and the pre-dual-pipe committed baselines)
    /// exactly. The test oracle the dual-pipe makespan is checked
    /// against (dual <= single, bit-identical results).
    pub const fn single_issue() -> CostModel {
        CostModel {
            issue_model: IssueModel::SingleIssue,
            ..CostModel::ascend910_like()
        }
    }

    /// A model with zero issue overhead — ablation: how much of the
    /// speedup comes from repeat amortisation alone?
    pub const fn zero_issue_overhead() -> CostModel {
        CostModel {
            issue_overhead: 0,
            ..CostModel::ascend910_like()
        }
    }

    /// Cycles for a whole data move of `bytes` bytes (excluding issue
    /// overhead).
    pub fn move_cycles(&self, bytes: usize) -> u64 {
        (bytes as u64).div_ceil(self.move_bytes_per_cycle)
    }

    /// The cycle charge of one instruction under this model. This is the
    /// single source of truth the executors charge through, and — because
    /// the charge is a pure function of `(instruction, model)` — what
    /// static program costing (e.g. the auto-tuner's certified cycle
    /// floors in `dv-core`) can evaluate without executing anything.
    pub fn instr_cycles(&self, instr: &dv_isa::Instr) -> u64 {
        use dv_isa::Instr;
        match instr {
            Instr::Vector(v) => self.issue_overhead + v.repeat as u64 * self.vector_per_repeat,
            Instr::Im2Col(i) => self.issue_overhead + i.repeat as u64 * self.im2col_per_fractal,
            Instr::Col2Im(c) => self.issue_overhead + c.repeat as u64 * self.col2im_per_fractal,
            Instr::Move(m) => self.issue_overhead + self.move_cycles(m.bytes),
            Instr::Cube(c) => {
                self.issue_overhead + c.fractal_ops() as u64 * self.cube_per_fractal_pair
            }
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::ascend910_like()
    }
}

/// Scratchpad capacities of one Ascend 910 AI Core (published DaVinci
/// parameters; the Unified Buffer size sets the tiling threshold in
/// Fig. 8).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Capacities {
    /// L1 buffer bytes.
    pub l1: usize,
    /// L0A bytes.
    pub l0a: usize,
    /// L0B bytes.
    pub l0b: usize,
    /// L0C bytes.
    pub l0c: usize,
    /// Unified Buffer bytes.
    pub ub: usize,
}

impl Capacities {
    /// Ascend 910: L1 = 1 MiB, L0A = L0B = 64 KiB, L0C = 256 KiB,
    /// UB = 256 KiB.
    pub const ASCEND910: Capacities = Capacities {
        l1: 1024 * 1024,
        l0a: 64 * 1024,
        l0b: 64 * 1024,
        l0c: 256 * 1024,
        ub: 256 * 1024,
    };
}

impl Default for Capacities {
    fn default() -> Self {
        Capacities::ASCEND910
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn move_cycles_rounds_up() {
        let c = CostModel::ascend910_like();
        assert_eq!(c.move_cycles(0), 0);
        assert_eq!(c.move_cycles(1), 1);
        assert_eq!(c.move_cycles(32), 1);
        assert_eq!(c.move_cycles(33), 2);
        assert_eq!(c.move_cycles(1024), 32);
    }

    #[test]
    fn ablation_model_differs_only_in_issue() {
        let a = CostModel::ascend910_like();
        let z = CostModel::zero_issue_overhead();
        assert_eq!(z.issue_overhead, 0);
        assert_eq!(z.vector_per_repeat, a.vector_per_repeat);
        assert_eq!(z.move_bytes_per_cycle, a.move_bytes_per_cycle);
    }

    #[test]
    fn single_issue_model_differs_only_in_issue_model() {
        let dual = CostModel::ascend910_like();
        let single = CostModel::single_issue();
        assert_eq!(dual.issue_model, IssueModel::DualPipe);
        assert_eq!(single.issue_model, IssueModel::SingleIssue);
        assert_eq!(
            CostModel {
                issue_model: IssueModel::DualPipe,
                ..single
            },
            dual,
            "charges must be identical between the two issue models"
        );
    }

    #[test]
    fn backend_changes_no_charge_and_round_trips() {
        let dual = CostModel::ascend910_like();
        assert_eq!(dual.backend, Backend::Threaded);
        assert_eq!(Backend::default(), Backend::Threaded);
        for b in Backend::ALL {
            let m = dual.with_backend(b);
            assert_eq!(
                CostModel {
                    backend: dual.backend,
                    ..m
                },
                dual,
                "a backend swap must never change a cycle charge"
            );
            assert_eq!(Backend::parse(b.name()), Some(b));
            assert_eq!(b.to_string(), b.name());
        }
        assert_eq!(Backend::parse("simd"), None);
    }

    #[test]
    fn capacities_match_published_values() {
        let c = Capacities::ASCEND910;
        assert_eq!(c.l1, 1 << 20);
        assert_eq!(c.ub, 256 << 10);
        assert_eq!(c.l0a, 64 << 10);
    }
}
