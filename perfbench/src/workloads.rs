//! The four workloads' op lists, each a pure function of the seed. The
//! seed picks op order, the exact shapes inside each workload's fixed
//! strata, and the seeds the tensor values are drawn from; the program
//! under test only ever sees the generated tensors.

use crate::rng::Rng;
use dv_core::{fig7_workloads, table1_workloads};
use dv_tensor::PoolParams;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Table1Fwd,
    TrainStep,
    ServeMix,
    ModelSeg,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Table1Fwd,
        Workload::TrainStep,
        Workload::ServeMix,
        Workload::ModelSeg,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Fwd => "table1-fwd",
            Workload::TrainStep => "train-step",
            Workload::ServeMix => "serve-mix",
            Workload::ModelSeg => "model-seg",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    MaxFwd,
    MaxFwdArgmax,
    AvgFwd,
    MaxBwd,
    AvgBwd,
    /// Forward with argmax, then backward through that mask.
    TrainStep,
    /// One `dv_nn::segments` model slice, by name.
    Segment(&'static str),
}

#[derive(Clone, Debug, PartialEq)]
pub struct OpSpec {
    pub label: String,
    pub kind: Kind,
    pub c: usize,
    pub h: usize,
    pub w: usize,
    pub params: PoolParams,
    /// Seed of this op's tensor values.
    pub values: u64,
}

impl OpSpec {
    fn new(rng: &mut Rng, label: String, kind: Kind, (c, h, w): (usize, usize, usize)) -> OpSpec {
        OpSpec {
            label,
            kind,
            c,
            h,
            w,
            params: PoolParams::K3S2,
            values: rng.next_u64(),
        }
    }
}

/// `serve-mix` forward anchors `(side, channels)`: `side² · channels`
/// spans about 25k..200k elements, so jobs differ in size by about 10×.
/// The seed moves each side by up to ±1 and orders the jobs; anchoring
/// the sizes keeps the total work of the list within a few percent
/// across seeds.
const FWD_ANCHORS: [(usize, usize); 8] = [
    (14, 128),
    (16, 256),
    (22, 96),
    (26, 256),
    (32, 48),
    (38, 128),
    (44, 32),
    (54, 64),
];

/// `serve-mix` backward anchors `(side, channels)`: one or two channel
/// planes each.
const BWD_ANCHORS: [(usize, usize); 8] = [
    (16, 16),
    (18, 32),
    (26, 16),
    (30, 32),
    (38, 16),
    (40, 32),
    (50, 16),
    (54, 32),
];

/// Side jitter the seed may apply to an anchor.
const JITTER: usize = 1;

pub fn op_list(workload: Workload, seed: u64) -> Vec<OpSpec> {
    let mut rng = Rng::fork(seed, workload as u64 + 1);
    let mut ops = match workload {
        Workload::Table1Fwd => table1_workloads()
            .into_iter()
            .map(|t| {
                let label = format!("{}-{} {}x{}x{}", t.cnn, t.input_idx, t.h, t.w, t.c);
                let mut op = OpSpec::new(&mut rng, label, Kind::MaxFwd, (t.c, t.h, t.w));
                op.params = t.params;
                op
            })
            .collect::<Vec<_>>(),
        Workload::TrainStep => fig7_workloads()
            .into_iter()
            .map(|t| {
                let label = format!("train {}x{}x{}", t.h, t.w, t.c);
                let mut op = OpSpec::new(&mut rng, label, Kind::TrainStep, (t.c, t.h, t.w));
                op.params = t.params;
                op
            })
            .collect(),
        Workload::ServeMix => {
            let mut ops = Vec::new();
            let kinds = [
                (Kind::MaxFwd, &FWD_ANCHORS),
                (Kind::MaxFwdArgmax, &FWD_ANCHORS),
                (Kind::AvgFwd, &FWD_ANCHORS),
                (Kind::MaxBwd, &BWD_ANCHORS),
                (Kind::AvgBwd, &BWD_ANCHORS),
            ];
            for (kind, anchors) in kinds {
                for &(side, c) in anchors {
                    let side = rng.range(side - JITTER, side + JITTER).clamp(14, 56);
                    let label = format!("{kind:?} {side}x{side}x{c}");
                    ops.push(OpSpec::new(&mut rng, label, kind, (c, side, side)));
                }
            }
            ops
        }
        Workload::ModelSeg => {
            // Two inception-seg images to one vgg16-seg image, so the
            // median op lands inside one segment's mode, not between two.
            ["inception-seg", "inception-seg", "vgg16-seg"]
                .into_iter()
                .map(|name| {
                    let seg = dv_nn::segment_by_name(name).expect("pinned segment");
                    let (c, h, w) = (seg.input.c, seg.input.h, seg.input.w);
                    OpSpec::new(&mut rng, name.to_string(), Kind::Segment(name), (c, h, w))
                })
                .collect()
        }
    };
    rng.shuffle(&mut ops);
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_op_list() {
        for w in Workload::ALL {
            assert_eq!(op_list(w, 7), op_list(w, 7), "{}", w.name());
        }
    }

    #[test]
    fn a_different_seed_gives_a_different_op_list() {
        for w in Workload::ALL {
            assert_ne!(op_list(w, 7), op_list(w, 8), "{}", w.name());
        }
    }

    #[test]
    fn op_lists_have_their_fixed_composition() {
        for seed in 0..20 {
            let t = op_list(Workload::Table1Fwd, seed);
            assert_eq!(t.len(), 13);
            let mut labels: Vec<_> = t.iter().map(|o| o.label.clone()).collect();
            labels.sort();
            labels.dedup();
            assert_eq!(labels.len(), 13, "every Table I row once");

            assert_eq!(op_list(Workload::TrainStep, seed).len(), 3);

            let s = op_list(Workload::ServeMix, seed);
            assert_eq!(s.len(), 40);
            for kind in [
                Kind::MaxFwd,
                Kind::MaxFwdArgmax,
                Kind::AvgFwd,
                Kind::MaxBwd,
                Kind::AvgBwd,
            ] {
                assert_eq!(s.iter().filter(|o| o.kind == kind).count(), 8);
            }
            for o in &s {
                assert!((14..=56).contains(&o.h) && o.h == o.w);
                match o.kind {
                    Kind::MaxBwd | Kind::AvgBwd => assert!(o.c == 16 || o.c == 32),
                    _ => assert!((32..=256).contains(&o.c) && o.c % 16 == 0),
                }
            }

            let m = op_list(Workload::ModelSeg, seed);
            assert_eq!(m.len(), 3);
            assert_eq!(m.iter().filter(|o| o.label == "vgg16-seg").count(), 1);
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
