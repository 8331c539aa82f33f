//! Flamegraph folded-stacks export.
//!
//! One line per aggregated stack, `frame;frame;... <weight>`, the format
//! `flamegraph.pl` and speedscope ingest directly. Frames nest top-level
//! → future#attempt → category, so the width of a `wasted` leaf under a
//! future is exactly that future's aborted-speculation time. Weights are
//! virtual-clock units (they render as sample counts). Lines are sorted
//! lexicographically, so the export is byte-deterministic.

use super::dag::Model;
use super::path::lane_tiling;
use std::collections::BTreeMap;

pub(crate) fn folded_stacks(model: &Model) -> String {
    let mut agg: BTreeMap<String, u64> = BTreeMap::new();
    for lane in &model.lanes {
        for seg in lane_tiling(model, lane) {
            let mut frames: Vec<String> = Vec::new();
            match seg.top {
                Some(top) => frames.push(format!("top:{top}")),
                None => frames.push(format!("lane:{}", lane.index)),
            }
            if let Some(fut) = seg.future {
                match seg.attempt {
                    Some(k) => frames.push(format!("future:{fut}#a{k}")),
                    None => frames.push(format!("future:{fut}")),
                }
            }
            frames.push(seg.category.name().to_string());
            *agg.entry(frames.join(";")).or_insert(0) += seg.dur();
        }
    }
    let mut out = String::new();
    for (stack, weight) in agg {
        if weight == 0 {
            continue;
        }
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&weight.to_string());
        out.push('\n');
    }
    out
}
