//! Disk layouts: how generated values are ordered when written to the DFS.
//!
//! The paper's discussion of block sampling (§3.3, §7) hinges on the physical
//! layout: when records are clustered on disk by value, block-level samples are
//! biased; when the layout is random, block samples behave like uniform
//! samples.  The experiments therefore need both layouts.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// The order in which values are written to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Layout {
    /// Values are written in random order (the "random layout" case where block
    /// sampling is as good as uniform sampling).
    Shuffled,
    /// Values are written sorted ascending — the worst case for block sampling
    /// ("data is clustered on a particular attribute").
    ClusteredAscending,
    /// Values are written exactly in generation order.
    AsGenerated,
}

/// Applies a layout to a vector of values.
pub fn apply_layout(mut values: Vec<f64>, layout: Layout, seed: u64) -> Vec<f64> {
    match layout {
        Layout::Shuffled => {
            let mut rng = StdRng::seed_from_u64(seed);
            values.shuffle(&mut rng);
            values
        }
        Layout::ClusteredAscending => {
            values.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            values
        }
        Layout::AsGenerated => values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layouts_preserve_the_multiset() {
        let values: Vec<f64> = (0..1000).map(|i| (i % 97) as f64).collect();
        for layout in [
            Layout::Shuffled,
            Layout::ClusteredAscending,
            Layout::AsGenerated,
        ] {
            let mut out = apply_layout(values.clone(), layout, 1);
            out.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut expected = values.clone();
            expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(out, expected, "{layout:?} must not lose values");
        }
    }

    #[test]
    fn clustered_layout_is_sorted_and_shuffled_is_not() {
        let values: Vec<f64> = (0..500).rev().map(|i| i as f64).collect();
        let clustered = apply_layout(values.clone(), Layout::ClusteredAscending, 1);
        assert!(clustered.windows(2).all(|w| w[0] <= w[1]));
        let shuffled = apply_layout(values.clone(), Layout::Shuffled, 1);
        assert!(shuffled.windows(2).any(|w| w[0] > w[1]));
        assert_eq!(apply_layout(values.clone(), Layout::AsGenerated, 1), values);
    }
}
