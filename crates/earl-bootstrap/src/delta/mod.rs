//! Delta-maintenance optimisations for the resampling procedure (§4).
//!
//! The most expensive part of EARL is re-running the user's job on resamples of
//! an ever-growing sample.  Two optimisations cut that cost:
//!
//! * [`inter`] — **inter-iteration** maintenance (§4.1): when the sample grows
//!   from `s` to `s′ = s ∪ Δs`, the existing resamples are *updated* instead of
//!   redrawn, using a binomial/Gaussian model of how many of a resample's items
//!   should come from `s` vs `Δs`, backed by a two-layer sketch/disk structure.
//! * [`intra`] — **intra-iteration** maintenance (§4.2): consecutive resamples
//!   of the same sample share a sizable fraction of identical items (Eq. 4);
//!   that shared part need not be reprocessed.

pub mod inter;
pub mod intra;

pub use inter::{IncrementalBootstrap, SketchConfig, UpdateWork};
pub use intra::{expected_work_saved, optimal_y, overlap_probability};
