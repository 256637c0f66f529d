//! AAPSM layout model: design rules, features, shifters, overlaps,
//! space-insertion transforms and synthetic industrial-like generators.
//!
//! This crate is the physical-design substrate of the DATE 2005
//! bright-field AAPSM reproduction. A [`Layout`] is a set of rectangles on
//! the polysilicon layer; [`extract_phase_geometry`] classifies critical
//! features, generates their flanking phase shifters per the
//! [`DesignRules`], and finds every pair of shifters that must be merged
//! (assigned the same phase) because they violate the shifter spacing rule
//! through clear area.
//!
//! The phase-assignability of the result can be checked directly with
//! [`check_assignable`] (an independent constraint-propagation oracle used
//! to cross-validate the conflict-graph pipeline in `aapsm-core`), and
//! layouts can be modified by end-to-end space insertion ([`SpaceCut`])
//! exactly as the paper's correction scheme prescribes.
//!
//! # Example
//!
//! ```
//! use aapsm_layout::{extract_phase_geometry, fixtures, check_assignable, DesignRules};
//!
//! let rules = DesignRules::default();
//! // A gate crossing over a strap: the strap's top shifter must merge with
//! // both of the gate's shifters — an odd cycle, hence not assignable.
//! let layout = fixtures::gate_over_strap(&rules);
//! let geom = extract_phase_geometry(&layout, &rules);
//! assert!(check_assignable(&geom).is_err());
//! ```
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod assign;
mod certify;
pub mod fixtures;
mod hier;
mod layout;
mod phase_geom;
mod placement;
mod rules;
pub mod synth;
mod transform;

pub use assign::{check_assignable, AssignabilityWitness, PhaseAssignment};
pub use certify::{certify_cuts, derive_cut_geometry, CertificateRefusal, CutDerivation};
pub use hier::{Cell, HierLayout, Instance, TopSplit};
pub use layout::{Layout, LayoutError, LayoutStats, LayoutViolation};
pub use phase_geom::{
    extract_phase_geometry, extract_phase_geometry_par, extract_phase_geometry_recorded,
    DirectConflict, Feature, FeatureOrientation, OverlapPair, PhaseGeometry, ScanRecord, Shifter,
    Side,
};
pub use placement::{Orient, Placement, Rot};
pub use rules::DesignRules;
pub use transform::{apply_cuts, CutMap, SpaceCut};
