//! Exact integer 2-D geometry for mask layouts.
//!
//! All coordinates are [`i64`] database units (by convention 1 dbu = 1 nm at
//! the 90 nm node used throughout this workspace). Every predicate is exact:
//! intermediate products are computed in `i128`, so there is no floating
//! point anywhere in the phase-conflict flow built on top of this crate.
//!
//! The crate provides:
//!
//! * [`Point`] — a 2-D integer point with exact orientation predicates,
//! * [`Interval`] — a 1-D closed integer interval,
//! * [`Rect`] — an axis-aligned rectangle with exact gap/distance queries,
//! * [`Segment`] — a line segment with exact crossing predicates (the
//!   workhorse of planar-embedding crossing detection),
//! * [`GridIndex`] — a flat, immutable uniform-grid index (sorted occupied
//!   cells over one id array) used to find interacting pairs among hundreds
//!   of thousands of shifters or graph edges in near-linear time.
//!
//! # Example
//!
//! ```
//! use aapsm_geom::{Point, Rect, Segment};
//!
//! let a = Rect::new(0, 0, 100, 400);
//! let b = Rect::new(160, 0, 260, 400);
//! assert_eq!(a.x_gap(&b), 60);            // 60 dbu of horizontal space
//! assert!(a.euclid_gap_sq(&b) < 80 * 80); // closer than an 80 dbu rule
//!
//! let s = Segment::new(Point::new(0, 0), Point::new(10, 10));
//! let t = Segment::new(Point::new(0, 10), Point::new(10, 0));
//! assert!(s.crosses(&t)); // proper interior crossing
//! ```
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod dirty;
pub mod fxhash;
mod grid;
mod interval;
mod point;
mod rect;
mod segment;
mod soa;

pub use dirty::{CutSpec, DirtyRegions};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use grid::{par_map_indexed, resolve_workers, workers_for, GridIndex, SERIAL_FALLBACK_WORK};
pub use interval::Interval;
pub use point::{Orientation, Point};
pub use rect::{Axis, Rect};
pub use segment::Segment;
pub use soa::{RectSoA, SegmentSoA};
