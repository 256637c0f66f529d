//! GDSII stream-format reader/writer for rectangle layouts —
//! hierarchical cell/instance streams included.
//!
//! The paper's benchmarks are industrial GDSII layouts; this crate gives
//! the workspace a real interchange path. A flat [`Layout`] can be
//! written as a stream with a single structure (one `BOUNDARY` per
//! rectangle) and read back; a hierarchical [`HierLayout`] round-trips
//! through `BGNSTR`/`SREF` structures so cell/instance designs ingest
//! **without flattening** ([`read_gds_hier`]).
//!
//! Interpreted records: `HEADER`, `BGNLIB`, `LIBNAME`, `UNITS`, `BGNSTR`,
//! `STRNAME`, `BOUNDARY`, `LAYER`, `DATATYPE`, `XY`, `ENDEL`, `ENDSTR`,
//! `ENDLIB`, and the reference records `SREF`, `AREF`, `SNAME`, `STRANS`,
//! `MAG`, `ANGLE`, `COLROW` (90°-multiple rotations, X-axis reflection,
//! unit magnification). Anything else — `TEXT`, `PATH`, `NODE`, `BOX`
//! elements, properties — is skipped, and every skip is **counted and
//! surfaced** in [`GdsRead::skipped_records`]: a stream that loses data
//! on ingest says so, it never decodes silently to a partial layout.
//! Unresolvable structure references (unknown name, duplicate name,
//! reference cycle) are structured [`GdsError`]s.
//!
//! # Example
//!
//! ```
//! use aapsm_gds::{read_gds, write_gds};
//! use aapsm_layout::Layout;
//! use aapsm_geom::Rect;
//!
//! let layout = Layout::from_rects(vec![Rect::new(0, 0, 100, 400)]);
//! let bytes = write_gds(&layout, "POLY");
//! let back = read_gds(&bytes)?;
//! assert_eq!(back, layout);
//! # Ok::<(), aapsm_gds::GdsError>(())
//! ```
//!
//! Hierarchical round-trip:
//!
//! ```
//! use aapsm_gds::{read_gds_hier, write_gds_hier};
//! use aapsm_layout::{Cell, HierLayout, Instance, Placement};
//! use aapsm_geom::Rect;
//!
//! let mut h = HierLayout::new();
//! let mut gate = Cell::new("GATE");
//! gate.rects.push(Rect::new(0, 0, 100, 2000));
//! let gate = h.add_cell(gate);
//! let mut top = Cell::new("TOP");
//! top.instances.push(Instance { cell: gate, placement: Placement::at(0, 0) });
//! top.instances.push(Instance { cell: gate, placement: Placement::at(560, 0) });
//! let top = h.add_cell(top);
//! h.top = Some(top);
//! let read = read_gds_hier(&write_gds_hier(&h, "AAPSM"))?;
//! assert_eq!(read.hier, h);
//! assert!(read.skipped_records.is_empty());
//! # Ok::<(), aapsm_gds::GdsError>(())
//! ```
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use aapsm_geom::{Point, Rect};
use aapsm_layout::{Cell, HierLayout, Instance, Layout, Orient, Placement, Rot};
use std::collections::BTreeMap;
use std::fmt;

/// Record type bytes (record type, data type).
mod rt {
    pub const HEADER: (u8, u8) = (0x00, 0x02);
    pub const BGNLIB: (u8, u8) = (0x01, 0x02);
    pub const LIBNAME: (u8, u8) = (0x02, 0x06);
    pub const UNITS: (u8, u8) = (0x03, 0x05);
    pub const ENDLIB: (u8, u8) = (0x04, 0x00);
    pub const BGNSTR: (u8, u8) = (0x05, 0x02);
    pub const STRNAME: (u8, u8) = (0x06, 0x06);
    pub const ENDSTR: (u8, u8) = (0x07, 0x00);
    pub const BOUNDARY: (u8, u8) = (0x08, 0x00);
    pub const PATH: (u8, u8) = (0x09, 0x00);
    pub const SREF: (u8, u8) = (0x0a, 0x00);
    pub const AREF: (u8, u8) = (0x0b, 0x00);
    pub const TEXT: (u8, u8) = (0x0c, 0x00);
    pub const LAYER: (u8, u8) = (0x0d, 0x02);
    pub const DATATYPE: (u8, u8) = (0x0e, 0x02);
    pub const XY: (u8, u8) = (0x10, 0x03);
    pub const ENDEL: (u8, u8) = (0x11, 0x00);
    pub const SNAME: (u8, u8) = (0x12, 0x06);
    pub const COLROW: (u8, u8) = (0x13, 0x02);
    pub const NODE: (u8, u8) = (0x15, 0x00);
    pub const STRANS: (u8, u8) = (0x1a, 0x01);
    pub const MAG: (u8, u8) = (0x1b, 0x05);
    pub const ANGLE: (u8, u8) = (0x1c, 0x05);
    pub const BOX: (u8, u8) = (0x2d, 0x00);
}

/// Error reading or writing a GDSII stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GdsError {
    /// The byte stream ended inside a record.
    Truncated,
    /// A record length field was invalid.
    BadRecordLength {
        /// Stream offset of the record.
        offset: usize,
    },
    /// A `BOUNDARY` element was not an axis-aligned rectangle.
    NotARectangle {
        /// Index of the offending boundary.
        boundary: usize,
    },
    /// A coordinate overflowed the GDSII 32-bit range on write.
    CoordinateOverflow,
    /// A record appeared where the stream grammar forbids it (element
    /// outside a structure, nested `BGNSTR`, `ENDSTR` with an element
    /// still open, missing `STRNAME`, ...).
    MisplacedRecord {
        /// Stream offset of the record.
        offset: usize,
    },
    /// An `SREF`/`AREF` element was malformed: missing `SNAME` or `XY`,
    /// wrong point count, bad or oversized `COLROW`, non-lattice array
    /// reference points.
    BadReference {
        /// Stream offset of the element's closing record.
        offset: usize,
    },
    /// A reference carries a transform outside the supported group:
    /// non-90° rotation, non-unit magnification, or absolute-transform
    /// flags.
    UnsupportedTransform {
        /// Stream offset of the offending record.
        offset: usize,
    },
    /// A reference names a structure the stream never defines.
    UnknownStructure {
        /// The unresolvable structure name.
        name: String,
    },
    /// Two structures share a name, making references ambiguous.
    DuplicateStructure {
        /// The duplicated structure name.
        name: String,
    },
    /// A cell's name cannot be written as a `STRNAME` (empty, embedded
    /// NUL, or longer than the record format allows).
    BadStructureName {
        /// Index of the offending cell.
        cell: usize,
    },
    /// The decoded layout failed input sanitization
    /// ([`aapsm_layout::Layout::sanitize`] /
    /// [`aapsm_layout::HierLayout::sanitize`] under default rules):
    /// degenerate or duplicate rectangles, coordinates unusably close to
    /// the i32 limit, reference cycles, or expansion blow-ups.
    InvalidLayout(aapsm_layout::LayoutError),
}

impl fmt::Display for GdsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GdsError::Truncated => write!(f, "gds stream truncated"),
            GdsError::BadRecordLength { offset } => {
                write!(f, "bad record length at offset {offset}")
            }
            GdsError::NotARectangle { boundary } => {
                write!(f, "boundary {boundary} is not an axis-aligned rectangle")
            }
            GdsError::CoordinateOverflow => write!(f, "coordinate exceeds the gds 32-bit range"),
            GdsError::MisplacedRecord { offset } => {
                write!(f, "record at offset {offset} violates the stream grammar")
            }
            GdsError::BadReference { offset } => {
                write!(f, "malformed structure reference at offset {offset}")
            }
            GdsError::UnsupportedTransform { offset } => {
                write!(
                    f,
                    "unsupported reference transform at offset {offset} \
                     (only 90-degree rotations, X reflection, unit magnification)"
                )
            }
            GdsError::UnknownStructure { name } => {
                write!(f, "reference to undefined structure {name:?}")
            }
            GdsError::DuplicateStructure { name } => {
                write!(f, "structure {name:?} defined more than once")
            }
            GdsError::BadStructureName { cell } => {
                write!(f, "cell {cell} has a name unrepresentable as STRNAME")
            }
            GdsError::InvalidLayout(e) => write!(f, "decoded layout failed sanitization: {e}"),
        }
    }
}

impl std::error::Error for GdsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GdsError::InvalidLayout(e) => Some(e),
            _ => None,
        }
    }
}

fn push_record(out: &mut Vec<u8>, kind: (u8, u8), data: &[u8]) {
    let len = 4 + data.len();
    assert!(
        len <= u16::MAX as usize && len.is_multiple_of(2),
        "record too long or odd"
    );
    out.extend_from_slice(&(len as u16).to_be_bytes());
    out.push(kind.0);
    out.push(kind.1);
    out.extend_from_slice(data);
}

fn push_ascii(out: &mut Vec<u8>, kind: (u8, u8), s: &str) {
    let mut data: Vec<u8> = s.bytes().collect();
    if data.len() % 2 == 1 {
        data.push(0);
    }
    push_record(out, kind, &data);
}

fn push_library_header(out: &mut Vec<u8>, lib_name: &str) {
    push_record(out, rt::HEADER, &600i16.to_be_bytes());
    // Twelve i16 timestamp words (modification + access), all zero.
    push_record(out, rt::BGNLIB, &[0u8; 24]);
    push_ascii(out, rt::LIBNAME, lib_name);
    // UNITS: 1 dbu = 1e-3 user units (um), 1e-9 meters. Stored as two
    // 8-byte GDSII reals.
    let mut units = Vec::with_capacity(16);
    units.extend_from_slice(&gds_real(1e-3));
    units.extend_from_slice(&gds_real(1e-9));
    push_record(out, rt::UNITS, &units);
}

fn push_boundary(out: &mut Vec<u8>, r: &Rect) -> Result<(), GdsError> {
    push_record(out, rt::BOUNDARY, &[]);
    push_record(out, rt::LAYER, &1i16.to_be_bytes());
    push_record(out, rt::DATATYPE, &0i16.to_be_bytes());
    let pts = [
        (r.x_lo(), r.y_lo()),
        (r.x_hi(), r.y_lo()),
        (r.x_hi(), r.y_hi()),
        (r.x_lo(), r.y_hi()),
        (r.x_lo(), r.y_lo()),
    ];
    let mut xy = Vec::with_capacity(40);
    for (x, y) in pts {
        let x = i32::try_from(x).map_err(|_| GdsError::CoordinateOverflow)?;
        let y = i32::try_from(y).map_err(|_| GdsError::CoordinateOverflow)?;
        xy.extend_from_slice(&x.to_be_bytes());
        xy.extend_from_slice(&y.to_be_bytes());
    }
    push_record(out, rt::XY, &xy);
    push_record(out, rt::ENDEL, &[]);
    Ok(())
}

/// Writes a layout as a GDSII stream with a single structure named
/// `cell_name`, layer 1, datatype 0, 1 nm database units.
///
/// Rectangles become 5-point closed `BOUNDARY` paths in counter-clockwise
/// order.
///
/// # Panics
///
/// Panics if any coordinate exceeds the GDSII 32-bit range.
// Invariant, not an error path: panicking here is this wrapper's documented contract.
#[allow(clippy::expect_used)]
pub fn write_gds(layout: &Layout, cell_name: &str) -> Vec<u8> {
    try_write_gds(layout, cell_name).expect("layout coordinates fit the gds range")
}

/// Fallible version of [`write_gds`].
///
/// # Errors
///
/// Returns [`GdsError::CoordinateOverflow`] if a coordinate does not fit
/// in `i32`.
fn try_write_gds(layout: &Layout, cell_name: &str) -> Result<Vec<u8>, GdsError> {
    let mut out = Vec::with_capacity(layout.len() * 60 + 128);
    push_library_header(&mut out, "AAPSM");
    push_record(&mut out, rt::BGNSTR, &[0u8; 24]);
    push_ascii(&mut out, rt::STRNAME, cell_name);
    for r in layout.rects() {
        push_boundary(&mut out, r)?;
    }
    push_record(&mut out, rt::ENDSTR, &[]);
    push_record(&mut out, rt::ENDLIB, &[]);
    Ok(out)
}

/// Writes a hierarchical layout: one `BGNSTR` per cell (in table order),
/// one `SREF` per instance with `STRANS`/`ANGLE` carrying the placement
/// orientation.
///
/// # Panics
///
/// Panics when a coordinate or placement translation does not fit
/// `i32`, when a cell name cannot serve as a `STRNAME` reference key
/// (empty, too long, or duplicated), or on a dangling instance reference.
// Invariant, not an error path: panicking here is this wrapper's documented contract.
#[allow(clippy::expect_used)]
pub fn write_gds_hier(hier: &HierLayout, lib_name: &str) -> Vec<u8> {
    try_write_gds_hier(hier, lib_name).expect("hierarchy is stream-representable")
}

/// Fallible version of [`write_gds_hier`].
///
/// Arrays are emitted as individual `SREF`s (the in-memory model places
/// instances one by one); `AREF` is read-side only.
///
/// # Errors
///
/// [`GdsError::CoordinateOverflow`] when a coordinate or placement
/// translation does not fit `i32`; [`GdsError::BadStructureName`] /
/// [`GdsError::DuplicateStructure`] for names that cannot serve as
/// `STRNAME` reference keys; [`GdsError::InvalidLayout`] for dangling
/// instance references.
fn try_write_gds_hier(hier: &HierLayout, lib_name: &str) -> Result<Vec<u8>, GdsError> {
    let mut seen = BTreeMap::new();
    for (ci, cell) in hier.cells.iter().enumerate() {
        if cell.name.is_empty() || cell.name.contains('\0') || cell.name.len() > 512 {
            return Err(GdsError::BadStructureName { cell: ci });
        }
        if seen.insert(cell.name.as_str(), ci).is_some() {
            return Err(GdsError::DuplicateStructure {
                name: cell.name.clone(),
            });
        }
    }
    let mut out = Vec::new();
    push_library_header(&mut out, lib_name);
    for (ci, cell) in hier.cells.iter().enumerate() {
        push_record(&mut out, rt::BGNSTR, &[0u8; 24]);
        push_ascii(&mut out, rt::STRNAME, &cell.name);
        for r in &cell.rects {
            push_boundary(&mut out, r)?;
        }
        for (ii, inst) in cell.instances.iter().enumerate() {
            let target = hier.cells.get(inst.cell).ok_or(GdsError::InvalidLayout(
                aapsm_layout::LayoutError::UnknownCell {
                    cell: ci,
                    instance: ii,
                },
            ))?;
            push_record(&mut out, rt::SREF, &[]);
            push_ascii(&mut out, rt::SNAME, &target.name);
            let orient = inst.placement.orient;
            if !orient.is_identity() {
                let flags: u16 = if orient.reflect { 0x8000 } else { 0 };
                push_record(&mut out, rt::STRANS, &flags.to_be_bytes());
                if orient.rotation != Rot::R0 {
                    push_record(
                        &mut out,
                        rt::ANGLE,
                        &gds_real(f64::from(orient.rotation.degrees())),
                    );
                }
            }
            let x =
                i32::try_from(inst.placement.delta.x).map_err(|_| GdsError::CoordinateOverflow)?;
            let y =
                i32::try_from(inst.placement.delta.y).map_err(|_| GdsError::CoordinateOverflow)?;
            let mut xy = Vec::with_capacity(8);
            xy.extend_from_slice(&x.to_be_bytes());
            xy.extend_from_slice(&y.to_be_bytes());
            push_record(&mut out, rt::XY, &xy);
            push_record(&mut out, rt::ENDEL, &[]);
        }
        push_record(&mut out, rt::ENDSTR, &[]);
    }
    push_record(&mut out, rt::ENDLIB, &[]);
    Ok(out)
}

/// Encodes an 8-byte GDSII excess-64 base-16 real.
fn gds_real(value: f64) -> [u8; 8] {
    if value == 0.0 {
        return [0; 8];
    }
    let sign = if value < 0.0 { 0x80u8 } else { 0 };
    let mut v = value.abs();
    let mut exp = 64i32;
    while v >= 1.0 {
        v /= 16.0;
        exp += 1;
    }
    while v < 1.0 / 16.0 {
        v *= 16.0;
        exp -= 1;
    }
    let mantissa = (v * 2f64.powi(56)) as u64;
    let mut out = [0u8; 8];
    out[0] = sign | (exp as u8);
    out[1..8].copy_from_slice(&mantissa.to_be_bytes()[1..8]);
    out
}

/// Decodes an 8-byte GDSII excess-64 base-16 real (always finite for
/// 7-byte mantissas; callers validate the value range).
fn parse_gds_real(b: &[u8]) -> f64 {
    let sign = if b[0] & 0x80 != 0 { -1.0 } else { 1.0 };
    let exp = i32::from(b[0] & 0x7f) - 64;
    let mut mant = 0u64;
    for &x in &b[1..8] {
        mant = (mant << 8) | u64::from(x);
    }
    sign * (mant as f64 / 2f64.powi(56)) * 16f64.powi(exp)
}

/// The result of a hierarchical read: the structure DAG plus an honest
/// account of everything the reader dropped.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GdsRead {
    /// The decoded hierarchy. When the stream has several unreferenced
    /// structures, a synthetic top cell instantiates each once at the
    /// identity placement.
    pub hier: HierLayout,
    /// `(record type, data type) → count` for every record the reader
    /// skipped (e.g. `TEXT`/`PATH` elements, properties). Empty means
    /// lossless ingest. Sub-records of a skipped element are folded into
    /// the element's own count.
    pub skipped_records: BTreeMap<(u8, u8), usize>,
}

impl GdsRead {
    /// Total skipped record count across all types.
    pub fn total_skipped(&self) -> usize {
        self.skipped_records.values().sum()
    }
}

/// Cap on `COLROW` expansion per `AREF`: far above real designs, far
/// below memory exhaustion (the flattened-size cap guards the product
/// over the whole hierarchy).
const MAX_AREF_ELEMENTS: i64 = 1 << 20;

/// In-flight element state of the stream grammar.
enum Element {
    None,
    Boundary,
    Reference {
        aref: bool,
        sname: Option<String>,
        reflect: bool,
        rotation: Rot,
        colrow: Option<(i64, i64)>,
        xy: Option<Vec<Point>>,
    },
    /// An element type we do not interpret (`TEXT`, `PATH`, ...); its
    /// sub-records are ignored until `ENDEL`.
    Skipped,
}

struct RawRef {
    sname: String,
    placement: Placement,
}

struct RawCell {
    name: String,
    rects: Vec<Rect>,
    refs: Vec<RawRef>,
}

/// Reads the full structure hierarchy of a GDSII stream.
///
/// Every structure becomes a [`Cell`]; `SREF`/`AREF` become placed
/// [`Instance`]s (arrays are expanded to individual placements on the
/// lattice the reference points define). The top cell is the unique
/// unreferenced structure; with several candidates a synthetic top is
/// added. Reference integrity (unknown names, duplicate names, cycles)
/// and the expansion cap are validated here; flat-geometry sanitization
/// belongs to the caller (see [`read_gds`]).
///
/// # Errors
///
/// See [`GdsError`].
pub fn read_gds_hier(bytes: &[u8]) -> Result<GdsRead, GdsError> {
    let mut cells: Vec<RawCell> = Vec::new();
    let mut current: Option<RawCell> = None;
    let mut element = Element::None;
    let mut skipped: BTreeMap<(u8, u8), usize> = BTreeMap::new();
    let mut boundary_index = 0usize;
    let mut saw_endlib = false;
    let mut offset = 0usize;
    while offset + 4 <= bytes.len() {
        let len = u16::from_be_bytes([bytes[offset], bytes[offset + 1]]) as usize;
        if len < 4 || !len.is_multiple_of(2) {
            return Err(GdsError::BadRecordLength { offset });
        }
        if offset + len > bytes.len() {
            return Err(GdsError::Truncated);
        }
        let kind = (bytes[offset + 2], bytes[offset + 3]);
        let data = &bytes[offset + 4..offset + len];
        let misplaced = GdsError::MisplacedRecord { offset };
        match kind {
            k if k == rt::BGNSTR => {
                if current.is_some() {
                    return Err(misplaced);
                }
                current = Some(RawCell {
                    name: String::new(),
                    rects: Vec::new(),
                    refs: Vec::new(),
                });
            }
            k if k == rt::STRNAME => {
                let Some(cell) = current.as_mut() else {
                    return Err(misplaced);
                };
                if !cell.name.is_empty() {
                    return Err(misplaced);
                }
                let name = String::from_utf8_lossy(data)
                    .trim_end_matches('\0')
                    .to_string();
                if name.is_empty() {
                    return Err(misplaced);
                }
                cell.name = name;
            }
            k if k == rt::ENDSTR => {
                if !matches!(element, Element::None) {
                    return Err(misplaced);
                }
                let Some(cell) = current.take() else {
                    return Err(misplaced);
                };
                if cell.name.is_empty() {
                    return Err(misplaced);
                }
                if cells.iter().any(|c| c.name == cell.name) {
                    return Err(GdsError::DuplicateStructure { name: cell.name });
                }
                cells.push(cell);
            }
            k if k == rt::BOUNDARY => {
                if current.is_none() || !matches!(element, Element::None) {
                    return Err(misplaced);
                }
                element = Element::Boundary;
            }
            k if k == rt::SREF || k == rt::AREF => {
                if current.is_none() || !matches!(element, Element::None) {
                    return Err(misplaced);
                }
                element = Element::Reference {
                    aref: k == rt::AREF,
                    sname: None,
                    reflect: false,
                    rotation: Rot::R0,
                    colrow: None,
                    xy: None,
                };
            }
            k if k == rt::PATH || k == rt::TEXT || k == rt::NODE || k == rt::BOX => {
                if current.is_none() || !matches!(element, Element::None) {
                    return Err(misplaced);
                }
                *skipped.entry(kind).or_insert(0) += 1;
                element = Element::Skipped;
            }
            k if k == rt::SNAME => {
                let Element::Reference { sname, .. } = &mut element else {
                    return Err(misplaced);
                };
                if sname.is_some() {
                    return Err(misplaced);
                }
                let name = String::from_utf8_lossy(data)
                    .trim_end_matches('\0')
                    .to_string();
                if name.is_empty() {
                    return Err(GdsError::BadReference { offset });
                }
                *sname = Some(name);
            }
            k if k == rt::STRANS => {
                let Element::Reference { reflect, .. } = &mut element else {
                    return Err(misplaced);
                };
                if data.len() != 2 {
                    return Err(GdsError::BadReference { offset });
                }
                let flags = u16::from_be_bytes([data[0], data[1]]);
                // Absolute-magnification/-angle flags break hierarchical
                // composition; everything else (unused bits) is ignored.
                if flags & 0x0006 != 0 {
                    return Err(GdsError::UnsupportedTransform { offset });
                }
                *reflect = flags & 0x8000 != 0;
            }
            k if k == rt::MAG => {
                if !matches!(element, Element::Reference { .. }) {
                    return Err(misplaced);
                }
                if data.len() != 8 {
                    return Err(GdsError::BadReference { offset });
                }
                let mag = parse_gds_real(data);
                if !(mag.is_finite() && (mag - 1.0).abs() < 1e-9) {
                    return Err(GdsError::UnsupportedTransform { offset });
                }
            }
            k if k == rt::ANGLE => {
                let Element::Reference { rotation, .. } = &mut element else {
                    return Err(misplaced);
                };
                if data.len() != 8 {
                    return Err(GdsError::BadReference { offset });
                }
                let deg = parse_gds_real(data);
                if !deg.is_finite() {
                    return Err(GdsError::UnsupportedTransform { offset });
                }
                let wrapped = deg.rem_euclid(360.0);
                let quarters = (wrapped / 90.0).round();
                if (wrapped - quarters * 90.0).abs() > 1e-6 {
                    return Err(GdsError::UnsupportedTransform { offset });
                }
                *rotation = match Rot::from_degrees((quarters as i64 % 4) * 90) {
                    Some(r) => r,
                    None => return Err(GdsError::UnsupportedTransform { offset }),
                };
            }
            k if k == rt::COLROW => {
                let Element::Reference { aref, colrow, .. } = &mut element else {
                    return Err(misplaced);
                };
                if !*aref || colrow.is_some() || data.len() != 4 {
                    return Err(GdsError::BadReference { offset });
                }
                let cols = i64::from(i16::from_be_bytes([data[0], data[1]]));
                let rows = i64::from(i16::from_be_bytes([data[2], data[3]]));
                if cols < 1 || rows < 1 || cols.saturating_mul(rows) > MAX_AREF_ELEMENTS {
                    return Err(GdsError::BadReference { offset });
                }
                *colrow = Some((cols, rows));
            }
            k if k == rt::XY => match &mut element {
                Element::Boundary => {
                    // Emit the rectangle directly (one rect per XY record,
                    // matching permissive real-world writers).
                    let mut pts = Vec::with_capacity(data.len() / 8);
                    for chunk in data.chunks_exact(8) {
                        let x = i32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
                        let y = i32::from_be_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
                        pts.push((i64::from(x), i64::from(y)));
                    }
                    let rect = rect_from_boundary(&pts, boundary_index)?;
                    boundary_index += 1;
                    match current.as_mut() {
                        Some(cell) => cell.rects.push(rect),
                        None => return Err(misplaced),
                    }
                }
                Element::Reference { xy, .. } => {
                    if xy.is_some() {
                        return Err(GdsError::BadReference { offset });
                    }
                    let mut pts = Vec::with_capacity(data.len() / 8);
                    for chunk in data.chunks_exact(8) {
                        let x = i32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
                        let y = i32::from_be_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
                        pts.push(Point::new(i64::from(x), i64::from(y)));
                    }
                    *xy = Some(pts);
                }
                Element::Skipped => {}
                Element::None => {
                    *skipped.entry(kind).or_insert(0) += 1;
                }
            },
            k if k == rt::ENDEL => match std::mem::replace(&mut element, Element::None) {
                Element::None | Element::Boundary | Element::Skipped => {}
                Element::Reference {
                    aref,
                    sname,
                    reflect,
                    rotation,
                    colrow,
                    xy,
                } => {
                    let bad = GdsError::BadReference { offset };
                    let sname = sname.ok_or_else(|| bad.clone())?;
                    let xy = xy.ok_or_else(|| bad.clone())?;
                    let orient = Orient { rotation, reflect };
                    let cell = current.as_mut().ok_or_else(|| bad.clone())?;
                    if aref {
                        let (cols, rows) = colrow.ok_or_else(|| bad.clone())?;
                        let [p1, p2, p3]: [Point; 3] = xy.try_into().map_err(|_| bad.clone())?;
                        let lattice = |from: Point, to: Point, n: i64| {
                            let (dx, dy) = (to.x - from.x, to.y - from.y);
                            if dx % n != 0 || dy % n != 0 {
                                return Err(bad.clone());
                            }
                            Ok(Point::new(dx / n, dy / n))
                        };
                        let col_step = lattice(p1, p2, cols)?;
                        let row_step = lattice(p1, p3, rows)?;
                        for r in 0..rows {
                            for c in 0..cols {
                                let delta = Point::new(
                                    p1.x + c * col_step.x + r * row_step.x,
                                    p1.y + c * col_step.y + r * row_step.y,
                                );
                                cell.refs.push(RawRef {
                                    sname: sname.clone(),
                                    placement: Placement { orient, delta },
                                });
                            }
                        }
                    } else {
                        if colrow.is_some() || xy.len() != 1 {
                            return Err(bad);
                        }
                        cell.refs.push(RawRef {
                            sname,
                            placement: Placement {
                                orient,
                                delta: xy[0],
                            },
                        });
                    }
                }
            },
            k if k == rt::ENDLIB => {
                if current.is_some() || !matches!(element, Element::None) {
                    return Err(misplaced);
                }
                saw_endlib = true;
                break;
            }
            k if k == rt::HEADER
                || k == rt::BGNLIB
                || k == rt::LIBNAME
                || k == rt::UNITS
                || k == rt::LAYER
                || k == rt::DATATYPE =>
            {
                // Understood metadata the rectangle model does not need
                // (all geometry is folded onto one layer).
            }
            _ => {
                if !matches!(element, Element::Skipped) {
                    *skipped.entry(kind).or_insert(0) += 1;
                }
            }
        }
        offset += len;
    }
    if !saw_endlib {
        return Err(GdsError::Truncated);
    }

    // ---- Name resolution (forward references are legal in GDSII). ----
    let index_of: BTreeMap<&str, usize> = cells
        .iter()
        .enumerate()
        .map(|(i, c)| (c.name.as_str(), i))
        .collect();
    let mut referenced = vec![false; cells.len()];
    let mut hier = HierLayout::new();
    for raw in &cells {
        let mut cell = Cell::new(raw.name.clone());
        cell.rects = raw.rects.clone();
        for r in &raw.refs {
            let Some(&target) = index_of.get(r.sname.as_str()) else {
                return Err(GdsError::UnknownStructure {
                    name: r.sname.clone(),
                });
            };
            referenced[target] = true;
            cell.instances.push(Instance {
                cell: target,
                placement: r.placement,
            });
        }
        hier.add_cell(cell);
    }

    // ---- Top selection. ----
    let tops: Vec<usize> = (0..hier.cells.len()).filter(|&i| !referenced[i]).collect();
    hier.top = match tops.len() {
        0 if hier.cells.is_empty() => None,
        // All structures referenced: necessarily cyclic; pick any root so
        // validate_refs below reports the cycle as a structured error.
        0 => Some(0),
        1 => Some(tops[0]),
        _ => {
            // Several roots: bind them under a synthetic top so the whole
            // stream flattens as one layout.
            let mut name = "__TOP__".to_string();
            while index_of.contains_key(name.as_str()) {
                name.push('_');
            }
            let mut synthetic = Cell::new(name);
            synthetic.instances = tops
                .iter()
                .map(|&cell| Instance {
                    cell,
                    placement: Placement::IDENTITY,
                })
                .collect();
            Some(hier.add_cell(synthetic))
        }
    };

    // ---- Reference integrity + expansion bound, before anyone flattens.
    hier.validate_refs().map_err(GdsError::InvalidLayout)?;
    let flattened = hier.flattened_len().map_err(GdsError::InvalidLayout)?;
    if flattened > HierLayout::MAX_FLATTENED_RECTS {
        return Err(GdsError::InvalidLayout(
            aapsm_layout::LayoutError::HierarchyTooLarge { flattened },
        ));
    }
    Ok(GdsRead {
        hier,
        skipped_records: skipped,
    })
}

/// Reads a GDSII stream as a flat [`Layout`]: the hierarchy is parsed
/// ([`read_gds_hier`] — structure references are **resolved**, not
/// dropped), flattened, and passed through
/// [`aapsm_layout::Layout::sanitize`] (default rules), so corrupt or
/// adversarial streams yield a structured [`GdsError`] — never a panic
/// and never a layout the pipeline cannot process soundly. Skipped
/// non-geometry records are tolerated here; use [`read_gds_hier`] when
/// the skip account matters.
///
/// # Errors
///
/// See [`GdsError`].
pub fn read_gds(bytes: &[u8]) -> Result<Layout, GdsError> {
    // Deterministic fault injection (debug builds only — the hook is
    // compiled out in release): when a plan targets GDS, one byte of a
    // private copy is flipped. The corruption property suite asserts the
    // reader then returns a structured error or a sanitized layout,
    // never panics.
    let corrupted: Vec<u8>;
    let bytes = match aapsm_fault::gds_corrupt_offset(bytes.len()) {
        Some(off) => {
            let mut copy = bytes.to_vec();
            copy[off] ^= 0xff;
            corrupted = copy;
            &corrupted[..]
        }
        None => bytes,
    };
    let read = read_gds_hier(bytes)?;
    let layout = read.hier.flatten().map_err(GdsError::InvalidLayout)?;
    layout
        .sanitize(&aapsm_layout::DesignRules::default())
        .map_err(GdsError::InvalidLayout)?;
    Ok(layout)
}

fn rect_from_boundary(pts: &[(i64, i64)], index: usize) -> Result<Rect, GdsError> {
    // A rectangle boundary has 5 points (closed) or 4 (unclosed writers
    // exist); all edges must be axis-parallel and the extents must form
    // exactly the bounding box.
    let err = || GdsError::NotARectangle { boundary: index };
    let core: &[(i64, i64)] = if pts.len() == 5 && pts[0] == pts[4] {
        &pts[..4]
    } else if pts.len() == 4 {
        pts
    } else {
        return Err(err());
    };
    let xs: Vec<i64> = core.iter().map(|p| p.0).collect();
    let ys: Vec<i64> = core.iter().map(|p| p.1).collect();
    // Invariant, not an error path: `core` holds exactly four corner points here.
    #[allow(clippy::unwrap_used)]
    let (x_lo, x_hi) = (*xs.iter().min().unwrap(), *xs.iter().max().unwrap());
    #[allow(clippy::unwrap_used)] // Invariant: same four-point `core` as above.
    let (y_lo, y_hi) = (*ys.iter().min().unwrap(), *ys.iter().max().unwrap());
    if x_lo == x_hi || y_lo == y_hi {
        return Err(err());
    }
    // Each corner must be one of the four bbox corners, all distinct.
    let mut corners: Vec<(i64, i64)> = core.to_vec();
    corners.sort_unstable();
    corners.dedup();
    let mut expected = vec![(x_lo, y_lo), (x_lo, y_hi), (x_hi, y_lo), (x_hi, y_hi)];
    expected.sort_unstable();
    if corners != expected {
        return Err(err());
    }
    Ok(Rect::new(x_lo, y_lo, x_hi, y_hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        let layout = Layout::from_rects(vec![
            Rect::new(0, 0, 100, 400),
            Rect::new(-500, -600, -300, -100),
        ]);
        let bytes = write_gds(&layout, "TOP");
        assert_eq!(read_gds(&bytes).unwrap(), layout);
    }

    #[test]
    fn roundtrip_random() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let rects: Vec<Rect> = (0..rng.gen_range(1..200))
                .map(|_| {
                    let x = rng.gen_range(-1_000_000..1_000_000);
                    let y = rng.gen_range(-1_000_000..1_000_000);
                    Rect::new(x, y, x + rng.gen_range(1..5000), y + rng.gen_range(1..5000))
                })
                .collect();
            let layout = Layout::from_rects(rects);
            assert_eq!(read_gds(&write_gds(&layout, "T")).unwrap(), layout);
        }
    }

    #[test]
    fn rejects_non_rectangles() {
        let layout = Layout::from_rects(vec![Rect::new(0, 0, 10, 10)]);
        let mut bytes = write_gds(&layout, "T");
        // Corrupt one XY coordinate so the boundary is an L-shape.
        // Find the XY record (0x10, 0x03).
        let pos = (0..bytes.len() - 4)
            .find(|&i| bytes[i + 2] == 0x10 && bytes[i + 3] == 0x03)
            .unwrap();
        // Second point's x (offset 4 header + 8 first point).
        bytes[pos + 4 + 8 + 3] = 5;
        assert!(matches!(
            read_gds(&bytes),
            Err(GdsError::NotARectangle { boundary: 0 })
        ));
    }

    #[test]
    fn truncated_stream_detected() {
        let layout = Layout::from_rects(vec![Rect::new(0, 0, 10, 10)]);
        let bytes = write_gds(&layout, "T");
        assert_eq!(
            read_gds(&bytes[..bytes.len() - 2]),
            Err(GdsError::Truncated)
        );
    }

    #[test]
    fn coordinate_overflow_reported() {
        let layout = Layout::from_rects(vec![Rect::new(0, 0, i64::MAX / 2, 10)]);
        assert_eq!(
            try_write_gds(&layout, "T"),
            Err(GdsError::CoordinateOverflow)
        );
    }

    #[test]
    fn empty_layout_roundtrips() {
        let bytes = write_gds(&Layout::new(), "EMPTY");
        assert!(read_gds(&bytes).unwrap().is_empty());
    }

    #[test]
    fn duplicate_rect_stream_fails_sanitization() {
        // Two byte-identical boundaries: the reader decodes them fine but
        // sanitization rejects the result with a structured error.
        let r = Rect::new(0, 0, 100, 400);
        let layout = Layout::from_rects(vec![r, r]);
        assert!(matches!(
            read_gds(&write_gds(&layout, "T")),
            Err(GdsError::InvalidLayout(
                aapsm_layout::LayoutError::DuplicateRect {
                    first: 0,
                    second: 1
                }
            ))
        ));
    }

    fn reference_stream(seed: u64) -> Vec<u8> {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let rects: Vec<Rect> = (0..rng.gen_range(1..40))
            .map(|i| {
                let x = i64::from(i) * 20_000 + rng.gen_range(0..5_000);
                let y = rng.gen_range(-500_000..500_000);
                Rect::new(x, y, x + rng.gen_range(1..5000), y + rng.gen_range(1..5000))
            })
            .collect();
        write_gds(&Layout::from_rects(rects), "T")
    }

    /// A two-level hierarchy exercising every supported reference record:
    /// `SREF` with all eight orientations plus an `AREF` lattice.
    fn hier_fixture(seed: u64) -> HierLayout {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut h = HierLayout::new();
        let mut leaf = Cell::new("LEAF");
        for i in 0..rng.gen_range(1..6) {
            let x = i * 700;
            leaf.rects
                .push(Rect::new(x, 0, x + rng.gen_range(1..300), 2000));
        }
        let leaf = h.add_cell(leaf);
        let mut mid = Cell::new("MID");
        mid.rects.push(Rect::new(-4000, -4000, -3600, -2000));
        for (i, orient) in Orient::all().into_iter().enumerate() {
            mid.instances.push(Instance {
                cell: leaf,
                placement: Placement {
                    orient,
                    delta: Point::new(i as i64 * 20_000, 40_000),
                },
            });
        }
        let mid = h.add_cell(mid);
        let mut top = Cell::new("TOP");
        for i in 0..3i64 {
            top.instances.push(Instance {
                cell: mid,
                placement: Placement::at(i * 300_000, 0),
            });
        }
        top.instances.push(Instance {
            cell: leaf,
            placement: Placement::new(Orient::rotated(Rot::R90), -50_000, -50_000),
        });
        let top = h.add_cell(top);
        h.top = Some(top);
        h
    }

    #[test]
    fn hier_roundtrip_preserves_structure() {
        for seed in 0..6 {
            let h = hier_fixture(seed);
            let bytes = write_gds_hier(&h, "LIB");
            let read = read_gds_hier(&bytes).unwrap();
            assert_eq!(read.hier, h, "seed {seed}");
            assert!(read.skipped_records.is_empty());
            // Flat equivalence: reading the stream flat equals flattening
            // the in-memory hierarchy.
            assert_eq!(read_gds(&bytes).unwrap(), h.flatten().unwrap());
        }
    }

    #[test]
    fn aref_expands_to_the_lattice() {
        // Hand-built stream: LEAF plus a TOP with a 3×2 AREF of LEAF.
        let mut bytes = Vec::new();
        push_library_header(&mut bytes, "LIB");
        push_record(&mut bytes, rt::BGNSTR, &[0u8; 24]);
        push_ascii(&mut bytes, rt::STRNAME, "LEAF");
        push_boundary(&mut bytes, &Rect::new(0, 0, 100, 2000)).unwrap();
        push_record(&mut bytes, rt::ENDSTR, &[]);
        push_record(&mut bytes, rt::BGNSTR, &[0u8; 24]);
        push_ascii(&mut bytes, rt::STRNAME, "TOP");
        push_record(&mut bytes, rt::AREF, &[]);
        push_ascii(&mut bytes, rt::SNAME, "LEAF");
        push_record(&mut bytes, rt::COLROW, &[0, 3, 0, 2]);
        let mut xy = Vec::new();
        // Origin (10, 20); 3 columns spanning 3000 in x; 2 rows spanning
        // 9000 in y.
        for (x, y) in [(10i32, 20i32), (3010, 20), (10, 9020)] {
            xy.extend_from_slice(&x.to_be_bytes());
            xy.extend_from_slice(&y.to_be_bytes());
        }
        push_record(&mut bytes, rt::XY, &xy);
        push_record(&mut bytes, rt::ENDEL, &[]);
        push_record(&mut bytes, rt::ENDSTR, &[]);
        push_record(&mut bytes, rt::ENDLIB, &[]);

        let read = read_gds_hier(&bytes).unwrap();
        let top = &read.hier.cells[read.hier.top.unwrap()];
        let deltas: Vec<(i64, i64)> = top
            .instances
            .iter()
            .map(|i| (i.placement.delta.x, i.placement.delta.y))
            .collect();
        assert_eq!(
            deltas,
            vec![
                (10, 20),
                (1010, 20),
                (2010, 20),
                (10, 4520),
                (1010, 4520),
                (2010, 4520),
            ]
        );
    }

    #[test]
    fn skipped_records_are_counted() {
        // Splice a TEXT element (with sub-records) into a valid stream:
        // the layout still loads, and the reader reports exactly one
        // skipped element.
        let mut bytes = Vec::new();
        push_library_header(&mut bytes, "LIB");
        push_record(&mut bytes, rt::BGNSTR, &[0u8; 24]);
        push_ascii(&mut bytes, rt::STRNAME, "T");
        push_record(&mut bytes, rt::TEXT, &[]);
        push_record(&mut bytes, rt::LAYER, &1i16.to_be_bytes());
        let mut xy = Vec::new();
        xy.extend_from_slice(&5i32.to_be_bytes());
        xy.extend_from_slice(&7i32.to_be_bytes());
        push_record(&mut bytes, rt::XY, &xy);
        push_record(&mut bytes, rt::ENDEL, &[]);
        push_boundary(&mut bytes, &Rect::new(0, 0, 10, 10)).unwrap();
        push_record(&mut bytes, rt::ENDSTR, &[]);
        push_record(&mut bytes, rt::ENDLIB, &[]);

        let read = read_gds_hier(&bytes).unwrap();
        assert_eq!(read.total_skipped(), 1);
        assert_eq!(read.skipped_records.get(&rt::TEXT), Some(&1));
        assert_eq!(read.hier.flatten().unwrap().len(), 1);
    }

    #[test]
    fn unknown_structure_is_an_error() {
        let mut bytes = Vec::new();
        push_library_header(&mut bytes, "LIB");
        push_record(&mut bytes, rt::BGNSTR, &[0u8; 24]);
        push_ascii(&mut bytes, rt::STRNAME, "TOP");
        push_record(&mut bytes, rt::SREF, &[]);
        push_ascii(&mut bytes, rt::SNAME, "GHOST");
        let mut xy = Vec::new();
        xy.extend_from_slice(&0i32.to_be_bytes());
        xy.extend_from_slice(&0i32.to_be_bytes());
        push_record(&mut bytes, rt::XY, &xy);
        push_record(&mut bytes, rt::ENDEL, &[]);
        push_record(&mut bytes, rt::ENDSTR, &[]);
        push_record(&mut bytes, rt::ENDLIB, &[]);
        assert_eq!(
            read_gds_hier(&bytes).map(|_| ()),
            Err(GdsError::UnknownStructure {
                name: "GHOST".into()
            })
        );
    }

    #[test]
    fn reference_cycle_is_an_error() {
        // A ↔ B: every structure referenced, so the stream has no root
        // and the cycle must surface as a structured error.
        let mut bytes = Vec::new();
        push_library_header(&mut bytes, "LIB");
        for (name, target) in [("A", "B"), ("B", "A")] {
            push_record(&mut bytes, rt::BGNSTR, &[0u8; 24]);
            push_ascii(&mut bytes, rt::STRNAME, name);
            push_record(&mut bytes, rt::SREF, &[]);
            push_ascii(&mut bytes, rt::SNAME, target);
            let mut xy = Vec::new();
            xy.extend_from_slice(&0i32.to_be_bytes());
            xy.extend_from_slice(&0i32.to_be_bytes());
            push_record(&mut bytes, rt::XY, &xy);
            push_record(&mut bytes, rt::ENDEL, &[]);
            push_record(&mut bytes, rt::ENDSTR, &[]);
        }
        push_record(&mut bytes, rt::ENDLIB, &[]);
        assert!(matches!(
            read_gds_hier(&bytes),
            Err(GdsError::InvalidLayout(
                aapsm_layout::LayoutError::InstanceCycle { .. }
            ))
        ));
    }

    #[test]
    fn unsupported_transforms_are_errors() {
        let build = |mangle: fn(&mut Vec<u8>)| {
            let mut bytes = Vec::new();
            push_library_header(&mut bytes, "LIB");
            push_record(&mut bytes, rt::BGNSTR, &[0u8; 24]);
            push_ascii(&mut bytes, rt::STRNAME, "LEAF");
            push_boundary(&mut bytes, &Rect::new(0, 0, 10, 10)).unwrap();
            push_record(&mut bytes, rt::ENDSTR, &[]);
            push_record(&mut bytes, rt::BGNSTR, &[0u8; 24]);
            push_ascii(&mut bytes, rt::STRNAME, "TOP");
            push_record(&mut bytes, rt::SREF, &[]);
            push_ascii(&mut bytes, rt::SNAME, "LEAF");
            mangle(&mut bytes);
            let mut xy = Vec::new();
            xy.extend_from_slice(&0i32.to_be_bytes());
            xy.extend_from_slice(&0i32.to_be_bytes());
            push_record(&mut bytes, rt::XY, &xy);
            push_record(&mut bytes, rt::ENDEL, &[]);
            push_record(&mut bytes, rt::ENDSTR, &[]);
            push_record(&mut bytes, rt::ENDLIB, &[]);
            bytes
        };
        // 45° rotation.
        let rotated = build(|b| push_record(b, rt::ANGLE, &gds_real(45.0)));
        assert!(matches!(
            read_gds_hier(&rotated),
            Err(GdsError::UnsupportedTransform { .. })
        ));
        // 2× magnification.
        let magnified = build(|b| push_record(b, rt::MAG, &gds_real(2.0)));
        assert!(matches!(
            read_gds_hier(&magnified),
            Err(GdsError::UnsupportedTransform { .. })
        ));
        // Absolute-angle flag.
        let absolute = build(|b| push_record(b, rt::STRANS, &2u16.to_be_bytes()));
        assert!(matches!(
            read_gds_hier(&absolute),
            Err(GdsError::UnsupportedTransform { .. })
        ));
        // A full 360° (≡ 0°) still parses.
        let wrapped = build(|b| push_record(b, rt::ANGLE, &gds_real(360.0)));
        let read = read_gds_hier(&wrapped).unwrap();
        let top = &read.hier.cells[read.hier.top.unwrap()];
        assert!(top.instances[0].placement.orient.is_identity());
    }

    #[test]
    fn multiple_roots_get_a_synthetic_top() {
        // Two root structures, neither referencing the other.
        let mut bytes = Vec::new();
        push_library_header(&mut bytes, "LIB");
        for (name, x) in [("A", 0i64), ("B", 50)] {
            push_record(&mut bytes, rt::BGNSTR, &[0u8; 24]);
            push_ascii(&mut bytes, rt::STRNAME, name);
            push_boundary(&mut bytes, &Rect::new(x, 0, x + 10, 10)).unwrap();
            push_record(&mut bytes, rt::ENDSTR, &[]);
        }
        push_record(&mut bytes, rt::ENDLIB, &[]);
        let read = read_gds_hier(&bytes).unwrap();
        assert_eq!(read.hier.cells.len(), 3);
        let top = &read.hier.cells[read.hier.top.unwrap()];
        assert_eq!(top.name, "__TOP__");
        assert_eq!(top.instances.len(), 2);
        assert_eq!(read.hier.flatten().unwrap().len(), 2);
    }

    #[test]
    fn truncation_never_panics() {
        // Property: every prefix of a valid stream either parses or
        // returns a structured error — the reader never panics on
        // truncated input.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        for seed in 0..8 {
            let bytes = reference_stream(seed);
            for _ in 0..200 {
                let cut = rng.gen_range(0..bytes.len());
                let _ = read_gds(&bytes[..cut]);
            }
            // Exhaustive short prefixes (header/record-boundary edges).
            for cut in 0..bytes.len().min(64) {
                let _ = read_gds(&bytes[..cut]);
            }
        }
    }

    #[test]
    fn hier_truncation_never_panics() {
        // The same prefix property over hierarchical reference streams.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for seed in 0..4 {
            let bytes = write_gds_hier(&hier_fixture(seed), "LIB");
            for _ in 0..300 {
                let cut = rng.gen_range(0..bytes.len());
                let _ = read_gds_hier(&bytes[..cut]);
                let _ = read_gds(&bytes[..cut]);
            }
            for cut in 0..bytes.len().min(64) {
                let _ = read_gds_hier(&bytes[..cut]);
            }
        }
    }

    #[test]
    fn byte_flips_never_panic() {
        // Property: flipping any byte (to any value) yields Ok or a
        // structured GdsError — never a panic, never an unsanitized
        // layout (read_gds sanitizes whatever it decodes).
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for seed in 0..8 {
            let bytes = reference_stream(seed);
            for _ in 0..400 {
                let mut corrupt = bytes.clone();
                let at = rng.gen_range(0..corrupt.len());
                corrupt[at] = rng.gen_range(0..256) as u8;
                if let Ok(layout) = read_gds(&corrupt) {
                    assert!(layout
                        .sanitize(&aapsm_layout::DesignRules::default())
                        .is_ok());
                }
            }
        }
    }

    #[test]
    fn hier_byte_flips_never_panic() {
        // The flip property over streams with SREF/AREF/STRANS records:
        // whatever survives parsing must still sanitize cleanly as a
        // hierarchy (reference integrity + expansion bounds included).
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(29);
        for seed in 0..4 {
            let bytes = write_gds_hier(&hier_fixture(seed), "LIB");
            for _ in 0..500 {
                let mut corrupt = bytes.clone();
                let at = rng.gen_range(0..corrupt.len());
                corrupt[at] = rng.gen_range(0..256) as u8;
                if let Ok(read) = read_gds_hier(&corrupt) {
                    assert!(read.hier.validate_refs().is_ok());
                    let _ = read.hier.flatten();
                }
                let _ = read_gds(&corrupt);
            }
        }
    }

    #[test]
    fn gds_real_encodes_unit_values() {
        // 1e-9 in excess-64 base-16: known first bytes from the GDS spec
        // examples: exponent 0x39 mantissa 0x44b82fa09b5a54...
        let r = gds_real(1e-9);
        assert_eq!(r[0], 0x39);
        assert_eq!(r[1], 0x44);
    }

    #[test]
    fn gds_real_round_trips_through_the_parser() {
        for v in [1e-9, 1e-3, 1.0, 90.0, 180.0, 270.0, 360.0, 0.0, -2.5] {
            let parsed = parse_gds_real(&gds_real(v));
            assert!(
                (parsed - v).abs() <= v.abs() * 1e-12,
                "{v} decoded as {parsed}"
            );
        }
    }
}
