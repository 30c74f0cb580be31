//! The zero-copy binary repository format (`dlaperf-bin` v1).
//!
//! The text format (see [`ModelRepository::to_text`]) is the debug format:
//! readable, diffable, and slow — every load re-tokenises and re-compiles
//! the whole model stack.  This module defines a versioned, alignment-aware
//! binary layout whose on-disk representation *is* the compiled layout:
//! monomial plans, SoA coefficient blocks, per-dimension cut arrays, cell
//! tables and fallback candidate sets are serialised in the exact shapes
//! [`CompiledVectorPolynomial`] / [`CompiledPiecewise`] /
//! [`CompiledRepository`] hold in memory, so a shard deserialises with one
//! validated bulk decode per section instead of re-parsing and re-compiling.
//! (`#![forbid(unsafe_code)]` stands: "zero-copy" means zero re-compilation
//! and zero per-element parsing, not raw pointer casts.)
//!
//! # On-disk layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//!      0     8  magic "DLAPBIN\0"
//!      8     4  format version (currently 1)
//!     12     4  endian tag 0x01020304 (bytes 04 03 02 01 on disk)
//!     16     4  section count (currently 6)
//!     20     4  reserved (0)
//!     24     8  total file length in bytes
//!     32     8  FNV-1a 64 checksum, folded over 8-byte LE lanes (see below)
//!     40   144  section table: 6 x { kind u32, reserved u32, off u64, len u64 }
//!    184     -  payload sections, each padded to 8-byte alignment
//! ```
//!
//! The six sections appear in fixed order: `META` (the structural walk,
//! inline u32/u64 values), `U64S` (integer bounds and cut coordinates),
//! `F64S` (errors and coefficient matrices), `U32S` (cell tables, fallback
//! sets, explicit exponents), `U8S` (compiled monomial plans), `STRS`
//! (length-prefixed machine identifiers; unlike the whitespace-tokenised
//! text format, ids containing whitespace are representable here).  `U64S`
//! and `F64S` always start on an 8-byte boundary so a future memory-mapped
//! reader can view them in place.
//!
//! The checksum is FNV-1a 64 folded over the file as 8-byte little-endian
//! lanes — the checksum field itself is treated as zeros and a short final
//! lane is zero-padded — one xor/multiply per 8 bytes instead of per byte,
//! which keeps integrity checking a negligible share of the load path.
//!
//! Every count in `META` draws from a sequential per-section cursor; a file
//! whose cursors are not *exactly* consumed at the end is rejected, as is
//! any file whose checksum, version, endian tag, length, section table or
//! structural invariants do not hold — always with a structured
//! [`ModelError`], never a panic.

use std::sync::Arc;

use dla_blas::Routine;
use dla_machine::Locality;
use dla_mat::stats::Quantity;

use crate::eval::{CompiledRegion, CompiledSubmodel};
use crate::{
    CompiledPiecewise, CompiledRepository, CompiledRoutineModel, CompiledVectorPolynomial, FlagKey,
    ModelError, ModelKey, ModelRepository, PiecewiseModel, Polynomial, Region, RegionModel, Result,
    RoutineModel, VectorPolynomial,
};

const MAGIC: [u8; 8] = *b"DLAPBIN\0";
const VERSION: u32 = 1;
const ENDIAN_TAG: u32 = 0x0102_0304;
const HEADER_LEN: usize = 40;
const SECTION_COUNT: usize = 6;
const TABLE_ENTRY_LEN: usize = 24;
const PAYLOAD_START: usize = HEADER_LEN + SECTION_COUNT * TABLE_ENTRY_LEN;
const CHECKSUM_OFFSET: usize = 32;

/// Section kinds, in their required file order.
const KIND_META: u32 = 1;
const KIND_U64S: u32 = 2;
const KIND_F64S: u32 = 3;
const KIND_U32S: u32 = 4;
const KIND_U8S: u32 = 5;
const KIND_STRS: u32 = 6;
const KINDS: [u32; SECTION_COUNT] = [
    KIND_META, KIND_U64S, KIND_F64S, KIND_U32S, KIND_U8S, KIND_STRS,
];

const MODE_REFERENCE: u32 = 0;
const MODE_FAST: u32 = 1;
const QMODE_CANONICAL: u32 = 0;
const QMODE_EXPLICIT: u32 = 1;

fn perr(msg: impl std::fmt::Display) -> ModelError {
    ModelError::Parse(format!("binary repository: {msg}"))
}

fn serr(msg: impl std::fmt::Display) -> ModelError {
    ModelError::Serialize(format!("binary repository: {msg}"))
}

/// FNV-1a 64 folded over 8-byte little-endian lanes: the checksum field
/// (which is itself lane-aligned) is treated as a zero lane and a short
/// final lane is zero-padded, so the whole file costs one xor/multiply per
/// 8 bytes instead of per byte.
fn checksum(bytes: &[u8]) -> u64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET_BASIS;
    let mut chunks = bytes.chunks_exact(8);
    for (i, c) in chunks.by_ref().enumerate() {
        let lane = if i * 8 == CHECKSUM_OFFSET {
            0
        } else {
            u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]])
        };
        h ^= lane;
        h = h.wrapping_mul(PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h ^= u64::from_le_bytes(tail);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Returns `true` when `bytes` start with the binary-repository magic — the
/// format-sniffing hook [`ModelRepository::load_file`] uses to route between
/// the binary and text codecs.
pub fn is_binary(bytes: &[u8]) -> bool {
    bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] == MAGIC
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Sections {
    meta: Vec<u8>,
    u64s: Vec<u64>,
    f64s: Vec<f64>,
    u32s: Vec<u32>,
    u8s: Vec<u8>,
    strs: Vec<u8>,
}

impl Sections {
    fn meta_u32(&mut self, v: u32) {
        self.meta.extend_from_slice(&v.to_le_bytes());
    }

    fn meta_u64(&mut self, v: u64) {
        self.meta.extend_from_slice(&v.to_le_bytes());
    }

    fn meta_usize(&mut self, v: usize, what: &str) -> Result<()> {
        let v: u32 = v
            .try_into()
            .map_err(|_| serr(format!("{what} {v} exceeds u32")))?;
        self.meta_u32(v);
        Ok(())
    }

    fn push_str(&mut self, s: &str) -> (u32, u32) {
        let off = self.strs.len() as u32;
        self.strs.extend_from_slice(s.as_bytes());
        (off, s.len() as u32)
    }
}

/// Serialises a compiled repository (source *and* compiled layout) to the
/// binary format.  The result decodes with [`decode`] into an equal
/// repository with zero re-compilation; encoding the decoded value again
/// yields byte-identical output.
pub fn encode(compiled: &CompiledRepository) -> Result<Vec<u8>> {
    let source = compiled.source();
    let entries = compiled.entries();
    if source.len() != entries.len() {
        return Err(serr("compiled repository out of sync with its source"));
    }
    let mut s = Sections::default();
    s.meta_usize(source.len(), "model count")?;
    for ((key, model), (entry_key, entry)) in source.iter().zip(entries) {
        if key != entry_key {
            return Err(serr("compiled repository out of sync with its source"));
        }
        encode_model(&mut s, model, entry)?;
    }
    Ok(assemble(&s))
}

fn encode_model(
    s: &mut Sections,
    model: &RoutineModel,
    entry: &CompiledRoutineModel,
) -> Result<()> {
    let dim = model.space.dim();
    s.meta_u32(model.routine.index() as u32);
    let locality_idx = match model.locality {
        Locality::InCache => 0u32,
        Locality::OutOfCache => 1u32,
    };
    s.meta_u32(locality_idx);
    let (off, len) = s.push_str(&model.machine_id);
    s.meta_u32(off);
    s.meta_u32(len);
    s.meta_usize(dim, "model dimension")?;
    s.u64s.extend(model.space.lo().iter().map(|&v| v as u64));
    s.u64s.extend(model.space.hi().iter().map(|&v| v as u64));
    s.meta_usize(model.submodels.len(), "submodel count")?;
    for (&flags, sub) in &model.submodels {
        s.meta_usize(flags.len(), "flag count")?;
        for f in flags.flags() {
            s.meta_u64(f as u64);
        }
        s.meta_u64(sub.total_samples as u64);
        // The compiled counterpart decides the storage mode: fast submodels
        // persist their compiled artefacts, everything else stores the
        // reference polynomials only.
        let fast = entry.submodels().iter().find_map(|(k, cs)| match cs {
            CompiledSubmodel::Fast(c) if *k == flags => Some(c),
            _ => None,
        });
        match fast {
            Some(c) => encode_fast_submodel(s, sub, c, dim)?,
            None => encode_reference_submodel(s, sub, dim)?,
        }
    }
    Ok(())
}

fn encode_fast_submodel(
    s: &mut Sections,
    sub: &PiecewiseModel,
    c: &CompiledPiecewise,
    dim: usize,
) -> Result<()> {
    if c.regions().len() != sub.regions.len() || c.dim() != dim {
        return Err(serr("compiled submodel out of sync with its source"));
    }
    s.meta_u32(MODE_FAST);
    s.meta_usize(sub.regions.len(), "region count")?;
    for cuts in c.cuts() {
        s.meta_usize(cuts.len(), "cut count")?;
        s.u64s.extend(cuts.iter().map(|&v| v as u64));
    }
    s.meta_u32(c.is_indexed() as u32);
    if c.is_indexed() {
        s.meta_usize(c.cells().len(), "cell count")?;
        s.u32s.extend_from_slice(c.cells());
        s.meta_usize(c.fallbacks().len(), "fallback count")?;
        for f in c.fallbacks() {
            s.meta_usize(f.len(), "fallback set size")?;
            s.u32s.extend_from_slice(f);
        }
    }
    for (rm, cr) in sub.regions.iter().zip(c.regions()) {
        encode_region_header(s, rm, dim)?;
        let poly = &cr.poly;
        s.meta_usize(poly.term_count(), "term count")?;
        s.u8s.extend_from_slice(poly.exponent_bytes());
        s.f64s.extend_from_slice(poly.coefficient_matrix());
        for (q, qpoly) in rm.poly.polynomials().iter().enumerate() {
            if canonical(qpoly, poly, q) {
                // The source polynomial is exactly the shared plan plus the
                // SoA column: nothing to store beyond the mode tag.
                s.meta_u32(QMODE_CANONICAL);
            } else {
                s.meta_u32(QMODE_EXPLICIT);
                encode_explicit_poly(s, qpoly, dim)?;
            }
        }
    }
    Ok(())
}

/// Is the source polynomial for quantity `q` bit-recoverable from the
/// compiled plan and SoA column alone?  Requires an identical term list
/// (same tuples, same order) and bitwise-equal coefficients — `-0.0` and
/// exotic NaN payloads fail the bit check (the SoA is accumulated through
/// `+=`, which canonicalises them) and conservatively fall back to explicit
/// storage, which keeps save→load→save byte-identical.
fn canonical(qpoly: &Polynomial, plan: &CompiledVectorPolynomial, q: usize) -> bool {
    let dim = plan.dim();
    if qpoly.term_count() != plan.term_count() || qpoly.dim() != dim {
        return false;
    }
    let bytes = plan.exponent_bytes();
    let soa = plan.coefficient_matrix();
    qpoly
        .exponents()
        .iter()
        .zip(qpoly.coefficients())
        .enumerate()
        .all(|(t, (exps, &c))| {
            exps.iter()
                .zip(&bytes[t * dim..(t + 1) * dim])
                .all(|(&e, &b)| e == b as u32)
                && c.to_bits() == soa[t * 5 + q].to_bits()
        })
}

fn encode_reference_submodel(s: &mut Sections, sub: &PiecewiseModel, dim: usize) -> Result<()> {
    s.meta_u32(MODE_REFERENCE);
    s.meta_usize(sub.regions.len(), "region count")?;
    for rm in &sub.regions {
        encode_region_header(s, rm, dim)?;
        for qpoly in rm.poly.polynomials() {
            encode_explicit_poly(s, qpoly, dim)?;
        }
    }
    Ok(())
}

fn encode_region_header(s: &mut Sections, rm: &RegionModel, dim: usize) -> Result<()> {
    if rm.region.dim() != dim {
        return Err(serr(format!(
            "region arity {} does not match model dimension {dim}",
            rm.region.dim()
        )));
    }
    s.u64s.extend(rm.region.lo().iter().map(|&v| v as u64));
    s.u64s.extend(rm.region.hi().iter().map(|&v| v as u64));
    s.f64s.push(rm.error);
    s.meta_u64(rm.samples_used as u64);
    Ok(())
}

fn encode_explicit_poly(s: &mut Sections, poly: &Polynomial, dim: usize) -> Result<()> {
    if poly.dim() != dim {
        return Err(serr(format!(
            "polynomial arity {} does not match model dimension {dim}",
            poly.dim()
        )));
    }
    s.meta_usize(poly.term_count(), "term count")?;
    for e in poly.exponents() {
        s.u32s.extend_from_slice(e);
    }
    s.f64s.extend_from_slice(poly.coefficients());
    Ok(())
}

fn assemble(s: &Sections) -> Vec<u8> {
    let payloads: [Vec<u8>; SECTION_COUNT] = [
        s.meta.clone(),
        s.u64s.iter().flat_map(|v| v.to_le_bytes()).collect(),
        s.f64s.iter().flat_map(|v| v.to_le_bytes()).collect(),
        s.u32s.iter().flat_map(|v| v.to_le_bytes()).collect(),
        s.u8s.clone(),
        s.strs.clone(),
    ];
    let mut out = Vec::new();
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&ENDIAN_TAG.to_le_bytes());
    out.extend_from_slice(&(SECTION_COUNT as u32).to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes()); // total length, patched below
    out.extend_from_slice(&0u64.to_le_bytes()); // checksum, patched below

    // Section table: offsets assigned with 8-byte alignment padding.
    let mut off = PAYLOAD_START as u64;
    for (kind, payload) in KINDS.iter().zip(&payloads) {
        out.extend_from_slice(&kind.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&off.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        off += payload.len() as u64;
        off = (off + 7) & !7;
    }
    debug_assert_eq!(out.len(), PAYLOAD_START);
    for payload in &payloads {
        out.extend_from_slice(payload);
        while out.len() % 8 != 0 {
            out.push(0);
        }
    }
    let total = out.len() as u64;
    out[24..32].copy_from_slice(&total.to_le_bytes());
    let sum = checksum(&out);
    out[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 8].copy_from_slice(&sum.to_le_bytes());
    out
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A sequential cursor over one decoded section; every `META` count draws
/// from one of these, so any forged count runs into a bounds error instead
/// of an oversized allocation.
struct Cursor<'a, T> {
    data: &'a [T],
    pos: usize,
    what: &'static str,
}

impl<'a, T> Cursor<'a, T> {
    fn new(data: &'a [T], what: &'static str) -> Cursor<'a, T> {
        Cursor { data, pos: 0, what }
    }

    fn take(&mut self, n: usize) -> Result<&'a [T]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.data.len())
            .ok_or_else(|| perr(format!("{} section exhausted", self.what)))?;
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn finish(&self) -> Result<()> {
        if self.pos != self.data.len() {
            return Err(perr(format!(
                "{} section has {} unconsumed entries",
                self.what,
                self.data.len() - self.pos
            )));
        }
        Ok(())
    }
}

struct MetaReader<'a> {
    cursor: Cursor<'a, u8>,
}

impl MetaReader<'_> {
    fn u32(&mut self) -> Result<u32> {
        let b = self.cursor.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.cursor.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn count(&mut self, what: &str) -> Result<usize> {
        let v = self.u32()?;
        usize::try_from(v).map_err(|_| perr(format!("{what} {v} does not fit in usize")))
    }

    fn u64_usize(&mut self, what: &str) -> Result<usize> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| perr(format!("{what} {v} does not fit in usize")))
    }
}

struct Decoded<'a> {
    meta: MetaReader<'a>,
    u8s: Cursor<'a, u8>,
    strs: &'a [u8],
    strs_used: usize,
}

fn usizes(vals: &[u64], what: &str) -> Result<Vec<usize>> {
    vals.iter()
        .map(|&v| usize::try_from(v).map_err(|_| perr(format!("{what} {v} does not fit in usize"))))
        .collect()
}

/// Validates the header and section table of a candidate binary repository
/// and returns the six raw payload slices in section order.
fn validate_frame(bytes: &[u8]) -> Result<[&[u8]; SECTION_COUNT]> {
    if !is_binary(bytes) {
        return Err(perr("not a binary repository (bad magic)"));
    }
    if bytes.len() < 16 {
        return Err(perr("truncated header"));
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    let endian = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]);
    if endian == ENDIAN_TAG.swap_bytes() {
        return Err(perr(
            "big-endian repository (written on a foreign-endian machine)",
        ));
    }
    if endian != ENDIAN_TAG {
        return Err(perr(format!("corrupt endian tag {endian:#010x}")));
    }
    if version != VERSION {
        return Err(perr(format!(
            "unsupported format version {version} (this build reads version {VERSION})"
        )));
    }
    if bytes.len() < PAYLOAD_START {
        return Err(perr("truncated header"));
    }
    let section_count = u32::from_le_bytes([bytes[16], bytes[17], bytes[18], bytes[19]]);
    if section_count as usize != SECTION_COUNT {
        return Err(perr(format!(
            "expected {SECTION_COUNT} sections, found {section_count}"
        )));
    }
    let total = u64::from_le_bytes([
        bytes[24], bytes[25], bytes[26], bytes[27], bytes[28], bytes[29], bytes[30], bytes[31],
    ]);
    if total != bytes.len() as u64 {
        return Err(perr(format!(
            "recorded length {total} does not match actual length {}",
            bytes.len()
        )));
    }
    let recorded = u64::from_le_bytes([
        bytes[32], bytes[33], bytes[34], bytes[35], bytes[36], bytes[37], bytes[38], bytes[39],
    ]);
    let actual = checksum(bytes);
    if recorded != actual {
        return Err(perr(format!(
            "checksum mismatch (recorded {recorded:#018x}, computed {actual:#018x})"
        )));
    }
    let mut sections = [&bytes[0..0]; SECTION_COUNT];
    for (i, expected_kind) in KINDS.iter().enumerate() {
        let base = HEADER_LEN + i * TABLE_ENTRY_LEN;
        let e = &bytes[base..base + TABLE_ENTRY_LEN];
        let kind = u32::from_le_bytes([e[0], e[1], e[2], e[3]]);
        if kind != *expected_kind {
            return Err(perr(format!(
                "section {i} has kind {kind}, expected {expected_kind}"
            )));
        }
        let off = u64::from_le_bytes([e[8], e[9], e[10], e[11], e[12], e[13], e[14], e[15]]);
        let len = u64::from_le_bytes([e[16], e[17], e[18], e[19], e[20], e[21], e[22], e[23]]);
        let off = usize::try_from(off).map_err(|_| perr("section offset overflows"))?;
        let len = usize::try_from(len).map_err(|_| perr("section length overflows"))?;
        let end = off
            .checked_add(len)
            .filter(|&e| e <= bytes.len())
            .ok_or_else(|| perr(format!("section {i} extends past the end of the file")))?;
        if off % 8 != 0 {
            return Err(perr(format!("section {i} is not 8-byte aligned")));
        }
        let elem = match *expected_kind {
            KIND_U64S | KIND_F64S => 8,
            KIND_U32S => 4,
            _ => 1,
        };
        if len % elem != 0 {
            return Err(perr(format!(
                "section {i} length {len} is not a multiple of its element size {elem}"
            )));
        }
        sections[i] = &bytes[off..end];
    }
    Ok(sections)
}

/// Deserialises a binary repository: one validated bulk decode per numeric
/// section, then one structural walk that rebuilds the source models and
/// reassembles the compiled layout with **zero re-compilation** — the stored
/// artefacts *are* the compiled representation.
pub fn decode(bytes: &[u8]) -> Result<CompiledRepository> {
    let (source, entries) = decode_parts(bytes)?;
    Ok(CompiledRepository::from_parts(source, entries))
}

/// The decode walk behind [`decode`]: the source repository and the
/// compiled entries, in one pass over the validated sections.
pub(crate) fn decode_parts(
    bytes: &[u8],
) -> Result<(ModelRepository, Vec<(ModelKey, CompiledRoutineModel)>)> {
    let sections = validate_frame(bytes)?;
    // Bulk-decode the numeric sections (the only per-element work on the
    // load path, a straight LE reinterpretation of each 8- or 4-byte chunk).
    let u64s_data: Vec<u64> = sections[1]
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect();
    let f64s_data: Vec<f64> = sections[2]
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect();
    let u32s_data: Vec<u32> = sections[3]
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    let mut d = Decoded {
        meta: MetaReader {
            cursor: Cursor::new(sections[0], "META"),
        },
        u8s: Cursor::new(sections[4], "U8S"),
        strs: sections[5],
        strs_used: 0,
    };
    let mut u64s = Cursor::new(&u64s_data, "U64S");
    let mut f64s = Cursor::new(&f64s_data, "F64S");
    let mut u32s = Cursor::new(&u32s_data, "U32S");

    let model_count = d.meta.count("model count")?;
    let mut repo = ModelRepository::new();
    let mut entries: Vec<(ModelKey, CompiledRoutineModel)> = Vec::new();
    let mut prev_key: Option<ModelKey> = None;
    for _ in 0..model_count {
        let (model, key, compiled) = decode_model(&mut d, &mut u64s, &mut f64s, &mut u32s)?;
        // Models must be stored in strictly ascending key order (the order
        // the writer and `compile_arc` both produce), which also rules out
        // duplicates silently overwriting each other.
        if let Some(prev) = &prev_key {
            if *prev >= key {
                return Err(perr(format!(
                    "model keys out of order ({}/{}/{} follows an equal or later key)",
                    key.routine, key.machine_id, key.locality
                )));
            }
        }
        prev_key = Some(key.clone());
        repo.insert(model);
        entries.push((key, compiled));
    }
    d.meta.cursor.finish()?;
    u64s.finish()?;
    f64s.finish()?;
    u32s.finish()?;
    d.u8s.finish()?;
    if d.strs_used != d.strs.len() {
        return Err(perr("unreferenced trailing string data"));
    }
    Ok((repo, entries))
}

fn decode_model(
    d: &mut Decoded<'_>,
    u64s: &mut Cursor<'_, u64>,
    f64s: &mut Cursor<'_, f64>,
    u32s: &mut Cursor<'_, u32>,
) -> Result<(RoutineModel, ModelKey, CompiledRoutineModel)> {
    let routine_idx = d.meta.count("routine index")?;
    let routine = *Routine::ALL
        .get(routine_idx)
        .ok_or_else(|| perr(format!("unknown routine index {routine_idx}")))?;
    let locality = match d.meta.u32()? {
        0 => Locality::InCache,
        1 => Locality::OutOfCache,
        other => return Err(perr(format!("unknown locality index {other}"))),
    };
    let str_off = d.meta.count("machine id offset")?;
    let str_len = d.meta.count("machine id length")?;
    let end = str_off
        .checked_add(str_len)
        .filter(|&e| e <= d.strs.len())
        .ok_or_else(|| perr("machine id extends past the string section"))?;
    let machine_id = std::str::from_utf8(&d.strs[str_off..end])
        .map_err(|_| perr("machine id is not valid UTF-8"))?
        .to_string();
    d.strs_used = d.strs_used.max(end);
    let dim = d.meta.count("model dimension")?;
    let space = decode_region(u64s, dim)?;
    let submodel_count = d.meta.count("submodel count")?;
    let key = ModelKey::new(routine, &machine_id, locality);
    let mut model = RoutineModel::new(routine, machine_id, locality, space.clone());
    let mut compiled_subs: Vec<(FlagKey, CompiledSubmodel)> = Vec::new();
    let mut prev_flags: Option<FlagKey> = None;
    for _ in 0..submodel_count {
        let flag_count = d.meta.count("flag count")?;
        let mut flags = Vec::with_capacity(flag_count.min(64));
        for _ in 0..flag_count {
            flags.push(d.meta.u64_usize("flag value")?);
        }
        let flags = FlagKey::from_slice(&flags)
            .ok_or_else(|| perr("submodel flag key cannot come from any call"))?;
        // Sorted flag keys keep the compiled submodel order identical to
        // what compiling the source would produce.
        if prev_flags.is_some_and(|prev| prev >= flags) {
            return Err(perr("submodel flag keys out of order"));
        }
        prev_flags = Some(flags);
        let total_samples = d.meta.u64_usize("sample count")?;
        let mode = d.meta.u32()?;
        let region_count = d.meta.count("region count")?;
        match mode {
            MODE_FAST => {
                let (sub, fast) =
                    decode_fast_submodel(d, u64s, f64s, u32s, dim, region_count, total_samples)?;
                model.insert_submodel(flags, sub);
                compiled_subs.push((flags, CompiledSubmodel::Fast(fast)));
            }
            MODE_REFERENCE => {
                let sub = decode_reference_submodel(
                    d,
                    u64s,
                    f64s,
                    u32s,
                    dim,
                    region_count,
                    total_samples,
                    &space,
                )?;
                // Reference mode records that compilation declined this
                // submodel.
                compiled_subs.push((flags, CompiledSubmodel::Reference(sub.clone())));
                model.insert_submodel(flags, sub);
            }
            other => return Err(perr(format!("unknown submodel mode {other}"))),
        }
    }
    let compiled = CompiledRoutineModel::from_raw_parts(routine, &space, compiled_subs);
    Ok((model, key, compiled))
}

fn decode_region(u64s: &mut Cursor<'_, u64>, dim: usize) -> Result<Region> {
    let lo = usizes(u64s.take(dim)?, "region bound")?;
    let hi = usizes(u64s.take(dim)?, "region bound")?;
    Region::try_new(lo, hi).ok_or_else(|| perr("region bounds inverted"))
}

fn decode_fast_submodel(
    d: &mut Decoded<'_>,
    u64s: &mut Cursor<'_, u64>,
    f64s: &mut Cursor<'_, f64>,
    u32s: &mut Cursor<'_, u32>,
    dim: usize,
    region_count: usize,
    total_samples: usize,
) -> Result<(PiecewiseModel, CompiledPiecewise)> {
    let mut cuts = Vec::with_capacity(dim.min(crate::MAX_DIM));
    for _ in 0..dim {
        let n = d.meta.count("cut count")?;
        cuts.push(usizes(u64s.take(n)?, "cut coordinate")?);
    }
    let indexed = match d.meta.u32()? {
        0 => false,
        1 => true,
        other => return Err(perr(format!("bad indexed flag {other}"))),
    };
    let mut cells = Vec::new();
    let mut fallbacks = Vec::new();
    if indexed {
        let n = d.meta.count("cell count")?;
        cells = u32s.take(n)?.to_vec();
        let fb = d.meta.count("fallback count")?;
        for _ in 0..fb {
            let n = d.meta.count("fallback set size")?;
            fallbacks.push(u32s.take(n)?.to_vec());
        }
    }
    let mut regions = Vec::with_capacity(region_count.min(1 << 16));
    let mut compiled_regions = Vec::with_capacity(region_count.min(1 << 16));
    let mut space_lo = vec![usize::MAX; dim];
    let mut space_hi = vec![0usize; dim];
    for _ in 0..region_count {
        let region = decode_region(u64s, dim)?;
        let error = f64s.take(1)?[0];
        let samples_used = d.meta.u64_usize("region sample count")?;
        let term_count = d.meta.count("term count")?;
        let exp_len = term_count
            .checked_mul(dim)
            .ok_or_else(|| perr("exponent matrix size overflows"))?;
        let exponents = d.u8s.take(exp_len)?.to_vec();
        let coeff_len = term_count
            .checked_mul(5)
            .ok_or_else(|| perr("coefficient matrix size overflows"))?;
        let coefficients = f64s.take(coeff_len)?.to_vec();
        let plan = CompiledVectorPolynomial::from_raw_parts(dim, exponents, coefficients)?;
        let mut polys = Vec::with_capacity(Quantity::ALL.len());
        let mut plan_exponents: Option<Arc<Vec<Vec<u32>>>> = None;
        for q in 0..Quantity::ALL.len() {
            match d.meta.u32()? {
                QMODE_CANONICAL => {
                    // The quantity polynomial is the shared plan plus the
                    // q-th SoA column, bit-for-bit: nothing to read.  The
                    // canonical quantities share one exponent table, as
                    // they do when the fit engine builds them.
                    let exps = plan_exponents.get_or_insert_with(|| {
                        Arc::new(
                            plan.exponent_bytes()
                                .chunks_exact(dim.max(1))
                                .map(|t| t.iter().map(|&b| b as u32).collect())
                                .collect(),
                        )
                    });
                    let coeffs: Vec<f64> = (0..plan.term_count())
                        .map(|t| plan.coefficient_matrix()[t * 5 + q])
                        .collect();
                    polys.push(
                        Polynomial::from_shared(dim, Arc::clone(exps), coeffs)
                            .map_err(|e| perr(format!("invalid canonical polynomial: {e}")))?,
                    );
                }
                QMODE_EXPLICIT => polys.push(decode_explicit_poly(d, f64s, u32s, dim)?),
                other => return Err(perr(format!("unknown quantity mode {other}"))),
            }
        }
        for dd in 0..dim {
            space_lo[dd] = space_lo[dd].min(region.lo()[dd]);
            space_hi[dd] = space_hi[dd].max(region.hi()[dd]);
        }
        compiled_regions.push(CompiledRegion::compile(&region, plan, error));
        regions.push(RegionModel {
            region,
            poly: VectorPolynomial::new(polys)
                .map_err(|e| perr(format!("invalid vector polynomial: {e}")))?,
            error,
            samples_used,
            // Provenance is runtime-only (same rule as the text format):
            // reloaded regions restart at revision 0.
            revision: 0,
        });
    }
    let fast =
        CompiledPiecewise::from_raw_parts(dim, compiled_regions, cuts, cells, fallbacks, indexed)?;
    let source = PiecewiseModel::new(Region::new(space_lo, space_hi), regions, total_samples);
    Ok((source, fast))
}

#[allow(clippy::too_many_arguments)]
fn decode_reference_submodel(
    d: &mut Decoded<'_>,
    u64s: &mut Cursor<'_, u64>,
    f64s: &mut Cursor<'_, f64>,
    u32s: &mut Cursor<'_, u32>,
    dim: usize,
    region_count: usize,
    total_samples: usize,
    space: &Region,
) -> Result<PiecewiseModel> {
    let mut regions = Vec::with_capacity(region_count.min(1 << 16));
    for _ in 0..region_count {
        let region = decode_region(u64s, dim)?;
        let error = f64s.take(1)?[0];
        let samples_used = d.meta.u64_usize("region sample count")?;
        let mut polys = Vec::with_capacity(Quantity::ALL.len());
        for _ in Quantity::ALL {
            polys.push(decode_explicit_poly(d, f64s, u32s, dim)?);
        }
        regions.push(RegionModel {
            region,
            poly: VectorPolynomial::new(polys)
                .map_err(|e| perr(format!("invalid vector polynomial: {e}")))?,
            error,
            samples_used,
            revision: 0,
        });
    }
    Ok(PiecewiseModel::new(space.clone(), regions, total_samples))
}

fn decode_explicit_poly(
    d: &mut Decoded<'_>,
    f64s: &mut Cursor<'_, f64>,
    u32s: &mut Cursor<'_, u32>,
    dim: usize,
) -> Result<Polynomial> {
    let terms = d.meta.count("term count")?;
    let flat = u32s.take(
        terms
            .checked_mul(dim)
            .ok_or_else(|| perr("exponent matrix size overflows"))?,
    )?;
    let exponents: Vec<Vec<u32>> = if dim == 0 {
        vec![Vec::new(); terms]
    } else {
        flat.chunks_exact(dim).map(|c| c.to_vec()).collect()
    };
    let coefficients = f64s.take(terms)?.to_vec();
    Polynomial::new(dim, exponents, coefficients)
        .map_err(|e| perr(format!("invalid polynomial: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlagKey;

    /// A one-model binary file: one trsm submodel (key `[0, 0, 0]`) of one
    /// region over `[8, 512]²` whose five quantities are `poly`, and the
    /// number of its submodels the compiler accepted.
    fn one_region_file(poly: Polynomial) -> (Vec<u8>, usize) {
        let space = Region::new(vec![8, 8], vec![512, 512]);
        let region = RegionModel {
            region: space.clone(),
            poly: VectorPolynomial::new(vec![poly; Quantity::ALL.len()]).unwrap(),
            error: 0.01,
            samples_used: 4,
            revision: 0,
        };
        let mut model = RoutineModel::new(Routine::Trsm, "m", Locality::InCache, space.clone());
        model.insert_submodel(
            FlagKey::from_slice(&[0, 0, 0]).unwrap(),
            PiecewiseModel::new(space, vec![region], 4),
        );
        let mut repo = ModelRepository::new();
        repo.insert(model);
        let compiled = repo.compiled();
        let entry = compiled.get(Routine::Trsm, "m", Locality::InCache).unwrap();
        (encode(&compiled).unwrap(), entry.fast_submodel_count())
    }

    /// A one-model binary file whose only submodel the compiler declines —
    /// an exponent past the power ladder — so it is stored in reference
    /// mode.
    fn reference_mode_file() -> Vec<u8> {
        let poly = Polynomial::new(2, vec![vec![0, 0], vec![8, 0]], vec![1.0, 1e-20]).unwrap();
        let (bytes, fast) = one_region_file(poly);
        assert_eq!(fast, 0, "must be stored in reference mode");
        bytes
    }

    /// Recomputes and stores the checksum of a patched file.
    fn resealed(mut bytes: Vec<u8>) -> Vec<u8> {
        bytes[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 8].fill(0);
        let sum = checksum(&bytes);
        bytes[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 8].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    /// Rewrites the first flag of the file's only submodel key and reseals
    /// the checksum.  In `META` the key follows the model count, routine,
    /// locality, machine-id span, dimension, submodel count and flag count
    /// (eight u32s); each flag is a u64.
    fn with_first_flag(mut bytes: Vec<u8>, flag: u64) -> Vec<u8> {
        let meta = u64::from_le_bytes(bytes[48..56].try_into().unwrap()) as usize;
        let at = meta + 8 * 4;
        bytes[at..at + 8].copy_from_slice(&flag.to_le_bytes());
        resealed(bytes)
    }

    #[test]
    fn an_indexed_model_spanning_past_the_cap_is_a_decode_error() {
        // One compiled region, hence one cell: indexed, with the cuts
        // [8, 513] in each dimension.
        let poly = Polynomial::new(2, vec![vec![0, 0], vec![1, 0]], vec![1.0, 2.0]).unwrap();
        let (mut bytes, fast) = one_region_file(poly);
        assert_eq!(fast, 1, "must be stored in fast mode");
        assert!(decode(&bytes).is_ok());
        // The last cut of the second dimension is the last 513 in `U64S`
        // (section 1): region bounds end at 512.  Moving it to 2^40 keeps
        // the cuts ascending and the cell grid unchanged, but the locate
        // table would need ~2^40 entries.
        let entry = HEADER_LEN + TABLE_ENTRY_LEN;
        let off = u64::from_le_bytes(bytes[entry + 8..entry + 16].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(bytes[entry + 16..entry + 24].try_into().unwrap()) as usize;
        let at = (off..off + len)
            .step_by(8)
            .rfind(|&i| bytes[i..i + 8] == 513u64.to_le_bytes())
            .expect("the last cut is stored");
        bytes[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        match decode(&resealed(bytes)) {
            Err(ModelError::Parse(msg)) => assert!(msg.contains("span"), "{msg}"),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn unrepresentable_flag_keys_are_a_decode_error() {
        let bytes = reference_mode_file();
        // The patch lands on the key: flag 1 decodes as key [1, 0, 0].
        let decoded = decode(&with_first_flag(bytes.clone(), 1)).unwrap();
        let model = decoded
            .source()
            .get(Routine::Trsm, "m", Locality::InCache)
            .unwrap();
        let key = FlagKey::from_slice(&[1, 0, 0]).unwrap();
        assert!(model.submodel(key).is_some());
        // A flag above 255 cannot come from any call: a parse error, not a
        // stored key that nothing can query.
        match decode(&with_first_flag(bytes, 256)) {
            Err(ModelError::Parse(msg)) => assert!(msg.contains("flag key"), "{msg}"),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }
}
