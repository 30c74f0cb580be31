//! The binary repository format (`dlaperf-bin` v2).
//!
//! The text format (see [`ModelRepository::to_text`]) is the debug format:
//! readable, diffable, and slow to load, because every number is tokenised
//! and parsed from its decimal spelling.  This module stores exactly what the
//! text format carries — models, submodels, regions and their five quantity
//! polynomials — in bulk little-endian numeric sections, so a load is one
//! validated bulk decode per section plus one structural walk.  [`decode`]
//! then compiles the decoded repository with [`CompiledRepository::compile`],
//! just as a text load is compiled when it is published: the compiled
//! evaluator's layout is derived at load time and never stored.
//!
//! # On-disk layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//!      0     8  magic "DLAPBIN\0"
//!      8     4  format version (currently 2)
//!     12     4  endian tag 0x01020304 (bytes 04 03 02 01 on disk)
//!     16     4  section count (currently 5)
//!     20     4  reserved (0)
//!     24     8  total file length in bytes
//!     32     8  FNV-1a 64 checksum, folded over 8-byte LE lanes (see below)
//!     40   120  section table: 5 x { kind u32, reserved u32, off u64, len u64 }
//!    160     -  payload sections, each padded to 8-byte alignment
//! ```
//!
//! The five sections appear in fixed order: `META` (the structural walk,
//! inline u32/u64 values), `U64S` (space and region bounds), `F64S` (region
//! errors and polynomial coefficients), `U32S` (polynomial exponents) and
//! `STRS` (machine identifiers; unlike the whitespace-tokenised text format,
//! ids containing whitespace are representable here).
//!
//! The walk, in `META` order (bracketed values live in the numeric section
//! named):
//!
//! ```text
//! repository  model count u32, then each model in ascending key order
//! model       routine index u32, locality u32, machine-id offset u32 and
//!             length u32 (into STRS), dimension u32, [space lo, hi: U64S],
//!             submodel count u32, then each submodel in ascending flag order
//! submodel    flag count u32, flags u64 each, total samples u64,
//!             region count u32, then each region
//! region      [lo, hi: U64S], [error: F64S], samples used u64, shared u32,
//!             then for each quantity q (min, mean, median, max, std-dev):
//!             if q == 0 or shared == 0: term count u32 and
//!             [exponents: U32S, term count x dimension];
//!             always [coefficients: F64S, one per term]
//! ```
//!
//! `shared` is 1 when the five quantity polynomials have the same exponent
//! table, as every fit produces: the table is stored once and the decoded
//! polynomials share it behind one `Arc`.  A decoded submodel spans its
//! model's space, as in the text format.
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

use crate::routine_model::check_model_dim;
use crate::{
    CompiledRepository, FlagKey, ModelError, ModelKey, ModelRepository, PiecewiseModel, Polynomial,
    Region, RegionModel, Result, RoutineModel, VectorPolynomial,
};

const MAGIC: [u8; 8] = *b"DLAPBIN\0";
const VERSION: u32 = 2;
const ENDIAN_TAG: u32 = 0x0102_0304;
const HEADER_LEN: usize = 40;
const SECTION_COUNT: usize = 5;
const TABLE_ENTRY_LEN: usize = 24;
const PAYLOAD_START: usize = HEADER_LEN + SECTION_COUNT * TABLE_ENTRY_LEN;
const CHECKSUM_OFFSET: usize = 32;

/// Section kinds, in their required file order.
const KIND_META: u32 = 1;
const KIND_U64S: u32 = 2;
const KIND_F64S: u32 = 3;
const KIND_U32S: u32 = 4;
const KIND_STRS: u32 = 5;
const KINDS: [u32; SECTION_COUNT] = [KIND_META, KIND_U64S, KIND_F64S, KIND_U32S, KIND_STRS];

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

/// Serialises the source models of a compiled repository to the binary
/// format.  The result decodes with [`decode`] into an equal repository;
/// encoding the decoded value again yields byte-identical output.
pub fn encode(compiled: &CompiledRepository) -> Result<Vec<u8>> {
    encode_models(compiled.source())
}

/// Serialises a repository to the binary format (the writer behind
/// [`encode`] and [`ModelRepository::to_binary`]).
pub(crate) fn encode_models(repository: &ModelRepository) -> Result<Vec<u8>> {
    let mut s = Sections::default();
    s.meta_usize(repository.len(), "model count")?;
    for (_, model) in repository.iter() {
        encode_model(&mut s, model)?;
    }
    Ok(assemble(&s))
}

fn encode_model(s: &mut Sections, model: &RoutineModel) -> Result<()> {
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
        s.meta_usize(sub.regions.len(), "region count")?;
        for rm in &sub.regions {
            encode_region(s, rm, dim)?;
        }
    }
    Ok(())
}

fn encode_region(s: &mut Sections, rm: &RegionModel, dim: usize) -> Result<()> {
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
    let polys = rm.poly.polynomials();
    let shared = polys.iter().all(|p| p.exponents() == polys[0].exponents());
    s.meta_u32(shared as u32);
    for (q, poly) in polys.iter().enumerate() {
        if poly.dim() != dim {
            return Err(serr(format!(
                "polynomial arity {} does not match model dimension {dim}",
                poly.dim()
            )));
        }
        if q == 0 || !shared {
            s.meta_usize(poly.term_count(), "term count")?;
            for e in poly.exponents() {
                s.u32s.extend_from_slice(e);
            }
        }
        s.f64s.extend_from_slice(poly.coefficients());
    }
    Ok(())
}

fn assemble(s: &Sections) -> Vec<u8> {
    let payloads: [Vec<u8>; SECTION_COUNT] = [
        s.meta.clone(),
        s.u64s.iter().flat_map(|v| v.to_le_bytes()).collect(),
        s.f64s.iter().flat_map(|v| v.to_le_bytes()).collect(),
        s.u32s.iter().flat_map(|v| v.to_le_bytes()).collect(),
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

    fn remaining(&self) -> usize {
        self.data.len() - self.pos
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

/// The decoder's view of a validated file: one cursor per section, and how
/// far into `STRS` the machine ids reach.
struct Reader<'a> {
    meta: Cursor<'a, u8>,
    u64s: Cursor<'a, u64>,
    f64s: Cursor<'a, f64>,
    u32s: Cursor<'a, u32>,
    strs: &'a [u8],
    strs_used: usize,
}

impl Reader<'_> {
    fn u32(&mut self) -> Result<u32> {
        let b = self.meta.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64> {
        let b = self.meta.take(8)?;
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

    fn region(&mut self, dim: usize) -> Result<Region> {
        let lo = usizes(self.u64s.take(dim)?)?;
        let hi = usizes(self.u64s.take(dim)?)?;
        Region::try_new(lo, hi).ok_or_else(|| perr("region bounds inverted"))
    }

    /// One exponent table: a term count, then `terms x dim` exponents.
    fn exponents(&mut self, dim: usize) -> Result<Arc<Vec<Vec<u32>>>> {
        let terms = self.count("term count")?;
        let flat = self.u32s.take(
            terms
                .checked_mul(dim)
                .ok_or_else(|| perr("exponent matrix size overflows"))?,
        )?;
        // Every term has a coefficient: checked before the table is
        // allocated, because a zero-dimensional table consumes no exponents.
        if terms > self.f64s.remaining() {
            return Err(perr("F64S section exhausted"));
        }
        Ok(Arc::new(if dim == 0 {
            vec![Vec::new(); terms]
        } else {
            flat.chunks_exact(dim).map(<[u32]>::to_vec).collect()
        }))
    }

    fn finish(&self) -> Result<()> {
        self.meta.finish()?;
        self.u64s.finish()?;
        self.f64s.finish()?;
        self.u32s.finish()?;
        if self.strs_used != self.strs.len() {
            return Err(perr("unreferenced trailing string data"));
        }
        Ok(())
    }
}

fn usizes(vals: &[u64]) -> Result<Vec<usize>> {
    vals.iter()
        .map(|&v| {
            usize::try_from(v).map_err(|_| perr(format!("region bound {v} does not fit in usize")))
        })
        .collect()
}

/// Validates the header and section table of a candidate binary repository
/// and returns the five raw payload slices in section order.
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

/// Deserialises a binary repository and compiles it for serving: the
/// models are decoded (one validated bulk decode per numeric section, then
/// one structural walk) and then compiled with
/// [`CompiledRepository::compile`], the only constructor of a compiled
/// repository.
pub fn decode(bytes: &[u8]) -> Result<CompiledRepository> {
    decode_models(bytes).map(CompiledRepository::compile)
}

/// Deserialises the models of a binary repository (the reader behind
/// [`decode`] and [`ModelRepository::from_binary`]).
pub(crate) fn decode_models(bytes: &[u8]) -> Result<ModelRepository> {
    let sections = validate_frame(bytes)?;
    // Bulk-decode the numeric sections (the only per-element work on the
    // load path, a straight LE reinterpretation of each 8- or 4-byte chunk).
    let u64s: Vec<u64> = sections[1]
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect();
    let f64s: Vec<f64> = sections[2]
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect();
    let u32s: Vec<u32> = sections[3]
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    let mut r = Reader {
        meta: Cursor::new(sections[0], "META"),
        u64s: Cursor::new(&u64s, "U64S"),
        f64s: Cursor::new(&f64s, "F64S"),
        u32s: Cursor::new(&u32s, "U32S"),
        strs: sections[4],
        strs_used: 0,
    };

    let model_count = r.count("model count")?;
    let mut repo = ModelRepository::new();
    let mut prev_key: Option<ModelKey> = None;
    for _ in 0..model_count {
        let model = decode_model(&mut r)?;
        let key = ModelKey::new(model.routine, &model.machine_id, model.locality);
        // Models must be stored in strictly ascending key order (the order
        // the writer produces), which also rules out duplicates silently
        // overwriting each other.
        if prev_key.as_ref().is_some_and(|prev| *prev >= key) {
            return Err(perr(format!(
                "model keys out of order ({}/{}/{} follows an equal or later key)",
                key.routine, key.machine_id, key.locality
            )));
        }
        prev_key = Some(key);
        repo.insert(model);
    }
    r.finish()?;
    Ok(repo)
}

fn decode_model(r: &mut Reader<'_>) -> Result<RoutineModel> {
    let routine_idx = r.count("routine index")?;
    let routine = *Routine::ALL
        .get(routine_idx)
        .ok_or_else(|| perr(format!("unknown routine index {routine_idx}")))?;
    let locality = match r.u32()? {
        0 => Locality::InCache,
        1 => Locality::OutOfCache,
        other => return Err(perr(format!("unknown locality index {other}"))),
    };
    let str_off = r.count("machine id offset")?;
    let str_len = r.count("machine id length")?;
    let end = str_off
        .checked_add(str_len)
        .filter(|&e| e <= r.strs.len())
        .ok_or_else(|| perr("machine id extends past the string section"))?;
    let machine_id = std::str::from_utf8(&r.strs[str_off..end])
        .map_err(|_| perr("machine id is not valid UTF-8"))?
        .to_string();
    r.strs_used = r.strs_used.max(end);
    let dim = r.count("model dimension")?;
    check_model_dim(routine, dim).map_err(perr)?;
    let space = r.region(dim)?;
    let submodel_count = r.count("submodel count")?;
    let mut model = RoutineModel::new(routine, machine_id, locality, space.clone());
    let mut prev_flags: Option<FlagKey> = None;
    for _ in 0..submodel_count {
        let flag_count = r.count("flag count")?;
        let flags: Vec<usize> = (0..flag_count)
            .map(|_| r.u64_usize("flag value"))
            .collect::<Result<_>>()?;
        let flags = FlagKey::from_slice(&flags)
            .ok_or_else(|| perr("submodel flag key cannot come from any call"))?;
        // Strictly ascending flag keys (the writer's order) rule out a
        // duplicate key silently replacing an earlier submodel.
        if prev_flags.is_some_and(|prev| prev >= flags) {
            return Err(perr("submodel flag keys out of order"));
        }
        prev_flags = Some(flags);
        let total_samples = r.u64_usize("sample count")?;
        let region_count = r.count("region count")?;
        let regions = (0..region_count)
            .map(|_| decode_region(r, dim))
            .collect::<Result<_>>()?;
        model.insert_submodel(
            flags,
            PiecewiseModel::new(space.clone(), regions, total_samples),
        );
    }
    Ok(model)
}

fn decode_region(r: &mut Reader<'_>, dim: usize) -> Result<RegionModel> {
    let region = r.region(dim)?;
    let error = r.f64s.take(1)?[0];
    let samples_used = r.u64_usize("region sample count")?;
    let shared = match r.u32()? {
        0 => false,
        1 => true,
        other => return Err(perr(format!("bad shared-exponents word {other}"))),
    };
    let mut polys = Vec::with_capacity(Quantity::ALL.len());
    let mut exponents = r.exponents(dim)?;
    for q in 0..Quantity::ALL.len() {
        if q > 0 && !shared {
            exponents = r.exponents(dim)?;
        }
        let coefficients = r.f64s.take(exponents.len())?.to_vec();
        polys.push(
            Polynomial::from_shared(dim, Arc::clone(&exponents), coefficients)
                .map_err(|e| perr(format!("invalid polynomial: {e}")))?,
        );
    }
    Ok(RegionModel {
        region,
        poly: VectorPolynomial::new(polys)
            .map_err(|e| perr(format!("invalid vector polynomial: {e}")))?,
        error,
        samples_used,
        // Provenance is runtime-only (same rule as the text format):
        // reloaded regions restart at revision 0.
        revision: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompiledPiecewise, RepositoryValidator};
    use dla_blas::{Call, Diag, Side, Trans, Uplo};

    /// A one-model repository: one trsm submodel (key `[0, 0, 0]`) over the
    /// space `space`, whose single region `region` carries `poly` for all
    /// five quantities.
    fn one_region_repository(space: Region, region: Region, poly: Polynomial) -> ModelRepository {
        let region = RegionModel {
            region,
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
        repo
    }

    /// A one-model binary file whose only region covers its space `[8, 512]²`.
    fn one_region_file() -> Vec<u8> {
        let space = Region::new(vec![8, 8], vec![512, 512]);
        let poly = Polynomial::new(2, vec![vec![0, 0], vec![1, 0]], vec![1.0, 2.0]).unwrap();
        encode_models(&one_region_repository(space.clone(), space, poly)).unwrap()
    }

    /// Recomputes and stores the checksum of a patched file.
    fn resealed(mut bytes: Vec<u8>) -> Vec<u8> {
        bytes[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 8].fill(0);
        let sum = checksum(&bytes);
        bytes[CHECKSUM_OFFSET..CHECKSUM_OFFSET + 8].copy_from_slice(&sum.to_le_bytes());
        bytes
    }

    /// The byte range of section `i`'s payload.
    fn section(bytes: &[u8], i: usize) -> std::ops::Range<usize> {
        let entry = HEADER_LEN + i * TABLE_ENTRY_LEN;
        let off = u64::from_le_bytes(bytes[entry + 8..entry + 16].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(bytes[entry + 16..entry + 24].try_into().unwrap()) as usize;
        off..off + len
    }

    /// The source of the file's only submodel, under the key `[0, 0, 0]`.
    fn only_submodel(compiled: &CompiledRepository) -> &PiecewiseModel {
        let model = compiled.source().get(Routine::Trsm, "m", Locality::InCache);
        model
            .unwrap()
            .submodel(FlagKey::from_slice(&[0, 0, 0]).unwrap())
            .unwrap()
    }

    /// Rewrites the first flag of the file's only submodel key and reseals
    /// the checksum.  In `META` the key follows the model count, routine,
    /// locality, machine-id span, dimension, submodel count and flag count
    /// (eight u32s); each flag is a u64.
    fn with_first_flag(mut bytes: Vec<u8>, flag: u64) -> Vec<u8> {
        let at = section(&bytes, 0).start + 8 * 4;
        bytes[at..at + 8].copy_from_slice(&flag.to_le_bytes());
        resealed(bytes)
    }

    #[test]
    fn a_region_bound_past_the_cap_decodes_onto_the_reference_path() {
        let bytes = one_region_file();
        // `U64S` (section 1) holds the space bounds, then the region's; the
        // last 512 is the region's upper bound in the second dimension.
        // Moving it to 2^40 leaves a well-formed file whose cut coordinates
        // would span ~2^40 locate-table entries.
        let mut patched = bytes.clone();
        let at = section(&bytes, 1)
            .step_by(8)
            .rfind(|&i| bytes[i..i + 8] == 512u64.to_le_bytes())
            .expect("the region bound is stored");
        patched[at..at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        // Decoding compiles: `compile` sees the span and leaves the submodel
        // to the reference evaluator, without allocating the tables.
        let compiled = decode(&resealed(patched)).unwrap();
        let sub = only_submodel(&compiled);
        assert_eq!(sub.regions[0].region.hi(), &[512, 1 << 40]);
        assert!(CompiledPiecewise::compile(sub).is_none());
        // The compiled repository still answers, as the reference does.
        let slot = compiled.resolve("m", Locality::InCache).slot(Routine::Trsm);
        let model = compiled.model_at(slot.unwrap()).unwrap();
        let source = compiled.source().get(Routine::Trsm, "m", Locality::InCache);
        let call = Call::trsm(
            Side::Left,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            64,
            300,
            1.0,
        );
        assert_eq!(
            model.estimate(&call).unwrap(),
            source.unwrap().estimate(&call).unwrap()
        );
        // The unpatched file compiles the same submodel.
        let unpatched = decode(&bytes).unwrap();
        assert!(CompiledPiecewise::compile(only_submodel(&unpatched)).is_some());
    }

    #[test]
    fn unrepresentable_flag_keys_are_a_decode_error() {
        let bytes = one_region_file();
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

    #[test]
    fn a_region_that_leaves_its_space_uncovered_fails_validation_after_a_round_trip() {
        // The region covers [8, 512] x [8, 1024] of the space [8, 1024]².
        let space = Region::new(vec![8, 8], vec![1024, 1024]);
        let region = Region::new(vec![8, 8], vec![512, 1024]);
        let poly = Polynomial::new(2, vec![vec![0, 0], vec![0, 1]], vec![3.0, -0.0]).unwrap();
        let repo = one_region_repository(space, region, poly);
        let validator = RepositoryValidator::new();
        let Err(ModelError::Validation(before)) = validator.validate(&repo) else {
            panic!("the uncovered space must fail validation");
        };
        assert!(before.contains("degenerate region cover"), "{before}");
        // The decoded submodel spans its model's space, not its regions'
        // bounding box, so the round trip keeps the gap visible.
        let decoded = decode_models(&encode_models(&repo).unwrap()).unwrap();
        assert_eq!(decoded, repo);
        assert_eq!(
            validator.validate(&decoded),
            Err(ModelError::Validation(before))
        );
    }

    #[test]
    fn a_shared_word_other_than_0_or_1_is_a_decode_error() {
        let bytes = one_region_file();
        // `META` ends with the region's shared word and, since the five
        // quantities share their exponents, its one term count (2).
        let meta = section(&bytes, 0);
        let at = meta.end - 8;
        assert_eq!(bytes[at..at + 4], 1u32.to_le_bytes());
        assert_eq!(bytes[at + 4..at + 8], 2u32.to_le_bytes());
        let mut patched = bytes;
        patched[at] = 2;
        match decode(&resealed(patched)) {
            Err(ModelError::Parse(msg)) => assert!(msg.contains("shared"), "{msg}"),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }

    #[test]
    fn a_model_whose_dimension_is_not_its_size_count_is_a_decode_error() {
        // A one-dimensional trsm model encodes (the writer stores what it
        // is given), but a trsm call has two sizes, so no call could reach
        // it: the decoder rejects it, as the text parser does.
        let space = Region::new(vec![8], vec![16]);
        let poly = Polynomial::new(1, vec![vec![0], vec![1]], vec![1.0, 2.0]).unwrap();
        let bytes = encode_models(&one_region_repository(space.clone(), space, poly)).unwrap();
        match decode(&bytes) {
            Err(ModelError::Parse(msg)) => assert!(msg.contains("dimension 1"), "{msg}"),
            other => panic!("expected a parse error, got {other:?}"),
        }
    }
}
