//! The model repository: persistent storage of routine models.
//!
//! The paper stores generated models "permanently in a repository" so that
//! they can be reused for any algorithm built from the modelled routines.
//! This module provides that repository with a small, versioned, line-oriented
//! text format (no external serialisation dependency), plus file persistence.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use dla_blas::Routine;
use dla_machine::Locality;
use dla_mat::stats::Quantity;

use crate::{
    FlagKey, ModelError, PiecewiseModel, Polynomial, Region, RegionModel, Result, RoutineModel,
    VectorPolynomial,
};

/// Identifies one routine model inside the repository.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ModelKey {
    /// Routine name (`dgemm`, ...).
    pub routine: String,
    /// Machine-configuration identifier.
    pub machine_id: String,
    /// Memory-locality scenario name.
    pub locality: String,
}

impl ModelKey {
    /// Builds a key from typed components.
    pub fn new(routine: Routine, machine_id: &str, locality: Locality) -> ModelKey {
        ModelKey {
            routine: routine.name().to_string(),
            machine_id: machine_id.to_string(),
            locality: locality.name().to_string(),
        }
    }
}

/// A collection of routine models, persistable as plain text.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModelRepository {
    models: BTreeMap<ModelKey, RoutineModel>,
}

const FORMAT_HEADER: &str = "dlaperf-models v1";

impl ModelRepository {
    /// Creates an empty repository.
    pub fn new() -> ModelRepository {
        ModelRepository::default()
    }

    /// Number of stored models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Returns `true` if the repository holds no models.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Stores a model, replacing any previous model with the same key.
    pub fn insert(&mut self, model: RoutineModel) {
        let key = ModelKey::new(model.routine, &model.machine_id, model.locality);
        self.models.insert(key, model);
    }

    /// Merges another repository into this one at **submodel granularity**.
    ///
    /// Models of `other` under a fresh key are inserted; on a key collision
    /// the two routine models are combined with
    /// [`RoutineModel::merge_from`]: `other`'s flag-variant submodels replace
    /// their counterparts while flag variants present only in `self` are
    /// kept.  (The previous behaviour — replacing the *entire* routine model
    /// on collision — silently dropped flag variants built elsewhere, which
    /// broke incremental publishes that only carry the rebuilt variants.)
    /// `other`'s `BTreeMap` ordering makes the merge deterministic.
    pub fn merge_models(&mut self, other: ModelRepository) {
        for (key, model) in other.models {
            match self.models.get_mut(&key) {
                Some(existing) => existing.merge_from(model),
                None => {
                    self.models.insert(key, model);
                }
            }
        }
    }

    /// Looks up the model for a routine / machine / locality combination.
    pub fn get(
        &self,
        routine: Routine,
        machine_id: &str,
        locality: Locality,
    ) -> Option<&RoutineModel> {
        self.models
            .get(&ModelKey::new(routine, machine_id, locality))
    }

    /// Iterates over the stored models.
    pub fn iter(&self) -> impl Iterator<Item = (&ModelKey, &RoutineModel)> {
        self.models.iter()
    }

    /// Total number of samples used to build all stored models.
    pub fn total_samples(&self) -> usize {
        self.models.values().map(|m| m.total_samples()).sum()
    }

    /// Runs the repository through the compiled evaluation engine (see
    /// [`CompiledRepository`](crate::CompiledRepository)); the compiled form
    /// keeps a clone of this repository as its reference source.
    pub fn compiled(&self) -> crate::CompiledRepository {
        crate::CompiledRepository::compile(self.clone())
    }

    /// Serialises the repository to the versioned text format.
    ///
    /// The format's `model` header is whitespace-tokenised, so a machine id
    /// containing whitespace (or an empty one) cannot be represented — it
    /// would be re-tokenised into different fields on reload.  Such ids are
    /// rejected here with [`ModelError::Serialize`] instead of producing a
    /// file that silently fails (or worse, roundtrips wrongly) at parse time.
    pub fn to_text(&self) -> Result<String> {
        let mut out = String::new();
        let _ = writeln!(out, "{FORMAT_HEADER}");
        for (key, model) in &self.models {
            if key.machine_id.is_empty() || key.machine_id.chars().any(char::is_whitespace) {
                return Err(ModelError::Serialize(format!(
                    "machine id {:?} (model {}/{}) cannot be represented in the \
                     whitespace-tokenised text format; use an id without whitespace \
                     (cf. MachineConfig::id, which replaces spaces with '_')",
                    key.machine_id, key.routine, key.locality
                )));
            }
            let _ = writeln!(
                out,
                "model {} machine {} locality {} dim {}",
                key.routine,
                key.machine_id,
                key.locality,
                model.space.dim()
            );
            let _ = writeln!(
                out,
                "space {} {}",
                join_usizes(model.space.lo()),
                join_usizes(model.space.hi())
            );
            for (flags, sub) in &model.submodels {
                let flag_str = if flags.is_empty() {
                    "-".to_string()
                } else {
                    flags
                        .flags()
                        .map(|f| f.to_string())
                        .collect::<Vec<_>>()
                        .join(",")
                };
                let _ = writeln!(out, "submodel {} samples {}", flag_str, sub.total_samples);
                for region in &sub.regions {
                    let _ = writeln!(
                        out,
                        "region {} {} error {:e} samples {}",
                        join_usizes(region.region.lo()),
                        join_usizes(region.region.hi()),
                        region.error,
                        region.samples_used
                    );
                    for q in Quantity::ALL {
                        let poly = region.poly.polynomial(q);
                        let _ = writeln!(out, "poly {} terms {}", q.name(), poly.term_count());
                        for (e, c) in poly.exponents().iter().zip(poly.coefficients()) {
                            let _ = writeln!(out, "term {} {:e}", join_u32s(e), c);
                        }
                    }
                    let _ = writeln!(out, "end_region");
                }
                let _ = writeln!(out, "end_submodel");
            }
            let _ = writeln!(out, "end_model");
        }
        Ok(out)
    }

    /// Parses a repository from its text form.
    pub fn from_text(text: &str) -> Result<ModelRepository> {
        let mut lines = text.lines().enumerate().peekable();
        let (_, header) = lines
            .next()
            .ok_or_else(|| ModelError::Parse("empty repository text".to_string()))?;
        if header.trim() != FORMAT_HEADER {
            return Err(ModelError::Parse(format!(
                "unexpected header '{header}', expected '{FORMAT_HEADER}'"
            )));
        }
        let mut repo = ModelRepository::new();
        while let Some(&(n, line)) = lines.peek() {
            let line = line.trim();
            if line.is_empty() {
                lines.next();
                continue;
            }
            if !line.starts_with("model ") {
                return Err(ModelError::Parse(format!(
                    "line {}: expected 'model', got '{line}'",
                    n + 1
                )));
            }
            let model = parse_model(&mut lines)?;
            let key = ModelKey::new(model.routine, &model.machine_id, model.locality);
            // Duplicate headers in one file are almost certainly a botched
            // concatenation; silently letting the later model win would drop
            // data, so make it a parse error at the offending header line.
            if repo.models.contains_key(&key) {
                return Err(parse_err(
                    n,
                    format!(
                        "duplicate model '{} machine {} locality {}' (an earlier \
                         model in this file has the same key)",
                        key.routine, key.machine_id, key.locality
                    ),
                ));
            }
            repo.insert(model);
        }
        Ok(repo)
    }

    /// Serialises the repository to the binary format (compiling it first —
    /// use [`crate::binfmt::encode`] directly when a compiled form is
    /// already at hand).
    pub fn to_binary(&self) -> Result<Vec<u8>> {
        crate::binfmt::encode(&self.compiled())
    }

    /// Parses a repository from its binary form, discarding the compiled
    /// layout (use [`crate::binfmt::decode`] to keep it).
    pub fn from_binary(bytes: &[u8]) -> Result<ModelRepository> {
        crate::binfmt::decode_parts(bytes).map(|(source, _)| source)
    }

    /// Writes the repository to a file in the codec
    /// [`RepositoryFormat::for_path`] selects from the extension
    /// (`.dlapb`/`.bin` → binary, anything else → text).
    pub fn save_file(&self, path: &Path) -> Result<()> {
        self.save_file_as(path, RepositoryFormat::for_path(path))
    }

    /// Writes the repository to a file in an explicitly chosen codec.
    ///
    /// Errors carry the offending path, so a failed write in a fleet of
    /// repository files is diagnosable from the message alone.
    pub fn save_file_as(&self, path: &Path, format: RepositoryFormat) -> Result<()> {
        let bytes = match format {
            RepositoryFormat::Text => self.to_text()?.into_bytes(),
            RepositoryFormat::Binary => self.to_binary()?,
        };
        std::fs::write(path, bytes).map_err(|e| file_error(path, ModelError::Io(e.to_string())))
    }

    /// Loads a repository from a file, sniffing the codec from the magic
    /// bytes (so either format loads regardless of extension).
    ///
    /// Errors — I/O and parse/decode alike — carry the offending path, so a
    /// corrupt file among many distributed repositories is diagnosable from
    /// the message alone.
    pub fn load_file(path: &Path) -> Result<ModelRepository> {
        let bytes =
            std::fs::read(path).map_err(|e| file_error(path, ModelError::Io(e.to_string())))?;
        match RepositoryFormat::sniff(&bytes) {
            RepositoryFormat::Binary => {
                ModelRepository::from_binary(&bytes).map_err(|e| file_error(path, e))
            }
            RepositoryFormat::Text => {
                let text = String::from_utf8(bytes).map_err(|_| {
                    file_error(
                        path,
                        ModelError::Parse("repository text is not valid UTF-8".to_string()),
                    )
                })?;
                ModelRepository::from_text(&text).map_err(|e| file_error(path, e))
            }
        }
    }

    /// Loads a repository from a file straight into serve-ready compiled
    /// form.  Binary files skip compilation entirely (the stored layout *is*
    /// the compiled layout); text files parse and compile once.
    ///
    /// Errors carry the offending path, like [`ModelRepository::load_file`].
    pub fn load_file_compiled(path: &Path) -> Result<crate::CompiledRepository> {
        let bytes =
            std::fs::read(path).map_err(|e| file_error(path, ModelError::Io(e.to_string())))?;
        match RepositoryFormat::sniff(&bytes) {
            RepositoryFormat::Binary => {
                crate::binfmt::decode(&bytes).map_err(|e| file_error(path, e))
            }
            RepositoryFormat::Text => {
                let text = String::from_utf8(bytes).map_err(|_| {
                    file_error(
                        path,
                        ModelError::Parse("repository text is not valid UTF-8".to_string()),
                    )
                })?;
                Ok(ModelRepository::from_text(&text)
                    .map_err(|e| file_error(path, e))?
                    .compiled())
            }
        }
    }
}

/// Prefixes a repository-file error with the offending path, preserving the
/// error's variant (an I/O error stays `Io`, a parse error stays `Parse`).
fn file_error(path: &Path, error: ModelError) -> ModelError {
    let p = path.display();
    match error {
        ModelError::Io(msg) => ModelError::Io(format!("{p}: {msg}")),
        ModelError::Parse(msg) => ModelError::Parse(format!("{p}: {msg}")),
        ModelError::Serialize(msg) => ModelError::Serialize(format!("{p}: {msg}")),
        ModelError::Validation(msg) => ModelError::Validation(format!("{p}: {msg}")),
        other => other,
    }
}

/// The two repository codecs behind the format-sniffing front door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepositoryFormat {
    /// The whitespace-tokenised text format — readable, diffable, the debug
    /// format of choice; every load re-parses and re-compiles.
    Text,
    /// The zero-copy binary format (see [`crate::binfmt`]) — the serving
    /// format; loads are one validated bulk decode per section.
    Binary,
}

impl RepositoryFormat {
    /// Picks the codec for a path from its extension: `.dlapb` or `.bin`
    /// mean binary, everything else (including no extension) means text.
    pub fn for_path(path: &Path) -> RepositoryFormat {
        match path.extension().and_then(|e| e.to_str()) {
            Some("dlapb") | Some("bin") => RepositoryFormat::Binary,
            _ => RepositoryFormat::Text,
        }
    }

    /// Detects the codec of serialized bytes from the binary magic.
    pub fn sniff(bytes: &[u8]) -> RepositoryFormat {
        if crate::binfmt::is_binary(bytes) {
            RepositoryFormat::Binary
        } else {
            RepositoryFormat::Text
        }
    }
}

fn join_usizes(v: &[usize]) -> String {
    v.iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

fn join_u32s(v: &[u32]) -> String {
    v.iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

type Lines<'a> = std::iter::Peekable<std::iter::Enumerate<std::str::Lines<'a>>>;

fn parse_err(n: usize, msg: impl std::fmt::Display) -> ModelError {
    ModelError::Parse(format!("line {}: {msg}", n + 1))
}

fn next_line<'a>(lines: &mut Lines<'a>, what: &str) -> Result<(usize, &'a str)> {
    lines
        .next()
        .map(|(n, l)| (n, l.trim()))
        .ok_or_else(|| ModelError::Parse(format!("unexpected end of input, expected {what}")))
}

fn parse_usizes(n: usize, toks: &[&str]) -> Result<Vec<usize>> {
    toks.iter()
        .map(|t| {
            t.parse::<usize>()
                .map_err(|_| parse_err(n, format!("bad integer '{t}'")))
        })
        .collect()
}

fn parse_model(lines: &mut Lines<'_>) -> Result<RoutineModel> {
    let (n, header) = next_line(lines, "model header")?;
    let toks: Vec<&str> = header.split_whitespace().collect();
    // model <routine> machine <id> locality <loc> dim <d>
    if toks.len() != 8
        || toks[0] != "model"
        || toks[2] != "machine"
        || toks[4] != "locality"
        || toks[6] != "dim"
    {
        return Err(parse_err(n, format!("malformed model header '{header}'")));
    }
    let routine = Routine::from_name(toks[1])
        .ok_or_else(|| parse_err(n, format!("unknown routine '{}'", toks[1])))?;
    let machine_id = toks[3].to_string();
    let locality = Locality::from_name(toks[5])
        .ok_or_else(|| parse_err(n, format!("unknown locality '{}'", toks[5])))?;
    let dim: usize = toks[7]
        .parse()
        .map_err(|_| parse_err(n, format!("bad dimension '{}'", toks[7])))?;

    let (n, space_line) = next_line(lines, "space line")?;
    let toks: Vec<&str> = space_line.split_whitespace().collect();
    if toks.len() != 1 + 2 * dim || toks[0] != "space" {
        return Err(parse_err(n, format!("malformed space line '{space_line}'")));
    }
    let lo = parse_usizes(n, &toks[1..1 + dim])?;
    let hi = parse_usizes(n, &toks[1 + dim..])?;
    let space = Region::try_new(lo, hi).ok_or_else(|| parse_err(n, "space bounds inverted"))?;
    let mut model = RoutineModel::new(routine, machine_id, locality, space.clone());

    loop {
        let (n, line) = next_line(lines, "submodel or end_model")?;
        if line == "end_model" {
            return Ok(model);
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        if toks.len() != 4 || toks[0] != "submodel" || toks[2] != "samples" {
            return Err(parse_err(
                n,
                format!("expected submodel line, got '{line}'"),
            ));
        }
        let flags: Vec<usize> = if toks[1] == "-" {
            vec![]
        } else {
            toks[1]
                .split(',')
                .map(|t| {
                    t.parse::<usize>()
                        .map_err(|_| parse_err(n, format!("bad flag '{t}'")))
                })
                .collect::<Result<Vec<usize>>>()?
        };
        let flags = FlagKey::from_slice(&flags).ok_or_else(|| {
            parse_err(
                n,
                format!("flag key '{}' cannot come from any call", toks[1]),
            )
        })?;
        let total_samples: usize = toks[3]
            .parse()
            .map_err(|_| parse_err(n, format!("bad sample count '{}'", toks[3])))?;
        let mut regions = Vec::new();
        loop {
            let (n, line) = next_line(lines, "region or end_submodel")?;
            if line == "end_submodel" {
                break;
            }
            let toks: Vec<&str> = line.split_whitespace().collect();
            if toks.len() != 1 + 2 * dim + 4 || toks[0] != "region" {
                return Err(parse_err(n, format!("expected region line, got '{line}'")));
            }
            let lo = parse_usizes(n, &toks[1..1 + dim])?;
            let hi = parse_usizes(n, &toks[1 + dim..1 + 2 * dim])?;
            if toks[1 + 2 * dim] != "error" || toks[3 + 2 * dim] != "samples" {
                return Err(parse_err(n, format!("malformed region line '{line}'")));
            }
            let region =
                Region::try_new(lo, hi).ok_or_else(|| parse_err(n, "region bounds inverted"))?;
            let error: f64 = toks[2 + 2 * dim]
                .parse()
                .map_err(|_| parse_err(n, "bad error value"))?;
            let samples_used: usize = toks[4 + 2 * dim]
                .parse()
                .map_err(|_| parse_err(n, "bad region sample count"))?;
            let mut polys = Vec::with_capacity(Quantity::ALL.len());
            for q in Quantity::ALL {
                let (n, line) = next_line(lines, "poly line")?;
                let toks: Vec<&str> = line.split_whitespace().collect();
                if toks.len() != 4 || toks[0] != "poly" || toks[2] != "terms" {
                    return Err(parse_err(n, format!("expected poly line, got '{line}'")));
                }
                if toks[1] != q.name() {
                    return Err(parse_err(
                        n,
                        format!("expected quantity '{}', got '{}'", q.name(), toks[1]),
                    ));
                }
                let terms: usize = toks[3]
                    .parse()
                    .map_err(|_| parse_err(n, "bad term count"))?;
                let mut exponents = Vec::with_capacity(terms);
                let mut coefficients = Vec::with_capacity(terms);
                for _ in 0..terms {
                    let (n, line) = next_line(lines, "term line")?;
                    let toks: Vec<&str> = line.split_whitespace().collect();
                    if toks.len() != 2 + dim || toks[0] != "term" {
                        return Err(parse_err(n, format!("expected term line, got '{line}'")));
                    }
                    let exps: Vec<u32> = toks[1..1 + dim]
                        .iter()
                        .map(|t| t.parse::<u32>().map_err(|_| parse_err(n, "bad exponent")))
                        .collect::<Result<Vec<u32>>>()?;
                    let coeff: f64 = toks[1 + dim]
                        .parse()
                        .map_err(|_| parse_err(n, "bad coefficient"))?;
                    exponents.push(exps);
                    coefficients.push(coeff);
                }
                polys.push(
                    Polynomial::new(dim, exponents, coefficients)
                        .map_err(|e| parse_err(n, format!("invalid polynomial: {e}")))?,
                );
            }
            let (n, end) = next_line(lines, "end_region")?;
            if end != "end_region" {
                return Err(parse_err(n, format!("expected end_region, got '{end}'")));
            }
            regions.push(RegionModel {
                region,
                poly: VectorPolynomial::new(polys)
                    .map_err(|e| parse_err(n, format!("invalid vector polynomial: {e}")))?,
                error,
                samples_used,
                // Provenance is runtime-only: reloaded regions restart at 0.
                revision: 0,
            });
        }
        model.insert_submodel(
            flags,
            PiecewiseModel::new(space.clone(), regions, total_samples),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dla_mat::stats::Summary;

    fn sample_summary(p: &[usize]) -> Summary {
        let x = p[0] as f64;
        let y = p.get(1).map(|&v| v as f64).unwrap_or(1.0);
        let median = 500.0 + x * y * 0.3 + x * 2.0;
        Summary {
            min: median * 0.9,
            mean: median,
            median,
            max: median * 1.2,
            std_dev: median * 0.05,
            count: 8,
        }
    }

    fn build_model() -> RoutineModel {
        let space = Region::new(vec![8, 8], vec![1024, 1024]);
        let samples: Vec<(Vec<usize>, Summary)> = space
            .sample_grid(5, 8)
            .into_iter()
            .map(|p| {
                let s = sample_summary(&p);
                (p, s)
            })
            .collect();
        let rm = RegionModel::fit(space.clone(), &samples, 2).unwrap();
        let pw = PiecewiseModel::new(space.clone(), vec![rm], samples.len());
        let mut model = RoutineModel::new(
            Routine::Trsm,
            "hpt+openblas-like+1t",
            Locality::InCache,
            space,
        );
        model.insert_submodel(key(&[0, 0, 0]), pw.clone());
        model.insert_submodel(key(&[1, 1, 0]), pw);
        model
    }

    fn key(flags: &[usize]) -> FlagKey {
        FlagKey::from_slice(flags).expect("representable key")
    }

    #[test]
    fn insert_and_lookup() {
        let mut repo = ModelRepository::new();
        assert!(repo.is_empty());
        repo.insert(build_model());
        assert_eq!(repo.len(), 1);
        assert!(repo
            .get(Routine::Trsm, "hpt+openblas-like+1t", Locality::InCache)
            .is_some());
        assert!(repo
            .get(Routine::Trsm, "hpt+openblas-like+1t", Locality::OutOfCache)
            .is_none());
        assert!(repo
            .get(Routine::Gemm, "hpt+openblas-like+1t", Locality::InCache)
            .is_none());
        assert!(repo.total_samples() > 0);
        assert_eq!(repo.iter().count(), 1);
    }

    #[test]
    fn merge_combines_and_overwrites() {
        let mut a = ModelRepository::new();
        a.insert(build_model());
        let mut gemm_model = build_model();
        gemm_model.routine = Routine::Gemm;
        let mut b = ModelRepository::new();
        b.insert(gemm_model);
        // A fresh Trsm model in `b` must overwrite the one in `a`.
        let mut replacement = build_model();
        replacement.insert_submodel(
            key(&[0, 1, 0]),
            replacement.submodels[&key(&[0, 0, 0])].clone(),
        );
        let replacement_count = replacement.submodel_count();
        b.insert(replacement);
        a.merge_models(b);
        assert_eq!(a.len(), 2);
        let merged = a
            .get(Routine::Trsm, "hpt+openblas-like+1t", Locality::InCache)
            .unwrap();
        assert_eq!(merged.submodel_count(), replacement_count);
        assert!(a
            .get(Routine::Gemm, "hpt+openblas-like+1t", Locality::InCache)
            .is_some());
    }

    #[test]
    fn text_roundtrip_preserves_predictions() {
        let mut repo = ModelRepository::new();
        repo.insert(build_model());
        let text = repo.to_text().unwrap();
        assert!(text.starts_with(FORMAT_HEADER));
        let reloaded = ModelRepository::from_text(&text).unwrap();
        assert_eq!(reloaded.len(), 1);
        let original = repo
            .get(Routine::Trsm, "hpt+openblas-like+1t", Locality::InCache)
            .unwrap();
        let restored = reloaded
            .get(Routine::Trsm, "hpt+openblas-like+1t", Locality::InCache)
            .unwrap();
        let call = dla_blas::Call::trsm(
            dla_blas::Side::Left,
            dla_blas::Uplo::Lower,
            dla_blas::Trans::NoTrans,
            dla_blas::Diag::NonUnit,
            300,
            700,
            1.0,
        );
        let a = original.estimate(&call).unwrap();
        let b = restored.estimate(&call).unwrap();
        assert!((a.median - b.median).abs() < 1e-6 * a.median.abs());
        assert!((a.max - b.max).abs() < 1e-6 * a.max.abs());
        assert_eq!(original.submodel_count(), restored.submodel_count());
    }

    #[test]
    fn file_roundtrip() {
        let mut repo = ModelRepository::new();
        repo.insert(build_model());
        let dir = std::env::temp_dir().join("dlaperf-repo-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("models.txt");
        repo.save_file(&path).unwrap();
        let loaded = ModelRepository::load_file(&path).unwrap();
        assert_eq!(loaded.len(), repo.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_errors_name_the_offending_path() {
        let dir = std::env::temp_dir().join("dlaperf-repo-patherr-test");
        std::fs::create_dir_all(&dir).unwrap();

        // Missing file: the I/O error names the path.
        let missing = dir.join("no-such-repo.txt");
        let err = ModelRepository::load_file(&missing).unwrap_err();
        assert!(matches!(err, ModelError::Io(ref m) if m.contains("no-such-repo.txt")));
        let err = ModelRepository::load_file_compiled(&missing).unwrap_err();
        assert!(matches!(err, ModelError::Io(ref m) if m.contains("no-such-repo.txt")));

        // Corrupt file: the parse error names the path too.
        let corrupt = dir.join("corrupt-repo.txt");
        std::fs::write(&corrupt, "this is not a repository").unwrap();
        let err = ModelRepository::load_file(&corrupt).unwrap_err();
        assert!(matches!(err, ModelError::Parse(ref m) if m.contains("corrupt-repo.txt")));
        let err = ModelRepository::load_file_compiled(&corrupt).unwrap_err();
        assert!(matches!(err, ModelError::Parse(ref m) if m.contains("corrupt-repo.txt")));

        // Unwritable target: the save error names the path.
        let unwritable = dir.join("not-a-dir").join("repo.txt");
        let repo = ModelRepository::new();
        let err = repo
            .save_file_as(&unwritable, RepositoryFormat::Text)
            .unwrap_err();
        assert!(matches!(err, ModelError::Io(ref m) if m.contains("repo.txt")));
        std::fs::remove_file(&corrupt).ok();
    }

    #[test]
    fn front_door_routes_both_codecs_by_extension_and_magic() {
        let mut repo = ModelRepository::new();
        repo.insert(build_model());
        let dir = std::env::temp_dir().join("dlaperf-repo-frontdoor-test");
        std::fs::create_dir_all(&dir).unwrap();

        // `.dlapb` selects the binary codec on save; load sniffs the magic.
        let bin_path = dir.join("models.dlapb");
        repo.save_file(&bin_path).unwrap();
        let bytes = std::fs::read(&bin_path).unwrap();
        assert!(matches!(
            RepositoryFormat::sniff(&bytes),
            RepositoryFormat::Binary
        ));
        let from_bin = ModelRepository::load_file(&bin_path).unwrap();
        assert_eq!(from_bin.len(), repo.len());

        // A text save of the same repository loads through the same door.
        let text_path = dir.join("models.txt");
        repo.save_file(&text_path).unwrap();
        let text_bytes = std::fs::read(&text_path).unwrap();
        assert!(matches!(
            RepositoryFormat::sniff(&text_bytes),
            RepositoryFormat::Text
        ));
        let from_text = ModelRepository::load_file(&text_path).unwrap();

        // Both codecs reload to the same text serialisation.
        assert_eq!(from_bin.to_text().unwrap(), from_text.to_text().unwrap());

        // Binary shards also load straight into the compiled form.
        let compiled = ModelRepository::load_file_compiled(&bin_path).unwrap();
        assert_eq!(compiled.source().len(), repo.len());

        // An explicitly chosen codec wins over the extension; the sniffing
        // loader still gets it right.
        let explicit = dir.join("models.model");
        repo.save_file_as(&explicit, RepositoryFormat::Binary)
            .unwrap();
        let sniffed = ModelRepository::load_file(&explicit).unwrap();
        assert_eq!(sniffed.to_text().unwrap(), from_bin.to_text().unwrap());

        std::fs::remove_file(&bin_path).ok();
        std::fs::remove_file(&text_path).ok();
        std::fs::remove_file(&explicit).ok();
    }

    #[test]
    fn for_path_picks_the_codec_by_extension() {
        use std::path::Path;
        for (path, want_binary) in [
            ("models.dlapb", true),
            ("models.bin", true),
            ("dir.dlapb/models.txt", false),
            ("models.txt", false),
            ("models", false),
        ] {
            let got = RepositoryFormat::for_path(Path::new(path));
            assert_eq!(
                matches!(got, RepositoryFormat::Binary),
                want_binary,
                "{path}"
            );
        }
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(ModelRepository::from_text("").is_err());
        assert!(ModelRepository::from_text("wrong header\n").is_err());
        let bad = format!("{FORMAT_HEADER}\nnot a model line\n");
        assert!(ModelRepository::from_text(&bad).is_err());
        let truncated = format!("{FORMAT_HEADER}\nmodel dtrsm machine m locality in-cache dim 2\n");
        assert!(ModelRepository::from_text(&truncated).is_err());
        let bad_routine = format!(
            "{FORMAT_HEADER}\nmodel dxyz machine m locality in-cache dim 2\nspace 8 8 16 16\nend_model\n"
        );
        assert!(ModelRepository::from_text(&bad_routine).is_err());
        let inverted_space = format!(
            "{FORMAT_HEADER}\nmodel dtrsm machine m locality in-cache dim 2\nspace 8 8 16 4\nend_model\n"
        );
        assert!(ModelRepository::from_text(&inverted_space).is_err());
    }

    #[test]
    fn unrepresentable_flag_keys_are_a_parse_error() {
        // A key no call can produce (more than Call::MAX_FLAGS flags, or a
        // flag above 255) must be rejected on input, not stored and never
        // queried.
        let mut repo = ModelRepository::new();
        repo.insert(build_model());
        let text = repo.to_text().unwrap();
        assert!(text.contains("submodel 0,0,0 samples"));
        for flags in ["0,0,0,1,0", "256,0,0"] {
            let bad = text.replace(
                "submodel 0,0,0 samples",
                &format!("submodel {flags} samples"),
            );
            match ModelRepository::from_text(&bad) {
                Err(ModelError::Parse(msg)) => assert!(msg.contains(flags), "{msg}"),
                other => panic!("flags {flags} must be a parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_repository_roundtrip() {
        let repo = ModelRepository::new();
        let text = repo.to_text().unwrap();
        let reloaded = ModelRepository::from_text(&text).unwrap();
        assert!(reloaded.is_empty());
    }

    #[test]
    fn merge_is_submodel_granular_across_disjoint_flag_variants() {
        // Regression: `merge` used to overwrite the whole RoutineModel on a
        // key collision, silently dropping flag variants built elsewhere.
        // Two repositories holding *disjoint* flag variants of the same
        // routine must merge into one model holding both.
        let full = build_model(); // holds [0,0,0] and [1,1,0]
        let mut only_left = full.clone();
        only_left.submodels.retain(|&k, _| k == key(&[0, 0, 0]));
        let mut only_right = full.clone();
        only_right.submodels.retain(|&k, _| k == key(&[1, 1, 0]));

        let mut a = ModelRepository::new();
        a.insert(only_left);
        let mut b = ModelRepository::new();
        b.insert(only_right);
        a.merge_models(b);

        let merged = a
            .get(Routine::Trsm, "hpt+openblas-like+1t", Locality::InCache)
            .unwrap();
        assert_eq!(merged.submodel_count(), 2);
        assert!(merged.submodel(key(&[0, 0, 0])).is_some());
        assert!(merged.submodel(key(&[1, 1, 0])).is_some());

        // Colliding flag variants are replaced by the incoming side.
        let mut replacement = full.clone();
        replacement.submodels.retain(|&k, _| k == key(&[0, 0, 0]));
        for sub in replacement.submodels.values_mut() {
            sub.total_samples += 999;
        }
        let incoming_samples = replacement.submodels[&key(&[0, 0, 0])].total_samples;
        let mut c = ModelRepository::new();
        c.insert(replacement);
        a.merge_models(c);
        let merged = a
            .get(Routine::Trsm, "hpt+openblas-like+1t", Locality::InCache)
            .unwrap();
        assert_eq!(merged.submodel_count(), 2);
        assert_eq!(
            merged.submodel(key(&[0, 0, 0])).unwrap().total_samples,
            incoming_samples
        );
    }

    #[test]
    fn merge_from_takes_the_space_envelope() {
        let mut base = build_model();
        let mut wider = build_model();
        wider.space = Region::new(vec![4, 8], vec![2048, 512]);
        base.merge_from(wider);
        assert_eq!(base.space, Region::new(vec![4, 8], vec![2048, 1024]));
    }

    #[test]
    fn whitespace_machine_ids_are_rejected_at_serialisation() {
        // Regression: a machine id containing whitespace used to serialise
        // fine and then fail (or mis-parse) on reload, because the model
        // header is whitespace-tokenised.
        for bad_id in ["two words", "tab\tseparated", "trailing ", ""] {
            let mut model = build_model();
            model.machine_id = bad_id.to_string();
            let mut repo = ModelRepository::new();
            repo.insert(model);
            let err = repo.to_text();
            assert!(
                matches!(err, Err(ModelError::Serialize(_))),
                "id {bad_id:?} must be rejected, got {err:?}"
            );
            let dir = std::env::temp_dir().join("dlaperf-repo-badid-test");
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join("models.txt");
            assert!(matches!(
                repo.save_file(&path),
                Err(ModelError::Serialize(_))
            ));
        }
    }

    #[test]
    fn duplicate_model_headers_are_a_parse_error_with_line_number() {
        // Regression: duplicate (routine, machine, locality) models in one
        // file used to be silently collapsed by `repo.insert`.
        let mut repo = ModelRepository::new();
        repo.insert(build_model());
        let once = repo.to_text().unwrap();
        let body = once
            .strip_prefix(FORMAT_HEADER)
            .unwrap()
            .trim_start_matches('\n');
        let twice = format!("{FORMAT_HEADER}\n{body}{body}");
        let err = ModelRepository::from_text(&twice).unwrap_err();
        match err {
            ModelError::Parse(msg) => {
                assert!(msg.contains("duplicate model"), "{msg}");
                // The duplicate header sits right after the first model's
                // body: line 1 is the format header, the first model spans
                // `body` lines, so the offending line is 2 + body-line-count.
                let body_lines = body.lines().count();
                assert!(
                    msg.contains(&format!("line {}", body_lines + 2)),
                    "expected line {} in '{msg}'",
                    body_lines + 2
                );
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = ModelRepository::load_file(Path::new("/nonexistent/dlaperf-models.txt"));
        assert!(matches!(err, Err(ModelError::Io(_))));
    }
}
