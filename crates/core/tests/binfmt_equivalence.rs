//! Binary-format equivalence: arbitrary repositories — `NaN`/`±inf`
//! coefficients and errors included — roundtrip through the binary format
//! with byte-identical re-serialisation and predictions identical to
//! both the text roundtrip and the directly compiled original; corrupted,
//! truncated, wrong-version and wrong-endian inputs are rejected with a
//! structured error, never a panic, and corrupted text loads or fails but
//! never panics either; a binary-loaded repository passes the publication
//! gate exactly when the original does and keeps participating in the
//! merge/refine loop; and the batched trace-prediction path (shared by
//! the compiled predictor and the service) is bit-identical to the
//! pointwise walk and counts telemetry like it.

use dla_core::blas::{Call, Diag, Routine, Side, Trans, Uplo};
use dla_core::machine::presets::harpertown_openblas;
use dla_core::machine::SimExecutor;
use dla_core::mat::stats::{Quantity, Summary};
use dla_core::model::{
    binfmt, submodel_key, FlagKey, ModelError, ModelRepository, PiecewiseModel, Polynomial, Region,
    RegionModel, RoutineModel, VectorPolynomial,
};
use dla_core::modeler::online::dedupe_templates;
use dla_core::modeler::{OnlineRefiner, OnlineRefinerConfig};
use dla_core::predict::modelset::{build_repository, workload_templates, ModelSetConfig};
use dla_core::predict::TraceEvaluator;
use dla_core::{Locality, ModelService, Predictor, Workload};
use proptest::prelude::*;
use std::sync::Arc;

/// Tiny deterministic generator (splitmix64), as in the sibling equivalence
/// suites.
struct Gen(u64);

impl Gen {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() as usize) % (hi - lo + 1)
    }

    fn coeff(&mut self, scale: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        (2.0 * unit - 1.0) * scale
    }

    /// A coefficient that is occasionally `NaN`, `±inf`, or negative zero
    /// (the value whose sign bit only a bitwise roundtrip preserves).
    fn wild_coeff(&mut self) -> f64 {
        match self.range(0, 11) {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => -0.0,
            _ => self.coeff(1e3),
        }
    }
}

/// `a` and `b` agree to the 1e-12 criterion (NaN matches NaN, infinities
/// must match exactly).
fn same(a: f64, b: f64) -> bool {
    if a.is_nan() || b.is_nan() {
        return a.is_nan() && b.is_nan();
    }
    if a.is_infinite() || b.is_infinite() {
        return a == b;
    }
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
}

fn assert_same_summary(a: &Summary, b: &Summary) {
    for q in Quantity::ALL {
        assert!(
            same(a.get(q), b.get(q)),
            "{q:?}: {} vs {}",
            a.get(q),
            b.get(q)
        );
    }
}

/// Bitwise agreement — the criterion for the batched evaluation paths, which
/// promise the *exact* floats of the pointwise walk.
fn bit_same_summary(a: &Summary, b: &Summary) -> bool {
    Quantity::ALL
        .iter()
        .all(|&q| a.get(q).to_bits() == b.get(q).to_bits())
        && a.count == b.count
}

/// A random region model over `region`: a fitted-looking polynomial basis
/// with random (occasionally non-finite) coefficients and a random
/// (occasionally non-finite) fit error.
fn random_region_model(gen: &mut Gen, region: &Region) -> RegionModel {
    let dim = region.dim();
    let degree = gen.range(0, 2) as u32;
    let exponents = dla_core::model::monomial_exponents(dim, degree);
    let polys: Vec<Polynomial> = (0..Quantity::ALL.len())
        .map(|_| {
            let coeffs: Vec<f64> = exponents.iter().map(|_| gen.wild_coeff()).collect();
            Polynomial::new(dim, exponents.clone(), coeffs).unwrap()
        })
        .collect();
    let error = match gen.range(0, 7) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        _ => gen.coeff(0.5).abs(),
    };
    RegionModel {
        region: region.clone(),
        poly: VectorPolynomial::new(polys).unwrap(),
        error,
        samples_used: gen.range(1, 99),
        revision: 0,
    }
}

/// The submodel key of a `routine` call whose flags all have index `f`:
/// a key the routine's calls produce.
fn uniform_key(routine: Routine, f: usize) -> FlagKey {
    let (side, uplo, trans, diag) = (
        Side::VALUES[f],
        Uplo::VALUES[f],
        Trans::VALUES[f],
        Diag::VALUES[f],
    );
    let call = match routine {
        Routine::Gemm => Call::gemm(trans, trans, 8, 8, 8, 1.0, 0.0),
        Routine::Trsm => Call::trsm(side, uplo, trans, diag, 8, 8, 1.0),
        Routine::Trmm => Call::trmm(side, uplo, trans, diag, 8, 8, 1.0),
        Routine::TrtriUnb => Call::trtri_unb(uplo, diag, 8),
        Routine::SylvUnb => Call::sylv_unb(8, 8),
    };
    submodel_key(&call)
}

/// A random routine model with 1–3 flag-variant submodels.
fn random_routine_model(gen: &mut Gen, routine: Routine, machine_id: &str) -> RoutineModel {
    let dim = routine.size_count();
    let hi = 8 * gen.range(8, 48);
    let space = Region::new(vec![8; dim], vec![hi; dim]);
    let mut model = RoutineModel::new(routine, machine_id, Locality::InCache, space.clone());
    let variants = gen.range(1, 3);
    for v in 0..variants {
        let mut regions = Vec::new();
        for part in space.split(gen.range(16, 64), 8) {
            regions.push(random_region_model(gen, &part));
        }
        if gen.range(0, 1) == 1 {
            // An extra overlapping region exercises min-error selection.
            regions.push(random_region_model(gen, &space));
        }
        let total = regions.iter().map(|r| r.samples_used).sum();
        model.insert_submodel(
            uniform_key(routine, v % 2),
            PiecewiseModel::new(space.clone(), regions, total),
        );
    }
    model
}

fn random_repository(seed: u64, machine_id: &str) -> ModelRepository {
    let mut gen = Gen(seed);
    let mut repo = ModelRepository::new();
    for routine in [
        Routine::Trsm,
        Routine::Gemm,
        Routine::TrtriUnb,
        Routine::SylvUnb,
    ] {
        if gen.range(0, 3) > 0 {
            repo.insert(random_routine_model(&mut gen, routine, machine_id));
        }
    }
    if repo.is_empty() {
        repo.insert(random_routine_model(&mut gen, Routine::Trsm, machine_id));
    }
    repo
}

/// Probe points across (and slightly outside) a submodel's space.
fn probe_points(space: &Region) -> Vec<Vec<usize>> {
    let mut points = space.sample_grid(4, 1);
    let outside: Vec<usize> = space.hi().iter().map(|&h| h + 37).collect();
    points.push(outside);
    points
}

/// Both repositories produce identical (≤ 1e-12) predictions on every
/// submodel, probing the reference evaluators of both sources.
fn assert_equivalent(original: &ModelRepository, reloaded: &ModelRepository) {
    assert_eq!(original.len(), reloaded.len());
    for (key, model) in original.iter() {
        let locality = Locality::from_name(&key.locality).unwrap();
        let routine = Routine::from_name(&key.routine).unwrap();
        let other = reloaded
            .get(routine, &key.machine_id, locality)
            .expect("reloaded model");
        assert_eq!(model.submodel_count(), other.submodel_count());
        for (flags, submodel) in &model.submodels {
            let reloaded_sub = other.submodel(*flags).expect("reloaded submodel");
            for p in probe_points(&submodel.space) {
                let ours = submodel.eval(&p).unwrap();
                let theirs = reloaded_sub.eval(&p).unwrap();
                assert_same_summary(&ours, &theirs);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary repositories roundtrip through the binary format with
    /// byte-identical re-serialisation, and the binary, text and compiled
    /// views all agree on every prediction.
    #[test]
    fn binary_text_compiled_all_agree(seed in 0u64..1_000_000_000) {
        let machine_id = "machine_a";
        let repo = random_repository(seed, machine_id);

        // Binary roundtrip.
        let bytes = repo.to_binary().unwrap();
        let from_binary = ModelRepository::from_binary(&bytes).unwrap();
        assert_equivalent(&repo, &from_binary);

        // Byte-identical save → load → save (bitwise coefficient fidelity:
        // every coefficient is stored as its bits, so -0.0 and exotic NaN
        // payloads survive).
        let bytes_again = from_binary.to_binary().unwrap();
        prop_assert_eq!(&bytes, &bytes_again);

        // The text view of the binary reload matches the text roundtrip.
        let from_text = ModelRepository::from_text(&repo.to_text().unwrap()).unwrap();
        assert_equivalent(&from_text, &from_binary);

        // The compiled engine over the binary reload matches the compiled
        // engine over the original, probing through concrete trsm calls.
        let compiled_a = repo.compiled();
        let compiled_b = from_binary.compiled();
        let slot_a = compiled_a.resolve(machine_id, Locality::InCache).slot(Routine::Trsm);
        let slot_b = compiled_b.resolve(machine_id, Locality::InCache).slot(Routine::Trsm);
        if let (Some(a), Some(b)) = (
            slot_a.and_then(|slot| compiled_a.model_at(slot)),
            slot_b.and_then(|slot| compiled_b.model_at(slot)),
        ) {
            for n in [16usize, 100, 257, 1000] {
                let call = Call::trsm(
                    Side::Left, Uplo::Lower, Trans::NoTrans, Diag::NonUnit, n, n + 8, 1.0,
                );
                match (a.estimate(&call), b.estimate(&call)) {
                    (Ok(x), Ok(y)) => assert_same_summary(&x, &y),
                    (Err(_), Err(_)) => {}
                    (x, y) => panic!("estimate mismatch: {x:?} vs {y:?}"),
                }
            }
        }
    }

    /// Truncated, bit-flipped, wrong-version, wrong-endian and bad-magic
    /// inputs are all rejected with a structured `ModelError` — never a
    /// panic, and never a silently wrong repository.
    #[test]
    fn corrupted_binaries_are_rejected_not_panics(seed in 0u64..1_000_000_000) {
        let repo = random_repository(seed, "machine_a");
        let bytes = repo.to_binary().unwrap();

        // Every truncation fails (the frame records its own total length).
        let stride = (bytes.len() / 61).max(1);
        for cut in (0..bytes.len()).step_by(stride) {
            prop_assert!(ModelRepository::from_binary(&bytes[..cut]).is_err());
        }

        // Every single-bit flip fails (everything is under the checksum,
        // including the header, section table and checksum field itself).
        for i in (0..bytes.len()).step_by(stride) {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 1 << (i % 8);
            prop_assert!(ModelRepository::from_binary(&corrupt).is_err());
        }

        // A future format version is refused by name...
        let mut wrong_version = bytes.clone();
        wrong_version[8] = 0x7f;
        match ModelRepository::from_binary(&wrong_version) {
            Err(ModelError::Parse(msg)) => {
                prop_assert!(msg.contains("unsupported format version"), "{}", msg)
            }
            other => panic!("expected a version error, got {other:?}"),
        }

        // ...a big-endian writer is diagnosed as such...
        let mut big_endian = bytes.clone();
        big_endian[12..16].reverse();
        match ModelRepository::from_binary(&big_endian) {
            Err(ModelError::Parse(msg)) => prop_assert!(msg.contains("big-endian"), "{}", msg),
            other => panic!("expected an endianness error, got {other:?}"),
        }

        // ...and non-binary bytes are turned away at the magic.
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        match ModelRepository::from_binary(&bad_magic) {
            Err(ModelError::Parse(msg)) => {
                prop_assert!(msg.contains("not a binary repository"), "{}", msg)
            }
            other => panic!("expected a magic error, got {other:?}"),
        }
        // Text bytes through the binary decoder, and vice versa, also fail
        // cleanly (the sniffing front door exists so neither path is hit in
        // practice).
        prop_assert!(ModelRepository::from_binary(b"dlaperf-models v1\n").is_err());
        prop_assert!(ModelRepository::from_text(&String::from_utf8_lossy(&bytes)).is_err());
    }

    /// Truncated, byte-substituted and garbage text inputs give `Ok` or
    /// `Err` from the text codec, never a panic, and any repository that
    /// parses still compiles and encodes.
    #[test]
    fn corrupted_text_is_rejected_or_loaded_not_panics(seed in 0u64..1_000_000_000) {
        let text = random_repository(seed, "machine_a").to_text().unwrap();
        let bytes = text.as_bytes();
        let load = |input: &[u8]| {
            if let Ok(repo) = ModelRepository::from_text(&String::from_utf8_lossy(input)) {
                repo.to_binary().expect("a parsed repository compiles and encodes");
            }
        };
        let stride = (bytes.len() / 61).max(1);
        for cut in (0..bytes.len()).step_by(stride) {
            load(&bytes[..cut]);
        }
        // A digit becomes an extreme one (what inverts a region's bounds);
        // any other byte becomes a digit, a separator or a letter in turn.
        for (k, i) in (0..bytes.len()).step_by(stride).enumerate() {
            let mut corrupt = bytes.to_vec();
            corrupt[i] = if bytes[i].is_ascii_digit() {
                b"09"[k % 2]
            } else {
                b"7 \nx-."[k % 6]
            };
            load(&corrupt);
        }
        let mut gen = Gen(seed);
        let garbage: Vec<u8> = (0..bytes.len() / 8).map(|_| gen.next_u64() as u8).collect();
        load(&garbage);
        let header = text.lines().next().unwrap_or_default();
        load(format!("{header}\n{}", String::from_utf8_lossy(&garbage)).as_bytes());
    }

    /// The batched trace-prediction path of the compiled predictor is
    /// bit-identical to the pointwise walk — on arbitrary repositories with
    /// non-finite coefficients, duplicate calls, degenerate calls and
    /// missing-model errors.
    #[test]
    fn batched_predictor_is_bit_identical_to_pointwise(seed in 0u64..1_000_000_000) {
        let machine = harpertown_openblas();
        let repo = random_repository(seed, &machine.id());
        let predictor = Predictor::new(&repo, machine, Locality::InCache);
        for trace in interesting_traces() {
            let slices: Vec<&[Call]> = trace.iter().map(|t| t.as_slice()).collect();
            let pointwise = slices
                .iter()
                .map(|t| TraceEvaluator::predict_trace(&predictor, t))
                .collect::<Result<Vec<_>, ModelError>>();
            let batched = predictor.predict_traces(&slices);
            match (pointwise, batched) {
                (Ok(a), Ok(b)) => {
                    prop_assert_eq!(a.len(), b.len());
                    for (x, y) in a.iter().zip(&b) {
                        prop_assert!(bit_same_summary(&x.ticks, &y.ticks));
                        prop_assert!(x.flops.to_bits() == y.flops.to_bits());
                        prop_assert_eq!(x.predicted_calls, y.predicted_calls);
                        prop_assert_eq!(x.skipped_calls, y.skipped_calls);
                    }
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => panic!("pointwise {a:?} disagrees with batched {b:?}"),
            }
        }
    }
}

/// Trace batches mixing routines, duplicate calls across traces, degenerate
/// (skipped) calls, flag combinations that may miss their submodel, and the
/// calls a shape intern could get wrong: a `diag`-only difference, sizes a
/// packed key would alias, sizes past a key lane, and degenerate calls of
/// unmodelled routines.
fn interesting_traces() -> Vec<Vec<Vec<Call>>> {
    let gemm = |n: usize| Call::gemm(Trans::NoTrans, Trans::NoTrans, n, n, n.min(64), 1.0, 1.0);
    let trsm_diag = |diag: Diag, m: usize, n: usize| {
        Call::trsm(Side::Left, Uplo::Lower, Trans::NoTrans, diag, m, n, 1.0)
    };
    let trsm = |m: usize, n: usize| trsm_diag(Diag::NonUnit, m, n);
    let gemm3 = |m: usize, n: usize, k: usize| {
        Call::gemm(Trans::NoTrans, Trans::NoTrans, m, n, k, 1.0, 1.0)
    };
    const HALF: usize = 1 << 31;
    const TOP: usize = u32::MAX as usize;
    const PAST: usize = (1 << 32) + 8;
    vec![
        // Same calls repeated within and across traces.
        vec![
            vec![gemm(96), gemm(96), gemm(32), trsm(64, 64)],
            vec![gemm(96), trsm(64, 64), Call::sylv_unb(48, 48)],
        ],
        // Degenerate calls skipped at zero cost; large sizes hit the clamp.
        vec![vec![
            Call::gemm(Trans::NoTrans, Trans::NoTrans, 0, 64, 32, 1.0, 1.0),
            gemm(4096),
            Call::trtri_unb(Uplo::Lower, Diag::NonUnit, 100),
        ]],
        // Flag combination likely absent from the random repository
        // (mixed-flag trsm): pointwise and batched must agree on the error.
        vec![vec![
            gemm(64),
            Call::trsm(
                Side::Right,
                Uplo::Upper,
                Trans::Trans,
                Diag::Unit,
                80,
                80,
                1.0,
            ),
        ]],
        // A degenerate call of a routine the random repository never
        // models: skipped before any model lookup, not an error.
        vec![
            vec![
                Call::trmm(
                    Side::Left,
                    Uplo::Lower,
                    Trans::NoTrans,
                    Diag::NonUnit,
                    0,
                    64,
                    1.0,
                ),
                gemm(32),
            ],
            vec![Call::trmm(
                Side::Right,
                Uplo::Upper,
                Trans::Trans,
                Diag::Unit,
                64,
                0,
                1.0,
            )],
        ],
        // Interleaved trsm calls that differ only in the folded `diag` flag
        // share a shape; a missing submodel must still be reported with the
        // first failing call's own flags.
        vec![vec![
            trsm(96, 64),
            gemm(48),
            trsm_diag(Diag::Unit, 96, 64),
            gemm(48),
            trsm(96, 64),
            trsm_diag(Diag::Unit, 96, 64),
        ]],
        vec![vec![
            Call::trsm(
                Side::Right,
                Uplo::Upper,
                Trans::Trans,
                Diag::Unit,
                80,
                80,
                1.0,
            ),
            Call::trsm(
                Side::Right,
                Uplo::Upper,
                Trans::Trans,
                Diag::NonUnit,
                80,
                80,
                1.0,
            ),
        ]],
        // Sizes 2^21 apart, which a 21-bit packed key would alias.
        vec![
            vec![
                Call::gemm(Trans::NoTrans, Trans::NoTrans, 8, 64, 32, 1.0, 1.0),
                Call::gemm(
                    Trans::NoTrans,
                    Trans::NoTrans,
                    8 + (1 << 21),
                    64,
                    32,
                    1.0,
                    1.0,
                ),
            ],
            vec![
                Call::gemm(
                    Trans::NoTrans,
                    Trans::NoTrans,
                    8 + (1 << 21),
                    64,
                    32,
                    1.0,
                    1.0,
                ),
                Call::gemm(Trans::NoTrans, Trans::NoTrans, 8, 64, 32, 1.0, 1.0),
            ],
        ],
        // Sizes 2^31 apart inside a 32-bit key lane, with the neighbours a
        // 31-bit lane would alias them with; the lane's top value; and sizes
        // past the lane, whose calls each get a shape id of their own.
        // Each repeats within and across traces.
        vec![
            vec![
                gemm3(8, 8, 8),
                gemm3(8 + HALF, 8, 8),
                gemm3(8, 9, 8),
                gemm3(8, 8 + HALF, 8),
                gemm3(8, 8, 9),
                gemm3(8, 8, 8 + HALF),
                gemm3(TOP, 8, 8),
                gemm3(PAST, 8, 8),
                gemm3(8, PAST, 8),
                gemm3(8, 8, PAST),
                gemm3(8 + HALF, 8, 8),
                gemm3(PAST, 8, 8),
                gemm3(TOP, 8, 8),
            ],
            vec![
                gemm3(PAST, 8, 8),
                gemm3(8, 8, 8 + HALF),
                gemm3(8, 8, 8),
                gemm3(TOP, 8, 8),
                gemm3(8, PAST, 8),
                gemm3(8 + HALF, 8, 8),
            ],
        ],
        // Trace 0 fails late, on a trmm call (a routine the random
        // repository never models); trace 1 fails early, on a trsm whose
        // mixed flags no random submodel has.  The batch must return trace
        // 0's error, as the pointwise walk does, not the error of the
        // shape that fails first in some other order (by routine, say).
        vec![
            vec![
                gemm(64),
                gemm(32),
                Call::trmm(
                    Side::Left,
                    Uplo::Lower,
                    Trans::NoTrans,
                    Diag::NonUnit,
                    64,
                    64,
                    1.0,
                ),
            ],
            vec![
                Call::trsm(
                    Side::Right,
                    Uplo::Lower,
                    Trans::Trans,
                    Diag::NonUnit,
                    80,
                    80,
                    1.0,
                ),
                gemm(64),
            ],
        ],
        // An empty batch and an empty trace.
        vec![],
        vec![vec![]],
    ]
}

/// The service's batched path matches a call-by-call walk over a second
/// service and an uncached predictor bit for bit, and counts telemetry
/// exactly like the walk: same totals, same cells, same per-cell counts.
#[test]
fn batched_service_matches_scalar_service_and_statistics() {
    let machine = harpertown_openblas();
    let cfg = ModelSetConfig::quick(128);
    let (repo, _) = build_repository(&machine, Locality::InCache, 1, &cfg, &[Workload::Trinv]);
    let uncached = Predictor::new(&repo, machine.clone(), Locality::InCache);
    let scalar = ModelService::new(repo.clone(), machine.clone(), Locality::InCache);
    let batched = ModelService::new(repo.clone(), machine, Locality::InCache);

    let gemm = |n: usize| Call::gemm(Trans::NoTrans, Trans::NoTrans, n, n, n.min(64), 1.0, 1.0);
    let traces: Vec<Vec<Call>> = vec![
        // Consecutive repeats.
        (0..50).map(|_| gemm(96)).collect(),
        // Non-consecutive repeats, within and across traces.
        vec![gemm(96), gemm(32), gemm(64), gemm(32), gemm(96)],
        vec![
            Call::gemm(Trans::NoTrans, Trans::NoTrans, 0, 8, 8, 1.0, 1.0),
            gemm(96),
        ],
    ];
    let slices: Vec<&[Call]> = traces.iter().map(|t| t.as_slice()).collect();

    for _pass in 0..2 {
        let walked: Vec<_> = slices
            .iter()
            .map(|t| scalar.predict_trace(t).unwrap())
            .collect();
        let b = batched.predict_traces(&slices).unwrap();
        assert_eq!(walked, b);
        let direct: Vec<_> = slices
            .iter()
            .map(|t| uncached.predict_trace(t).unwrap())
            .collect();
        for (ours, theirs) in b.iter().zip(&direct) {
            assert!(bit_same_summary(&ours.ticks, &theirs.ticks));
            assert_eq!(ours.predicted_calls, theirs.predicted_calls);
        }
        assert_eq!(scalar.refinement_report(), batched.refinement_report());
    }
    assert_eq!(batched.refinement_report().total_queries, 2 * (50 + 5 + 1));
}

/// A repository loaded from the binary format is a full citizen of the
/// serving loop: decoded and compiled, it hot-swaps into a service through
/// `swap_compiled`, serves identical predictions, accepts an
/// online-refinement delta through `merge_models`, and the refined result
/// still roundtrips byte-identically.
#[test]
fn binary_loaded_repository_merges_refines_and_serves() {
    let machine = harpertown_openblas();
    let cfg = ModelSetConfig::quick(192);
    let (repo, _) = build_repository(&machine, Locality::InCache, 5, &cfg, &[Workload::Trinv]);

    // Save binary, reload and compile.
    let dir = std::env::temp_dir().join("dlaperf-binfmt-interop-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("models.dlapb");
    repo.save_file(&path).unwrap();
    let compiled = binfmt::decode(&std::fs::read(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).ok();

    // Hot-swap the loaded compiled form into a service; predictions match a
    // service built from the original repository.
    let reference = ModelService::new(repo.clone(), machine.clone(), Locality::InCache);
    let service = ModelService::new(ModelRepository::new(), machine.clone(), Locality::InCache);
    service.swap_compiled(Arc::new(compiled)).unwrap();
    let probe = |n: usize| {
        Call::trsm(
            Side::Left,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            n,
            n,
            1.0,
        )
    };
    for n in [32usize, 64, 96, 128, 160] {
        let ours = service.predict_call(&probe(n)).unwrap();
        let theirs = reference.predict_call(&probe(n)).unwrap();
        assert_same_summary(&ours, &theirs);
    }

    // The served (binary-loaded) repository drives a refinement round; the
    // delta merges in and republishes.
    let report = service.refinement_report();
    assert!(!report.is_empty());
    let templates: Vec<Call> = workload_templates(Workload::Trinv, &cfg)
        .into_iter()
        .flat_map(|(calls, _)| calls)
        .collect();
    let mut refiner = OnlineRefiner::new(
        SimExecutor::new(machine.clone(), 31),
        Locality::InCache,
        2,
        OnlineRefinerConfig::default(),
    )
    .with_templates(&dedupe_templates(&templates));
    let (delta, outcome) = refiner.refine(&service.snapshot(), &report);
    assert!(outcome.cells_refined > 0);
    let generation_before = service.refinement_report().generation;
    service.merge(delta).unwrap();
    assert!(service.refinement_report().generation > generation_before);
    assert!(service.predict_call(&probe(96)).is_ok());

    // The refined repository still saves → loads → saves byte-identically.
    let refined = (*service.snapshot()).clone();
    let bytes = refined.to_binary().unwrap();
    let reloaded = ModelRepository::from_binary(&bytes).unwrap();
    assert_eq!(bytes, reloaded.to_binary().unwrap());
    assert_equivalent(&refined, &reloaded);
}

/// Publishes `repo` into fresh services three ways — directly, decoded and
/// compiled from its binary form, and decoded from it without compiling —
/// checks that the publication gate gives all three the same answer, and
/// returns that answer.
fn gated_alike(repo: &ModelRepository) -> Result<(), ModelError> {
    let machine = harpertown_openblas();
    let service = || ModelService::new(ModelRepository::new(), machine.clone(), Locality::InCache);
    let bytes = repo.to_binary().unwrap();
    let direct = service().swap(repo.clone()).map(|_| ());
    let compiled = binfmt::decode(&bytes).unwrap();
    let through_compiled = service().swap_compiled(Arc::new(compiled)).map(|_| ());
    let decoded = ModelRepository::from_binary(&bytes).unwrap();
    let through_swap = service().swap(decoded).map(|_| ());
    assert_eq!(through_compiled, direct);
    assert_eq!(through_swap, direct);
    direct
}

/// A repository loaded from the binary format passes the publication gate
/// exactly when the original does, whether it arrives compiled
/// (`swap_compiled`) or not (`swap`).  In particular a submodel whose only
/// region leaves part of its space uncovered is rejected all three ways:
/// the decoded submodel spans its model's space, not its regions' bounding
/// box.
#[test]
fn binary_loads_are_gated_exactly_like_the_original() {
    let machine_id = harpertown_openblas().id();
    let space = Region::new(vec![8, 8], vec![1024, 1024]);
    let trsm_repo = |region: Region| {
        let poly = Polynomial::new(2, vec![vec![0, 0], vec![1, 1]], vec![100.0, 7.0]).unwrap();
        let region = RegionModel {
            region,
            poly: VectorPolynomial::new(vec![poly; Quantity::ALL.len()]).unwrap(),
            error: 0.01,
            samples_used: 9,
            revision: 0,
        };
        let mut model =
            RoutineModel::new(Routine::Trsm, &machine_id, Locality::InCache, space.clone());
        let sub = PiecewiseModel::new(space.clone(), vec![region], 9);
        model.insert_submodel(FlagKey::from_slice(&[0, 0, 0]).unwrap(), sub);
        let mut repo = ModelRepository::new();
        repo.insert(model);
        repo
    };
    assert_eq!(gated_alike(&trsm_repo(space.clone())), Ok(()));
    let uncovered = trsm_repo(Region::new(vec![8, 8], vec![512, 1024]));
    assert!(matches!(
        gated_alike(&uncovered),
        Err(ModelError::Validation(msg)) if msg.contains("degenerate region cover")
    ));

    // Random repositories, some with the first region of every submodel
    // removed, whichever way the gate decides.
    for seed in 0..16u64 {
        let mut repo = random_repository(seed, &machine_id);
        if seed % 2 == 1 {
            let mut holed = ModelRepository::new();
            for (_, model) in repo.iter() {
                let mut model = model.clone();
                for sub in model.submodels.values_mut() {
                    sub.regions.remove(0);
                }
                holed.insert(model);
            }
            repo = holed;
        }
        let _ = gated_alike(&repo);
    }
}
