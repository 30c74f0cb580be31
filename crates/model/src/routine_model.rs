//! Models of a whole routine: one piecewise model per flag combination.
//!
//! A flag combination is identified by its [`FlagKey`], the only submodel
//! key in the stack: [`submodel_key`] derives it from a call, routine models
//! store their submodels under it, both repository codecs read and write it,
//! and the compiled engine and the serving telemetry look submodels up by
//! it.  A key no call of its routine can produce (a flag count other than
//! the one [`decode_call`] keeps, or a flag other than 0 or 1) is rejected
//! where it would enter — by the text and binary decoders and by the
//! publication gate ([`check_submodel_key`]) — instead of being stored and
//! never queried.  They likewise reject a model whose dimension is not its
//! routine's size count ([`check_model_dim`]).

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

use dla_blas::{Call, Routine};
use dla_machine::Locality;
use dla_mat::stats::Summary;

use crate::{ModelError, PiecewiseModel, Region, Result};

/// The submodel key of a flag combination: its flag indices in routine
/// order, stored inline.
///
/// No routine keeps more than [`Call::MAX_FLAGS`] flags in its key and every
/// flag index fits in a `u8`, so per-call submodel lookups in the compiled
/// evaluation engine never touch the heap.  Keys order like their flag lists
/// (lexicographically, a prefix first), and print as the flag list.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlagKey {
    len: u8,
    /// Flags past `len` are zero, so derived equality and hashing agree with
    /// comparing the flag lists.
    flags: [u8; Call::MAX_FLAGS],
}

impl FlagKey {
    /// Builds a key from a flag list; `None` if no call could produce it
    /// (more than [`Call::MAX_FLAGS`] flags, or a flag above 255).
    pub fn from_slice(key: &[usize]) -> Option<FlagKey> {
        if key.len() > Call::MAX_FLAGS {
            return None;
        }
        let mut flags = [0u8; Call::MAX_FLAGS];
        for (slot, &f) in flags.iter_mut().zip(key) {
            *slot = u8::try_from(f).ok()?;
        }
        Some(FlagKey {
            len: key.len() as u8,
            flags,
        })
    }

    /// Number of flags in the key.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns `true` if the key holds no flags.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The flag indices, in routine order.
    pub fn flags(&self) -> impl Iterator<Item = usize> + '_ {
        let flags = self.flags.get(..self.len()).unwrap_or_default();
        flags.iter().map(|&f| usize::from(f))
    }
}

impl Ord for FlagKey {
    fn cmp(&self, other: &FlagKey) -> Ordering {
        self.flags().cmp(other.flags())
    }
}

impl PartialOrd for FlagKey {
    fn partial_cmp(&self, other: &FlagKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for FlagKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.flags()).finish()
    }
}

/// The submodel key of a call: its flag indices with the `diag` flag removed.
///
/// The paper's preliminary experiments (Section III-A1) show that all flag
/// combinations must be modelled separately *except* `diag`, whose influence
/// is minor; folding it halves the number of submodels for the triangular
/// routines.
pub fn submodel_key(call: &Call) -> FlagKey {
    decode_call(call).1
}

/// A call decoded for evaluation in one `match`: its routine, its submodel
/// key ([`submodel_key`]: the flag indices in routine order, with `diag`
/// folded away for trsm, trmm and trtri_unb) and its sizes as
/// [`Call::sizes_fixed`] writes them, with their count.
pub fn decode_call(call: &Call) -> (Routine, FlagKey, [usize; Call::MAX_SIZES], usize) {
    let (routine, flags, kept, sizes, len) = match *call {
        Call::Gemm {
            transa,
            transb,
            m,
            n,
            k,
            ..
        } => (
            Routine::Gemm,
            [transa.as_index(), transb.as_index(), 0],
            2,
            [m, n, k],
            3,
        ),
        Call::Trsm {
            side,
            uplo,
            transa,
            m,
            n,
            ..
        } => (
            Routine::Trsm,
            [side.as_index(), uplo.as_index(), transa.as_index()],
            3,
            [m, n, 0],
            2,
        ),
        Call::Trmm {
            side,
            uplo,
            transa,
            m,
            n,
            ..
        } => (
            Routine::Trmm,
            [side.as_index(), uplo.as_index(), transa.as_index()],
            3,
            [m, n, 0],
            2,
        ),
        Call::TrtriUnb { uplo, n, .. } => {
            (Routine::TrtriUnb, [uplo.as_index(), 0, 0], 1, [n, 0, 0], 1)
        }
        Call::SylvUnb { m, n, .. } => (Routine::SylvUnb, [0, 0, 0], 0, [m, n, 0], 2),
    };
    // Flags are 0/1 indices; the slots past `kept` stay zero, so derived
    // equality and hashing cover the whole array.
    let [a, b, c] = flags;
    let key = FlagKey {
        len: kept,
        flags: [a as u8, b as u8, c as u8, 0],
    };
    (routine, key, sizes, len)
}

/// A performance model of one routine on one machine configuration and
/// memory-locality scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutineModel {
    /// The modelled routine.
    pub routine: Routine,
    /// Identifier of the machine configuration the model was built on
    /// ([`dla_machine::MachineConfig::id`]).
    pub machine_id: String,
    /// The memory-locality scenario the measurements were taken under.
    pub locality: Locality,
    /// The integer parameter space covered by the submodels.
    pub space: Region,
    /// One piecewise model per flag combination (keyed by [`submodel_key`]),
    /// in key order.
    pub submodels: BTreeMap<FlagKey, PiecewiseModel>,
}

/// Checks that a model of `routine` has one dimension per size argument of
/// the routine, so that every call of the routine is a point of its space.
/// Both repository decoders reject a model that does not, with this message.
pub(crate) fn check_model_dim(routine: Routine, dim: usize) -> std::result::Result<(), String> {
    let sizes = routine.size_count();
    if dim == sizes {
        Ok(())
    } else {
        Err(format!(
            "{routine} model has dimension {dim}, but {routine} calls have {sizes} sizes"
        ))
    }
}

/// Checks that `key` is the submodel key of some call of `routine`: it holds
/// as many flags as [`decode_call`] keeps for the routine (gemm 2, trsm and
/// trmm 3, trtri_unb 1, sylv_unb 0), and each flag is 0 or 1.  A submodel
/// under any other key could never be queried.  Both repository decoders and
/// the publication gate reject such a key, with this message.
pub(crate) fn check_submodel_key(
    routine: Routine,
    key: FlagKey,
) -> std::result::Result<(), String> {
    let len = match routine {
        Routine::Gemm => 2,
        Routine::Trsm | Routine::Trmm => 3,
        Routine::TrtriUnb => 1,
        Routine::SylvUnb => 0,
    };
    if key.len() == len && key.flags().all(|f| f <= 1) {
        Ok(())
    } else {
        Err(format!(
            "{routine} submodel key {key:?} cannot come from any call: \
             {routine} keys hold {len} flags of 0 or 1"
        ))
    }
}

impl RoutineModel {
    /// Creates an empty routine model.
    pub fn new(
        routine: Routine,
        machine_id: impl Into<String>,
        locality: Locality,
        space: Region,
    ) -> RoutineModel {
        RoutineModel {
            routine,
            machine_id: machine_id.into(),
            locality,
            space,
            submodels: BTreeMap::new(),
        }
    }

    /// Inserts (or replaces) the submodel for a flag combination.
    pub fn insert_submodel(&mut self, key: FlagKey, model: PiecewiseModel) {
        self.submodels.insert(key, model);
    }

    /// Merges another model of the same routine/machine/locality into this
    /// one at **submodel granularity**: every submodel of `other` replaces
    /// the one under the same flag key here, while flag variants present only
    /// in `self` are kept.  This is the unit the repository-level
    /// [`merge_models`](crate::ModelRepository::merge_models) and the online
    /// refinement loop's incremental publish are built on — a delta holding a
    /// single rebuilt flag variant must not wipe out its siblings.
    ///
    /// If the two parameter spaces differ, the merged space becomes their
    /// envelope (element-wise min/max), so every retained submodel stays
    /// inside the declared space and `estimate`'s clamping keeps working for
    /// both sides.
    pub fn merge_from(&mut self, other: RoutineModel) {
        debug_assert_eq!(
            self.routine, other.routine,
            "merge_from requires matching routines"
        );
        if self.space != other.space && self.space.dim() == other.space.dim() {
            let lo: Vec<usize> = self
                .space
                .lo()
                .iter()
                .zip(other.space.lo())
                .map(|(&a, &b)| a.min(b))
                .collect();
            let hi: Vec<usize> = self
                .space
                .hi()
                .iter()
                .zip(other.space.hi())
                .map(|(&a, &b)| a.max(b))
                .collect();
            self.space = Region::new(lo, hi);
        }
        for (key, submodel) in other.submodels {
            self.submodels.insert(key, submodel);
        }
    }

    /// The submodel for a flag combination, if present.
    pub fn submodel(&self, key: FlagKey) -> Option<&PiecewiseModel> {
        self.submodels.get(&key)
    }

    /// Total number of samples used across all submodels.
    pub fn total_samples(&self) -> usize {
        self.submodels.values().map(|m| m.total_samples).sum()
    }

    /// Number of flag combinations modelled.
    pub fn submodel_count(&self) -> usize {
        self.submodels.len()
    }

    /// Estimates the performance of `call`.
    ///
    /// The call's routine must match; its sizes are clamped into the model's
    /// parameter space (the paper limits unblocked models to small dimensions
    /// and evaluates them only there, so clamping only matters at the fringes
    /// of the space).
    pub fn estimate(&self, call: &Call) -> Result<Summary> {
        if call.routine() != self.routine {
            return Err(ModelError::MissingSubmodel(format!(
                "model is for {}, call is {}",
                self.routine,
                call.routine()
            )));
        }
        let key = submodel_key(call);
        let submodel = self.submodels.get(&key).ok_or_else(|| {
            ModelError::MissingSubmodel(format!(
                "no submodel for {} flags {:?} ({})",
                self.routine,
                key,
                call.flag_chars()
            ))
        })?;
        // Sizes past the space's dimension stay unclamped, so a model whose
        // dimension is not the call's size count fails the arity check.
        let mut point = call.sizes();
        let bounds = self.space.lo().iter().zip(self.space.hi());
        for (size, (&lo, &hi)) in point.iter_mut().zip(bounds) {
            *size = (*size).clamp(lo, hi);
        }
        submodel.eval(&point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{RegionModel, VectorPolynomial};
    use dla_blas::{Diag, Side, Trans, Uplo};
    use dla_mat::stats::Quantity;

    fn key(flags: &[usize]) -> FlagKey {
        FlagKey::from_slice(flags).expect("representable key")
    }

    fn constant_submodel(space: &Region, value: f64) -> PiecewiseModel {
        // A single region whose polynomials are constants.
        let polys = Quantity::ALL
            .iter()
            .map(|_| {
                crate::Polynomial::new(space.dim(), vec![vec![0; space.dim()]], vec![value])
                    .unwrap()
            })
            .collect();
        let vp = VectorPolynomial::new(polys).unwrap();
        let rm = RegionModel {
            region: space.clone(),
            poly: vp,
            error: 0.01,
            samples_used: 4,
            revision: 0,
        };
        PiecewiseModel::new(space.clone(), vec![rm], 4)
    }

    #[test]
    fn submodel_key_drops_diag() {
        let a = Call::trsm(
            Side::Left,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            64,
            64,
            1.0,
        );
        let b = Call::trsm(
            Side::Left,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::Unit,
            64,
            64,
            1.0,
        );
        assert_eq!(submodel_key(&a), submodel_key(&b));
        assert_eq!(submodel_key(&a), key(&[0, 0, 0]));
        let c = Call::trsm(
            Side::Right,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            64,
            64,
            1.0,
        );
        assert_ne!(submodel_key(&a), submodel_key(&c));
        let g = Call::gemm(Trans::NoTrans, Trans::Trans, 8, 8, 8, 1.0, 0.0);
        assert_eq!(submodel_key(&g), key(&[0, 1]));
        let t = Call::trtri_unb(Uplo::Upper, Diag::Unit, 32);
        assert_eq!(submodel_key(&t), key(&[1]));
        let s = Call::sylv_unb(8, 8);
        assert!(submodel_key(&s).is_empty());
    }

    #[test]
    fn fixed_key_matches_vec_key() {
        let calls = [
            Call::trsm(
                Side::Left,
                Uplo::Lower,
                Trans::NoTrans,
                Diag::NonUnit,
                64,
                64,
                1.0,
            ),
            Call::trsm(
                Side::Left,
                Uplo::Lower,
                Trans::NoTrans,
                Diag::Unit,
                64,
                64,
                1.0,
            ),
            Call::gemm(Trans::NoTrans, Trans::Trans, 8, 8, 8, 1.0, 0.0),
            Call::trtri_unb(Uplo::Upper, Diag::Unit, 32),
            Call::sylv_unb(8, 8),
        ];
        let expected: [&[usize]; 5] = [&[0, 0, 0], &[0, 0, 0], &[0, 1], &[1], &[]];
        for (call, flags) in calls.iter().zip(expected) {
            let fixed = submodel_key(call);
            assert_eq!(fixed.flags().collect::<Vec<_>>(), flags, "{call}");
            assert_eq!(fixed.len(), flags.len());
            assert_eq!(FlagKey::from_slice(flags), Some(fixed));
            assert_eq!(format!("{fixed:?}"), format!("{flags:?}"));
        }
        // Folding diag must make the unit/non-unit keys *equal*, including
        // under derived Eq/Hash.
        assert_eq!(submodel_key(&calls[0]), submodel_key(&calls[1]));
        assert!(submodel_key(&calls[4]).is_empty());
        // Keys that cannot fit are rejected, not truncated.
        assert_eq!(FlagKey::from_slice(&[1, 2, 3, 4, 5]), None);
        assert_eq!(FlagKey::from_slice(&[300]), None);
        assert!(FlagKey::from_slice(&[0, 1, 0, 1]).is_some());
        // Keys order exactly like their flag lists: a prefix first, then
        // element by element.
        let lists: [&[usize]; 6] = [&[], &[0], &[0, 0], &[0, 5], &[1], &[1, 0, 0, 1]];
        for a in lists {
            for b in lists {
                assert_eq!(key(a).cmp(&key(b)), a.cmp(b), "{a:?} vs {b:?}");
            }
        }
    }

    /// Every call variant under every flag combination, with zero and
    /// non-zero sizes.
    fn every_call() -> Vec<Call> {
        let mut calls = Vec::new();
        for (m, n, k) in [(7, 5, 3), (0, 5, 3), (7, 0, 3), (7, 5, 0), (0, 0, 0)] {
            for ta in Trans::VALUES {
                for tb in Trans::VALUES {
                    calls.push(Call::gemm(ta, tb, m, n, k, 1.0, 0.0));
                }
                for uplo in Uplo::VALUES {
                    for side in Side::VALUES {
                        for diag in Diag::VALUES {
                            calls.push(Call::trsm(side, uplo, ta, diag, m, n, 1.0));
                            calls.push(Call::trmm(side, uplo, ta, diag, m, n, 1.0));
                        }
                    }
                }
            }
            for uplo in Uplo::VALUES {
                for diag in Diag::VALUES {
                    calls.push(Call::trtri_unb(uplo, diag, m));
                }
            }
            calls.push(Call::sylv_unb(m, n));
        }
        calls
    }

    #[test]
    fn decode_call_agrees_with_the_separate_accessors() {
        let calls = every_call();
        assert_eq!(calls.len(), 5 * (4 + 32 + 4 + 1));
        for call in &calls {
            let (routine, key, sizes, len) = decode_call(call);
            assert_eq!(routine, call.routine(), "{call}");
            assert_eq!((sizes, len), call.sizes_fixed(), "{call}");
            assert_eq!(len, routine.size_count(), "{call}");
            // The key rule, spelled independently: trsm and trmm keep their
            // first 3 flags, trtri_unb its first, every other routine all.
            let (flags, count) = call.flag_indices_fixed();
            let kept = match routine {
                Routine::Trsm | Routine::Trmm => 3,
                Routine::TrtriUnb => 1,
                _ => count,
            };
            let expected: Vec<usize> = flags[..kept].iter().map(|&f| usize::from(f)).collect();
            assert_eq!(Some(key), FlagKey::from_slice(&expected), "{call}");
            assert_eq!(submodel_key(call), key, "{call}");
            assert_eq!(check_submodel_key(routine, key), Ok(()), "{call}");
        }
        // Keys of the wrong length, or with a flag other than 0 or 1, come
        // from no call.
        for (routine, flags) in [
            (Routine::Trsm, &[0, 0][..]),
            (Routine::Trsm, &[0, 0, 0, 0]),
            (Routine::Trsm, &[0, 2, 0]),
            (Routine::Gemm, &[0, 0, 0]),
            (Routine::TrtriUnb, &[0, 1]),
            (Routine::SylvUnb, &[0]),
        ] {
            let err = check_submodel_key(routine, key(flags)).unwrap_err();
            assert!(err.contains("cannot come from any call"), "{err}");
        }
    }

    #[test]
    fn estimate_uses_matching_submodel() {
        let space = Region::new(vec![8, 8], vec![1024, 1024]);
        let mut model = RoutineModel::new(
            Routine::Trsm,
            "test-machine",
            Locality::InCache,
            space.clone(),
        );
        model.insert_submodel(key(&[0, 0, 0]), constant_submodel(&space, 100.0));
        model.insert_submodel(key(&[1, 0, 0]), constant_submodel(&space, 200.0));
        assert_eq!(model.submodel_count(), 2);
        assert_eq!(model.total_samples(), 8);

        let left = Call::trsm(
            Side::Left,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            100,
            100,
            1.0,
        );
        let right = Call::trsm(
            Side::Right,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::Unit,
            100,
            100,
            1.0,
        );
        assert_eq!(model.estimate(&left).unwrap().median, 100.0);
        assert_eq!(model.estimate(&right).unwrap().median, 200.0);
    }

    #[test]
    fn estimate_rejects_wrong_routine_and_missing_submodel() {
        let space = Region::new(vec![8, 8], vec![1024, 1024]);
        let mut model = RoutineModel::new(Routine::Trsm, "m", Locality::InCache, space.clone());
        model.insert_submodel(key(&[0, 0, 0]), constant_submodel(&space, 1.0));
        let gemm = Call::gemm(Trans::NoTrans, Trans::NoTrans, 8, 8, 8, 1.0, 0.0);
        assert!(matches!(
            model.estimate(&gemm),
            Err(ModelError::MissingSubmodel(_))
        ));
        let upper = Call::trsm(
            Side::Left,
            Uplo::Upper,
            Trans::NoTrans,
            Diag::NonUnit,
            64,
            64,
            1.0,
        );
        assert!(model.estimate(&upper).is_err());
        assert!(model.submodel(key(&[0, 0, 0])).is_some());
        assert!(model.submodel(key(&[9, 9])).is_none());
    }

    #[test]
    fn estimate_clamps_out_of_space_sizes() {
        let space = Region::new(vec![8, 8], vec![256, 256]);
        let mut model = RoutineModel::new(Routine::Trsm, "m", Locality::InCache, space.clone());
        model.insert_submodel(key(&[0, 0, 0]), constant_submodel(&space, 42.0));
        // Sizes far outside the modelled space still produce an estimate.
        let big = Call::trsm(
            Side::Left,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            4000,
            2,
            1.0,
        );
        let est = model.estimate(&big).unwrap();
        assert_eq!(est.median, 42.0);
    }

    #[test]
    fn a_model_of_the_wrong_dimension_answers_with_an_error() {
        // A trsm call has two sizes.  The decoders reject a one-dimensional
        // trsm model, but one built in memory still reaches `estimate`,
        // which must return an error, as the compiled engine does, instead
        // of panicking.
        let space = Region::new(vec![8], vec![16]);
        let mut model = RoutineModel::new(Routine::Trsm, "m", Locality::InCache, space.clone());
        model.insert_submodel(key(&[0, 0, 0]), constant_submodel(&space, 1.0));
        let call = Call::trsm(
            Side::Left,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::NonUnit,
            12,
            12,
            1.0,
        );
        assert!(matches!(
            model.estimate(&call),
            Err(ModelError::OutOfDomain(_))
        ));
        let compiled = crate::CompiledRoutineModel::compile(&model, &mut 0);
        assert!(matches!(
            compiled.estimate(&call),
            Err(ModelError::OutOfDomain(_))
        ));
    }
}
