//! Models of a whole routine: one piecewise model per flag combination.
//!
//! A flag combination is identified by its [`FlagKey`], the only submodel
//! key in the stack: [`submodel_key`] derives it from a call, routine models
//! store their submodels under it, both repository codecs read and write it,
//! and the compiled engine and the serving telemetry look submodels up by
//! it.  A key no call can produce (more than [`Call::MAX_FLAGS`] flags, or a
//! flag above 255) is rejected where it would enter — by the text and binary
//! decoders — instead of being stored and never queried.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;

use dla_blas::{Call, Routine};
use dla_machine::Locality;
use dla_mat::stats::Summary;

use crate::{ModelError, PiecewiseModel, Region, Result};

/// The number of flags kept in a submodel key for `routine` (the routine's
/// flag count, with the `diag` flag folded away where applicable).
fn submodel_flag_count(routine: Routine) -> usize {
    match routine {
        // side, uplo, transA, diag -> drop diag
        Routine::Trsm | Routine::Trmm => 3,
        // uplo, diag -> drop diag
        Routine::TrtriUnb => 1,
        other => other.flag_count(),
    }
}

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
    let (mut flags, len) = call.flag_indices_fixed();
    let kept = len.min(submodel_flag_count(call.routine()));
    // Zero the dropped flags: derived equality/hashing covers the whole
    // array, so a folded `diag` flag must not distinguish two keys.
    for f in flags.iter_mut().skip(kept) {
        *f = 0;
    }
    FlagKey {
        len: kept as u8,
        flags,
    }
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
        let sizes = call.sizes();
        let clamped: Vec<usize> = sizes
            .iter()
            .enumerate()
            // lint: allow(panic-free): size arity matches the model space's dimension for the routine
            .map(|(d, &s)| s.clamp(self.space.lo()[d], self.space.hi()[d]))
            .collect();
        submodel.eval(&clamped)
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
}
