//! Routine-call descriptors.
//!
//! A [`Call`] captures everything the paper's tools need to know about one
//! invocation of a BLAS/LAPACK building block: the routine, its flag
//! arguments, its size arguments, its scalar arguments and the leading
//! dimensions of its operands.  Data pointers are deliberately absent — as the
//! paper argues (Section III-A), only the *sizes* and *storage locations* of
//! the operands matter for performance, and storage location is captured
//! separately as the memory-locality scenario.
//!
//! Calls are produced by the algorithm tracers in `dla-algos`, measured by the
//! Sampler, modelled by the Modeler and evaluated by the Predictor.

use std::fmt;

use crate::{Diag, Side, Trans, Uplo};

/// Identifies a modelled routine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Routine {
    /// General matrix-matrix multiply (`dgemm`).
    Gemm,
    /// Triangular solve with multiple right-hand sides (`dtrsm`).
    Trsm,
    /// Triangular matrix-matrix multiply (`dtrmm`).
    Trmm,
    /// Symmetric rank-k update (`dsyrk`).
    Syrk,
    /// Unblocked triangular inversion (`dtrtri` unblocked).
    TrtriUnb,
    /// Unblocked triangular Sylvester solve.
    SylvUnb,
}

impl Routine {
    /// All routines known to the stack.
    pub const ALL: [Routine; 6] = [
        Routine::Gemm,
        Routine::Trsm,
        Routine::Trmm,
        Routine::Syrk,
        Routine::TrtriUnb,
        Routine::SylvUnb,
    ];

    /// BLAS/LAPACK-style lower-case name.
    pub fn name(&self) -> &'static str {
        match self {
            Routine::Gemm => "dgemm",
            Routine::Trsm => "dtrsm",
            Routine::Trmm => "dtrmm",
            Routine::Syrk => "dsyrk",
            Routine::TrtriUnb => "dtrtri_unb",
            Routine::SylvUnb => "dsylv_unb",
        }
    }

    /// Parses a routine from its name.
    pub fn from_name(name: &str) -> Option<Routine> {
        Routine::ALL.into_iter().find(|r| r.name() == name)
    }

    /// Stable position of the routine in [`Routine::ALL`] (used by the
    /// compiled evaluation engine's pre-resolved routing tables).
    pub fn index(&self) -> usize {
        match self {
            Routine::Gemm => 0,
            Routine::Trsm => 1,
            Routine::Trmm => 2,
            Routine::Syrk => 3,
            Routine::TrtriUnb => 4,
            Routine::SylvUnb => 5,
        }
    }

    /// Number of flag arguments the routine takes.
    pub fn flag_count(&self) -> usize {
        match self {
            Routine::Gemm => 2,
            Routine::Trsm | Routine::Trmm => 4,
            Routine::Syrk => 2,
            Routine::TrtriUnb => 2,
            Routine::SylvUnb => 0,
        }
    }

    /// Number of integer size arguments (the model's integer parameters).
    pub fn size_count(&self) -> usize {
        match self {
            Routine::Gemm => 3,
            Routine::Trsm | Routine::Trmm => 2,
            Routine::Syrk => 2,
            Routine::TrtriUnb => 1,
            Routine::SylvUnb => 2,
        }
    }
}

impl fmt::Display for Routine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// One invocation of a modelled routine: flags, sizes, scalars and leading
/// dimensions.
#[derive(Debug, Clone, PartialEq)]
pub enum Call {
    /// `C <- alpha * op(A) * op(B) + beta * C`.
    Gemm {
        /// Transposition of `A`.
        transa: Trans,
        /// Transposition of `B`.
        transb: Trans,
        /// Rows of `op(A)` and `C`.
        m: usize,
        /// Columns of `op(B)` and `C`.
        n: usize,
        /// Common dimension.
        k: usize,
        /// Scaling of the product.
        alpha: f64,
        /// Scaling of `C` on input.
        beta: f64,
        /// Leading dimension of `A`.
        lda: usize,
        /// Leading dimension of `B`.
        ldb: usize,
        /// Leading dimension of `C`.
        ldc: usize,
    },
    /// `B <- alpha * op(A)^-1 B` or `B <- alpha * B * op(A)^-1`.
    Trsm {
        /// Side from which `A` is applied.
        side: Side,
        /// Referenced triangle of `A`.
        uplo: Uplo,
        /// Transposition of `A`.
        transa: Trans,
        /// Unit-diagonal flag.
        diag: Diag,
        /// Rows of `B`.
        m: usize,
        /// Columns of `B`.
        n: usize,
        /// Scaling applied to `B`.
        alpha: f64,
        /// Leading dimension of `A`.
        lda: usize,
        /// Leading dimension of `B`.
        ldb: usize,
    },
    /// `B <- alpha * op(A) * B` or `B <- alpha * B * op(A)`.
    Trmm {
        /// Side from which `A` is applied.
        side: Side,
        /// Referenced triangle of `A`.
        uplo: Uplo,
        /// Transposition of `A`.
        transa: Trans,
        /// Unit-diagonal flag.
        diag: Diag,
        /// Rows of `B`.
        m: usize,
        /// Columns of `B`.
        n: usize,
        /// Scaling applied to the product.
        alpha: f64,
        /// Leading dimension of `A`.
        lda: usize,
        /// Leading dimension of `B`.
        ldb: usize,
    },
    /// `C <- alpha * A * A^T + beta * C` (or `A^T * A`).
    Syrk {
        /// Referenced triangle of `C`.
        uplo: Uplo,
        /// Whether `A` or `A^T` forms the product.
        trans: Trans,
        /// Order of `C`.
        n: usize,
        /// Common dimension.
        k: usize,
        /// Scaling of the product.
        alpha: f64,
        /// Scaling of `C` on input.
        beta: f64,
        /// Leading dimension of `A`.
        lda: usize,
        /// Leading dimension of `C`.
        ldc: usize,
    },
    /// In-place unblocked triangular inversion.
    TrtriUnb {
        /// Referenced triangle of `A`.
        uplo: Uplo,
        /// Unit-diagonal flag.
        diag: Diag,
        /// Order of `A`.
        n: usize,
        /// Leading dimension of `A`.
        lda: usize,
    },
    /// Unblocked triangular Sylvester solve `L X + X U = C`.
    SylvUnb {
        /// Rows of `X` (order of `L`).
        m: usize,
        /// Columns of `X` (order of `U`).
        n: usize,
        /// Leading dimension of `L`.
        ldl: usize,
        /// Leading dimension of `U`.
        ldu: usize,
        /// Leading dimension of `X`.
        ldx: usize,
    },
}

impl Call {
    /// The largest number of flag arguments any routine takes.
    pub const MAX_FLAGS: usize = 4;

    /// The largest number of integer size arguments any routine takes.
    pub const MAX_SIZES: usize = 3;

    /// The routine this call invokes.
    pub fn routine(&self) -> Routine {
        match self {
            Call::Gemm { .. } => Routine::Gemm,
            Call::Trsm { .. } => Routine::Trsm,
            Call::Trmm { .. } => Routine::Trmm,
            Call::Syrk { .. } => Routine::Syrk,
            Call::TrtriUnb { .. } => Routine::TrtriUnb,
            Call::SylvUnb { .. } => Routine::SylvUnb,
        }
    }

    /// The flag arguments encoded as 0/1 indices, in routine order, written
    /// into a fixed-size array; returns the array and the number of valid
    /// entries.
    ///
    /// No routine has more than [`Call::MAX_FLAGS`] flags and every flag
    /// index fits in a `u8`, so per-call model lookups need not touch the
    /// heap.
    // lint: allow(panic-free): constant indices below Call::MAX_FLAGS
    pub fn flag_indices_fixed(&self) -> ([u8; Call::MAX_FLAGS], usize) {
        let mut flags = [0u8; Call::MAX_FLAGS];
        let len = match self {
            Call::Gemm { transa, transb, .. } => {
                flags[0] = transa.as_index() as u8;
                flags[1] = transb.as_index() as u8;
                2
            }
            Call::Trsm {
                side,
                uplo,
                transa,
                diag,
                ..
            }
            | Call::Trmm {
                side,
                uplo,
                transa,
                diag,
                ..
            } => {
                flags[0] = side.as_index() as u8;
                flags[1] = uplo.as_index() as u8;
                flags[2] = transa.as_index() as u8;
                flags[3] = diag.as_index() as u8;
                4
            }
            Call::Syrk { uplo, trans, .. } => {
                flags[0] = uplo.as_index() as u8;
                flags[1] = trans.as_index() as u8;
                2
            }
            Call::TrtriUnb { uplo, diag, .. } => {
                flags[0] = uplo.as_index() as u8;
                flags[1] = diag.as_index() as u8;
                2
            }
            Call::SylvUnb { .. } => 0,
        };
        (flags, len)
    }

    /// The flag arguments as their BLAS character spelling.
    pub fn flag_chars(&self) -> String {
        match self {
            Call::Gemm { transa, transb, .. } => format!("{transa}{transb}"),
            Call::Trsm {
                side,
                uplo,
                transa,
                diag,
                ..
            }
            | Call::Trmm {
                side,
                uplo,
                transa,
                diag,
                ..
            } => format!("{side}{uplo}{transa}{diag}"),
            Call::Syrk { uplo, trans, .. } => format!("{uplo}{trans}"),
            Call::TrtriUnb { uplo, diag, .. } => format!("{uplo}{diag}"),
            Call::SylvUnb { .. } => String::new(),
        }
    }

    /// The integer size arguments, in routine order.
    pub fn sizes(&self) -> Vec<usize> {
        let (sizes, len) = self.sizes_fixed();
        let mut sizes = sizes.to_vec();
        sizes.truncate(len);
        sizes
    }

    /// The integer size arguments written into a fixed-size array, returning
    /// the array and the number of valid entries (the allocation-free form
    /// of [`Call::sizes`]; no routine has more than [`Call::MAX_SIZES`]
    /// sizes).
    // lint: allow(panic-free): constant indices below Call::MAX_SIZES
    pub fn sizes_fixed(&self) -> ([usize; Call::MAX_SIZES], usize) {
        let mut sizes = [0usize; Call::MAX_SIZES];
        let len = match self {
            Call::Gemm { m, n, k, .. } => {
                sizes[0] = *m;
                sizes[1] = *n;
                sizes[2] = *k;
                3
            }
            Call::Trsm { m, n, .. } | Call::Trmm { m, n, .. } => {
                sizes[0] = *m;
                sizes[1] = *n;
                2
            }
            Call::Syrk { n, k, .. } => {
                sizes[0] = *n;
                sizes[1] = *k;
                2
            }
            Call::TrtriUnb { n, .. } => {
                sizes[0] = *n;
                1
            }
            Call::SylvUnb { m, n, .. } => {
                sizes[0] = *m;
                sizes[1] = *n;
                2
            }
        };
        (sizes, len)
    }

    /// The scalar arguments (`alpha`, `beta`).
    pub fn scalars(&self) -> Vec<f64> {
        match self {
            Call::Gemm { alpha, beta, .. } => vec![*alpha, *beta],
            Call::Trsm { alpha, .. } | Call::Trmm { alpha, .. } => vec![*alpha],
            Call::Syrk { alpha, beta, .. } => vec![*alpha, *beta],
            Call::TrtriUnb { .. } | Call::SylvUnb { .. } => vec![],
        }
    }

    /// The leading-dimension arguments, in routine order.
    pub fn leading_dims(&self) -> Vec<usize> {
        match self {
            Call::Gemm { lda, ldb, ldc, .. } => vec![*lda, *ldb, *ldc],
            Call::Trsm { lda, ldb, .. } | Call::Trmm { lda, ldb, .. } => vec![*lda, *ldb],
            Call::Syrk { lda, ldc, .. } => vec![*lda, *ldc],
            Call::TrtriUnb { lda, .. } => vec![*lda],
            Call::SylvUnb { ldl, ldu, ldx, .. } => vec![*ldl, *ldu, *ldx],
        }
    }

    /// Dimensions `(rows, cols)` of every matrix operand of the call, as a
    /// fixed-size array plus the operand count (no routine touches more than
    /// 3 matrices).
    ///
    /// Used by the machine model to compute operand footprints and memory
    /// traffic on per-measurement hot paths.
    pub fn operand_dims_fixed(&self) -> ([(usize, usize); 3], usize) {
        let mut dims = [(0usize, 0usize); 3];
        let len = match self {
            Call::Gemm {
                transa,
                transb,
                m,
                n,
                k,
                ..
            } => {
                dims[0] = match transa {
                    Trans::NoTrans => (*m, *k),
                    Trans::Trans => (*k, *m),
                };
                dims[1] = match transb {
                    Trans::NoTrans => (*k, *n),
                    Trans::Trans => (*n, *k),
                };
                dims[2] = (*m, *n);
                3
            }
            Call::Trsm { side, m, n, .. } | Call::Trmm { side, m, n, .. } => {
                let order = match side {
                    Side::Left => *m,
                    Side::Right => *n,
                };
                dims[0] = (order, order);
                dims[1] = (*m, *n);
                2
            }
            Call::Syrk { trans, n, k, .. } => {
                dims[0] = match trans {
                    Trans::NoTrans => (*n, *k),
                    Trans::Trans => (*k, *n),
                };
                dims[1] = (*n, *n);
                2
            }
            Call::TrtriUnb { n, .. } => {
                dims[0] = (*n, *n);
                1
            }
            Call::SylvUnb { m, n, .. } => {
                dims[0] = (*m, *m);
                dims[1] = (*n, *n);
                dims[2] = (*m, *n);
                3
            }
        };
        (dims, len)
    }

    /// Total operand footprint in bytes (double precision).
    pub fn operand_bytes(&self) -> usize {
        let (dims, len) = self.operand_dims_fixed();
        dims[..len]
            .iter()
            .map(|(r, c)| r * c * std::mem::size_of::<f64>())
            .sum()
    }

    /// Floating-point operation count of the call.
    pub fn flops(&self) -> f64 {
        crate::flops::call_flops(self)
    }

    /// Returns a copy of this call with every leading dimension replaced.
    ///
    /// The Modeler fixes all leading dimensions to a single large value (2500
    /// in the paper) during model generation; this helper performs that
    /// normalisation.
    pub fn with_leading_dims(&self, ld: usize) -> Call {
        let mut c = self.clone();
        match &mut c {
            Call::Gemm { lda, ldb, ldc, .. } => {
                *lda = ld;
                *ldb = ld;
                *ldc = ld;
            }
            Call::Trsm { lda, ldb, .. } | Call::Trmm { lda, ldb, .. } => {
                *lda = ld;
                *ldb = ld;
            }
            Call::Syrk { lda, ldc, .. } => {
                *lda = ld;
                *ldc = ld;
            }
            Call::TrtriUnb { lda, .. } => {
                *lda = ld;
            }
            Call::SylvUnb { ldl, ldu, ldx, .. } => {
                *ldl = ld;
                *ldu = ld;
                *ldx = ld;
            }
        }
        c
    }

    /// Returns a copy of this call with the size arguments replaced (in the
    /// order reported by [`Call::sizes`]); used by the Modeler when sweeping
    /// the integer parameter space.
    ///
    /// Panics if the number of sizes does not match the routine.
    pub fn with_sizes(&self, sizes: &[usize]) -> Call {
        assert_eq!(
            sizes.len(),
            self.routine().size_count(),
            "with_sizes: expected {} sizes for {}",
            self.routine().size_count(),
            self.routine()
        );
        let mut c = self.clone();
        match &mut c {
            Call::Gemm { m, n, k, .. } => {
                *m = sizes[0];
                *n = sizes[1];
                *k = sizes[2];
            }
            Call::Trsm { m, n, .. } | Call::Trmm { m, n, .. } => {
                *m = sizes[0];
                *n = sizes[1];
            }
            Call::Syrk { n, k, .. } => {
                *n = sizes[0];
                *k = sizes[1];
            }
            Call::TrtriUnb { n, .. } => {
                *n = sizes[0];
            }
            Call::SylvUnb { m, n, .. } => {
                *m = sizes[0];
                *n = sizes[1];
            }
        }
        c
    }

    /// Parses a call from a whitespace-separated textual form, e.g.
    ///
    /// ```text
    /// dtrsm R L N U 512 128 0.37 256 512
    /// dgemm N N 256 256 256 1.0 0.0 2500 2500 2500
    /// ```
    ///
    /// The token order is: routine name, flags, sizes, scalars, leading
    /// dimensions — the same order the paper's Sampler accepts tuples in
    /// (operand buffer names are omitted because only sizes matter).
    pub fn parse(text: &str) -> Result<Call, String> {
        let toks: Vec<&str> = text.split_whitespace().collect();
        if toks.is_empty() {
            return Err("empty call description".to_string());
        }
        let routine =
            Routine::from_name(toks[0]).ok_or_else(|| format!("unknown routine '{}'", toks[0]))?;
        let mut idx = 1;
        let mut next = |what: &str| -> Result<&str, String> {
            let t = toks
                .get(idx)
                .ok_or_else(|| format!("missing {what} in '{text}'"))?;
            idx += 1;
            Ok(t)
        };
        let parse_flag = |t: &str, what: &str| -> Result<char, String> {
            t.chars().next().ok_or_else(|| format!("empty {what} flag"))
        };
        let parse_usize = |t: &str, what: &str| -> Result<usize, String> {
            t.parse().map_err(|_| format!("bad {what} '{t}'"))
        };
        let parse_f64 = |t: &str, what: &str| -> Result<f64, String> {
            t.parse().map_err(|_| format!("bad {what} '{t}'"))
        };

        let call = match routine {
            Routine::Gemm => {
                let transa = Trans::from_char(parse_flag(next("transa")?, "transa")?)
                    .ok_or("bad transa flag")?;
                let transb = Trans::from_char(parse_flag(next("transb")?, "transb")?)
                    .ok_or("bad transb flag")?;
                let m = parse_usize(next("m")?, "m")?;
                let n = parse_usize(next("n")?, "n")?;
                let k = parse_usize(next("k")?, "k")?;
                let alpha = parse_f64(next("alpha")?, "alpha")?;
                let beta = parse_f64(next("beta")?, "beta")?;
                let lda = parse_usize(next("lda")?, "lda")?;
                let ldb = parse_usize(next("ldb")?, "ldb")?;
                let ldc = parse_usize(next("ldc")?, "ldc")?;
                Call::Gemm {
                    transa,
                    transb,
                    m,
                    n,
                    k,
                    alpha,
                    beta,
                    lda,
                    ldb,
                    ldc,
                }
            }
            Routine::Trsm | Routine::Trmm => {
                let side =
                    Side::from_char(parse_flag(next("side")?, "side")?).ok_or("bad side flag")?;
                let uplo =
                    Uplo::from_char(parse_flag(next("uplo")?, "uplo")?).ok_or("bad uplo flag")?;
                let transa = Trans::from_char(parse_flag(next("transa")?, "transa")?)
                    .ok_or("bad transa flag")?;
                let diag =
                    Diag::from_char(parse_flag(next("diag")?, "diag")?).ok_or("bad diag flag")?;
                let m = parse_usize(next("m")?, "m")?;
                let n = parse_usize(next("n")?, "n")?;
                let alpha = parse_f64(next("alpha")?, "alpha")?;
                let lda = parse_usize(next("lda")?, "lda")?;
                let ldb = parse_usize(next("ldb")?, "ldb")?;
                if routine == Routine::Trsm {
                    Call::Trsm {
                        side,
                        uplo,
                        transa,
                        diag,
                        m,
                        n,
                        alpha,
                        lda,
                        ldb,
                    }
                } else {
                    Call::Trmm {
                        side,
                        uplo,
                        transa,
                        diag,
                        m,
                        n,
                        alpha,
                        lda,
                        ldb,
                    }
                }
            }
            Routine::Syrk => {
                let uplo =
                    Uplo::from_char(parse_flag(next("uplo")?, "uplo")?).ok_or("bad uplo flag")?;
                let trans = Trans::from_char(parse_flag(next("trans")?, "trans")?)
                    .ok_or("bad trans flag")?;
                let n = parse_usize(next("n")?, "n")?;
                let k = parse_usize(next("k")?, "k")?;
                let alpha = parse_f64(next("alpha")?, "alpha")?;
                let beta = parse_f64(next("beta")?, "beta")?;
                let lda = parse_usize(next("lda")?, "lda")?;
                let ldc = parse_usize(next("ldc")?, "ldc")?;
                Call::Syrk {
                    uplo,
                    trans,
                    n,
                    k,
                    alpha,
                    beta,
                    lda,
                    ldc,
                }
            }
            Routine::TrtriUnb => {
                let uplo =
                    Uplo::from_char(parse_flag(next("uplo")?, "uplo")?).ok_or("bad uplo flag")?;
                let diag =
                    Diag::from_char(parse_flag(next("diag")?, "diag")?).ok_or("bad diag flag")?;
                let n = parse_usize(next("n")?, "n")?;
                let lda = parse_usize(next("lda")?, "lda")?;
                Call::TrtriUnb { uplo, diag, n, lda }
            }
            Routine::SylvUnb => {
                let m = parse_usize(next("m")?, "m")?;
                let n = parse_usize(next("n")?, "n")?;
                let ldl = parse_usize(next("ldl")?, "ldl")?;
                let ldu = parse_usize(next("ldu")?, "ldu")?;
                let ldx = parse_usize(next("ldx")?, "ldx")?;
                Call::SylvUnb {
                    m,
                    n,
                    ldl,
                    ldu,
                    ldx,
                }
            }
        };
        if idx != toks.len() {
            return Err(format!("trailing tokens in '{text}'"));
        }
        Ok(call)
    }
}

impl fmt::Display for Call {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let flags = self.flag_chars();
        let flags_spaced: Vec<String> = flags.chars().map(|c| c.to_string()).collect();
        let sizes: Vec<String> = self.sizes().iter().map(|s| s.to_string()).collect();
        let scalars: Vec<String> = self.scalars().iter().map(|s| format!("{s}")).collect();
        let lds: Vec<String> = self.leading_dims().iter().map(|s| s.to_string()).collect();
        let mut parts = Vec::new();
        parts.extend(flags_spaced);
        parts.extend(sizes);
        parts.extend(scalars);
        parts.extend(lds);
        write!(f, "{}({})", self.routine(), parts.join(", "))
    }
}

/// Convenience constructors mirroring the BLAS call signatures.
impl Call {
    /// Builds a `dgemm` call with unit leading dimensions tied to the sizes.
    #[allow(clippy::too_many_arguments)]
    pub fn gemm(
        transa: Trans,
        transb: Trans,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        beta: f64,
    ) -> Call {
        Call::Gemm {
            transa,
            transb,
            m,
            n,
            k,
            alpha,
            beta,
            lda: if matches!(transa, Trans::NoTrans) {
                m.max(1)
            } else {
                k.max(1)
            },
            ldb: if matches!(transb, Trans::NoTrans) {
                k.max(1)
            } else {
                n.max(1)
            },
            ldc: m.max(1),
        }
    }

    /// Builds a `dtrsm` call with leading dimensions tied to the sizes.
    pub fn trsm(
        side: Side,
        uplo: Uplo,
        transa: Trans,
        diag: Diag,
        m: usize,
        n: usize,
        alpha: f64,
    ) -> Call {
        let order = match side {
            Side::Left => m,
            Side::Right => n,
        };
        Call::Trsm {
            side,
            uplo,
            transa,
            diag,
            m,
            n,
            alpha,
            lda: order.max(1),
            ldb: m.max(1),
        }
    }

    /// Builds a `dtrmm` call with leading dimensions tied to the sizes.
    pub fn trmm(
        side: Side,
        uplo: Uplo,
        transa: Trans,
        diag: Diag,
        m: usize,
        n: usize,
        alpha: f64,
    ) -> Call {
        let order = match side {
            Side::Left => m,
            Side::Right => n,
        };
        Call::Trmm {
            side,
            uplo,
            transa,
            diag,
            m,
            n,
            alpha,
            lda: order.max(1),
            ldb: m.max(1),
        }
    }

    /// Builds a `dsyrk` call with leading dimensions tied to the sizes.
    pub fn syrk(uplo: Uplo, trans: Trans, n: usize, k: usize, alpha: f64, beta: f64) -> Call {
        Call::Syrk {
            uplo,
            trans,
            n,
            k,
            alpha,
            beta,
            lda: if matches!(trans, Trans::NoTrans) {
                n.max(1)
            } else {
                k.max(1)
            },
            ldc: n.max(1),
        }
    }

    /// Builds an unblocked triangular-inversion call.
    pub fn trtri_unb(uplo: Uplo, diag: Diag, n: usize) -> Call {
        Call::TrtriUnb {
            uplo,
            diag,
            n,
            lda: n.max(1),
        }
    }

    /// Builds an unblocked Sylvester-solve call.
    pub fn sylv_unb(m: usize, n: usize) -> Call {
        Call::SylvUnb {
            m,
            n,
            ldl: m.max(1),
            ldu: n.max(1),
            ldx: m.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routine_names_roundtrip() {
        for r in Routine::ALL {
            assert_eq!(Routine::from_name(r.name()), Some(r));
        }
        assert_eq!(Routine::from_name("dfoo"), None);
    }

    #[test]
    fn flag_indices_and_sizes() {
        let c = Call::trsm(
            Side::Right,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::Unit,
            512,
            128,
            0.37,
        );
        assert_eq!(c.routine(), Routine::Trsm);
        assert_eq!(c.flag_indices_fixed(), ([1, 0, 0, 1], 4));
        assert_eq!(c.flag_chars(), "RLNU");
        assert_eq!(c.sizes(), vec![512, 128]);
        assert_eq!(c.scalars(), vec![0.37]);
        // side=R so the triangular operand has order n=128
        assert_eq!(
            c.operand_dims_fixed(),
            ([(128, 128), (512, 128), (0, 0)], 2)
        );
    }

    #[test]
    fn fixed_accessors_match_allocating_ones() {
        let calls = [
            Call::gemm(Trans::Trans, Trans::NoTrans, 10, 20, 30, 1.0, 0.0),
            Call::trsm(
                Side::Right,
                Uplo::Lower,
                Trans::Trans,
                Diag::Unit,
                512,
                128,
                0.37,
            ),
            Call::trmm(
                Side::Left,
                Uplo::Upper,
                Trans::NoTrans,
                Diag::NonUnit,
                64,
                32,
                1.0,
            ),
            Call::syrk(Uplo::Upper, Trans::Trans, 40, 50, 1.0, 0.5),
            Call::trtri_unb(Uplo::Upper, Diag::Unit, 32),
            Call::sylv_unb(8, 16),
        ];
        for c in &calls {
            let (flags, flag_len) = c.flag_indices_fixed();
            assert_eq!(flag_len, c.routine().flag_count(), "flags of {c}");
            assert!(flags[flag_len..].iter().all(|&f| f == 0), "flags of {c}");
            let (sizes, size_len) = c.sizes_fixed();
            assert_eq!(size_len, c.routine().size_count(), "sizes of {c}");
            assert_eq!(sizes[..size_len].to_vec(), c.sizes(), "sizes of {c}");
            let (dims, dim_len) = c.operand_dims_fixed();
            assert!(dim_len <= dims.len());
            assert!(dims[dim_len..].iter().all(|&d| d == (0, 0)), "dims of {c}");
        }
        for (i, r) in Routine::ALL.into_iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }

    #[test]
    fn gemm_operand_dims_respect_transposition() {
        let c = Call::gemm(Trans::Trans, Trans::NoTrans, 10, 20, 30, 1.0, 0.0);
        assert_eq!(c.operand_dims_fixed(), ([(30, 10), (30, 20), (10, 20)], 3));
        assert_eq!(c.sizes(), vec![10, 20, 30]);
        assert_eq!(c.flag_indices_fixed(), ([1, 0, 0, 0], 2));
        let bytes = c.operand_bytes();
        assert_eq!(bytes, (300 + 600 + 200) * 8);
    }

    #[test]
    fn with_sizes_and_leading_dims() {
        let c = Call::gemm(Trans::NoTrans, Trans::NoTrans, 1, 2, 3, 1.0, 1.0);
        let c2 = c.with_sizes(&[100, 200, 300]).with_leading_dims(2500);
        assert_eq!(c2.sizes(), vec![100, 200, 300]);
        assert_eq!(c2.leading_dims(), vec![2500, 2500, 2500]);
        // original untouched
        assert_eq!(c.sizes(), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "with_sizes")]
    fn with_sizes_wrong_arity_panics() {
        let c = Call::trtri_unb(Uplo::Lower, Diag::NonUnit, 8);
        let _ = c.with_sizes(&[1, 2]);
    }

    #[test]
    fn parse_paper_example() {
        let c = Call::parse("dtrsm R L N U 512 128 0.37 256 512").unwrap();
        match c {
            Call::Trsm {
                side,
                uplo,
                transa,
                diag,
                m,
                n,
                alpha,
                lda,
                ldb,
            } => {
                assert_eq!(side, Side::Right);
                assert_eq!(uplo, Uplo::Lower);
                assert_eq!(transa, Trans::NoTrans);
                assert_eq!(diag, Diag::Unit);
                assert_eq!((m, n), (512, 128));
                assert_eq!(alpha, 0.37);
                assert_eq!((lda, ldb), (256, 512));
            }
            _ => panic!("expected Trsm"),
        }
    }

    #[test]
    fn parse_all_routines() {
        assert!(Call::parse("dgemm N T 8 16 24 1.0 0.0 2500 2500 2500").is_ok());
        assert!(Call::parse("dtrmm L U T N 64 32 1.0 2500 2500").is_ok());
        assert!(Call::parse("dsyrk L N 100 50 1.0 1.0 2500 2500").is_ok());
        assert!(Call::parse("dtrtri_unb L N 96 2500").is_ok());
        assert!(Call::parse("dsylv_unb 96 96 2500 2500 2500").is_ok());
    }

    #[test]
    fn parse_errors() {
        assert!(Call::parse("").is_err());
        assert!(Call::parse("dfoo 1 2 3").is_err());
        assert!(Call::parse("dgemm N T 8 16").is_err());
        assert!(Call::parse("dtrsm R L N U 512 128 0.37 256 512 extra").is_err());
        assert!(Call::parse("dtrsm X L N U 512 128 0.37 256 512").is_err());
        assert!(Call::parse("dgemm N T a 16 24 1.0 0.0 1 1 1").is_err());
    }

    #[test]
    fn display_contains_routine_and_args() {
        let c = Call::trsm(
            Side::Right,
            Uplo::Lower,
            Trans::NoTrans,
            Diag::Unit,
            512,
            128,
            0.37,
        );
        let s = c.to_string();
        assert!(s.starts_with("dtrsm("));
        assert!(s.contains("512"));
        assert!(s.contains("0.37"));
    }

    #[test]
    fn sylv_unb_has_no_flags() {
        let c = Call::sylv_unb(10, 20);
        assert_eq!(c.flag_indices_fixed(), ([0; Call::MAX_FLAGS], 0));
        assert_eq!(c.flag_chars(), "");
        assert_eq!(c.sizes(), vec![10, 20]);
        assert_eq!(c.operand_dims_fixed(), ([(10, 10), (20, 20), (10, 20)], 3));
    }
}
