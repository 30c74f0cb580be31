//! BLAS flag arguments.
//!
//! The paper classifies BLAS arguments into flags, sizes, scalars, data and
//! leading dimensions (Section III-A).  Flags take one of two values each; the
//! Modeler builds one submodel per flag combination.

use std::fmt;

/// `side` argument: from which side a triangular matrix is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Side {
    /// Apply from the left: `op(A) * B`.
    Left,
    /// Apply from the right: `B * op(A)`.
    Right,
}

/// `uplo` argument: which triangle of a matrix is referenced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Uplo {
    /// The lower triangle.
    Lower,
    /// The upper triangle.
    Upper,
}

/// `trans` argument: whether a matrix or its transpose is used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Trans {
    /// Use the matrix as stored.
    NoTrans,
    /// Use the transpose of the matrix.
    Trans,
}

/// `diag` argument: whether a triangular matrix has an implicit unit diagonal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Diag {
    /// The diagonal is stored explicitly.
    NonUnit,
    /// The diagonal is implicitly all ones.
    Unit,
}

macro_rules! impl_flag {
    ($ty:ident, $a:ident => $ca:expr, $b:ident => $cb:expr) => {
        impl $ty {
            /// Both possible values of this flag, in BLAS order.
            pub const VALUES: [$ty; 2] = [$ty::$a, $ty::$b];

            /// The single-character BLAS spelling of the flag value.
            pub fn as_char(&self) -> char {
                match self {
                    $ty::$a => $ca,
                    $ty::$b => $cb,
                }
            }

            /// Parses the flag from its single-character BLAS spelling
            /// (case-insensitive).
            pub fn from_char(c: char) -> Option<$ty> {
                match c.to_ascii_uppercase() {
                    x if x == $ca => Some($ty::$a),
                    x if x == $cb => Some($ty::$b),
                    _ => None,
                }
            }

            /// 0/1 encoding used as part of submodel keys.
            pub fn as_index(&self) -> usize {
                match self {
                    $ty::$a => 0,
                    $ty::$b => 1,
                }
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.as_char())
            }
        }
    };
}

impl_flag!(Side, Left => 'L', Right => 'R');
impl_flag!(Uplo, Lower => 'L', Upper => 'U');
impl_flag!(Trans, NoTrans => 'N', Trans => 'T');
impl_flag!(Diag, NonUnit => 'N', Unit => 'U');

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn char_roundtrip() {
        for s in Side::VALUES {
            assert_eq!(Side::from_char(s.as_char()), Some(s));
        }
        for u in Uplo::VALUES {
            assert_eq!(Uplo::from_char(u.as_char()), Some(u));
        }
        for t in Trans::VALUES {
            assert_eq!(Trans::from_char(t.as_char()), Some(t));
        }
        for d in Diag::VALUES {
            assert_eq!(Diag::from_char(d.as_char()), Some(d));
        }
    }

    #[test]
    fn index_roundtrip() {
        for i in 0..2 {
            assert_eq!(Side::VALUES[i].as_index(), i);
            assert_eq!(Uplo::VALUES[i].as_index(), i);
            assert_eq!(Trans::VALUES[i].as_index(), i);
            assert_eq!(Diag::VALUES[i].as_index(), i);
        }
        for s in Side::VALUES {
            assert_eq!(Side::VALUES[s.as_index()], s);
        }
        for u in Uplo::VALUES {
            assert_eq!(Uplo::VALUES[u.as_index()], u);
        }
        for t in Trans::VALUES {
            assert_eq!(Trans::VALUES[t.as_index()], t);
        }
        for d in Diag::VALUES {
            assert_eq!(Diag::VALUES[d.as_index()], d);
        }
    }

    #[test]
    fn lowercase_accepted() {
        assert_eq!(Side::from_char('r'), Some(Side::Right));
        assert_eq!(Uplo::from_char('u'), Some(Uplo::Upper));
        assert_eq!(Trans::from_char('t'), Some(Trans::Trans));
        assert_eq!(Diag::from_char('u'), Some(Diag::Unit));
        assert_eq!(Side::from_char('x'), None);
    }

    #[test]
    fn display_matches_blas_spelling() {
        assert_eq!(Side::Left.to_string(), "L");
        assert_eq!(Side::Right.to_string(), "R");
        assert_eq!(Uplo::Upper.to_string(), "U");
        assert_eq!(Trans::NoTrans.to_string(), "N");
        assert_eq!(Diag::Unit.to_string(), "U");
    }
}
