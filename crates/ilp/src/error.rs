use std::error::Error;
use std::fmt;

/// Errors produced while building or solving a model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum IlpError {
    /// A constraint or objective referenced a variable that does not
    /// belong to this model.
    UnknownVariable {
        /// The out-of-range variable index.
        index: usize,
        /// The number of variables in the model.
        var_count: usize,
    },
    /// A coefficient, bound, or right-hand side was NaN or infinite where
    /// a finite value is required.
    NonFiniteValue {
        /// Human-readable description of where the value appeared.
        context: &'static str,
    },
    /// A variable was created with `lower > upper`.
    EmptyDomain {
        /// Lower bound.
        lower: f64,
        /// Upper bound.
        upper: f64,
    },
    /// Free (lower-unbounded) variables are not supported by this solver.
    ///
    /// Every variable must have a finite lower bound; shift or split
    /// variables in the model formulation instead.
    UnboundedBelow,
    /// The LP relaxation is unbounded, so no finite optimum exists.
    Unbounded,
    /// The simplex iteration limit was exceeded (numerical trouble).
    IterationLimit {
        /// The limit that was hit.
        limit: usize,
    },
    /// The solve's [`SolveOptions::time_limit`](crate::SolveOptions::time_limit)
    /// expired mid-LP. [`Model::solve`](crate::Model::solve) never
    /// returns it: the search reports its limit through
    /// [`SolveStatus`](crate::SolveStatus) (`Feasible` or `Unknown`)
    /// instead.
    Deadline,
}

impl fmt::Display for IlpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IlpError::UnknownVariable { index, var_count } => {
                write!(
                    f,
                    "variable index {index} out of range (model has {var_count})"
                )
            }
            IlpError::NonFiniteValue { context } => {
                write!(f, "non-finite value in {context}")
            }
            IlpError::EmptyDomain { lower, upper } => {
                write!(f, "variable domain [{lower}, {upper}] is empty")
            }
            IlpError::UnboundedBelow => {
                write!(
                    f,
                    "variables without a finite lower bound are not supported"
                )
            }
            IlpError::Unbounded => write!(f, "the linear relaxation is unbounded"),
            IlpError::IterationLimit { limit } => {
                write!(f, "simplex exceeded the iteration limit of {limit}")
            }
            IlpError::Deadline => write!(f, "solver deadline expired"),
        }
    }
}

impl Error for IlpError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty() {
        let errs = [
            IlpError::UnknownVariable {
                index: 3,
                var_count: 1,
            },
            IlpError::NonFiniteValue {
                context: "objective",
            },
            IlpError::EmptyDomain {
                lower: 2.0,
                upper: 1.0,
            },
            IlpError::UnboundedBelow,
            IlpError::Unbounded,
            IlpError::IterationLimit { limit: 10 },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<IlpError>();
    }
}
