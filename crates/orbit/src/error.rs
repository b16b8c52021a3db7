use std::error::Error;
use std::fmt;

/// Errors produced by orbital-element construction and propagation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OrbitError {
    /// An orbital element was outside its valid domain.
    InvalidElement {
        /// Name of the offending element.
        name: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// Kepler's equation failed to converge (pathological eccentricity).
    KeplerDivergence {
        /// Mean anomaly requested, radians.
        mean_anomaly_rad: f64,
        /// Eccentricity of the orbit.
        eccentricity: f64,
    },
    /// A geodetic conversion failed downstream.
    Geo(eagleeye_geo::GeoError),
}

impl fmt::Display for OrbitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrbitError::InvalidElement { name, value } => {
                write!(f, "orbital element {name} = {value} is out of range")
            }
            OrbitError::KeplerDivergence {
                mean_anomaly_rad,
                eccentricity,
            } => {
                write!(
                    f,
                    "Kepler iteration diverged (M = {mean_anomaly_rad} rad, e = {eccentricity})"
                )
            }
            OrbitError::Geo(e) => write!(f, "geodetic conversion failed: {e}"),
        }
    }
}

impl Error for OrbitError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            OrbitError::Geo(e) => Some(e),
            _ => None,
        }
    }
}

impl From<eagleeye_geo::GeoError> for OrbitError {
    fn from(e: eagleeye_geo::GeoError) -> Self {
        OrbitError::Geo(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let errs = [
            OrbitError::InvalidElement {
                name: "ecc",
                value: 2.0,
            },
            OrbitError::KeplerDivergence {
                mean_anomaly_rad: 1.0,
                eccentricity: 0.99,
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
