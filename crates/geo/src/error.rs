use std::error::Error;
use std::fmt;

/// Errors produced by geometric constructors and conversions.
///
/// All validation in this crate is dynamic: constructors such as
/// [`crate::GeodeticPoint::new`] check their arguments and return
/// `Err(GeoError::...)` rather than silently producing a point off the
/// globe.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GeoError {
    /// A latitude outside `[-π/2, π/2]` radians (±90°).
    LatitudeOutOfRange {
        /// Offending latitude in radians.
        lat_rad: f64,
    },
    /// A longitude that is not finite.
    LongitudeNotFinite {
        /// Offending longitude in radians.
        lon_rad: f64,
    },
    /// An altitude below the center of the Earth or not finite.
    AltitudeInvalid {
        /// Offending altitude in meters.
        alt_m: f64,
    },
    /// A rectangle with non-positive width or height.
    DegenerateRect {
        /// Requested width in meters.
        width_m: f64,
        /// Requested height in meters.
        height_m: f64,
    },
    /// A grid index cell size that is not strictly positive.
    InvalidCellSize {
        /// Offending cell size in degrees.
        cell_deg: f64,
    },
    /// A grid index cell size so small that its cell table would hold
    /// more than [`crate::GridIndex::MAX_CELLS`] cells.
    CellTableTooLarge {
        /// Offending cell size in degrees.
        cell_deg: f64,
    },
    /// A grid index over more points than its `u32` handles can name.
    TooManyPoints {
        /// Index of the first point past the last `u32` handle.
        index: usize,
    },
}

impl fmt::Display for GeoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeoError::LatitudeOutOfRange { lat_rad } => {
                write!(f, "latitude {lat_rad} rad is outside [-pi/2, pi/2]")
            }
            GeoError::LongitudeNotFinite { lon_rad } => {
                write!(f, "longitude {lon_rad} rad is not finite")
            }
            GeoError::AltitudeInvalid { alt_m } => {
                write!(f, "altitude {alt_m} m is invalid")
            }
            GeoError::DegenerateRect { width_m, height_m } => {
                write!(f, "rectangle {width_m} m x {height_m} m is degenerate")
            }
            GeoError::InvalidCellSize { cell_deg } => {
                write!(f, "grid cell size {cell_deg} deg must be positive")
            }
            GeoError::CellTableTooLarge { cell_deg } => write!(
                f,
                "grid cell size {cell_deg} deg needs more than {} cells",
                crate::GridIndex::MAX_CELLS
            ),
            GeoError::TooManyPoints { index } => write!(
                f,
                "grid point {index} is past the last u32 handle ({})",
                u32::MAX - 1
            ),
        }
    }
}

impl Error for GeoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_for_all_variants() {
        let variants = [
            GeoError::LatitudeOutOfRange { lat_rad: 4.0 },
            GeoError::LongitudeNotFinite { lon_rad: f64::NAN },
            GeoError::AltitudeInvalid {
                alt_m: f64::INFINITY,
            },
            GeoError::DegenerateRect {
                width_m: 0.0,
                height_m: 1.0,
            },
            GeoError::InvalidCellSize { cell_deg: -1.0 },
            GeoError::CellTableTooLarge { cell_deg: 1e-3 },
            GeoError::TooManyPoints {
                index: u32::MAX as usize,
            },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GeoError>();
    }
}
