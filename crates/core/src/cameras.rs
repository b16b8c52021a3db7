use crate::CoreError;
use eagleeye_harden::{FieldHash, ScenarioHasher};

/// An imaging payload characterized by its swath width and ground sample
/// distance — the fundamental trade-off at the heart of the paper
/// (Fig. 2 and Fig. 4 left): with a fixed sensor pixel count, a wider
/// swath means coarser pixels.
///
/// # Example
///
/// ```
/// use eagleeye_core::Camera;
///
/// let low = Camera::paper_low_res();
/// let high = Camera::paper_high_res();
/// assert_eq!(low.swath_m(), 100_000.0);
/// assert_eq!(high.gsd_m(), 3.0);
/// // Both cameras have ~the same pixel count; the swath/GSD ratio shows it.
/// assert!((low.pixels_across() - high.pixels_across()).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Camera {
    swath_m: f64,
    gsd_m: f64,
}

impl Camera {
    /// Creates a camera.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when either dimension is
    /// not strictly positive and finite.
    pub fn new(swath_m: f64, gsd_m: f64) -> Result<Self, CoreError> {
        if !(swath_m > 0.0) || !swath_m.is_finite() {
            return Err(CoreError::InvalidParameter {
                name: "swath_m",
                value: swath_m,
            });
        }
        if !(gsd_m > 0.0) || !gsd_m.is_finite() {
            return Err(CoreError::InvalidParameter {
                name: "gsd_m",
                value: gsd_m,
            });
        }
        Ok(Camera { swath_m, gsd_m })
    }

    /// The paper's leader camera: 100 km swath at 30 m GSD (§5.3).
    pub fn paper_low_res() -> Self {
        Camera {
            swath_m: 100_000.0,
            gsd_m: 30.0,
        }
    }

    /// The paper's follower camera: 10 km swath at 3 m GSD (§5.3).
    pub fn paper_high_res() -> Self {
        Camera {
            swath_m: 10_000.0,
            gsd_m: 3.0,
        }
    }

    /// Swath width in meters.
    #[inline]
    pub fn swath_m(&self) -> f64 {
        self.swath_m
    }

    /// Ground sample distance in meters per pixel.
    #[inline]
    pub fn gsd_m(&self) -> f64 {
        self.gsd_m
    }

    /// Sensor pixels across the swath.
    #[inline]
    pub fn pixels_across(&self) -> f64 {
        self.swath_m / self.gsd_m
    }
}

impl FieldHash for Camera {
    fn hash_fields(&self, h: &mut ScenarioHasher) {
        let Camera { swath_m, gsd_m } = self;
        h.f64(*swath_m).f64(*gsd_m);
    }
}

/// Real cubesat cameras for the Fig. 4 (left) swath-vs-GSD scatter:
/// `(name, swath_km, gsd_m)`. Values are approximate public
/// specifications of the Planet, Dragonfly, and Simera Sense product
/// lines the paper cites.
pub const REAL_CUBESAT_CAMERAS: &[(&str, f64, f64)] = &[
    ("Planet Dove PS2", 24.6, 3.7),
    ("Planet SuperDove PSB.SD", 32.5, 3.7),
    ("Planet SkySat", 5.9, 0.72),
    ("Dragonfly Gecko", 60.0, 39.0),
    ("Dragonfly Chameleon", 25.0, 4.8),
    ("Simera MultiScape100", 19.4, 4.75),
    ("Simera MultiScape200", 9.7, 2.4),
    ("Simera TriScape100", 19.4, 4.75),
    ("Simera TriScape200", 9.7, 2.4),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_cameras() {
        assert!(Camera::new(0.0, 3.0).is_err());
        assert!(Camera::new(1.0, -1.0).is_err());
        assert!(Camera::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn paper_cameras_have_ten_x_ratio() {
        let low = Camera::paper_low_res();
        let high = Camera::paper_high_res();
        assert!((low.swath_m() / high.swath_m() - 10.0).abs() < 1e-9);
        assert!((low.gsd_m() / high.gsd_m() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn real_cameras_show_the_tradeoff() {
        // Wider swath correlates with coarser GSD across the table:
        // check the extremes rather than strict monotonicity.
        let widest = REAL_CUBESAT_CAMERAS
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        let sharpest = REAL_CUBESAT_CAMERAS
            .iter()
            .min_by(|a, b| a.2.partial_cmp(&b.2).unwrap())
            .unwrap();
        assert!(widest.2 > sharpest.2 * 10.0);
        assert!(widest.1 > sharpest.1 * 5.0);
    }

    #[test]
    fn table_has_nine_cameras_like_fig4() {
        assert_eq!(REAL_CUBESAT_CAMERAS.len(), 9);
    }
}
