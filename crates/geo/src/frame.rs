use crate::{greatcircle, GeoError, GeodeticPoint};

/// A local tangent frame anchored at a ground point with a heading.
///
/// The frame's **y axis** points along the heading ("along-track") and its
/// **x axis** points 90° clockwise of the heading ("cross-track", to the
/// right of travel). Points are projected with an azimuthal-equidistant
/// projection, which preserves distances from the origin and is accurate
/// to a fraction of a percent over the few-hundred-kilometer scales a
/// satellite frame spans.
///
/// This is the flat-Earth plane in which the paper computes actuation
/// angles (Eq. 1), time windows (Eq. 2), and target clustering (§4.1).
///
/// # Example
///
/// ```
/// use eagleeye_geo::{GeodeticPoint, LocalFrame};
///
/// let origin = GeodeticPoint::from_degrees(0.0, 0.0, 0.0)?;
/// let frame = LocalFrame::new(origin, 0.0); // heading north
/// let north = GeodeticPoint::from_degrees(0.5, 0.0, 0.0)?;
/// let (x, y) = frame.project(&north);
/// assert!(x.abs() < 1.0);      // on-track
/// assert!(y > 50_000.0);       // ~55 km ahead
/// # Ok::<(), eagleeye_geo::GeoError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalFrame {
    origin: GeodeticPoint,
    heading_rad: f64,
}

impl LocalFrame {
    /// Creates a frame at `origin` with `heading_rad` clockwise from north.
    pub fn new(origin: GeodeticPoint, heading_rad: f64) -> Self {
        LocalFrame {
            origin,
            heading_rad: crate::wrap_two_pi(heading_rad),
        }
    }

    /// The anchor point of the frame.
    #[inline]
    pub fn origin(&self) -> GeodeticPoint {
        self.origin
    }

    /// The frame heading, clockwise from north, in `[0, 2π)`.
    #[inline]
    pub fn heading_rad(&self) -> f64 {
        self.heading_rad
    }

    /// Projects a geodetic point into the frame, returning
    /// `(cross_track_m, along_track_m)`.
    pub fn project(&self, p: &GeodeticPoint) -> (f64, f64) {
        self.project_at(p, greatcircle::distance_m(&self.origin, p))
    }

    /// [`project`](Self::project) for a point whose great-circle
    /// distance from the origin, `greatcircle::distance_m(&origin, p)`,
    /// the caller already computed (a membership query does): the same
    /// result, bit for bit, without recomputing it.
    pub fn project_at(&self, p: &GeodeticPoint, d: f64) -> (f64, f64) {
        if d < 1e-9 {
            return (0.0, 0.0);
        }
        let bearing = greatcircle::initial_bearing_rad(&self.origin, p);
        let rel = bearing - self.heading_rad;
        (d * rel.sin(), d * rel.cos())
    }

    /// Inverse of [`LocalFrame::project`]: maps frame coordinates
    /// `(cross_track_m, along_track_m)` back to a geodetic point at the
    /// origin's altitude.
    ///
    /// # Errors
    ///
    /// Propagates [`GeoError`] for non-finite inputs.
    pub fn unproject(&self, x_m: f64, y_m: f64) -> Result<GeodeticPoint, GeoError> {
        let d = (x_m * x_m + y_m * y_m).sqrt();
        if d < 1e-9 {
            return Ok(self.origin);
        }
        let rel = x_m.atan2(y_m);
        greatcircle::destination(&self.origin, self.heading_rad + rel, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(lat: f64, lon: f64) -> GeodeticPoint {
        GeodeticPoint::from_degrees(lat, lon, 0.0).unwrap()
    }

    #[test]
    fn origin_projects_to_zero() {
        let f = LocalFrame::new(pt(10.0, 20.0), 1.2);
        assert_eq!(f.project(&pt(10.0, 20.0)), (0.0, 0.0));
    }

    #[test]
    fn along_track_is_positive_ahead() {
        let f = LocalFrame::new(pt(0.0, 0.0), 0.0);
        let (x, y) = f.project(&pt(1.0, 0.0));
        assert!(x.abs() < 1e-6);
        assert!(y > 100_000.0);
    }

    #[test]
    fn cross_track_is_positive_right() {
        let f = LocalFrame::new(pt(0.0, 0.0), 0.0);
        let (x, _) = f.project(&pt(0.0, 1.0));
        assert!(x > 100_000.0);
    }

    #[test]
    fn rotated_heading_swaps_axes() {
        // Heading east: a point to the east is now along-track.
        let f = LocalFrame::new(pt(0.0, 0.0), std::f64::consts::FRAC_PI_2);
        let (x, y) = f.project(&pt(0.0, 1.0));
        assert!(x.abs() < 1.0);
        assert!(y > 100_000.0);
    }

    #[test]
    fn project_unproject_round_trip() {
        let f = LocalFrame::new(pt(45.0, -93.0), 0.7);
        for &(x, y) in &[(0.0, 0.0), (50_000.0, 10_000.0), (-30_000.0, 200_000.0)] {
            let p = f.unproject(x, y).unwrap();
            let (x2, y2) = f.project(&p);
            assert!((x - x2).abs() < 1.0, "x: {x} vs {x2}");
            assert!((y - y2).abs() < 1.0, "y: {y} vs {y2}");
        }
    }

    #[test]
    fn projection_distance_is_preserved() {
        // Azimuthal equidistant: |projected| equals great-circle distance.
        let f = LocalFrame::new(pt(30.0, 50.0), 2.0);
        let p = pt(31.0, 51.0);
        let (x, y) = f.project(&p);
        let d = greatcircle::distance_m(&f.origin(), &p);
        assert!(((x * x + y * y).sqrt() - d).abs() < 1e-6);
    }
}
