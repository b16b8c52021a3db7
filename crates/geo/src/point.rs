use crate::earth;
use crate::{GeoError, Vec3};
use std::fmt;

/// A point in geodetic coordinates: latitude, longitude, altitude.
///
/// Latitude and longitude are stored in radians; altitude is meters above
/// the spherical Earth. Construction validates ranges, so every
/// `GeodeticPoint` in the program is a real location.
///
/// # Example
///
/// ```
/// use eagleeye_geo::GeodeticPoint;
///
/// let p = GeodeticPoint::from_degrees(45.0, -120.0, 475_000.0)?;
/// assert!((p.lat_deg() - 45.0).abs() < 1e-12);
/// # Ok::<(), eagleeye_geo::GeoError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeodeticPoint {
    lat_rad: f64,
    lon_rad: f64,
    alt_m: f64,
}

impl GeodeticPoint {
    /// Creates a point from radians and meters.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::LatitudeOutOfRange`] when `lat_rad` is outside
    /// `[-π/2, π/2]`, [`GeoError::LongitudeNotFinite`] for a non-finite
    /// longitude, and [`GeoError::AltitudeInvalid`] for a non-finite
    /// altitude or one below the Earth's center.
    pub fn new(lat_rad: f64, lon_rad: f64, alt_m: f64) -> Result<Self, GeoError> {
        if !lat_rad.is_finite() || lat_rad.abs() > std::f64::consts::FRAC_PI_2 + 1e-12 {
            return Err(GeoError::LatitudeOutOfRange { lat_rad });
        }
        if !lon_rad.is_finite() {
            return Err(GeoError::LongitudeNotFinite { lon_rad });
        }
        if !alt_m.is_finite() || alt_m < -earth::MEAN_RADIUS_M {
            return Err(GeoError::AltitudeInvalid { alt_m });
        }
        Ok(GeodeticPoint {
            lat_rad: lat_rad.clamp(-std::f64::consts::FRAC_PI_2, std::f64::consts::FRAC_PI_2),
            lon_rad: crate::wrap_pi(lon_rad),
            alt_m,
        })
    }

    /// Creates a point from degrees and meters.
    ///
    /// # Errors
    ///
    /// Same as [`GeodeticPoint::new`].
    pub fn from_degrees(lat_deg: f64, lon_deg: f64, alt_m: f64) -> Result<Self, GeoError> {
        Self::new(lat_deg.to_radians(), lon_deg.to_radians(), alt_m)
    }

    /// Latitude in radians, in `[-π/2, π/2]`.
    #[inline]
    pub fn lat_rad(&self) -> f64 {
        self.lat_rad
    }

    /// Longitude in radians, normalized to `(-π, π]`.
    #[inline]
    pub fn lon_rad(&self) -> f64 {
        self.lon_rad
    }

    /// Altitude in meters above the reference surface.
    #[inline]
    pub fn alt_m(&self) -> f64 {
        self.alt_m
    }

    /// Latitude in degrees.
    #[inline]
    pub fn lat_deg(&self) -> f64 {
        self.lat_rad.to_degrees()
    }

    /// Longitude in degrees.
    #[inline]
    pub fn lon_deg(&self) -> f64 {
        self.lon_rad.to_degrees()
    }

    /// Returns the same horizontal location at a different altitude.
    #[inline]
    pub fn with_altitude(&self, alt_m: f64) -> Result<Self, GeoError> {
        Self::new(self.lat_rad, self.lon_rad, alt_m)
    }

    /// Converts to ECEF Cartesian coordinates on a spherical Earth of
    /// radius [`earth::MEAN_RADIUS_M`].
    pub fn to_ecef_spherical(&self) -> Ecef {
        let r = earth::MEAN_RADIUS_M + self.alt_m;
        let (slat, clat) = self.lat_rad.sin_cos();
        let (slon, clon) = self.lon_rad.sin_cos();
        Ecef(Vec3::new(r * clat * clon, r * clat * slon, r * slat))
    }
}

impl fmt::Display for GeodeticPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "({:.5}°, {:.5}°, {:.1} m)",
            self.lat_deg(),
            self.lon_deg(),
            self.alt_m
        )
    }
}

/// An Earth-centered, Earth-fixed Cartesian position in meters.
///
/// `Ecef` is a newtype over [`Vec3`]: the wrapper records the frame so that
/// ECEF positions cannot be accidentally mixed with inertial (ECI)
/// positions or pointing directions.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Ecef(pub Vec3);

impl Ecef {
    /// Creates an ECEF position from Cartesian components in meters.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Ecef(Vec3::new(x, y, z))
    }

    /// The underlying Cartesian vector.
    #[inline]
    pub fn as_vec3(&self) -> Vec3 {
        self.0
    }

    /// Geocentric distance from the Earth's center in meters.
    #[inline]
    pub fn radius_m(&self) -> f64 {
        self.0.norm()
    }

    /// Converts to geodetic coordinates on a spherical Earth.
    ///
    /// # Errors
    ///
    /// Returns an error for the degenerate position at the Earth's center.
    pub fn to_geodetic_spherical(&self) -> Result<GeodeticPoint, GeoError> {
        let r = self.0.norm();
        if r < 1e-9 {
            return Err(GeoError::AltitudeInvalid {
                alt_m: -earth::MEAN_RADIUS_M,
            });
        }
        let lat = (self.0.z / r).clamp(-1.0, 1.0).asin();
        let lon = self.0.y.atan2(self.0.x);
        GeodeticPoint::new(lat, lon, r - earth::MEAN_RADIUS_M)
    }
}

impl From<Vec3> for Ecef {
    fn from(v: Vec3) -> Self {
        Ecef(v)
    }
}

impl fmt::Display for Ecef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ECEF{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_out_of_range_latitude() {
        assert!(GeodeticPoint::from_degrees(91.0, 0.0, 0.0).is_err());
        assert!(GeodeticPoint::from_degrees(-91.0, 0.0, 0.0).is_err());
    }

    #[test]
    fn rejects_non_finite_inputs() {
        assert!(GeodeticPoint::new(f64::NAN, 0.0, 0.0).is_err());
        assert!(GeodeticPoint::new(0.0, f64::INFINITY, 0.0).is_err());
        assert!(GeodeticPoint::new(0.0, 0.0, f64::NAN).is_err());
    }

    #[test]
    fn longitude_is_normalized() {
        let p = GeodeticPoint::from_degrees(0.0, 270.0, 0.0).unwrap();
        assert!((p.lon_deg() + 90.0).abs() < 1e-9);
    }

    #[test]
    fn spherical_round_trip() {
        let p = GeodeticPoint::from_degrees(37.5, -122.25, 475_000.0).unwrap();
        let q = p.to_ecef_spherical().to_geodetic_spherical().unwrap();
        assert!((p.lat_rad() - q.lat_rad()).abs() < 1e-12);
        assert!((p.lon_rad() - q.lon_rad()).abs() < 1e-12);
        assert!((p.alt_m() - q.alt_m()).abs() < 1e-6);
    }

    #[test]
    fn center_of_earth_is_an_error() {
        assert!(Ecef::new(0.0, 0.0, 0.0).to_geodetic_spherical().is_err());
    }

    #[test]
    fn display_formats() {
        let p = GeodeticPoint::from_degrees(1.0, 2.0, 3.0).unwrap();
        assert!(p.to_string().contains("°"));
        assert!(Ecef::new(1.0, 2.0, 3.0).to_string().starts_with("ECEF"));
    }
}
