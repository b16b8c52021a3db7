//! Physical constants for the Earth model used throughout the workspace.
//!
//! The Earth is a sphere of radius [`MEAN_RADIUS_M`]: the paper's
//! geometric derivations (off-nadir angle, swath width, actuation time)
//! all use a locally flat / spherical model, and so does the coverage
//! simulator. The gravity model adds the J2 zonal harmonic, whose
//! reference radius is the WGS-84 equatorial radius [`WGS84_A_M`].

/// Mean Earth radius in meters (IUGG mean radius R1).
pub const MEAN_RADIUS_M: f64 = 6_371_008.8;

/// WGS-84 semi-major axis (equatorial radius) in meters.
pub const WGS84_A_M: f64 = 6_378_137.0;

/// Standard gravitational parameter of the Earth, m³/s².
pub const MU_M3_S2: f64 = 3.986_004_418e14;

/// Second zonal harmonic of the Earth's gravity field (J2).
pub const J2: f64 = 1.082_626_68e-3;

/// Earth's rotation rate in radians per second (sidereal).
pub const OMEGA_EARTH_RAD_S: f64 = 7.292_115_146_706_979e-5;
