//! Orbital mechanics substrate: Keplerian propagation with J2 secular
//! perturbations, ground tracks, and constellation layout.
//!
//! The EagleEye paper models its constellation with the `cote` orbital
//! edge computing simulator, initialized from Celestrak two-line element
//! sets, flying a sun-synchronous polar orbit (475 km altitude, 97.2°
//! inclination, ~94 minute period). This crate builds that orbit from
//! its Keplerian elements instead:
//!
//! * [`KeplerianElements`] — classical orbital elements and conversion to
//!   Earth-centered inertial state vectors (solving Kepler's equation).
//! * [`J2Propagator`] — secular J2 propagation (nodal regression, apsidal
//!   precession, mean-anomaly drift). For a 475 km orbit over 24 hours
//!   the omitted drag/short-period terms displace the ground track by far
//!   less than one swath width, which is the tolerance that matters for
//!   coverage simulation (see DESIGN.md substitution notes).
//! * [`GroundTrack`] — ECI→ECEF rotation by Greenwich sidereal angle,
//!   subsatellite points, ground speed/heading, and a cylindrical-shadow
//!   sunlight model for the energy simulator.
//! * [`ConstellationLayout`] — leader-follower groups evenly phased in a
//!   single orbital plane, with followers trailing the leader by a fixed
//!   ground distance (100 km in the paper, §5.3).
//! * [`EpochGrid`] — batch propagation over an evaluation horizon's
//!   frame epochs, memoizing the per-epoch sidereal trig that is shared
//!   by every satellite (bit-identical to direct
//!   [`GroundTrack::state_at`] calls).
//!
//! # Example
//!
//! ```
//! use eagleeye_orbit::{J2Propagator, GroundTrack};
//!
//! // The paper's orbit: 475 km, 97.2 degrees, polar sun-synchronous.
//! let prop = J2Propagator::circular(475_000.0, 97.2_f64.to_radians(), 0.0, 0.0)?;
//! assert!((prop.period_s() - 94.0 * 60.0).abs() < 60.0);
//!
//! let track = GroundTrack::new(prop);
//! let s = track.state_at(0.0)?;
//! assert!(s.ground_speed_m_s > 6_000.0 && s.ground_speed_m_s < 8_500.0);
//! # Ok::<(), eagleeye_orbit::OrbitError>(())
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)
)]

pub mod access;
mod cache;
mod constellation;
mod error;
mod groundtrack;
mod kepler;
mod propagator;

pub use cache::{frame_epochs, EpochGrid};
pub use constellation::{ConstellationLayout, SatelliteRole, SatelliteSpec};
pub use error::OrbitError;
pub use groundtrack::{GroundTrack, TrackState};
pub use kepler::{EciState, KeplerianElements};
pub use propagator::J2Propagator;
