//! Property-based tests for the geometry substrate, on the
//! `eagleeye-check` harness (see that crate's docs for seed replay via
//! `EAGLEEYE_CHECK_SEED` and case scaling via `EAGLEEYE_CHECK_CASES`).
//!
//! Property bodies are plain functions so the pinned regression cases
//! at the bottom (former `.proptest-regressions` entries) exercise the
//! exact same code as the random cases.

use eagleeye_check::{
    check_cases, f64_range, prop_assert, prop_assert_eq, vec_of, Gen, PropResult,
};
use eagleeye_geo::{greatcircle, GeodeticPoint, GridIndex, LocalFrame};

const CASES: u32 = 128;

fn point_gen() -> impl Gen<Value = GeodeticPoint> {
    (f64_range(-89.0, 89.0), f64_range(-179.9, 179.9))
        .map(|(lat, lon)| GeodeticPoint::from_degrees(lat, lon, 0.0).expect("valid"))
}

/// Spherical geodetic <-> ECEF round trip.
#[test]
fn spherical_round_trip() {
    check_cases(
        CASES,
        "spherical_round_trip",
        (
            f64_range(-90.0, 90.0),
            f64_range(-180.0, 180.0),
            f64_range(0.0, 1e6),
        ),
        |&(lat, lon, alt)| {
            let p = GeodeticPoint::from_degrees(lat, lon, alt).expect("valid");
            let q = p
                .to_ecef_spherical()
                .to_geodetic_spherical()
                .expect("convertible");
            prop_assert!((p.lat_deg() - q.lat_deg()).abs() < 1e-7);
            prop_assert!((p.alt_m() - q.alt_m()).abs() < 1e-3);
            Ok(())
        },
    );
}

/// Great-circle distance is symmetric and satisfies the triangle
/// inequality.
#[test]
fn distance_metric_properties() {
    check_cases(
        CASES,
        "distance_metric_properties",
        (point_gen(), point_gen(), point_gen()),
        |(a, b, c)| {
            let ab = greatcircle::distance_m(a, b);
            let ba = greatcircle::distance_m(b, a);
            prop_assert!((ab - ba).abs() < 1e-6);
            let ac = greatcircle::distance_m(a, c);
            let cb = greatcircle::distance_m(c, b);
            prop_assert!(ab <= ac + cb + 1e-6);
            prop_assert!(ab >= 0.0);
            Ok(())
        },
    );
}

/// Traveling `d` along any bearing lands exactly `d` away.
#[test]
fn destination_distance_is_exact() {
    check_cases(
        CASES,
        "destination_distance_is_exact",
        (
            point_gen(),
            f64_range(0.0, std::f64::consts::TAU),
            f64_range(0.0, 5_000_000.0),
        ),
        |(start, bearing, dist)| {
            let end = greatcircle::destination(start, *bearing, *dist).expect("valid");
            let measured = greatcircle::distance_m(start, &end);
            prop_assert!((measured - dist).abs() < 1.0, "{measured} vs {dist}");
            Ok(())
        },
    );
}

/// Inverse of [`LocalFrame::project`] for the frame at `origin` with
/// heading `heading_rad`: maps frame coordinates `(cross_track_m,
/// along_track_m)` back to a geodetic point at the origin's altitude.
fn unproject(origin: &GeodeticPoint, heading_rad: f64, x_m: f64, y_m: f64) -> GeodeticPoint {
    let d = (x_m * x_m + y_m * y_m).sqrt();
    if d < 1e-9 {
        return *origin;
    }
    let rel = x_m.atan2(y_m);
    greatcircle::destination(origin, heading_rad + rel, d).expect("valid")
}

/// Local-frame projection round-trips.
#[test]
fn frame_project_unproject() {
    check_cases(
        CASES,
        "frame_project_unproject",
        (
            point_gen(),
            f64_range(0.0, std::f64::consts::TAU),
            f64_range(-200_000.0, 200_000.0),
            f64_range(-200_000.0, 200_000.0),
        ),
        |&(origin, heading, x, y)| {
            let frame = LocalFrame::new(origin, heading);
            let p = unproject(&origin, heading, x, y);
            let (x2, y2) = frame.project(&p);
            prop_assert!((x - x2).abs() < 1.0, "x {x} vs {x2}");
            prop_assert!((y - y2).abs() < 1.0, "y {y} vs {y2}");
            Ok(())
        },
    );
}

fn check_grid_index_matches_brute_force(
    pts: &[(f64, f64)],
    center: &GeodeticPoint,
    radius_km: f64,
) -> PropResult {
    let points: Vec<GeodeticPoint> = pts
        .iter()
        .map(|&(lat, lon)| GeodeticPoint::from_degrees(lat, lon, 0.0).expect("valid"))
        .collect();
    let idx = GridIndex::build(2.0, points.iter().map(|p| (p.lat_deg(), p.lon_deg())))
        .expect("valid index");
    let radius = radius_km * 1000.0;
    let got = idx.query_radius(center, radius, |i| points[i]);
    let want: Vec<usize> = (0..points.len())
        .filter(|&i| greatcircle::distance_m(center, &points[i]) <= radius)
        .collect();
    prop_assert_eq!(got, want);
    Ok(())
}

/// Grid-index radius queries agree with brute force.
#[test]
fn grid_index_matches_brute_force() {
    check_cases(
        CASES,
        "grid_index_matches_brute_force",
        (
            vec_of((f64_range(-80.0, 80.0), f64_range(-180.0, 180.0)), 1, 80),
            point_gen(),
            f64_range(10.0, 3_000.0),
        ),
        |(pts, center, radius_km)| check_grid_index_matches_brute_force(pts, center, *radius_km),
    );
}

/// Pinned regression case from the retired `.proptest-regressions`
/// file: a single point near the antimeridian whose grid cell once
/// disagreed with brute force at a ~2200 km radius.
#[test]
fn regression_grid_index_antimeridian_cell() {
    let center = GeodeticPoint::from_degrees(-1.342_895_230_715_296_2_f64.to_degrees(), 0.0, 0.0)
        .expect("valid");
    check_grid_index_matches_brute_force(
        &[(-79.733_503_332_607_38, 94.866_469_682_289_2)],
        &center,
        2_198.127_453_908_176_4,
    )
    .expect("regression case must pass");
}

/// `wrap_two_pi` lands in `[0, 2π)` and `wrap_pi` in `(-π, π]` for tiny
/// negatives (which once wrapped to exactly `2π`), `±0.0`, multiples of
/// `±2π` and their neighbours, and random angles; both are idempotent
/// on their own outputs, bit for bit. `wrap_pi`'s idempotence is what
/// lets a compiled track anchor its frame at the ground point without
/// the `with_altitude` round trip the full track state takes.
#[test]
fn wrap_stays_in_range_and_is_idempotent() {
    use eagleeye_check::usize_range;
    use eagleeye_geo::{wrap_pi, wrap_two_pi};
    use std::f64::consts::{PI, TAU};
    check_cases(
        512,
        "wrap_stays_in_range_and_is_idempotent",
        (
            usize_range(0, 4),
            f64_range(-320.0, -15.36),
            f64_range(-1_000.0, 1_000.0),
            usize_range(0, 3),
        ),
        |&(kind, exponent, angle, nudge)| {
            let x = match kind {
                // Tiny negatives: 10^exponent below zero, down to
                // subnormals.
                0 => -(10f64.powf(exponent)),
                1 => {
                    if nudge == 0 {
                        -0.0
                    } else {
                        0.0
                    }
                }
                // A multiple of ±2π, or its neighbour on either side.
                2 => {
                    let k = (angle / 10.0).round() * TAU;
                    match nudge {
                        0 => k,
                        1 => f64::from_bits(k.to_bits() + 1),
                        _ => f64::from_bits(k.to_bits().saturating_sub(1)),
                    }
                }
                _ => angle,
            };
            let a = wrap_two_pi(x);
            prop_assert!((0.0..TAU).contains(&a), "wrap_two_pi({:e}) = {:e}", x, a);
            prop_assert_eq!(wrap_two_pi(a).to_bits(), a.to_bits());
            let p = wrap_pi(x);
            prop_assert!(p > -PI && p <= PI, "wrap_pi({:e}) = {:e}", x, p);
            prop_assert_eq!(wrap_pi(p).to_bits(), p.to_bits());
            Ok(())
        },
    );
}
