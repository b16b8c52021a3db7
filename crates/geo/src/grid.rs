use crate::earth::MEAN_RADIUS_M;
use crate::{greatcircle, GeoError, GeodeticPoint};
#[expect(
    clippy::disallowed_types,
    reason = "cells are read by key in bbox order; query_radius sorts its output"
)]
use std::collections::HashMap;

/// A uniform latitude/longitude bucket index over point payloads.
///
/// `GridIndex` maps the globe onto `cell_deg`-degree cells and stores item
/// indices per cell. It supports bounding-box and radius queries with
/// correct longitude wrap-around, and is how the coverage evaluator finds
/// the handful of targets inside a 100 km swath frame out of a 1.4-million
/// point dataset without a linear scan.
///
/// The index stores `usize` handles; callers keep the payloads in their own
/// arena and use the handles to look them up.
///
/// # Example
///
/// ```
/// use eagleeye_geo::{GeodeticPoint, GridIndex};
///
/// let pts = vec![
///     GeodeticPoint::from_degrees(10.0, 10.0, 0.0)?,
///     GeodeticPoint::from_degrees(-40.0, 120.0, 0.0)?,
/// ];
/// let index = GridIndex::build(1.0, pts.iter().map(|p| (p.lat_deg(), p.lon_deg())))?;
/// let near = index.query_radius(&pts[0], 50_000.0, |i| pts[i]);
/// assert_eq!(near, vec![0]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct GridIndex {
    cell_deg: f64,
    #[expect(
        clippy::disallowed_types,
        reason = "read via `get` in deterministic cell-range order only"
    )]
    cells: HashMap<(i32, i32), Vec<usize>>,
    len: usize,
}

impl GridIndex {
    /// Builds an index over `(lat_deg, lon_deg)` pairs; the i-th pair gets
    /// handle `i`.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidCellSize`] when `cell_deg` is not
    /// strictly positive.
    pub fn build(
        cell_deg: f64,
        points: impl IntoIterator<Item = (f64, f64)>,
    ) -> Result<Self, GeoError> {
        if !(cell_deg > 0.0) || !cell_deg.is_finite() {
            return Err(GeoError::InvalidCellSize { cell_deg });
        }
        #[expect(
            clippy::disallowed_types,
            reason = "build inserts by key; the map is never iterated"
        )]
        let mut cells: HashMap<(i32, i32), Vec<usize>> = HashMap::new();
        let mut len = 0;
        for (i, (lat, lon)) in points.into_iter().enumerate() {
            cells
                .entry(Self::cell_of(cell_deg, lat, lon))
                .or_default()
                .push(i);
            len = i + 1;
        }
        Ok(GridIndex {
            cell_deg,
            cells,
            len,
        })
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no points are indexed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured cell size in degrees.
    #[inline]
    pub fn cell_deg(&self) -> f64 {
        self.cell_deg
    }

    fn cell_of(cell_deg: f64, lat_deg: f64, lon_deg: f64) -> (i32, i32) {
        // Normalize longitude to [-180, 180) so the cell key is canonical.
        let mut lon = lon_deg % 360.0;
        if lon >= 180.0 {
            lon -= 360.0;
        } else if lon < -180.0 {
            lon += 360.0;
        }
        (
            (lat_deg / cell_deg).floor() as i32,
            (lon / cell_deg).floor() as i32,
        )
    }

    /// Calls `visit` with the handles of every non-empty cell the
    /// bounding box touches, each cell exactly once. A wrapping box
    /// (`lon_min_deg > lon_max_deg`) covers `[lon_min, 180)` and
    /// `[-180, lon_max]`; a longitude span wider than the globe is
    /// clamped to one lap, so the two halves of a wrapping box and a
    /// full-globe (pole-including) box never revisit a cell.
    fn for_each_cell_in_bbox(
        &self,
        lat_min_deg: f64,
        lat_max_deg: f64,
        lon_min_deg: f64,
        lon_max_deg: f64,
        mut visit: impl FnMut(&[usize]),
    ) {
        let cd = self.cell_deg;
        let lat_lo = (lat_min_deg.max(-90.0) / cd).floor() as i32;
        let lat_hi = (lat_max_deg.min(90.0) / cd).floor() as i32;
        let (min_cell, max_cell) = Self::lon_cell_bounds(cd);
        let total = max_cell - min_cell + 1;
        let wrap = |cell: i64| min_cell + (cell - min_cell).rem_euclid(total);
        let cell = |deg: f64| i64::from((deg / cd).floor() as i32);
        // `(first wrapped cell, cells after it)` per longitude range; a
        // negative count is an empty range.
        let range = |lo_deg: f64, hi_deg: f64| {
            let (lo, hi) = (cell(lo_deg), cell(hi_deg));
            (wrap(lo), (hi - lo).min(total - 1))
        };
        let ranges = if lon_min_deg <= lon_max_deg {
            [range(lon_min_deg, lon_max_deg), (0, -1)]
        } else {
            // `[lon_min, 180)` runs through the cell at +180 (which wraps
            // to the first cell), then `[-180, lon_max]`.
            let first = cell(lon_min_deg);
            let last = i64::from((180.0 / cd).ceil() as i32);
            [
                (wrap(first), (last - first).min(total - 1)),
                range(-180.0, lon_max_deg),
            ]
        };
        let in_first = |c: i64| {
            let (start, span) = ranges[0];
            span >= 0 && (c - start).rem_euclid(total) <= span
        };
        for lat_c in lat_lo..=lat_hi {
            for (r, &(start, span)) in ranges.iter().enumerate() {
                for d in 0..=span {
                    let lon_c = wrap(start + d);
                    if r == 1 && in_first(lon_c) {
                        continue;
                    }
                    if let Some(items) = self.cells.get(&(lat_c, lon_c as i32)) {
                        visit(items);
                    }
                }
            }
        }
    }

    /// The canonical longitude-cell range `[min, max]` that
    /// [`Self::cell_of`] can produce for normalized longitudes in
    /// `[-180, 180)`. When `cell_deg` does not divide 360 evenly the
    /// last cell is partial; deriving the range here (instead of from
    /// `ceil(360 / cell_deg)`) keeps query wrapping and key
    /// construction agreeing on which cells exist, so points just shy
    /// of +180° are never stranded in an unreachable cell.
    fn lon_cell_bounds(cell_deg: f64) -> (i64, i64) {
        let min_cell = (-180.0 / cell_deg).floor() as i64;
        // Highest index holding a longitude strictly below 180°.
        let max_cell = (180.0 / cell_deg).ceil() as i64 - 1;
        (min_cell, max_cell.max(min_cell))
    }

    /// Returns handles of all points within `radius_m` of `center`,
    /// exactly (great-circle distance), sorted ascending by handle.
    ///
    /// `resolve` maps a handle back to its point; this keeps the index
    /// payload-free.
    pub fn query_radius(
        &self,
        center: &GeodeticPoint,
        radius_m: f64,
        resolve: impl Fn(usize) -> GeodeticPoint,
    ) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_in_cap(center, radius_m, |i| {
            if greatcircle::distance_m(center, &resolve(i)) <= radius_m {
                out.push(i);
            }
        });
        out.sort_unstable();
        out
    }

    /// Calls `visit` once for every handle in the cells that the
    /// bounding box of the spherical cap of `radius_m` around `center`
    /// touches: a superset of the points inside the cap, in no
    /// particular order. Callers refine with an exact distance test
    /// ([`query_radius`](Self::query_radius) is this plus that test).
    pub fn for_each_in_cap(
        &self,
        center: &GeodeticPoint,
        radius_m: f64,
        mut visit: impl FnMut(usize),
    ) {
        let delta_rad = radius_m / MEAN_RADIUS_M;
        let dlat = delta_rad.to_degrees();
        let lat_min = center.lat_deg() - dlat;
        let lat_max = center.lat_deg() + dlat;
        // Exact spherical-cap longitude bound: if a pole is inside the
        // cap every longitude qualifies; otherwise the maximum deviation
        // is asin(sin δ / cos φ).
        let pole_inside = center.lat_rad().abs() + delta_rad >= std::f64::consts::FRAC_PI_2;
        let dlon = if pole_inside || delta_rad >= std::f64::consts::FRAC_PI_2 {
            180.0
        } else {
            let s = (delta_rad.sin() / center.lat_rad().cos().max(1e-12)).min(1.0);
            s.asin().to_degrees() + 1e-9
        };
        let (lon_min, lon_max) = if dlon >= 180.0 {
            (-180.0, 180.0)
        } else {
            let lo = center.lon_deg() - dlon;
            let hi = center.lon_deg() + dlon;
            if lo < -180.0 {
                (lo + 360.0, hi)
            } else if hi > 180.0 {
                (lo, hi - 360.0)
            } else {
                (lo, hi)
            }
        };
        self.for_each_cell_in_bbox(lat_min, lat_max, lon_min, lon_max, |items| {
            items.iter().copied().for_each(&mut visit)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(lat: f64, lon: f64) -> GeodeticPoint {
        GeodeticPoint::from_degrees(lat, lon, 0.0).unwrap()
    }

    fn build(points: &[GeodeticPoint]) -> GridIndex {
        GridIndex::build(1.0, points.iter().map(|p| (p.lat_deg(), p.lon_deg()))).unwrap()
    }

    #[test]
    fn rejects_bad_cell_size() {
        assert!(GridIndex::build(0.0, std::iter::empty()).is_err());
        assert!(GridIndex::build(-1.0, std::iter::empty()).is_err());
    }

    #[test]
    fn empty_index() {
        let idx = GridIndex::build(1.0, std::iter::empty()).unwrap();
        assert!(idx.is_empty());
    }

    #[test]
    fn radius_query_matches_brute_force() {
        // Deterministic pseudo-grid of points.
        let mut pts = Vec::new();
        for lat in (-60..=60).step_by(5) {
            for lon in (-180..180).step_by(10) {
                pts.push(pt(lat as f64 + 0.37, lon as f64 + 0.71));
            }
        }
        let idx = build(&pts);
        let center = pt(10.0, 20.0);
        let radius = 1_500_000.0;
        let got = idx.query_radius(&center, radius, |i| pts[i]);
        let want: Vec<usize> = (0..pts.len())
            .filter(|&i| greatcircle::distance_m(&center, &pts[i]) <= radius)
            .collect();
        assert_eq!(got, want);
        assert!(!got.is_empty());
    }

    #[test]
    fn radius_query_across_antimeridian() {
        let pts = vec![pt(0.0, 179.5), pt(0.0, -179.5), pt(0.0, 0.0)];
        let idx = build(&pts);
        let center = pt(0.0, 180.0);
        let got = idx.query_radius(&center, 200_000.0, |i| pts[i]);
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn radius_query_near_pole() {
        let pts = vec![pt(89.5, 0.0), pt(89.5, 90.0), pt(89.5, 180.0), pt(0.0, 0.0)];
        let idx = build(&pts);
        let center = pt(90.0, 0.0);
        let got = idx.query_radius(&center, 100_000.0, |i| pts[i]);
        assert_eq!(got, vec![0, 1, 2]);
    }

    /// Caps whose bounding box wraps the antimeridian or holds a pole
    /// (so once visited the cell at ±180° twice) visit every cell once:
    /// each handle comes out once, at cell sizes that do and do not
    /// divide 360°.
    #[test]
    fn cap_visits_each_cell_once() {
        let mut pts = Vec::new();
        for lon in (-180..180).step_by(3) {
            for lat in [-89.5, -60.0, 0.0, 60.0, 89.5] {
                pts.push(pt(lat, lon as f64 + 0.5));
            }
        }
        for cell_deg in [1.0, 2.0, 7.0] {
            let idx =
                GridIndex::build(cell_deg, pts.iter().map(|p| (p.lat_deg(), p.lon_deg()))).unwrap();
            for (center, radius) in [
                (pt(89.0, 10.0), 300_000.0),
                (pt(-89.0, -170.0), 300_000.0),
                (pt(0.0, 179.9), 500_000.0),
                (pt(60.0, -179.9), 800_000.0),
                (pt(0.0, 0.0), 30_000_000.0),
            ] {
                let mut seen = Vec::new();
                idx.for_each_in_cap(&center, radius, |i| seen.push(i));
                let n = seen.len();
                seen.sort_unstable();
                seen.dedup();
                assert_eq!(seen.len(), n, "cell {cell_deg}: a cell was visited twice");
                let want: Vec<usize> = (0..pts.len())
                    .filter(|&i| greatcircle::distance_m(&center, &pts[i]) <= radius)
                    .collect();
                assert!(want.iter().all(|i| seen.binary_search(i).is_ok()));
                assert_eq!(idx.query_radius(&center, radius, |i| pts[i]), want);
            }
        }
    }
}
