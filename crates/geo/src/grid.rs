use crate::earth::MEAN_RADIUS_M;
use crate::{greatcircle, GeoError, GeodeticPoint};
use std::ops::Range;

/// A uniform latitude/longitude bucket index over point payloads.
///
/// `GridIndex` maps the globe onto `cell_deg`-degree cells and stores item
/// handles per cell. It supports radius queries with correct longitude
/// wrap-around, and is how the coverage evaluator finds the handful of
/// targets inside a 100 km swath frame out of a 1.4-million point dataset
/// without a linear scan.
///
/// The index stores `u32` handles; callers keep the payloads in their own
/// arena and use the handles to look them up. The cells form one dense
/// row-major table (latitude rows × longitude cells) over one handle
/// arena, filled by a counting sort: each cell's handles are a run of
/// the arena, ascending, and a row's adjacent cells are adjacent runs.
/// The index holds 4 bytes per point plus 4 bytes per cell (16,381
/// offsets at 2° cells), and a query walks the table without hashing.
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
/// let index = GridIndex::build(2.0, pts.iter().map(|p| (p.lat_deg(), p.lon_deg())))?;
/// let near = index.query_radius(&pts[0], 50_000.0, |i| pts[i]);
/// assert_eq!(near, vec![0]);
/// // 91 latitude rows x 180 longitude cells, plus one handle per point.
/// assert_eq!(index.heap_bytes(), 4 * (91 * 180 + 1) + 4 * pts.len());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct GridIndex {
    cell_deg: f64,
    /// Latitude row of table row 0.
    row_min: i64,
    /// Latitude rows in the table.
    rows: i64,
    /// Longitude cell of table column 0 (see [`Self::lon_cell_bounds`]).
    col_min: i64,
    /// Longitude cells per row.
    cols: i64,
    /// `offsets[c]..offsets[c + 1]` is cell `c`'s run of `handles`.
    offsets: Vec<u32>,
    /// The handles of every point in a table cell, by cell, ascending
    /// within each.
    handles: Vec<u32>,
    len: usize,
}

impl GridIndex {
    /// The most cells a table may hold: 2^22 (16 MiB of offsets),
    /// which admits cells of 0.125° and up.
    pub const MAX_CELLS: usize = 1 << 22;

    /// Builds an index over `(lat_deg, lon_deg)` pairs; the i-th pair gets
    /// handle `i`. `points` is walked twice (count, then place), so both
    /// walks must yield the same pairs.
    ///
    /// A point whose cell lies outside the table (a latitude beyond the
    /// poles' rows) is counted in [`len`](Self::len) but never returned:
    /// no query reaches its cell.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidCellSize`] when `cell_deg` is not
    /// strictly positive, [`GeoError::CellTableTooLarge`] when its table
    /// would exceed [`MAX_CELLS`](Self::MAX_CELLS), and
    /// [`GeoError::TooManyPoints`] past `u32::MAX` points.
    pub fn build<I>(cell_deg: f64, points: I) -> Result<Self, GeoError>
    where
        I: IntoIterator<Item = (f64, f64)>,
        I::IntoIter: Clone,
    {
        if !(cell_deg > 0.0) || !cell_deg.is_finite() {
            return Err(GeoError::InvalidCellSize { cell_deg });
        }
        let row_min = Self::lat_row(cell_deg, -90.0);
        let rows = Self::lat_row(cell_deg, 90.0) - row_min + 1;
        let (col_min, col_max) = Self::lon_cell_bounds(cell_deg);
        // Saturated bounds of a tiny cell size overflow `i64` arithmetic.
        let cells = i128::from(rows) * (i128::from(col_max) - i128::from(col_min) + 1);
        let cells = usize::try_from(cells)
            .ok()
            .filter(|&c| c <= Self::MAX_CELLS)
            .ok_or(GeoError::CellTableTooLarge { cell_deg })?;
        let mut index = GridIndex {
            cell_deg,
            row_min,
            rows,
            col_min,
            cols: col_max - col_min + 1,
            offsets: vec![0; cells + 1],
            handles: Vec::new(),
            len: 0,
        };
        let points = points.into_iter();
        // Count each cell's points into the slot after it, then sum so
        // that `offsets[c]` is where cell `c`'s run starts.
        for (i, (lat, lon)) in points.clone().enumerate() {
            Self::handle(i)?;
            if let Some(c) = index.cell(lat, lon) {
                index.offsets[c + 1] += 1;
            }
            index.len = i + 1;
        }
        for c in 1..=cells {
            index.offsets[c] += index.offsets[c - 1];
        }
        index.handles = vec![0; index.offsets[cells] as usize];
        let mut next = index.offsets.clone();
        for (h, (lat, lon)) in (0u32..).zip(points) {
            if let Some(c) = index.cell(lat, lon) {
                index.handles[next[c] as usize] = h;
                next[c] += 1;
            }
        }
        Ok(index)
    }

    /// The `u32` handle of the `i`-th point. Handles and cell offsets
    /// are `u32`, so an index holds at most `u32::MAX` points.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::TooManyPoints`] when `i >= u32::MAX`.
    pub fn handle(i: usize) -> Result<u32, GeoError> {
        match u32::try_from(i) {
            Ok(h) if h < u32::MAX => Ok(h),
            _ => Err(GeoError::TooManyPoints { index: i }),
        }
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

    /// Bytes the index holds on the heap: its cell table and its handle
    /// arena.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<u32>() * (self.offsets.capacity() + self.handles.capacity())
    }

    fn lat_row(cell_deg: f64, lat_deg: f64) -> i64 {
        i64::from((lat_deg / cell_deg).floor() as i32)
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

    /// The table cell of a point, or `None` when its cell lies outside
    /// the table.
    fn cell(&self, lat_deg: f64, lon_deg: f64) -> Option<usize> {
        let (lat_c, lon_c) = Self::cell_of(self.cell_deg, lat_deg, lon_deg);
        let row = i64::from(lat_c) - self.row_min;
        let col = i64::from(lon_c) - self.col_min;
        ((0..self.rows).contains(&row) && (0..self.cols).contains(&col))
            .then(|| (row * self.cols + col) as usize)
    }

    /// Calls `visit` with the handles of every maximal run of adjacent
    /// non-empty cells the bounding box touches, each cell exactly once,
    /// in the order latitude row, then longitude cell as the box walks
    /// it. A wrapping box (`lon_min_deg > lon_max_deg`) covers
    /// `[lon_min, 180)` and `[-180, lon_max]`; a longitude span wider
    /// than the globe is clamped to one lap, so the two halves of a
    /// wrapping box and a full-globe (pole-including) box never revisit
    /// a cell.
    fn for_each_cell_in_bbox(
        &self,
        [lat_min_deg, lat_max_deg, lon_min_deg, lon_max_deg]: [f64; 4],
        mut visit: impl FnMut(&[u32]),
    ) {
        let cd = self.cell_deg;
        let lat_lo = Self::lat_row(cd, lat_min_deg.max(-90.0)).max(self.row_min);
        let lat_hi = Self::lat_row(cd, lat_max_deg.min(90.0)).min(self.row_min + self.rows - 1);
        let (min_cell, total) = (self.col_min, self.cols);
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
            let row = ((lat_c - self.row_min) * total) as usize;
            let mut run = row..row;
            for (r, &(start, span)) in ranges.iter().enumerate() {
                for d in 0..=span {
                    let lon_c = wrap(start + d);
                    if r == 1 && in_first(lon_c) {
                        continue;
                    }
                    let c = row + (lon_c - min_cell) as usize;
                    if c != run.end {
                        self.visit_run(run, &mut visit);
                        run = c..c;
                    }
                    run.end = c + 1;
                }
            }
            self.visit_run(run, &mut visit);
        }
    }

    /// Calls `visit` with the handles of the table cells `cells`, one
    /// contiguous slice of the arena, unless it is empty.
    fn visit_run(&self, cells: Range<usize>, visit: &mut impl FnMut(&[u32])) {
        let run = self.offsets[cells.start] as usize..self.offsets[cells.end] as usize;
        if !run.is_empty() {
            visit(&self.handles[run]);
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
        self.for_each_cell_in_bbox(Self::cap_bbox(center, radius_m), |handles| {
            handles.iter().for_each(|&h| visit(h as usize))
        });
    }

    /// `[lat_min, lat_max, lon_min, lon_max]` in degrees of the cap of
    /// `radius_m` around `center`; `lon_min > lon_max` when the box
    /// wraps the antimeridian.
    fn cap_bbox(center: &GeodeticPoint, radius_m: f64) -> [f64; 4] {
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
        [lat_min, lat_max, lon_min, lon_max]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eagleeye_check::{check_cases, f64_range, prop_assert_eq, usize_range, vec_of, Failure};
    use std::collections::BTreeMap;

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

    /// The walk of the per-cell map the dense table replaced, kept as
    /// its oracle: one `Vec` of handles per occupied `(lat row, lon
    /// cell)` key, looked up cell by cell in the order the box visits
    /// them.
    fn cell_map_walk(cell_deg: f64, points: &[(f64, f64)], bbox: [f64; 4]) -> Vec<usize> {
        let mut cells: BTreeMap<(i32, i32), Vec<usize>> = BTreeMap::new();
        for (i, &(lat, lon)) in points.iter().enumerate() {
            cells
                .entry(GridIndex::cell_of(cell_deg, lat, lon))
                .or_default()
                .push(i);
        }
        let [lat_min_deg, lat_max_deg, lon_min_deg, lon_max_deg] = bbox;
        let cd = cell_deg;
        let lat_lo = (lat_min_deg.max(-90.0) / cd).floor() as i32;
        let lat_hi = (lat_max_deg.min(90.0) / cd).floor() as i32;
        let (min_cell, max_cell) = GridIndex::lon_cell_bounds(cd);
        let total = max_cell - min_cell + 1;
        let wrap = |cell: i64| min_cell + (cell - min_cell).rem_euclid(total);
        let cell = |deg: f64| i64::from((deg / cd).floor() as i32);
        let range = |lo_deg: f64, hi_deg: f64| {
            let (lo, hi) = (cell(lo_deg), cell(hi_deg));
            (wrap(lo), (hi - lo).min(total - 1))
        };
        let ranges = if lon_min_deg <= lon_max_deg {
            [range(lon_min_deg, lon_max_deg), (0, -1)]
        } else {
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
        let mut out = Vec::new();
        for lat_c in lat_lo..=lat_hi {
            for (r, &(start, span)) in ranges.iter().enumerate() {
                for d in 0..=span {
                    let lon_c = wrap(start + d);
                    if r == 1 && in_first(lon_c) {
                        continue;
                    }
                    if let Some(items) = cells.get(&(lat_c, lon_c as i32)) {
                        out.extend(items);
                    }
                }
            }
        }
        out
    }

    /// The dense table visits exactly the handles the cell map visited,
    /// in the same order (rows, then cells as the box walks them, then
    /// handles ascending), at cell sizes that do and do not divide 360°,
    /// for caps that wrap or hold a pole, and for raw points beyond the
    /// poles or outside one lap of longitude.
    #[test]
    fn table_walk_matches_the_cell_map_in_order() {
        check_cases(
            128,
            "table_walk_matches_the_cell_map_in_order",
            (
                vec_of((f64_range(-95.0, 95.0), f64_range(-400.0, 400.0)), 0, 96),
                (f64_range(-90.0, 90.0), f64_range(-180.0, 180.0)),
                f64_range(1_000.0, 8_000_000.0),
                usize_range(0, 7),
            ),
            |(points, (lat, lon), radius_m, k)| {
                let cell_deg = [0.25, 1.0, 2.0, 3.0, 7.0, 45.0, 200.0][*k];
                let idx = GridIndex::build(cell_deg, points.iter().copied()).unwrap();
                prop_assert_eq!(idx.len(), points.len());
                let center = pt(*lat, *lon);
                let mut got = Vec::new();
                idx.for_each_in_cap(&center, *radius_m, |i| got.push(i));
                let bbox = GridIndex::cap_bbox(&center, *radius_m);
                prop_assert_eq!(got, cell_map_walk(cell_deg, points, bbox));
                Ok::<(), Failure>(())
            },
        );
    }
}
