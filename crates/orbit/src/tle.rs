use crate::{KeplerianElements, OrbitError};
use eagleeye_geo::earth::MU_M3_S2;
use std::fmt;

/// A parsed two-line element set.
///
/// Implements the Celestrak/NORAD fixed-column TLE format with modulo-10
/// checksum validation, the same source the paper uses to initialize its
/// orbit model (§5.3). Only the fields needed for Keplerian + J2
/// propagation are retained; drag terms are parsed but unused by
/// [`crate::J2Propagator`] (see the substitution notes in DESIGN.md).
///
/// # Example
///
/// ```
/// use eagleeye_orbit::Tle;
///
/// let tle = Tle::parse(
///     "1 25544U 98067A   24001.50000000  .00016717  00000-0  10270-3 0  9009",
///     "2 25544  51.6400 208.9163 0006317  69.9862  25.2906 15.49560532    19",
/// )?;
/// assert_eq!(tle.catalog_number(), 25544);
/// assert!((tle.inclination_deg() - 51.64).abs() < 1e-9);
/// # Ok::<(), eagleeye_orbit::OrbitError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tle {
    catalog_number: u32,
    epoch_year: u32,
    epoch_day: f64,
    bstar: f64,
    inclination_deg: f64,
    raan_deg: f64,
    eccentricity: f64,
    arg_perigee_deg: f64,
    mean_anomaly_deg: f64,
    mean_motion_rev_day: f64,
}

impl Tle {
    /// Parses a TLE from its two 69-column lines.
    ///
    /// # Errors
    ///
    /// * [`OrbitError::TleLineLength`] for lines that are not 69 columns.
    /// * [`OrbitError::TleChecksum`] when a checksum digit is wrong.
    /// * [`OrbitError::TleField`] when a numeric field fails to parse.
    pub fn parse(line1: &str, line2: &str) -> Result<Self, OrbitError> {
        let l1 = line1.trim_end();
        let l2 = line2.trim_end();
        if l1.len() != 69 {
            return Err(OrbitError::TleLineLength {
                line: 1,
                len: l1.len(),
            });
        }
        if l2.len() != 69 {
            return Err(OrbitError::TleLineLength {
                line: 2,
                len: l2.len(),
            });
        }
        Self::verify_checksum(l1, 1)?;
        Self::verify_checksum(l2, 2)?;

        let catalog_number = l1[2..7]
            .trim()
            .parse::<u32>()
            .map_err(|_| OrbitError::TleField {
                line: 1,
                field: "catalog number",
            })?;
        let epoch_year = l1[18..20]
            .trim()
            .parse::<u32>()
            .map_err(|_| OrbitError::TleField {
                line: 1,
                field: "epoch year",
            })?;
        let epoch_day = l1[20..32]
            .trim()
            .parse::<f64>()
            .map_err(|_| OrbitError::TleField {
                line: 1,
                field: "epoch day",
            })?;
        let bstar = Self::parse_exponent_field(&l1[53..61]).ok_or(OrbitError::TleField {
            line: 1,
            field: "bstar",
        })?;

        let inclination_deg =
            l2[8..16]
                .trim()
                .parse::<f64>()
                .map_err(|_| OrbitError::TleField {
                    line: 2,
                    field: "inclination",
                })?;
        let raan_deg = l2[17..25]
            .trim()
            .parse::<f64>()
            .map_err(|_| OrbitError::TleField {
                line: 2,
                field: "raan",
            })?;
        let eccentricity = format!("0.{}", l2[26..33].trim())
            .parse::<f64>()
            .map_err(|_| OrbitError::TleField {
                line: 2,
                field: "eccentricity",
            })?;
        let arg_perigee_deg =
            l2[34..42]
                .trim()
                .parse::<f64>()
                .map_err(|_| OrbitError::TleField {
                    line: 2,
                    field: "argument of perigee",
                })?;
        let mean_anomaly_deg =
            l2[43..51]
                .trim()
                .parse::<f64>()
                .map_err(|_| OrbitError::TleField {
                    line: 2,
                    field: "mean anomaly",
                })?;
        let mean_motion_rev_day =
            l2[52..63]
                .trim()
                .parse::<f64>()
                .map_err(|_| OrbitError::TleField {
                    line: 2,
                    field: "mean motion",
                })?;

        Ok(Tle {
            catalog_number,
            epoch_year,
            epoch_day,
            bstar,
            inclination_deg,
            raan_deg,
            eccentricity,
            arg_perigee_deg,
            mean_anomaly_deg,
            mean_motion_rev_day,
        })
    }

    /// Parses the TLE "assumed leading decimal + exponent" field format,
    /// e.g. ` 10270-3` meaning `0.10270e-3`.
    fn parse_exponent_field(field: &str) -> Option<f64> {
        let s = field.trim();
        if s.is_empty() || s == "00000-0" || s == "00000+0" {
            return Some(0.0);
        }
        let (sign, rest) = match s.strip_prefix('-') {
            Some(r) => (-1.0, r),
            None => (1.0, s.strip_prefix('+').unwrap_or(s)),
        };
        let exp_pos = rest.rfind(['-', '+'])?;
        let mantissa: f64 = format!("0.{}", &rest[..exp_pos]).parse().ok()?;
        let exponent: i32 = rest[exp_pos..].parse().ok()?;
        Some(sign * mantissa * 10f64.powi(exponent))
    }

    /// Computes the NORAD modulo-10 checksum of the first 68 columns:
    /// digits count as themselves, `-` counts as 1, everything else 0.
    pub fn checksum(line_body: &str) -> u32 {
        line_body
            .chars()
            .take(68)
            .map(|c| match c {
                '0'..='9' => c as u32 - '0' as u32,
                '-' => 1,
                _ => 0,
            })
            .sum::<u32>()
            % 10
    }

    fn verify_checksum(line: &str, which: u8) -> Result<(), OrbitError> {
        let computed = Self::checksum(line);
        let found =
            line.chars()
                .nth(68)
                .and_then(|c| c.to_digit(10))
                .ok_or(OrbitError::TleField {
                    line: which,
                    field: "checksum digit",
                })?;
        if computed != found {
            return Err(OrbitError::TleChecksum {
                line: which,
                computed,
                found,
            });
        }
        Ok(())
    }

    /// NORAD catalog number.
    #[inline]
    pub fn catalog_number(&self) -> u32 {
        self.catalog_number
    }

    /// B* drag term (per Earth radii).
    #[inline]
    pub fn bstar(&self) -> f64 {
        self.bstar
    }

    /// Inclination in degrees.
    #[inline]
    pub fn inclination_deg(&self) -> f64 {
        self.inclination_deg
    }

    /// Right ascension of the ascending node in degrees.
    #[inline]
    pub fn raan_deg(&self) -> f64 {
        self.raan_deg
    }

    /// Eccentricity.
    #[inline]
    pub fn eccentricity(&self) -> f64 {
        self.eccentricity
    }

    /// Argument of perigee in degrees.
    #[inline]
    pub fn arg_perigee_deg(&self) -> f64 {
        self.arg_perigee_deg
    }

    /// Mean anomaly in degrees.
    #[inline]
    pub fn mean_anomaly_deg(&self) -> f64 {
        self.mean_anomaly_deg
    }

    /// Mean motion in revolutions per day.
    #[inline]
    pub fn mean_motion_rev_day(&self) -> f64 {
        self.mean_motion_rev_day
    }

    /// Converts to classical orbital elements (semi-major axis recovered
    /// from the mean motion).
    ///
    /// # Errors
    ///
    /// Returns [`OrbitError::InvalidElement`] if the encoded orbit is
    /// outside the supported domain.
    pub fn elements(&self) -> Result<KeplerianElements, OrbitError> {
        let n_rad_s = self.mean_motion_rev_day * std::f64::consts::TAU / 86_400.0;
        if n_rad_s <= 0.0 {
            return Err(OrbitError::InvalidElement {
                name: "mean_motion",
                value: self.mean_motion_rev_day,
            });
        }
        let a = (MU_M3_S2 / (n_rad_s * n_rad_s)).cbrt();
        KeplerianElements::new(
            a,
            self.eccentricity,
            self.inclination_deg.to_radians(),
            self.raan_deg.to_radians(),
            self.arg_perigee_deg.to_radians(),
            self.mean_anomaly_deg.to_radians(),
        )
    }

    /// Formats this TLE back to its two lines, recomputing checksums.
    fn to_lines(&self) -> (String, String) {
        let mut l1 = format!(
            "1 {:05}U 00000A   {:02}{:012.8}  .00000000  00000-0  00000-0 0  999",
            self.catalog_number, self.epoch_year, self.epoch_day,
        );
        l1.truncate(68);
        while l1.len() < 68 {
            l1.push(' ');
        }
        let c1 = Self::checksum(&l1);
        l1.push(char::from(b'0' + (c1 % 10) as u8));

        let ecc_digits = format!("{:07}", (self.eccentricity * 1e7).round() as u64);
        let mut l2 = format!(
            "2 {:05} {:8.4} {:8.4} {} {:8.4} {:8.4} {:11.8}    1",
            self.catalog_number,
            self.inclination_deg,
            self.raan_deg,
            ecc_digits,
            self.arg_perigee_deg,
            self.mean_anomaly_deg,
            self.mean_motion_rev_day,
        );
        l2.truncate(68);
        while l2.len() < 68 {
            l2.push(' ');
        }
        let c2 = Self::checksum(&l2);
        l2.push(char::from(b'0' + (c2 % 10) as u8));
        (l1, l2)
    }

    /// A synthetic TLE matching the paper's orbit: 475 km altitude,
    /// 97.2° inclination, near-circular.
    pub fn paper_orbit() -> Tle {
        Tle {
            catalog_number: 99001,
            epoch_year: 24,
            epoch_day: 1.0,
            bstar: 0.0,
            inclination_deg: 97.2,
            raan_deg: 0.0,
            eccentricity: 0.0001,
            arg_perigee_deg: 0.0,
            mean_anomaly_deg: 0.0,
            // 94-minute period => 86400 / (94*60) rev/day.
            mean_motion_rev_day: 86_400.0 / (94.0 * 60.0),
        }
    }
}

impl fmt::Display for Tle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (l1, l2) = self.to_lines();
        write!(f, "{l1}\n{l2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ISS_L1: &str = "1 25544U 98067A   24001.50000000  .00016717  00000-0  10270-3 0  9009";
    const ISS_L2: &str = "2 25544  51.6400 208.9163 0006317  69.9862  25.2906 15.49560532    19";

    #[test]
    fn parses_iss_style_tle() {
        let tle = Tle::parse(ISS_L1, ISS_L2).unwrap();
        assert_eq!(tle.catalog_number(), 25544);
        assert_eq!(tle.epoch_year, 24);
        assert!((tle.epoch_day - 1.5).abs() < 1e-9);
        assert!((tle.inclination_deg() - 51.64).abs() < 1e-9);
        assert!((tle.raan_deg() - 208.9163).abs() < 1e-9);
        assert!((tle.eccentricity() - 0.0006317).abs() < 1e-12);
        assert!((tle.mean_motion_rev_day() - 15.4956_0532).abs() < 1e-7);
        assert!((tle.bstar() - 0.10270e-3).abs() < 1e-9);
    }

    #[test]
    fn iss_semi_major_axis_is_leo() {
        let tle = Tle::parse(ISS_L1, ISS_L2).unwrap();
        // Near-circular, so the radius at epoch is the semi-major axis to
        // within a few km. ISS: ~6,795 km.
        let a = tle
            .elements()
            .unwrap()
            .eci_state_at_mean_anomaly(0.0)
            .unwrap()
            .radius_m();
        assert!((a - 6.795e6).abs() < 3e4, "a = {a}");
    }

    #[test]
    fn checksum_rejects_corruption() {
        let mut bad = ISS_L1.to_string();
        bad.replace_range(20..21, "9");
        let err = Tle::parse(&bad, ISS_L2).unwrap_err();
        assert!(matches!(err, OrbitError::TleChecksum { line: 1, .. }));
    }

    #[test]
    fn rejects_short_lines() {
        assert!(matches!(
            Tle::parse("1 25544U", ISS_L2),
            Err(OrbitError::TleLineLength { line: 1, .. })
        ));
        assert!(matches!(
            Tle::parse(ISS_L1, "2 25544"),
            Err(OrbitError::TleLineLength { line: 2, .. })
        ));
    }

    #[test]
    fn exponent_field_parsing() {
        assert_eq!(Tle::parse_exponent_field(" 00000-0"), Some(0.0));
        let v = Tle::parse_exponent_field(" 10270-3").unwrap();
        assert!((v - 0.10270e-3).abs() < 1e-12);
        let v = Tle::parse_exponent_field("-11606-4").unwrap();
        assert!((v + 0.11606e-4).abs() < 1e-12);
    }

    #[test]
    fn round_trip_through_formatting() {
        let tle = Tle::paper_orbit();
        let (l1, l2) = tle.to_lines();
        assert_eq!(l1.len(), 69);
        assert_eq!(l2.len(), 69);
        let re = Tle::parse(&l1, &l2).unwrap();
        assert!((re.inclination_deg() - 97.2).abs() < 1e-3);
        assert!((re.mean_motion_rev_day() - tle.mean_motion_rev_day()).abs() < 1e-6);
        assert!((re.eccentricity() - tle.eccentricity()).abs() < 1e-7);
    }

    #[test]
    fn paper_orbit_altitude() {
        let elements = Tle::paper_orbit().elements().unwrap();
        let a = elements.eci_state_at_mean_anomaly(0.0).unwrap().radius_m();
        let alt_km = (a - eagleeye_geo::earth::MEAN_RADIUS_M) / 1000.0;
        // 94-minute period corresponds to ~475 km (within tens of km).
        assert!((alt_km - 475.0).abs() < 40.0, "alt {alt_km}");
    }

    #[test]
    fn display_prints_two_lines() {
        let s = Tle::paper_orbit().to_string();
        assert_eq!(s.lines().count(), 2);
    }
}
