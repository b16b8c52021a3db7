use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A three-component double-precision vector.
///
/// `Vec3` is the Cartesian workhorse of the workspace: ECI/ECEF positions,
/// velocities, and pointing directions are all `Vec3`s. It is `Copy` and all
/// operations are implemented by value.
///
/// # Example
///
/// ```
/// use eagleeye_geo::Vec3;
///
/// let x = Vec3::new(1.0, 0.0, 0.0);
/// let y = Vec3::new(0.0, 1.0, 0.0);
/// assert_eq!(x.cross(y), Vec3::new(0.0, 0.0, 1.0));
/// assert_eq!(x.dot(y), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component.
    pub x: f64,
    /// Y component.
    pub y: f64,
    /// Z component.
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };

    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, other: Vec3) -> Vec3 {
        Vec3::new(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )
    }

    /// Euclidean norm (length).
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Returns a unit vector in the same direction, or `None` for a vector
    /// too close to zero to normalize reliably.
    #[inline]
    pub fn normalized(self) -> Option<Vec3> {
        let n = self.norm();
        if n < 1e-30 {
            None
        } else {
            Some(self / n)
        }
    }

    /// True when every component is finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, rhs: Vec3) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, rhs: Vec3) -> Vec3 {
        rhs * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x / rhs, self.y / rhs, self.z / rhs)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6}, {:.6})", self.x, self.y, self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn dot_of_orthogonal_is_zero() {
        let x = Vec3::new(1.0, 0.0, 0.0);
        let y = Vec3::new(0.0, 1.0, 0.0);
        assert_eq!(x.dot(y), 0.0);
    }

    #[test]
    fn cross_follows_right_hand_rule() {
        let x = Vec3::new(1.0, 0.0, 0.0);
        let y = Vec3::new(0.0, 1.0, 0.0);
        let z = Vec3::new(0.0, 0.0, 1.0);
        assert_eq!(x.cross(y), z);
        assert_eq!(y.cross(z), x);
        assert_eq!(z.cross(x), y);
        assert_eq!(y.cross(x), -z);
    }

    #[test]
    fn norm_of_pythagorean_triple() {
        assert!((Vec3::new(3.0, 4.0, 0.0).norm() - 5.0).abs() < EPS);
    }

    #[test]
    fn normalized_returns_unit_vector() {
        let v = Vec3::new(1.0, 2.0, -2.0).normalized().unwrap();
        assert!((v.norm() - 1.0).abs() < EPS);
    }

    #[test]
    fn normalized_zero_is_none() {
        assert!(Vec3::ZERO.normalized().is_none());
    }

    #[test]
    fn arithmetic_assign_ops() {
        let mut v = Vec3::new(1.0, 1.0, 1.0);
        v += Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(v, Vec3::new(2.0, 3.0, 4.0));
        v -= Vec3::new(2.0, 3.0, 4.0);
        assert_eq!(v, Vec3::ZERO);
    }

    #[test]
    fn scalar_mul_is_commutative() {
        let v = Vec3::new(1.0, -2.0, 3.0);
        assert_eq!(v * 2.0, 2.0 * v);
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!format!("{}", Vec3::ZERO).is_empty());
    }
}
