//! A small complex-number type for AC analysis.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number `re + j·im`.
///
/// # Example
///
/// ```
/// use stc_circuit::linalg::Complex;
///
/// let z = Complex::new(3.0, 4.0);
/// assert_eq!(z.norm(), 5.0);
/// assert_eq!((z * Complex::j()).re, -4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number from its real and imaginary parts.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// The additive identity.
    pub fn zero() -> Self {
        Complex { re: 0.0, im: 0.0 }
    }

    /// The multiplicative identity.
    pub fn one() -> Self {
        Complex { re: 1.0, im: 0.0 }
    }

    /// The imaginary unit `j`.
    pub fn j() -> Self {
        Complex { re: 0.0, im: 1.0 }
    }

    /// A purely real number.
    pub fn real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Magnitude `sqrt(re² + im²)`.
    pub fn norm(&self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude.
    pub fn norm_sqr(&self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Multiplicative inverse.  A NaN part gives NaN parts, and a number
    /// whose squared magnitude underflows to zero gives infinite or NaN
    /// parts.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the number is exactly zero.
    pub fn recip(&self) -> Self {
        debug_assert!(self.re != 0.0 || self.im != 0.0, "reciprocal of zero");
        let d = self.norm_sqr();
        Complex { re: self.re / d, im: -self.im / d }
    }

    /// Whether both parts are finite.
    pub fn is_finite(&self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::real(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex { re: self.re + rhs.re, im: self.im + rhs.im }
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex { re: self.re - rhs.re, im: self.im - rhs.im }
    }
}

impl SubAssign for Complex {
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex { re: self.re * rhs.re - self.im * rhs.im, im: self.re * rhs.im + self.im * rhs.re }
    }
}

impl MulAssign for Complex {
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, rhs: f64) -> Complex {
        Complex { re: self.re * rhs, im: self.im * rhs }
    }
}

impl Div for Complex {
    type Output = Complex;
    // Division by multiplying with the reciprocal is the numerically
    // standard complex formulation.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex { re: -self.re, im: -self.im }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_matches_hand_calculation() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        let q = a / b;
        let back = q * b;
        assert!((back.re - a.re).abs() < 1e-12);
        assert!((back.im - a.im).abs() < 1e-12);
    }

    #[test]
    fn norm_and_arg() {
        let z = Complex::new(0.0, 2.0);
        assert_eq!(z.norm(), 2.0);
        assert!((z.im.atan2(z.re) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert_eq!(Complex::real(-1.0).norm(), 1.0);
    }

    #[test]
    fn recip_is_the_multiplicative_inverse() {
        let z = Complex::new(2.0, -3.0);
        let r = z.recip() * z;
        assert!((r.re - 1.0).abs() < 1e-12 && r.im.abs() < 1e-12);
    }

    #[test]
    fn recip_of_nan_or_of_a_tiny_number_is_not_finite() {
        // Only an exact zero is refused; an AC system with a NaN entry must
        // reach the LU, which reports it, in debug builds too.
        assert!(Complex::new(f64::NAN, 1.0).recip().re.is_nan());
        assert!(!Complex::new(1e-170, 0.0).recip().is_finite());
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2j");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2j");
    }

    #[test]
    fn identities() {
        assert_eq!(Complex::one() * Complex::j(), Complex::j());
        assert_eq!(Complex::j() * Complex::j(), Complex::real(-1.0));
        assert_eq!(Complex::zero() + Complex::one(), Complex::one());
        assert_eq!(Complex::from(2.5).re, 2.5);
    }
}
