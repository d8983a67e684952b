//! Linear regression with R², used by the experiment harness.
//!
//! The paper's cascading-cold-start linearity claims (§2.3) are linear
//! fits of overhead against chain length. [`linear_regression`]
//! reproduces them; latency summaries live with the platform's reports.

/// Result of an ordinary-least-squares linear fit `y = slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination in `[0, 1]` (1 for a perfect fit).
    pub r_squared: f64,
}

/// Ordinary least-squares fit of `ys` against `xs`, with R².
///
/// Used to reproduce the paper's claim that cascading cold-start overhead is
/// linear in chain length (R² = 0.993 on ASF, 0.953 on ADF, §2.3).
///
/// Returns `None` when fewer than two points are given, when the lengths
/// differ, or when all `xs` are identical (vertical line).
///
/// # Example
///
/// ```
/// use xanadu_simcore::stats::linear_regression;
///
/// let xs = [1.0, 2.0, 3.0, 4.0];
/// let ys = [2.1, 4.0, 6.1, 8.0];
/// let fit = linear_regression(&xs, &ys).unwrap();
/// assert!((fit.slope - 1.98).abs() < 0.05);
/// assert!(fit.r_squared > 0.99);
/// ```
pub fn linear_regression(xs: &[f64], ys: &[f64]) -> Option<LinearFit> {
    if xs.len() != ys.len() || xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxx += (x - mean_x) * (x - mean_x);
        sxy += (x - mean_x) * (y - mean_y);
        syy += (y - mean_y) * (y - mean_y);
    }
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r_squared = if syy == 0.0 {
        1.0 // ys constant and fit reproduces them exactly
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    Some(LinearFit {
        slope,
        intercept,
        r_squared,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regression_perfect_line() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [3.0, 5.0, 7.0];
        let f = linear_regression(&xs, &ys).unwrap();
        assert!((f.slope - 2.0).abs() < 1e-12);
        assert!((f.intercept - 1.0).abs() < 1e-12);
        assert!((f.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn regression_noisy_line_high_r2() {
        let xs: Vec<f64> = (1..=20).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 4.0 * x + 2.0 + (x * 7.0).sin()).collect();
        let f = linear_regression(&xs, &ys).unwrap();
        assert!(f.r_squared > 0.99, "r2 {}", f.r_squared);
        assert!((f.slope - 4.0).abs() < 0.1);
    }

    #[test]
    fn regression_rejects_degenerate_inputs() {
        assert!(linear_regression(&[1.0], &[1.0]).is_none());
        assert!(linear_regression(&[1.0, 2.0], &[1.0]).is_none());
        assert!(linear_regression(&[2.0, 2.0, 2.0], &[1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    fn regression_constant_y_has_r2_one() {
        let f = linear_regression(&[1.0, 2.0, 3.0], &[5.0, 5.0, 5.0]).unwrap();
        assert_eq!(f.slope, 0.0);
        assert_eq!(f.intercept, 5.0);
        assert_eq!(f.r_squared, 1.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn regression_r2_in_unit_interval(
            pts in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 2..60)
        ) {
            let xs: Vec<f64> = pts.iter().map(|p| p.0).collect();
            let ys: Vec<f64> = pts.iter().map(|p| p.1).collect();
            if let Some(f) = linear_regression(&xs, &ys) {
                prop_assert!(f.r_squared >= -1e-9 && f.r_squared <= 1.0 + 1e-9,
                    "r2 {}", f.r_squared);
            }
        }
    }
}
