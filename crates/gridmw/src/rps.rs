//! RPS-style resource prediction \[11\]: "Fed by a streaming
//! time-series produced by a resource sensor, it provides time-series
//! and application-level performance predictions on which basis
//! applications can make adaptation decisions."
//!
//! The predictor fits an AR(p) model over a sliding window of
//! measurements (host load, bandwidth) by least squares and produces
//! multi-step forecasts with widening confidence intervals.

use std::collections::VecDeque;

/// A fitted AR(p) model.
#[derive(Clone, Debug, PartialEq)]
pub struct ArModel {
    /// AR coefficients, lag 1 first.
    pub coeffs: Vec<f64>,
    /// Intercept term.
    pub intercept: f64,
    /// Residual (innovation) variance.
    pub noise_var: f64,
}

/// One forecast step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Prediction {
    /// Expected value.
    pub mean: f64,
    /// Half-width of the ~95% confidence interval.
    pub ci95: f64,
}

/// Errors from fitting.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FitError {
    /// Fewer observations than needed for the model order.
    TooFewObservations {
        /// Observations available.
        have: usize,
        /// Observations required.
        need: usize,
    },
    /// The design matrix was singular (constant series).
    Singular,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::TooFewObservations { have, need } => {
                write!(f, "need {need} observations, have {have}")
            }
            FitError::Singular => write!(f, "design matrix is singular"),
        }
    }
}

impl std::error::Error for FitError {}

/// Solves `A x = b` by Gaussian elimination with partial pivoting.
/// Returns `None` when the system is singular.
#[expect(
    clippy::needless_range_loop,
    reason = "index loops are clearer than iterator gymnastics for in-place row elimination \
              (two rows of `a` are borrowed at once)"
)]
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // pivot
        let (pivot_row, pivot_val) = (col..n)
            .map(|r| (r, a[r][col].abs()))
            .max_by(|x, y| x.1.partial_cmp(&y.1).expect("finite"))
            .expect("non-empty");
        if pivot_val < 1e-12 {
            return None;
        }
        a.swap(col, pivot_row);
        b.swap(col, pivot_row);
        for row in col + 1..n {
            let f = a[row][col] / a[col][col];
            for k in col..n {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in row + 1..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

/// Sliding-window AR(p) predictor.
///
/// ```
/// use gridvm_gridmw::rps::ArPredictor;
///
/// let mut p = ArPredictor::new(1, 256);
/// for i in 0..200 {
///     p.observe(if i % 2 == 0 { 1.0 } else { 0.0 });
/// }
/// let model = p.fit()?;
/// assert!(model.coeffs[0] < 0.0, "alternating series has negative lag-1");
/// # Ok::<(), gridvm_gridmw::rps::FitError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ArPredictor {
    order: usize,
    window: VecDeque<f64>,
    capacity: usize,
}

impl ArPredictor {
    /// Creates a predictor of the given AR order over a sliding
    /// window of `capacity` observations.
    ///
    /// # Panics
    ///
    /// Panics on zero order, or capacity too small to fit the order.
    pub fn new(order: usize, capacity: usize) -> Self {
        assert!(order > 0, "AR(0) is not a model");
        assert!(
            capacity >= order * 4 + 4,
            "window of {capacity} too small for AR({order})"
        );
        ArPredictor {
            order,
            window: VecDeque::with_capacity(capacity),
            capacity,
        }
    }

    /// The model order.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Observations currently in the window.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// True when no observations have been made.
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Appends a measurement, evicting the oldest beyond capacity.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite measurement.
    pub fn observe(&mut self, value: f64) {
        assert!(value.is_finite(), "non-finite observation {value}");
        if self.window.len() == self.capacity {
            self.window.pop_front();
        }
        self.window.push_back(value);
    }

    /// Fits the AR(p) model to the current window by least squares.
    ///
    /// # Errors
    ///
    /// [`FitError`] when too few observations or the series is
    /// degenerate.
    pub fn fit(&self) -> Result<ArModel, FitError> {
        let p = self.order;
        let xs: Vec<f64> = self.window.iter().copied().collect();
        let need = p * 3 + 3;
        if xs.len() < need {
            return Err(FitError::TooFewObservations {
                have: xs.len(),
                need,
            });
        }
        let rows = xs.len() - p;
        // Design: [x_{t-1} ... x_{t-p} 1] -> x_t
        let dim = p + 1;
        let mut ata = vec![vec![0.0; dim]; dim];
        let mut atb = vec![0.0; dim];
        for t in p..xs.len() {
            let mut row = Vec::with_capacity(dim);
            for lag in 1..=p {
                row.push(xs[t - lag]);
            }
            row.push(1.0);
            for i in 0..dim {
                for j in 0..dim {
                    ata[i][j] += row[i] * row[j];
                }
                atb[i] += row[i] * xs[t];
            }
        }
        let sol = solve(ata, atb).ok_or(FitError::Singular)?;
        let (coeffs, intercept) = (sol[..p].to_vec(), sol[p]);
        // Residual variance.
        let mut ss = 0.0;
        for t in p..xs.len() {
            let mut pred = intercept;
            for (lag, c) in coeffs.iter().enumerate() {
                pred += c * xs[t - lag - 1];
            }
            ss += (xs[t] - pred).powi(2);
        }
        Ok(ArModel {
            coeffs,
            intercept,
            noise_var: ss / rows as f64,
        })
    }

    /// Forecasts `steps` values ahead using a fitted model and the
    /// current window tail. Confidence intervals widen with the
    /// horizon (variance accumulates through the AR recursion).
    ///
    /// # Panics
    ///
    /// Panics if the window holds fewer than `order` observations or
    /// `steps` is zero.
    pub fn predict(&self, model: &ArModel, steps: usize) -> Vec<Prediction> {
        assert!(steps > 0, "zero-step forecast");
        assert!(
            self.window.len() >= self.order,
            "window shorter than model order"
        );
        let mut state: Vec<f64> = self.window.iter().rev().take(self.order).copied().collect(); // state[0] = most recent
        let mut out = Vec::with_capacity(steps);
        let mut var = 0.0;
        // Variance propagation via the lag-1 coefficient dominates;
        // the exact MA(∞) expansion is overkill for adaptation hints.
        let gain: f64 = model.coeffs.iter().sum::<f64>().abs().min(0.999);
        for _ in 0..steps {
            let mut mean = model.intercept;
            for (lag, c) in model.coeffs.iter().enumerate() {
                mean += c * state[lag];
            }
            var = model.noise_var + gain * gain * var;
            out.push(Prediction {
                mean,
                ci95: 1.96 * var.sqrt(),
            });
            state.rotate_right(1);
            state[0] = mean;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridvm_simcore::rng::SimRng;

    fn ar1_series(phi: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SimRng::seed_from(seed);
        let mut x = 0.0;
        (0..n)
            .map(|_| {
                x = 2.0 + phi * (x - 2.0) + rng.normal(0.0, 0.1);
                x
            })
            .collect()
    }

    #[test]
    fn recovers_ar1_coefficient() {
        let mut p = ArPredictor::new(1, 2048);
        for v in ar1_series(0.9, 2000, 1) {
            p.observe(v);
        }
        let m = p.fit().unwrap();
        assert!(
            (m.coeffs[0] - 0.9).abs() < 0.05,
            "phi estimate {}",
            m.coeffs[0]
        );
        assert!(m.noise_var < 0.02, "noise var {}", m.noise_var);
    }

    #[test]
    fn prediction_beats_the_long_run_mean_short_term() {
        let series = ar1_series(0.95, 3000, 2);
        let mut p = ArPredictor::new(1, 1024);
        for v in &series[..2999] {
            p.observe(*v);
        }
        let truth = series[2999];
        let m = p.fit().unwrap();
        let pred = p.predict(&m, 1)[0].mean;
        let long_run_mean: f64 = series.iter().sum::<f64>() / series.len() as f64;
        assert!(
            (pred - truth).abs() < (long_run_mean - truth).abs() + 0.05,
            "AR forecast {pred} vs mean {long_run_mean}, truth {truth}"
        );
    }

    #[test]
    fn confidence_widens_with_horizon() {
        let mut p = ArPredictor::new(1, 1024);
        for v in ar1_series(0.9, 1000, 3) {
            p.observe(v);
        }
        let m = p.fit().unwrap();
        let f = p.predict(&m, 20);
        assert!(f[19].ci95 > f[0].ci95, "CI must widen");
        assert!(f[0].ci95 > 0.0);
    }

    #[test]
    fn higher_order_models_fit() {
        let mut p = ArPredictor::new(3, 1024);
        for v in ar1_series(0.8, 900, 4) {
            p.observe(v);
        }
        let m = p.fit().unwrap();
        assert_eq!(m.coeffs.len(), 3);
        let f = p.predict(&m, 5);
        assert_eq!(f.len(), 5);
        assert!(f.iter().all(|x| x.mean.is_finite()));
    }

    #[test]
    fn too_few_observations_is_an_error() {
        let mut p = ArPredictor::new(2, 64);
        p.observe(1.0);
        p.observe(2.0);
        assert!(matches!(p.fit(), Err(FitError::TooFewObservations { .. })));
    }

    #[test]
    fn constant_series_is_singular() {
        let mut p = ArPredictor::new(2, 128);
        for _ in 0..100 {
            p.observe(5.0);
        }
        assert_eq!(p.fit(), Err(FitError::Singular));
    }

    #[test]
    fn window_slides() {
        let mut p = ArPredictor::new(1, 8);
        for i in 0..100 {
            p.observe(f64::from(i));
        }
        assert_eq!(p.len(), 8);
    }

    #[test]
    fn solver_handles_small_systems() {
        let a = vec![vec![2.0, 1.0], vec![1.0, 3.0]];
        let b = vec![5.0, 10.0];
        let x = solve(a, b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!(solve(vec![vec![1.0, 1.0], vec![1.0, 1.0]], vec![1.0, 2.0]).is_none());
    }
}
