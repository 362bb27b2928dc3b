//! Piecewise-linear curves and bilinear grids.
//!
//! PDNspot represents every empirically measured relationship — voltage-
//! regulator efficiency versus load current, leakage versus temperature,
//! voltage versus frequency, and the ETEE tables stored in PMU firmware —
//! as interpolated lookup structures, mirroring how a real power-management
//! unit stores such curves as firmware tables (§6 of the paper, footnote 11).
//!
//! [`Curve1`] is a strictly-monotone-axis piecewise-linear curve with
//! clamped extrapolation; [`Grid2`] is a rectilinear bilinear surface.

use crate::error::UnitsError;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Checks a segment hint against an axis: the hint `h` is the answer iff
/// `axis[h] <= x < axis[h + 1]` — exactly the bracket `partition_point`
/// would return, so taking the fast path never changes which segment (and
/// therefore which interpolation arithmetic) is used. On a miss the fresh
/// index is stored back with relaxed ordering; a stale value read by
/// another thread only costs that thread the binary search.
#[inline]
fn hinted_segment(axis: &[f64], hint: &AtomicUsize, x: f64) -> usize {
    let h = hint.load(Ordering::Relaxed);
    if h + 1 < axis.len() && axis[h] <= x && x < axis[h + 1] {
        return h;
    }
    let lo = axis.partition_point(|&a| a <= x) - 1;
    hint.store(lo, Ordering::Relaxed);
    lo
}

/// A one-dimensional piecewise-linear curve over a strictly increasing axis.
///
/// Evaluation outside the axis range clamps to the boundary values, which is
/// the behaviour PMU firmware uses for table lookups.
///
/// Lookups keep a segment-cursor cache: sweeps that walk the axis in
/// lattice order (the common access pattern of the grid evaluators) skip
/// the binary search entirely. The cursor is a cache, not part of the
/// curve's value — `clone`/`eq` ignore it, and hits and misses produce
/// bit-identical results.
///
/// # Examples
///
/// ```
/// use pdn_units::Curve1;
///
/// let eta = Curve1::from_points([(0.1, 0.55), (1.0, 0.80), (10.0, 0.90)])?;
/// assert_eq!(eta.eval(1.0), 0.80);
/// assert!((eta.eval(5.5) - 0.85).abs() < 1e-12);
/// assert_eq!(eta.eval(100.0), 0.90); // clamped
/// # Ok::<(), pdn_units::UnitsError>(())
/// ```
#[derive(Debug)]
pub struct Curve1 {
    xs: Vec<f64>,
    ys: Vec<f64>,
    /// Last-hit segment index (`lo` of the bracketing pair). Cache only.
    hint: AtomicUsize,
}

impl Clone for Curve1 {
    fn clone(&self) -> Self {
        Self {
            xs: self.xs.clone(),
            ys: self.ys.clone(),
            hint: AtomicUsize::new(self.hint.load(Ordering::Relaxed)),
        }
    }
}

impl PartialEq for Curve1 {
    fn eq(&self, other: &Self) -> bool {
        self.xs == other.xs && self.ys == other.ys
    }
}

impl Curve1 {
    /// Builds a curve from `(x, y)` points.
    ///
    /// # Errors
    ///
    /// Returns [`UnitsError::TooFewPoints`] for fewer than two points,
    /// [`UnitsError::NonMonotonicAxis`] if the x-axis is not strictly
    /// increasing, and [`UnitsError::NotFinite`] if any coordinate is not
    /// finite.
    pub fn from_points<I>(points: I) -> Result<Self, UnitsError>
    where
        I: IntoIterator<Item = (f64, f64)>,
    {
        let (xs, ys): (Vec<f64>, Vec<f64>) = points.into_iter().unzip();
        Self::from_axes(xs, ys)
    }

    /// Builds a curve from separate x and y vectors.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Curve1::from_points`]; additionally returns
    /// [`UnitsError::GridShapeMismatch`] if the vectors differ in length.
    pub fn from_axes(xs: Vec<f64>, ys: Vec<f64>) -> Result<Self, UnitsError> {
        if xs.len() != ys.len() {
            return Err(UnitsError::GridShapeMismatch { expected: xs.len(), got: ys.len() });
        }
        if xs.len() < 2 {
            return Err(UnitsError::TooFewPoints { got: xs.len(), need: 2 });
        }
        for (i, (&x, &y)) in xs.iter().zip(&ys).enumerate() {
            if !x.is_finite() || !y.is_finite() {
                return Err(UnitsError::NotFinite { what: "curve point" });
            }
            if i > 0 && x <= xs[i - 1] {
                return Err(UnitsError::NonMonotonicAxis { index: i });
            }
        }
        Ok(Self { xs, ys, hint: AtomicUsize::new(0) })
    }

    /// Evaluates the curve at `x`, clamping outside the axis range.
    pub fn eval(&self, x: f64) -> f64 {
        let n = self.xs.len();
        if x <= self.xs[0] {
            return self.ys[0];
        }
        if x >= self.xs[n - 1] {
            return self.ys[n - 1];
        }
        let lo = hinted_segment(&self.xs, &self.hint, x);
        let hi = lo + 1;
        let t = (x - self.xs[lo]) / (self.xs[hi] - self.xs[lo]);
        self.ys[lo] + t * (self.ys[hi] - self.ys[lo])
    }

    /// Evaluates the curve at `x` on a logarithmic x-axis (linear in
    /// `log10 x` between points). Used for VR efficiency curves whose load
    /// current spans decades (Fig. 3 of the paper).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `x` or any axis value is not positive.
    pub fn eval_logx(&self, x: f64) -> f64 {
        debug_assert!(x > 0.0, "log-axis evaluation requires positive x");
        let n = self.xs.len();
        if x <= self.xs[0] {
            return self.ys[0];
        }
        if x >= self.xs[n - 1] {
            return self.ys[n - 1];
        }
        let lo = hinted_segment(&self.xs, &self.hint, x);
        let hi = lo + 1;
        debug_assert!(self.xs[lo] > 0.0);
        let t = (x.log10() - self.xs[lo].log10()) / (self.xs[hi].log10() - self.xs[lo].log10());
        self.ys[lo] + t * (self.ys[hi] - self.ys[lo])
    }

    /// Returns the inclusive x-axis domain `(min, max)`.
    pub fn domain(&self) -> (f64, f64) {
        (self.xs[0], self.xs[self.xs.len() - 1])
    }

    /// Returns the number of knots.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Returns `true` if the curve has no knots (never true for a validated
    /// curve; provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Iterates over the `(x, y)` knots.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.xs.iter().copied().zip(self.ys.iter().copied())
    }

    /// Returns the minimum y value over the knots.
    pub fn y_min(&self) -> f64 {
        self.ys.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Returns the maximum y value over the knots.
    pub fn y_max(&self) -> f64 {
        self.ys.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Applies `f` to every y value, returning a new curve.
    ///
    /// The x-axis is already validated on this curve, so only the mapped
    /// y values are re-checked for finiteness.
    ///
    /// # Errors
    ///
    /// Returns [`UnitsError::NotFinite`] if `f` produces a non-finite
    /// value.
    pub fn map_y(&self, f: impl Fn(f64) -> f64) -> Result<Self, UnitsError> {
        let ys: Vec<f64> = self.ys.iter().map(|&y| f(y)).collect();
        if ys.iter().any(|y| !y.is_finite()) {
            return Err(UnitsError::NotFinite { what: "curve point" });
        }
        Ok(Self { xs: self.xs.clone(), ys, hint: AtomicUsize::new(0) })
    }
}

/// A two-dimensional bilinear surface on a rectilinear grid.
///
/// Values are stored row-major: `values[r * cols + c]` is the value at
/// `(row_axis[r], col_axis[c])`. Evaluation clamps both axes, mirroring PMU
/// firmware table lookups. This is the storage format of the FlexWatts
/// predictor's ETEE curve sets (TDP × AR for each workload type).
///
/// # Examples
///
/// ```
/// use pdn_units::Grid2;
///
/// // ETEE over (TDP in W) × (AR) for one workload type.
/// let g = Grid2::from_rows(
///     vec![4.0, 50.0],        // TDP axis
///     vec![0.4, 0.8],         // AR axis
///     vec![0.70, 0.72,        // 4 W row
///          0.80, 0.84],       // 50 W row
/// )?;
/// assert!((g.eval(27.0, 0.6) - 0.765).abs() < 1e-12);
/// # Ok::<(), pdn_units::UnitsError>(())
/// ```
#[derive(Debug)]
pub struct Grid2 {
    rows: Vec<f64>,
    cols: Vec<f64>,
    values: Vec<f64>,
    /// Last-hit segment cursors per axis. Caches only — `clone`/`eq`
    /// ignore them, and hits and misses produce bit-identical results.
    row_hint: AtomicUsize,
    col_hint: AtomicUsize,
}

impl Clone for Grid2 {
    fn clone(&self) -> Self {
        Self {
            rows: self.rows.clone(),
            cols: self.cols.clone(),
            values: self.values.clone(),
            row_hint: AtomicUsize::new(self.row_hint.load(Ordering::Relaxed)),
            col_hint: AtomicUsize::new(self.col_hint.load(Ordering::Relaxed)),
        }
    }
}

impl PartialEq for Grid2 {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.values == other.values
    }
}

impl Grid2 {
    /// Builds a grid from its two axes and row-major values.
    ///
    /// # Errors
    ///
    /// Returns [`UnitsError::TooFewPoints`] if either axis has fewer than
    /// two knots, [`UnitsError::NonMonotonicAxis`] if an axis is not
    /// strictly increasing, [`UnitsError::GridShapeMismatch`] if
    /// `values.len() != rows.len() * cols.len()`, and
    /// [`UnitsError::NotFinite`] if any value is not finite.
    pub fn from_rows(rows: Vec<f64>, cols: Vec<f64>, values: Vec<f64>) -> Result<Self, UnitsError> {
        for axis in [&rows, &cols] {
            if axis.len() < 2 {
                return Err(UnitsError::TooFewPoints { got: axis.len(), need: 2 });
            }
            for i in 1..axis.len() {
                if !axis[i].is_finite() || axis[i] <= axis[i - 1] {
                    return Err(UnitsError::NonMonotonicAxis { index: i });
                }
            }
        }
        let expected = rows.len() * cols.len();
        if values.len() != expected {
            return Err(UnitsError::GridShapeMismatch { expected, got: values.len() });
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(UnitsError::NotFinite { what: "grid value" });
        }
        Ok(Self {
            rows,
            cols,
            values,
            row_hint: AtomicUsize::new(0),
            col_hint: AtomicUsize::new(0),
        })
    }

    /// Evaluates the surface at `(row, col)` with bilinear interpolation,
    /// clamping both coordinates to the grid domain.
    pub fn eval(&self, row: f64, col: f64) -> f64 {
        let (r0, r1, tr) = Self::bracket(&self.rows, &self.row_hint, row);
        let (c0, c1, tc) = Self::bracket(&self.cols, &self.col_hint, col);
        let nc = self.cols.len();
        let v00 = self.values[r0 * nc + c0];
        let v01 = self.values[r0 * nc + c1];
        let v10 = self.values[r1 * nc + c0];
        let v11 = self.values[r1 * nc + c1];
        let top = v00 + tc * (v01 - v00);
        let bot = v10 + tc * (v11 - v10);
        top + tr * (bot - top)
    }

    /// Returns `(lo, hi, t)` such that `axis[lo] ≤ x ≤ axis[hi]` with
    /// interpolation parameter `t`, clamped to the axis range.
    fn bracket(axis: &[f64], hint: &AtomicUsize, x: f64) -> (usize, usize, f64) {
        let n = axis.len();
        if x <= axis[0] {
            return (0, 0, 0.0);
        }
        if x >= axis[n - 1] {
            return (n - 1, n - 1, 0.0);
        }
        let lo = hinted_segment(axis, hint, x);
        let hi = lo + 1;
        let t = (x - axis[lo]) / (axis[hi] - axis[lo]);
        (lo, hi, t)
    }

    /// Returns the row axis knots.
    pub fn row_axis(&self) -> &[f64] {
        &self.rows
    }

    /// Returns the column axis knots.
    pub fn col_axis(&self) -> &[f64] {
        &self.cols
    }

    /// Returns the grid dimensions as `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows.len(), self.cols.len())
    }

    /// Total number of stored table entries — the firmware memory footprint
    /// proxy used by the predictor-resolution ablation.
    pub fn table_entries(&self) -> usize {
        self.values.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_rejects_invalid_input() {
        assert!(Curve1::from_points([(0.0, 1.0)]).is_err());
        assert!(Curve1::from_points([(0.0, 1.0), (0.0, 2.0)]).is_err());
        assert!(Curve1::from_points([(1.0, 1.0), (0.5, 2.0)]).is_err());
        assert!(Curve1::from_points([(0.0, f64::NAN), (1.0, 2.0)]).is_err());
    }

    #[test]
    fn curve_interpolates_and_clamps() {
        let c = Curve1::from_points([(0.0, 0.0), (2.0, 4.0)]).unwrap();
        assert_eq!(c.eval(1.0), 2.0);
        assert_eq!(c.eval(-5.0), 0.0);
        assert_eq!(c.eval(9.0), 4.0);
        assert_eq!(c.domain(), (0.0, 2.0));
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    #[test]
    fn curve_hits_knots_exactly() {
        let c = Curve1::from_points([(1.0, 10.0), (2.0, 20.0), (4.0, 15.0)]).unwrap();
        for (x, y) in c.points() {
            assert_eq!(c.eval(x), y);
        }
        assert_eq!(c.y_min(), 10.0);
        assert_eq!(c.y_max(), 20.0);
    }

    #[test]
    fn logx_interpolation_is_linear_in_decades() {
        // Efficiency from 60% at 0.1 A to 80% at 10 A should be 70% at 1 A
        // on a log axis.
        let c = Curve1::from_points([(0.1, 0.60), (10.0, 0.80)]).unwrap();
        assert!((c.eval_logx(1.0) - 0.70).abs() < 1e-12);
        assert_eq!(c.eval_logx(0.01), 0.60);
        assert_eq!(c.eval_logx(100.0), 0.80);
    }

    #[test]
    fn map_y_transforms_values() {
        let c = Curve1::from_points([(0.0, 1.0), (1.0, 2.0)]).unwrap();
        let doubled = c.map_y(|y| 2.0 * y).unwrap();
        assert_eq!(doubled.eval(1.0), 4.0);
        assert!(c.map_y(|y| y / 0.0).is_err());
    }

    #[test]
    fn hinted_eval_matches_fresh_curve_on_any_walk() {
        // The cursor cache must be invisible: evaluating a warm curve (hint
        // pointing anywhere) is bit-identical to evaluating a cold clone.
        let pts: Vec<(f64, f64)> = (0..12).map(|i| (i as f64, (i * i) as f64 * 0.37)).collect();
        let warm = Curve1::from_points(pts.clone()).unwrap();
        // Walk forward, backward, and jump around to exercise hits and misses.
        let walk: Vec<f64> = (0..120)
            .map(|i| (i as f64) * 0.1)
            .chain((0..120).rev().map(|i| (i as f64) * 0.1))
            .chain([7.3, 0.2, 10.9, 0.2, 5.5, 11.9, -1.0, 13.0])
            .collect();
        for &x in &walk {
            let cold = Curve1::from_points(pts.clone()).unwrap();
            assert_eq!(warm.eval(x).to_bits(), cold.eval(x).to_bits(), "eval({x})");
        }
        // eval_logx needs a strictly positive axis.
        let log_pts: Vec<(f64, f64)> = (0..10).map(|i| (10f64.powi(i - 4), i as f64)).collect();
        let warm_log = Curve1::from_points(log_pts.clone()).unwrap();
        for &x in &walk {
            let x = x.max(0.05);
            let cold = Curve1::from_points(log_pts.clone()).unwrap();
            assert_eq!(warm_log.eval_logx(x).to_bits(), cold.eval_logx(x).to_bits());
        }
    }

    #[test]
    fn hinted_grid_eval_matches_fresh_grid() {
        let (rows, cols) = (vec![1.0, 2.0, 4.0, 8.0], vec![0.1, 0.4, 0.9]);
        let values: Vec<f64> =
            rows.iter().flat_map(|&r| cols.iter().map(move |&c| r * c + 1.0)).collect();
        let grid = || Grid2::from_rows(rows.clone(), cols.clone(), values.clone()).unwrap();
        let warm = grid();
        for &(r, c) in
            &[(3.0, 0.5), (1.5, 0.2), (7.9, 0.85), (0.0, 1.0), (9.0, 0.0), (3.0, 0.5), (2.0, 0.4)]
        {
            let cold = grid();
            assert_eq!(warm.eval(r, c).to_bits(), cold.eval(r, c).to_bits(), "eval({r}, {c})");
        }
    }

    #[test]
    fn grid_validation() {
        assert!(Grid2::from_rows(vec![0.0], vec![0.0, 1.0], vec![1.0, 2.0]).is_err());
        assert!(Grid2::from_rows(vec![0.0, 1.0], vec![1.0, 0.5], vec![0.0; 4]).is_err());
        assert!(Grid2::from_rows(vec![0.0, 1.0], vec![0.0, 1.0], vec![0.0; 3]).is_err());
        assert!(Grid2::from_rows(vec![0.0, 1.0], vec![0.0, 1.0], vec![0.0, 1.0, 2.0, f64::NAN])
            .is_err());
    }

    #[test]
    fn grid_bilinear_center() {
        let g = Grid2::from_rows(vec![0.0, 1.0], vec![0.0, 1.0], vec![0.0, 1.0, 1.0, 2.0]).unwrap();
        assert_eq!(g.eval(0.5, 0.5), 1.0);
        assert_eq!(g.eval(0.0, 0.0), 0.0);
        assert_eq!(g.eval(1.0, 1.0), 2.0);
        // Clamped corners.
        assert_eq!(g.eval(-1.0, -1.0), 0.0);
        assert_eq!(g.eval(2.0, 2.0), 2.0);
        assert_eq!(g.shape(), (2, 2));
        assert_eq!(g.table_entries(), 4);
    }
}
