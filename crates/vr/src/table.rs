//! Tabulated voltage-regulator efficiency surfaces.
//!
//! PDNspot's inputs are *measured* efficiency curves — η as a function of
//! output current for a lattice of input voltages, output voltages, and VR
//! power states (§4.2 and Fig. 3 of the paper). [`EfficiencySurface`]
//! stores curves in exactly that form and interpolates between them, which
//! is also how a real PMU stores VR efficiency tables in firmware
//! (footnote 11 of the paper).
//!
//! A surface can be *sampled* from any parametric [`VoltageRegulator`]
//! model via [`EfficiencySurface::sample`], standing in for a lab
//! measurement campaign over a real device.

use crate::traits::{OperatingPoint, Placement, VoltageRegulator, VrError, VrPowerState};
use pdn_units::{Amps, Curve1, Efficiency, Volts};
use std::sync::atomic::{AtomicUsize, Ordering};

/// One measured efficiency curve: η(Iout) at fixed (Vin, Vout, power state).
#[derive(Debug, Clone, PartialEq)]
pub struct SurfaceEntry {
    /// Input voltage of the sweep.
    pub vin: Volts,
    /// Output voltage of the sweep.
    pub vout: Volts,
    /// VR power state of the sweep.
    pub power_state: VrPowerState,
    /// Efficiency versus output current in amperes (log-current axis).
    pub curve: Curve1,
}

/// A set of efficiency curves forming an η(Vin, Vout, Iout, PS) surface.
///
/// # Examples
///
/// ```
/// use pdn_units::{Amps, Volts};
/// use pdn_vr::{presets, EfficiencySurface, OperatingPoint, VoltageRegulator, VrPowerState};
///
/// // "Measure" the V_IN board VR over the Fig. 3 sweep lattice.
/// let surface = EfficiencySurface::sample(
///     &presets::vin_board_vr(),
///     &[Volts::new(7.2)],
///     &[Volts::new(1.8)],
///     &[VrPowerState::Ps0],
///     (0.1, 10.0),
///     16,
/// )?;
/// let op = OperatingPoint::new(Volts::new(7.2), Volts::new(1.8), Amps::new(2.0));
/// let direct = presets::vin_board_vr().efficiency(op)?;
/// let tabulated = surface.efficiency(op)?;
/// assert!((direct.get() - tabulated.get()).abs() < 0.01);
/// # Ok::<(), pdn_vr::VrError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EfficiencySurface {
    name: String,
    placement: Placement,
    iccmax: Amps,
    entries: Vec<SurfaceEntry>,
}

impl EfficiencySurface {
    /// Builds a surface from explicit entries.
    ///
    /// # Errors
    ///
    /// Returns [`VrError::InvalidParameter`] if `entries` is empty or
    /// `iccmax` is non-positive.
    pub fn new(
        name: impl Into<String>,
        placement: Placement,
        iccmax: Amps,
        entries: Vec<SurfaceEntry>,
    ) -> Result<Self, VrError> {
        if entries.is_empty() {
            return Err(VrError::InvalidParameter {
                parameter: "entries",
                value: 0.0,
                range: "at least one curve",
            });
        }
        if iccmax.get() <= 0.0 {
            return Err(VrError::InvalidParameter {
                parameter: "iccmax",
                value: iccmax.get(),
                range: "> 0",
            });
        }
        Ok(Self { name: name.into(), placement, iccmax, entries })
    }

    /// Samples a parametric regulator over a measurement lattice,
    /// producing the tabulated equivalent of a lab sweep: for each
    /// (Vin, Vout, PS) combination, η is recorded at `points_per_decade`-
    /// spaced currents spanning `current_range` (amperes, log-spaced).
    ///
    /// Lattice points the device cannot operate at (dropout violations,
    /// current beyond a power state's capability) are skipped, exactly as a
    /// lab sweep would skip them.
    ///
    /// # Errors
    ///
    /// Returns [`VrError::InvalidParameter`] if no lattice point is
    /// feasible.
    pub fn sample(
        vr: &dyn VoltageRegulator,
        vins: &[Volts],
        vouts: &[Volts],
        power_states: &[VrPowerState],
        current_range: (f64, f64),
        points_per_curve: usize,
    ) -> Result<Self, VrError> {
        let mut entries = Vec::new();
        let (lo, hi) = current_range;
        for &vin in vins {
            for &vout in vouts {
                if !vr.supports_conversion(vin, vout) {
                    continue;
                }
                for &ps in power_states {
                    let mut points = Vec::new();
                    for k in 0..points_per_curve {
                        let t = k as f64 / (points_per_curve - 1).max(1) as f64;
                        let i = lo * (hi / lo).powf(t);
                        let op = OperatingPoint::new(vin, vout, Amps::new(i)).with_power_state(ps);
                        if let Ok(eta) = vr.efficiency(op) {
                            points.push((i, eta.get()));
                        }
                    }
                    if points.len() >= 2 {
                        entries.push(SurfaceEntry {
                            vin,
                            vout,
                            power_state: ps,
                            curve: Curve1::from_points(points)?,
                        });
                    }
                }
            }
        }
        Self::new(format!("{}_table", vr.name()), vr.placement(), vr.iccmax(), entries)
    }

    /// Iterates over the stored curves (used to print Fig. 3).
    pub fn entries(&self) -> &[SurfaceEntry] {
        &self.entries
    }

    /// Returns the curve measured at exactly (vin, vout, ps), if any.
    pub fn curve_at(&self, vin: Volts, vout: Volts, ps: VrPowerState) -> Option<&Curve1> {
        self.entries
            .iter()
            .find(|e| {
                e.power_state == ps
                    && (e.vin.get() - vin.get()).abs() < 1e-9
                    && (e.vout.get() - vout.get()).abs() < 1e-9
            })
            .map(|e| &e.curve)
    }

    /// Compiles the surface into the flattened query-optimised form used
    /// on evaluation hot paths.
    pub fn compile(&self) -> CompiledSurface {
        CompiledSurface::from_surface(self)
    }
}

/// One curve of a [`CompiledSurface`]: its lattice coordinates plus the
/// `[start, start + len)` window into the shared knot arrays.
#[derive(Debug)]
struct CompiledEntry {
    vin: f64,
    vout: f64,
    power_state: VrPowerState,
    start: usize,
    len: usize,
    /// Last-hit segment cursor of this curve (cache only).
    hint: AtomicUsize,
}

/// A query-optimised compilation of an [`EfficiencySurface`].
///
/// The per-curve [`Curve1`]s are flattened into struct-of-arrays knot
/// buffers — raw currents for bracketing, precomputed `log10` currents
/// for interpolation, efficiencies — so a lookup touches contiguous
/// memory, reuses a per-curve segment cursor, and allocates nothing.
/// `log10` of an identical input is deterministic, so precomputing it at
/// compile time leaves every interpolation bit-identical to
/// [`EfficiencySurface::efficiency`]; the candidate scan below replicates
/// the surface's selection logic (state filter, nearest-V_IN plane,
/// V_OUT bracketing) in the same iteration order.
///
/// # Examples
///
/// ```
/// use pdn_units::{Amps, Volts};
/// use pdn_vr::{presets, EfficiencySurface, OperatingPoint, VoltageRegulator, VrPowerState};
///
/// let surface = EfficiencySurface::sample(
///     &presets::vin_board_vr(),
///     &[Volts::new(7.2)],
///     &[Volts::new(1.8)],
///     &[VrPowerState::Ps0],
///     (0.1, 10.0),
///     16,
/// )?;
/// let compiled = surface.compile();
/// let op = OperatingPoint::new(Volts::new(7.2), Volts::new(1.8), Amps::new(2.0));
/// assert_eq!(compiled.efficiency(op)?, surface.efficiency(op)?);
/// # Ok::<(), pdn_vr::VrError>(())
/// ```
#[derive(Debug)]
pub struct CompiledSurface {
    name: String,
    placement: Placement,
    iccmax: Amps,
    entries: Vec<CompiledEntry>,
    /// Knot currents (amperes) of all curves, concatenated.
    knot_xs: Vec<f64>,
    /// `log10` of [`Self::knot_xs`], precomputed at compile time.
    knot_lxs: Vec<f64>,
    /// Knot efficiencies of all curves, concatenated.
    knot_ys: Vec<f64>,
}

impl CompiledSurface {
    fn from_surface(surface: &EfficiencySurface) -> Self {
        let mut entries = Vec::with_capacity(surface.entries.len());
        let mut knot_xs = Vec::new();
        let mut knot_lxs = Vec::new();
        let mut knot_ys = Vec::new();
        for e in &surface.entries {
            let start = knot_xs.len();
            for (x, y) in e.curve.points() {
                knot_xs.push(x);
                knot_lxs.push(x.log10());
                knot_ys.push(y);
            }
            entries.push(CompiledEntry {
                vin: e.vin.get(),
                vout: e.vout.get(),
                power_state: e.power_state,
                start,
                len: knot_xs.len() - start,
                hint: AtomicUsize::new(0),
            });
        }
        Self {
            name: surface.name.clone(),
            placement: surface.placement,
            iccmax: surface.iccmax,
            entries,
            knot_xs,
            knot_lxs,
            knot_ys,
        }
    }

    /// Evaluates one compiled curve at current `x` — the allocation-free
    /// twin of [`Curve1::eval_logx`] over the shared knot buffers.
    fn eval_entry_logx(&self, entry: &CompiledEntry, x: f64) -> f64 {
        let xs = &self.knot_xs[entry.start..entry.start + entry.len];
        let lxs = &self.knot_lxs[entry.start..entry.start + entry.len];
        let ys = &self.knot_ys[entry.start..entry.start + entry.len];
        let n = xs.len();
        if x <= xs[0] {
            return ys[0];
        }
        if x >= xs[n - 1] {
            return ys[n - 1];
        }
        let h = entry.hint.load(Ordering::Relaxed);
        let lo = if h + 1 < n && xs[h] <= x && x < xs[h + 1] {
            h
        } else {
            let lo = xs.partition_point(|&xi| xi <= x) - 1;
            entry.hint.store(lo, Ordering::Relaxed);
            lo
        };
        let hi = lo + 1;
        let t = (x.log10() - lxs[lo]) / (lxs[hi] - lxs[lo]);
        ys[lo] + t * (ys[hi] - ys[lo])
    }

    fn unsupported(&self, reason: String) -> VrError {
        VrError::UnsupportedOperatingPoint { regulator: self.name.clone(), reason }
    }
}

impl VoltageRegulator for CompiledSurface {
    fn name(&self) -> &str {
        &self.name
    }

    fn placement(&self) -> Placement {
        self.placement
    }

    fn efficiency(&self, op: OperatingPoint) -> Result<Efficiency, VrError> {
        if op.iout.get() <= 0.0 || op.iout > self.iccmax {
            return Err(
                self.unsupported(format!("current {} outside (0, {}]", op.iout, self.iccmax))
            );
        }
        let in_state = || self.entries.iter().filter(|e| e.power_state == op.power_state);
        // Nearest input voltage plane (`min_by` keeps the first of equals,
        // matching the uncompiled scan).
        let Some(best_vin) = in_state()
            .map(|e| e.vin)
            .min_by(|a, b| (a - op.vin.get()).abs().total_cmp(&(b - op.vin.get()).abs()))
        else {
            return Err(self.unsupported(format!("no curves measured in {}", op.power_state)));
        };
        // Bracket the output voltage within the plane (clamped at the
        // extremes), in entry order.
        let mut below: Option<&CompiledEntry> = None;
        let mut above: Option<&CompiledEntry> = None;
        for e in in_state().filter(|e| (e.vin - best_vin).abs() < 1e-9) {
            if e.vout <= op.vout.get() && below.is_none_or(|b| e.vout > b.vout) {
                below = Some(e);
            }
            if e.vout >= op.vout.get() && above.is_none_or(|a| e.vout < a.vout) {
                above = Some(e);
            }
        }
        let i = op.iout.get();
        let eta = match (below, above) {
            (Some(b), Some(a)) if (a.vout - b.vout).abs() > 1e-12 => {
                let t = (op.vout.get() - b.vout) / (a.vout - b.vout);
                let eb = self.eval_entry_logx(b, i);
                let ea = self.eval_entry_logx(a, i);
                eb + t * (ea - eb)
            }
            (Some(e), _) | (_, Some(e)) => self.eval_entry_logx(e, i),
            (None, None) => return Err(self.unsupported("empty voltage plane".into())),
        };
        Ok(Efficiency::new(eta.clamp(1e-6, 1.0))?)
    }

    fn iccmax(&self) -> Amps {
        self.iccmax
    }

    fn supports_conversion(&self, _vin: Volts, vout: Volts) -> bool {
        self.entries.iter().any(|e| (e.vout - vout.get()).abs() < 0.25)
    }
}

impl VoltageRegulator for EfficiencySurface {
    fn name(&self) -> &str {
        &self.name
    }

    fn placement(&self) -> Placement {
        self.placement
    }

    fn efficiency(&self, op: OperatingPoint) -> Result<Efficiency, VrError> {
        if op.iout.get() <= 0.0 || op.iout > self.iccmax {
            return Err(VrError::UnsupportedOperatingPoint {
                regulator: self.name.clone(),
                reason: format!("current {} outside (0, {}]", op.iout, self.iccmax),
            });
        }
        // Restrict to the requested power state, falling back to any state
        // if it was never measured.
        let in_state: Vec<&SurfaceEntry> =
            self.entries.iter().filter(|e| e.power_state == op.power_state).collect();
        let candidates: &[&SurfaceEntry] = if in_state.is_empty() {
            return Err(VrError::UnsupportedOperatingPoint {
                regulator: self.name.clone(),
                reason: format!("no curves measured in {}", op.power_state),
            });
        } else {
            &in_state
        };
        // Nearest input voltage plane.
        let vin_dist = |e: &SurfaceEntry| (e.vin.get() - op.vin.get()).abs();
        let best_vin = candidates
            .iter()
            .map(|e| e.vin.get())
            .min_by(|a, b| (a - op.vin.get()).abs().total_cmp(&(b - op.vin.get()).abs()))
            .expect("candidates nonempty");
        let plane: Vec<&&SurfaceEntry> =
            candidates.iter().filter(|e| (e.vin.get() - best_vin).abs() < 1e-9).collect();
        let _ = vin_dist;
        // Interpolate across output voltage between the two bracketing
        // curves (clamped at the extremes).
        let mut below: Option<&SurfaceEntry> = None;
        let mut above: Option<&SurfaceEntry> = None;
        for e in &plane {
            if e.vout <= op.vout && below.is_none_or(|b| e.vout > b.vout) {
                below = Some(e);
            }
            if e.vout >= op.vout && above.is_none_or(|a| e.vout < a.vout) {
                above = Some(e);
            }
        }
        let i = op.iout.get();
        let eta = match (below, above) {
            (Some(b), Some(a)) if (a.vout.get() - b.vout.get()).abs() > 1e-12 => {
                let t = (op.vout.get() - b.vout.get()) / (a.vout.get() - b.vout.get());
                let eb = b.curve.eval_logx(i);
                let ea = a.curve.eval_logx(i);
                eb + t * (ea - eb)
            }
            (Some(e), _) | (_, Some(e)) => e.curve.eval_logx(i),
            (None, None) => {
                return Err(VrError::UnsupportedOperatingPoint {
                    regulator: self.name.clone(),
                    reason: "empty voltage plane".into(),
                })
            }
        };
        Ok(Efficiency::new(eta.clamp(1e-6, 1.0))?)
    }

    fn iccmax(&self) -> Amps {
        self.iccmax
    }

    fn supports_conversion(&self, _vin: Volts, vout: Volts) -> bool {
        self.entries.iter().any(|e| (e.vout.get() - vout.get()).abs() < 0.25)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    fn sampled() -> EfficiencySurface {
        EfficiencySurface::sample(
            &presets::vin_board_vr(),
            &[Volts::new(7.2), Volts::new(12.0)],
            &[Volts::new(0.6), Volts::new(1.0), Volts::new(1.8)],
            &[VrPowerState::Ps0, VrPowerState::Ps1],
            (0.05, 20.0),
            24,
        )
        .unwrap()
    }

    #[test]
    fn sampling_covers_the_lattice() {
        let s = sampled();
        // 2 vins × 3 vouts × 2 power states, minus PS1 curves that get
        // truncated but still have ≥ 2 feasible points.
        assert!(s.entries().len() >= 8, "got {} entries", s.entries().len());
        assert!(s.curve_at(Volts::new(7.2), Volts::new(1.8), VrPowerState::Ps0).is_some());
    }

    #[test]
    fn tabulated_matches_parametric_model() {
        let s = sampled();
        let vr = presets::vin_board_vr();
        for i in [0.1, 0.5, 1.0, 3.0, 8.0] {
            let op = OperatingPoint::new(Volts::new(7.2), Volts::new(1.0), Amps::new(i));
            let direct = vr.efficiency(op).unwrap().get();
            let tab = s.efficiency(op).unwrap().get();
            assert!(
                (direct - tab).abs() < 0.015,
                "mismatch at {i} A: direct {direct}, table {tab}"
            );
        }
    }

    #[test]
    fn interpolates_between_measured_vouts() {
        let s = sampled();
        let op = OperatingPoint::new(Volts::new(7.2), Volts::new(0.8), Amps::new(2.0));
        let eta = s.efficiency(op).unwrap().get();
        let lo = s
            .efficiency(OperatingPoint::new(Volts::new(7.2), Volts::new(0.6), Amps::new(2.0)))
            .unwrap()
            .get();
        let hi = s
            .efficiency(OperatingPoint::new(Volts::new(7.2), Volts::new(1.0), Amps::new(2.0)))
            .unwrap()
            .get();
        assert!(eta >= lo.min(hi) && eta <= lo.max(hi));
    }

    #[test]
    fn rejects_empty_and_bad_construction() {
        assert!(
            EfficiencySurface::new("x", Placement::Motherboard, Amps::new(1.0), vec![]).is_err()
        );
    }

    #[test]
    fn unknown_power_state_is_an_error() {
        let s = sampled();
        let op = OperatingPoint::new(Volts::new(7.2), Volts::new(1.0), Amps::new(0.1))
            .with_power_state(VrPowerState::Ps4);
        assert!(s.efficiency(op).is_err());
        assert!(s.compile().efficiency(op).is_err());
    }

    #[test]
    fn compiled_surface_is_bit_identical_to_uncompiled() {
        let s = sampled();
        let c = s.compile();
        assert_eq!(c.name(), s.name());
        assert_eq!(c.iccmax(), s.iccmax());
        // Sweep voltages between and beyond the measured lattice and
        // currents across the decades, in a mixed walk that exercises the
        // segment cursors.
        for &vin in &[7.2, 9.0, 12.0, 13.5] {
            for &vout in &[0.5, 0.6, 0.8, 1.0, 1.4, 1.8, 2.0] {
                for &i in &[0.06, 0.5, 8.0, 0.1, 3.0, 19.0, 0.07, 1.0] {
                    for ps in [VrPowerState::Ps0, VrPowerState::Ps1] {
                        let op =
                            OperatingPoint::new(Volts::new(vin), Volts::new(vout), Amps::new(i))
                                .with_power_state(ps);
                        match (s.efficiency(op), c.efficiency(op)) {
                            (Ok(a), Ok(b)) => assert_eq!(
                                a.get().to_bits(),
                                b.get().to_bits(),
                                "mismatch at vin={vin} vout={vout} i={i} {ps}"
                            ),
                            (Err(_), Err(_)) => {}
                            (a, b) => {
                                panic!("divergent results at {vin}/{vout}/{i}: {a:?} vs {b:?}")
                            }
                        }
                    }
                }
            }
        }
        assert!(c.supports_conversion(Volts::new(7.2), Volts::new(1.0)));
        assert!(!c.supports_conversion(Volts::new(7.2), Volts::new(3.0)));
    }
}
