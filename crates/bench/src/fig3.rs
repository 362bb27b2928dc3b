//! Fig. 3: off-chip VR efficiency curves as a function of output current,
//! output voltage, and VR power state (Vin = 7.2 V).

use crate::render::TextTable;
use pdn_units::Volts;
use pdn_vr::{presets, EfficiencySurface, VrError, VrPowerState};

/// The Fig. 3 sweep: output voltages and power states measured.
pub(crate) const VOUTS: [f64; 4] = [0.6, 0.7, 1.0, 1.8];

/// Currents reported per curve (log-spaced 0.1–10 A like the figure).
pub(crate) const CURRENTS: [f64; 7] = [0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0];

/// "Measures" the off-chip V_IN VR over the Fig. 3 lattice.
///
/// # Errors
///
/// Propagates device errors.
pub(crate) fn measure_board_vr() -> Result<EfficiencySurface, VrError> {
    EfficiencySurface::sample(
        &presets::vin_board_vr(),
        &[Volts::new(7.2)],
        &VOUTS.map(Volts::new),
        &[VrPowerState::Ps0, VrPowerState::Ps1],
        (0.05, 12.0),
        32,
    )
}

/// Renders the curves as one row per (power state, Vout) series.
///
/// # Errors
///
/// Propagates device errors.
pub fn render() -> Result<String, VrError> {
    let surface = measure_board_vr()?;
    let mut headers = vec!["series".to_string()];
    headers.extend(CURRENTS.iter().map(|i| format!("{i}A")));
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut t =
        TextTable::new("Fig. 3 — off-chip VR efficiency vs Iout (Vin = 7.2 V)", &headers_ref);
    for ps in [VrPowerState::Ps0, VrPowerState::Ps1] {
        for vout in VOUTS {
            let Some(curve) = surface.curve_at(Volts::new(7.2), Volts::new(vout), ps) else {
                continue;
            };
            let mut row = vec![format!("{ps} Vout={vout}V")];
            for i in CURRENTS {
                row.push(format!("{:.1}%", curve.eval_logx(i) * 100.0));
            }
            t.row(row);
        }
    }
    Ok(t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_match_fig3_shapes() {
        let surface = measure_board_vr().unwrap();
        // PS0 at Vout=1.8: rising from light load toward ≈ 90+ %.
        let c = surface.curve_at(Volts::new(7.2), Volts::new(1.8), VrPowerState::Ps0).unwrap();
        assert!(c.eval_logx(0.1) < c.eval_logx(5.0));
        assert!(c.eval_logx(10.0) > 0.88);
        // Higher Vout is more efficient at the same current.
        let lo = surface.curve_at(Volts::new(7.2), Volts::new(0.6), VrPowerState::Ps0).unwrap();
        assert!(lo.eval_logx(2.0) < c.eval_logx(2.0));
        // PS1 beats PS0 at 0.1 A (light-load state).
        let ps1 = surface.curve_at(Volts::new(7.2), Volts::new(1.0), VrPowerState::Ps1).unwrap();
        let ps0 = surface.curve_at(Volts::new(7.2), Volts::new(1.0), VrPowerState::Ps0).unwrap();
        assert!(ps1.eval_logx(0.1) > ps0.eval_logx(0.1));
    }

    #[test]
    fn renders_eight_series() {
        let s = render().unwrap();
        // PS1 curves get truncated by capability but PS0 has all four.
        assert!(s.matches("PS0").count() >= 4);
        assert!(s.contains("Vout=1.8V"));
    }
}
