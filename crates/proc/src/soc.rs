//! SoC specifications: the processor configurations of Tables 1 and 3.
//!
//! [`client_soc`] builds the paper's modelled client processor (two CPU
//! cores, LLC, graphics, SA, IO — Table 1) at a given TDP design point.
//! Domain power models are calibrated so the nominal power ranges match
//! Table 2: cores 0.6–30 W, LLC 0.5–4 W, graphics 0.58–29.4 W across the
//! 4–50 W TDP range, with SA+IO nearly constant (Fig. 2b).

use crate::domain::{DomainKind, DomainState, DomainTable};
use crate::power::{DomainPowerModel, DEFAULT_CLOCK_FRACTION, LEAKAGE_VOLTAGE_EXPONENT};
use crate::vf::VfCurve;
use pdn_units::{Celsius, Hertz, Ratio, Volts, Watts};

/// Junction temperature used for battery-life evaluations (§7.1).
pub const TJ_BATTERY_LIFE: Celsius = Celsius::new(50.0);

/// Static configuration of one domain.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainConfig {
    /// The power model.
    pub power: DomainPowerModel,
    /// The voltage/frequency curve.
    pub vf: VfCurve,
    /// Minimum operating frequency.
    pub fmin: Hertz,
    /// Maximum (architectural) operating frequency.
    pub fmax: Hertz,
}

impl DomainConfig {
    /// Nominal power of the domain in a given runtime state at junction
    /// temperature `tj`. Power-gated domains consume nothing.
    pub fn nominal_power(&self, state: &DomainState, tj: Celsius) -> Watts {
        if !state.powered {
            return Watts::ZERO;
        }
        let f = state.frequency.clamp(self.fmin, self.fmax);
        let v = self.vf.voltage_at(f);
        self.power.nominal_power(f, v, state.activity, tj)
    }

    /// Rail voltage required for a runtime state.
    pub fn voltage_for(&self, state: &DomainState) -> Volts {
        self.vf.voltage_at(state.frequency.clamp(self.fmin, self.fmax))
    }

    /// Hoists the activity-independent half of [`DomainConfig::nominal_power`]
    /// at a fixed frequency and temperature: the frequency clamp, the V/f
    /// interpolation and the leakage `powf`/`exp` are computed once, and
    /// [`HoistedDomainPower::nominal_at`] reproduces `nominal_power` for any
    /// activity bit-for-bit. Row-at-a-time lattice evaluation builds one of
    /// these per (row, domain) and sweeps activity over the row.
    pub fn hoist_active(&self, frequency: Hertz, tj: Celsius) -> HoistedDomainPower {
        let f = frequency.clamp(self.fmin, self.fmax);
        let v = self.vf.voltage_at(f);
        HoistedDomainPower {
            frequency: f,
            voltage: v,
            leakage: self.power.leakage_power(v, tj),
            ceff: self.power.ceff,
            clock_fraction: self.power.clock_fraction,
            leakage_fraction: self.power.guardband_leakage_fraction,
        }
    }
}

/// The activity-independent half of a powered domain's operating point:
/// clamped frequency, interpolated rail voltage, and the (expensive)
/// leakage power, computed once per lattice row by
/// [`DomainConfig::hoist_active`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoistedDomainPower {
    frequency: Hertz,
    voltage: Volts,
    leakage: Watts,
    ceff: f64,
    clock_fraction: f64,
    leakage_fraction: Ratio,
}

impl HoistedDomainPower {
    /// The rail voltage at the hoisted operating point — the value
    /// [`DomainConfig::voltage_for`] would return for the same frequency.
    pub fn voltage(&self) -> Volts {
        self.voltage
    }

    /// The design-time guardband leakage fraction of the domain.
    pub fn leakage_fraction(&self) -> Ratio {
        self.leakage_fraction
    }

    /// Nominal power at `activity` — bit-identical to
    /// [`DomainConfig::nominal_power`] on an active state at the hoisted
    /// frequency: the dynamic share repeats the exact
    /// `DomainPowerModel::dynamic_power` expression (left-to-right
    /// multiply order matters) and adds the precomputed leakage term.
    pub fn nominal_at(&self, activity: pdn_units::ApplicationRatio) -> Watts {
        let effective = self.clock_fraction + (1.0 - self.clock_fraction) * activity.get();
        Watts::new(
            effective * self.ceff * self.frequency.get() * self.voltage.get() * self.voltage.get(),
        ) + self.leakage
    }
}

/// A complete SoC specification (Table 1 architecture at one TDP point).
///
/// # Examples
///
/// ```
/// use pdn_proc::{client_soc, DomainKind, DomainState};
/// use pdn_units::{ApplicationRatio, Hertz, Watts};
///
/// let soc = client_soc(Watts::new(50.0));
/// let state = DomainState::active(
///     Hertz::from_gigahertz(4.0),
///     ApplicationRatio::POWER_VIRUS,
/// );
/// let both_cores = soc.domain(DomainKind::Core0).nominal_power(&state, soc.tj_active)
///     + soc.domain(DomainKind::Core1).nominal_power(&state, soc.tj_active);
/// assert!(both_cores.get() > 20.0 && both_cores.get() < 40.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SocSpec {
    /// Human-readable name.
    pub name: String,
    /// Thermal design power of this configuration.
    pub tdp: Watts,
    /// Junction temperature assumed for active (performance) workloads.
    /// §7.1: 80 °C for fan-less 4–8 W parts, 100 °C above.
    pub tj_active: Celsius,
    /// Process node, for reporting (both Table 3 systems are 14 nm).
    pub process_node_nm: u32,
    domains: DomainTable<DomainConfig>,
}

impl SocSpec {
    /// Returns the configuration of a domain.
    pub fn domain(&self, kind: DomainKind) -> &DomainConfig {
        self.domains.get(kind)
    }

    /// Iterates over `(kind, config)` pairs in canonical order.
    pub fn domains(&self) -> impl Iterator<Item = (DomainKind, &DomainConfig)> {
        self.domains.iter()
    }
}

/// Builder for the paper's client SoC at a chosen TDP design point.
///
/// # Examples
///
/// ```
/// use pdn_proc::ClientSocBuilder;
/// use pdn_units::{Celsius, Watts};
///
/// let soc = ClientSocBuilder::new(Watts::new(18.0))
///     .name("custom-18W")
///     .junction_temperature(Celsius::new(90.0))
///     .build();
/// assert_eq!(soc.tdp, Watts::new(18.0));
/// assert_eq!(soc.tj_active, Celsius::new(90.0));
/// ```
#[derive(Debug, Clone)]
pub struct ClientSocBuilder {
    tdp: Watts,
    name: Option<String>,
    tj_active: Option<Celsius>,
    leakage_scale: f64,
}

impl ClientSocBuilder {
    /// Starts a builder for a SoC with the given TDP.
    pub fn new(tdp: Watts) -> Self {
        Self { tdp, name: None, tj_active: None, leakage_scale: 1.0 }
    }

    /// Overrides the SoC name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Overrides the active junction temperature (default: the paper's
    /// fan-less assumption — 80 °C for TDP ≤ 8 W, 100 °C above).
    pub fn junction_temperature(mut self, tj: Celsius) -> Self {
        self.tj_active = Some(tj);
        self
    }

    /// Scales all leakage reference powers (process-bin modelling, used by
    /// the validation reference system's per-unit variation).
    pub fn leakage_scale(mut self, scale: f64) -> Self {
        self.leakage_scale = scale;
        self
    }

    /// Builds the SoC specification.
    pub fn build(self) -> SocSpec {
        let tdp = self.tdp;
        let tj_active = self.tj_active.unwrap_or(if tdp.get() <= 8.0 {
            Celsius::new(80.0)
        } else {
            Celsius::new(100.0)
        });
        let ratio = |v: f64| Ratio::new(v).expect("static fractions are valid");
        let ls = self.leakage_scale;
        // SA/IO power grows mildly with the design point (bigger display
        // pipes, more IO lanes) but stays narrow — Fig. 2b.
        let sa_io_scale = 1.0 + 0.4 * ((tdp.get() - 4.0) / 46.0).clamp(0.0, 1.0);

        let core = |kind: DomainKind| DomainConfig {
            power: DomainPowerModel {
                kind,
                ceff: 4.05e-9,
                leak_ref: Watts::new(1.65 * ls),
                vref: Volts::new(0.85),
                tref: Celsius::new(100.0),
                leak_voltage_exp: LEAKAGE_VOLTAGE_EXPONENT,
                leak_temp_coeff: 0.02,
                guardband_leakage_fraction: ratio(0.22),
                clock_fraction: DEFAULT_CLOCK_FRACTION,
            },
            vf: VfCurve::client_core(),
            fmin: Hertz::from_gigahertz(0.8),
            fmax: Hertz::from_gigahertz(4.0),
        };

        let llc = DomainConfig {
            power: DomainPowerModel {
                kind: DomainKind::Llc,
                ceff: 1.11e-9,
                leak_ref: Watts::new(0.80 * ls),
                vref: Volts::new(0.85),
                tref: Celsius::new(100.0),
                leak_voltage_exp: LEAKAGE_VOLTAGE_EXPONENT,
                leak_temp_coeff: 0.02,
                guardband_leakage_fraction: ratio(0.22),
                clock_fraction: DEFAULT_CLOCK_FRACTION,
            },
            vf: VfCurve::client_llc(),
            fmin: Hertz::from_gigahertz(0.8),
            fmax: Hertz::from_gigahertz(4.0),
        };
        let gfx = DomainConfig {
            power: DomainPowerModel {
                kind: DomainKind::Gfx,
                ceff: 20.0e-9,
                leak_ref: Watts::new(13.2 * ls),
                vref: Volts::new(0.82),
                tref: Celsius::new(100.0),
                // Graphics slices power-gate aggressively at low load,
                // which shows up as a steeper leakage-vs-voltage slope
                // than the monolithic core domain.
                leak_voltage_exp: 5.0,
                leak_temp_coeff: 0.02,
                guardband_leakage_fraction: ratio(0.45),
                clock_fraction: 0.40,
            },
            vf: VfCurve::client_gfx(),
            fmin: Hertz::from_gigahertz(0.1),
            fmax: Hertz::from_gigahertz(1.2),
        };
        let sa = DomainConfig {
            power: DomainPowerModel {
                kind: DomainKind::Sa,
                ceff: 2.0e-9 * sa_io_scale,
                leak_ref: Watts::new(0.30 * ls),
                vref: Volts::new(0.85),
                tref: Celsius::new(100.0),
                leak_voltage_exp: LEAKAGE_VOLTAGE_EXPONENT,
                leak_temp_coeff: 0.02,
                guardband_leakage_fraction: ratio(0.22),
                clock_fraction: DEFAULT_CLOCK_FRACTION,
            },
            vf: VfCurve::fixed(Volts::new(0.85)),
            fmin: Hertz::from_gigahertz(0.8),
            fmax: Hertz::from_gigahertz(0.8),
        };
        let io = DomainConfig {
            power: DomainPowerModel {
                kind: DomainKind::Io,
                ceff: 0.80e-9 * sa_io_scale,
                leak_ref: Watts::new(0.12 * ls),
                vref: Volts::new(1.10),
                tref: Celsius::new(100.0),
                leak_voltage_exp: LEAKAGE_VOLTAGE_EXPONENT,
                leak_temp_coeff: 0.02,
                guardband_leakage_fraction: ratio(0.22),
                clock_fraction: DEFAULT_CLOCK_FRACTION,
            },
            vf: VfCurve::fixed(Volts::new(1.10)),
            fmin: Hertz::from_gigahertz(0.4),
            fmax: Hertz::from_gigahertz(0.4),
        };
        // Canonical `DomainKind::ALL` order.
        let domains =
            DomainTable::new([core(DomainKind::Core0), core(DomainKind::Core1), llc, gfx, sa, io]);

        SocSpec {
            name: self.name.unwrap_or_else(|| format!("client-soc-{}W", tdp.get())),
            tdp,
            tj_active,
            process_node_nm: 14,
            domains,
        }
    }
}

/// The paper's modelled client SoC (Table 1) at a TDP design point.
pub fn client_soc(tdp: Watts) -> SocSpec {
    ClientSocBuilder::new(tdp).build()
}

/// The Skylake validation system of Table 3 (Intel Core i7-6600U, 15 W,
/// MBVR PDN).
pub fn skylake_ult() -> SocSpec {
    ClientSocBuilder::new(Watts::new(15.0)).name("i7-6600U (Skylake, MBVR)").build()
}

/// The Broadwell validation system of Table 3 (Intel Core i7-5600U, 15 W,
/// IVR PDN).
pub fn broadwell_ult() -> SocSpec {
    ClientSocBuilder::new(Watts::new(15.0)).name("i7-5600U (Broadwell, IVR)").build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdn_units::ApplicationRatio;

    #[test]
    fn junction_temperature_follows_fanless_rule() {
        assert_eq!(client_soc(Watts::new(4.0)).tj_active, Celsius::new(80.0));
        assert_eq!(client_soc(Watts::new(8.0)).tj_active, Celsius::new(80.0));
        assert_eq!(client_soc(Watts::new(10.0)).tj_active, Celsius::new(100.0));
        assert_eq!(client_soc(Watts::new(50.0)).tj_active, Celsius::new(100.0));
    }

    #[test]
    fn cores_span_table2_power_range() {
        let soc = client_soc(Watts::new(50.0));
        let tj = soc.tj_active;
        let cores = soc.domain(DomainKind::Core0);
        let max_state =
            DomainState::active(Hertz::from_gigahertz(4.0), ApplicationRatio::POWER_VIRUS);
        let both_max = cores.nominal_power(&max_state, tj) * 2.0;
        assert!(
            both_max.get() > 24.0 && both_max.get() < 36.0,
            "two cores at fmax should be ≈ 30 W, got {both_max}"
        );

        let soc4 = client_soc(Watts::new(4.0));
        let min_state =
            DomainState::active(Hertz::from_gigahertz(0.8), ApplicationRatio::new(0.5).unwrap());
        let both_min =
            soc4.domain(DomainKind::Core0).nominal_power(&min_state, soc4.tj_active) * 2.0;
        assert!(
            both_min.get() > 0.4 && both_min.get() < 1.6,
            "two cores at fmin should be ≈ 0.6–1.5 W, got {both_min}"
        );
    }

    #[test]
    fn gfx_spans_table2_power_range() {
        let soc = client_soc(Watts::new(50.0));
        let max_state =
            DomainState::active(Hertz::from_gigahertz(1.2), ApplicationRatio::POWER_VIRUS);
        let p = soc.domain(DomainKind::Gfx).nominal_power(&max_state, soc.tj_active);
        assert!(p.get() > 24.0 && p.get() < 34.0, "GFX at fmax should be ≈ 29.4 W, got {p}");
    }

    #[test]
    fn llc_spans_table2_power_range() {
        let soc = client_soc(Watts::new(50.0));
        let max_state =
            DomainState::active(Hertz::from_gigahertz(4.0), ApplicationRatio::POWER_VIRUS);
        let p = soc.domain(DomainKind::Llc).nominal_power(&max_state, soc.tj_active);
        assert!(p.get() > 3.0 && p.get() < 5.0, "LLC at fmax should be ≈ 4 W, got {p}");
    }

    #[test]
    fn sa_io_power_is_low_and_narrow() {
        let ar = ApplicationRatio::new(0.6).unwrap();
        let lo = client_soc(Watts::new(4.0));
        let hi = client_soc(Watts::new(50.0));
        let total = |soc: &SocSpec| -> Watts {
            [DomainKind::Sa, DomainKind::Io]
                .into_iter()
                .map(|k| {
                    let cfg = soc.domain(k);
                    cfg.nominal_power(&DomainState::active(cfg.fmax, ar), soc.tj_active)
                })
                .sum()
        };
        let p_lo = total(&lo);
        let p_hi = total(&hi);
        assert!(p_lo.get() > 0.8 && p_lo.get() < 2.0, "SA+IO at 4 W: {p_lo}");
        assert!(p_hi.get() > p_lo.get() && p_hi.get() < 3.0, "SA+IO at 50 W: {p_hi}");
        // "Nearly constant": the ratio across the full TDP range stays small.
        assert!(p_hi.get() / p_lo.get() < 2.0);
    }

    #[test]
    fn gated_domains_consume_nothing() {
        let soc = client_soc(Watts::new(18.0));
        let gated = DomainState {
            frequency: Hertz::ZERO,
            activity: ApplicationRatio::POWER_VIRUS,
            powered: false,
        };
        let p = soc.domain(DomainKind::Gfx).nominal_power(&gated, soc.tj_active);
        assert_eq!(p, Watts::ZERO);
    }

    #[test]
    fn table3_presets_are_15w_14nm() {
        for soc in [skylake_ult(), broadwell_ult()] {
            assert_eq!(soc.tdp, Watts::new(15.0));
            assert_eq!(soc.process_node_nm, 14);
        }
        assert!(skylake_ult().name.contains("Skylake"));
        assert!(broadwell_ult().name.contains("Broadwell"));
    }

    #[test]
    fn builder_overrides_apply() {
        let soc = ClientSocBuilder::new(Watts::new(10.0)).leakage_scale(1.2).name("binned").build();
        let base = client_soc(Watts::new(10.0));
        let v = Volts::new(1.0);
        let t = Celsius::new(100.0);
        let leak_scaled = soc.domain(DomainKind::Core0).power.leakage_power(v, t);
        let leak_base = base.domain(DomainKind::Core0).power.leakage_power(v, t);
        assert!((leak_scaled.get() / leak_base.get() - 1.2).abs() < 1e-9);
        assert_eq!(soc.name, "binned");
    }

    #[test]
    fn domain_voltage_follows_vf_curve() {
        let soc = client_soc(Watts::new(18.0));
        let cores = soc.domain(DomainKind::Core0);
        let slow = DomainState::active(Hertz::from_gigahertz(0.9), ApplicationRatio::POWER_VIRUS);
        let fast = DomainState::active(Hertz::from_gigahertz(3.8), ApplicationRatio::POWER_VIRUS);
        assert!(cores.voltage_for(&slow) < cores.voltage_for(&fast));
    }
}
