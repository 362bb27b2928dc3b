//! Fig. 8: the headline comparison of the five PDNs — SPEC average
//! performance (a), 3DMark06 performance (b), battery-life average power
//! (c), BOM (d), and board area (e), across 4–50 W TDPs, all normalised
//! to the IVR PDN.

use crate::render::{times, TextTable};
use crate::suite::{five_pdns, TDPS};
use pdn_proc::client_soc;
use pdn_units::Watts;
use pdn_workload::graphics::threedmark06;
use pdn_workload::spec::spec_cpu2006;
use pdn_workload::{BatteryLifeWorkload, WorkloadType};
use pdnspot::areabom::{pdn_footprint, VrCatalog};
use pdnspot::batch::{par_map_stats, Workers};
use pdnspot::perf::{battery_life_average_power, relative_performance};
use pdnspot::{BatchStats, IvrPdn, MemoCache, ModelParams, PdnError};

/// The five-PDN series of one panel: one value per (TDP, PDN).
#[derive(Debug, Clone)]
pub(crate) struct Panel {
    /// Panel title.
    pub(crate) title: String,
    /// Row labels (TDPs or workload names).
    pub(crate) labels: Vec<String>,
    /// Values per row, ordered [IVR, MBVR, LDO, I+MBVR, FlexWatts].
    pub(crate) values: Vec<[f64; 5]>,
}

impl Panel {
    /// Renders the panel as a table (values already normalised).
    pub(crate) fn render(&self, unit: &str) -> String {
        let mut t = TextTable::new(
            self.title.clone(),
            &["point", "IVR", "MBVR", "LDO", "I+MBVR", "FlexWatts"],
        );
        for (label, vals) in self.labels.iter().zip(&self.values) {
            let mut cells = vec![label.clone()];
            cells.extend(vals.iter().map(|v| match unit {
                "%" => format!("{:.1}%", v * 100.0),
                _ => times(*v),
            }));
            t.row(cells);
        }
        t.render()
    }
}

/// SPEC's Fig. 8a panel runs the suite as multi-programmed pairs (both
/// cores busy), which is what makes the high-TDP rows power-limited.
///
/// The `(TDP, PDN)` cells fan out on the batch engine; each task runs
/// the whole workload suite through the frequency solver for one cell.
fn performance_panel(title: &str, wl: WorkloadType) -> Result<(Panel, BatchStats), PdnError> {
    let params = ModelParams::paper_defaults();
    let baseline = IvrPdn::new(params.clone());
    let pdns = five_pdns(&params);
    let workloads: Vec<(pdn_units::ApplicationRatio, pdn_units::Ratio)> = match wl {
        WorkloadType::Graphics => {
            threedmark06().iter().map(|b| (b.ar, b.perf_scalability)).collect()
        }
        _ => spec_cpu2006().iter().map(|b| (b.ar, b.perf_scalability)).collect(),
    };
    let cells: Vec<(usize, usize)> =
        (0..TDPS.len()).flat_map(|t| (0..pdns.len()).map(move |p| (t, p))).collect();
    // Shared across all (TDP, PDN) cells: the IVR baseline solve repeats
    // per PDN column, and suite benchmarks sharing an AR repeat operating
    // points — both are served from the cache after first computation.
    let memo = MemoCache::new();
    let baseline_memo = memo.wrap(&baseline);
    let (results, mut stats) = par_map_stats(&cells, Workers::Auto, |_, &(t, p)| {
        let soc = client_soc(Watts::new(TDPS[t]));
        let mut sum = 0.0;
        for &(ar, scal) in &workloads {
            sum += relative_performance(
                &soc,
                &memo.wrap(pdns[p].as_ref()),
                &baseline_memo,
                wl,
                ar,
                scal,
            )?;
        }
        Ok::<_, PdnError>(sum / workloads.len() as f64)
    });
    let memo_stats = memo.stats();
    stats.memo_hits = memo_stats.hits as usize;
    stats.memo_misses = memo_stats.misses as usize;
    stats.memo_evictions = memo_stats.evictions as usize;
    let mut labels = Vec::new();
    let mut values = Vec::new();
    let mut results = results.into_iter();
    for &tdp in &TDPS {
        let mut row = [0.0f64; 5];
        for cell in &mut row {
            *cell = results.next().expect("one result per lattice cell")?;
        }
        labels.push(format!("{tdp}W"));
        values.push(row);
    }
    Ok((Panel { title: title.to_string(), labels, values }, stats))
}

/// Panel (c): battery-life average power, normalised to IVR (lower is
/// better), plus the batch statistics of its `(workload, PDN)` fan-out;
/// raw powers are computed in parallel and normalised to the IVR column
/// serially.
///
/// # Errors
///
/// Propagates evaluation errors.
pub(crate) fn battery_panel_with_stats() -> Result<(Panel, BatchStats), PdnError> {
    let params = ModelParams::paper_defaults();
    let pdns = five_pdns(&params);
    // §7.1: battery-life power is TDP-insensitive; evaluated at 18 W.
    let soc = client_soc(Watts::new(18.0));
    let cells: Vec<(BatteryLifeWorkload, usize)> = BatteryLifeWorkload::ALL
        .into_iter()
        .flat_map(|wl| (0..pdns.len()).map(move |p| (wl, p)))
        .collect();
    // Battery-life workloads share idle scenarios (the same C-states at
    // the same TDP), so one cache deduplicates them across workloads.
    let memo = MemoCache::new();
    let (powers, mut stats) = par_map_stats(&cells, Workers::Auto, |_, &(wl, p)| {
        battery_life_average_power(&soc, &memo.wrap(pdns[p].as_ref()), wl)
    });
    let memo_stats = memo.stats();
    stats.memo_hits = memo_stats.hits as usize;
    stats.memo_misses = memo_stats.misses as usize;
    stats.memo_evictions = memo_stats.evictions as usize;
    let mut labels = Vec::new();
    let mut values = Vec::new();
    let mut powers = powers.into_iter();
    for wl in BatteryLifeWorkload::ALL {
        let mut row = [0.0f64; 5];
        for cell in &mut row {
            *cell = powers.next().expect("one result per lattice cell")?.get();
        }
        let ivr_power = row[0];
        for cell in &mut row {
            *cell /= ivr_power;
        }
        labels.push(wl.to_string());
        values.push(row);
    }
    Ok((
        Panel {
            title: "Fig. 8c — battery-life average power (normalised to IVR; lower is better)"
                .to_string(),
            labels,
            values,
        },
        stats,
    ))
}

/// Panels (d) and (e): BOM cost and board area vs TDP, normalised to
/// IVR, plus the batch statistics of the `(TDP, PDN)` rail-sizing
/// fan-out.
///
/// # Errors
///
/// Propagates rail-sizing errors.
pub(crate) fn bom_area_panels_with_stats() -> Result<(Panel, Panel, BatchStats), PdnError> {
    let params = ModelParams::paper_defaults();
    let catalog = VrCatalog::paper_calibrated();
    let pdns = five_pdns(&params);
    let mut bom = Panel {
        title: "Fig. 8d — BOM cost (normalised to IVR)".to_string(),
        labels: Vec::new(),
        values: Vec::new(),
    };
    let mut area = Panel {
        title: "Fig. 8e — board area (normalised to IVR)".to_string(),
        labels: Vec::new(),
        values: Vec::new(),
    };
    let cells: Vec<(usize, usize)> =
        (0..TDPS.len()).flat_map(|t| (0..pdns.len()).map(move |p| (t, p))).collect();
    let (footprints, stats) = par_map_stats(&cells, Workers::Auto, |_, &(t, p)| {
        let soc = client_soc(Watts::new(TDPS[t]));
        pdn_footprint(pdns[p].as_ref(), &soc, &catalog)
    });
    let mut remaining = footprints.into_iter();
    for &tdp in &TDPS {
        let footprints: Vec<_> = (0..pdns.len())
            .map(|_| remaining.next().expect("one result per lattice cell"))
            .collect::<Result<_, _>>()?;
        let ivr = &footprints[0];
        let mut bom_row = [0.0f64; 5];
        let mut area_row = [0.0f64; 5];
        for (i, f) in footprints.iter().enumerate() {
            bom_row[i] = f.cost.get() / ivr.cost.get();
            area_row[i] = f.area.get() / ivr.area.get();
        }
        bom.labels.push(format!("{tdp}W"));
        bom.values.push(bom_row);
        area.labels.push(format!("{tdp}W"));
        area.values.push(area_row);
    }
    Ok((bom, area, stats))
}

/// Renders all five panels, with one merged batch-stats footer.
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn render() -> Result<String, PdnError> {
    let (a, mut stats) = performance_panel(
        "Fig. 8a — SPEC CPU2006 average performance (normalised to IVR)",
        WorkloadType::MultiThread,
    )?;
    let (b, b_stats) = performance_panel(
        "Fig. 8b — 3DMark06 performance (normalised to IVR)",
        WorkloadType::Graphics,
    )?;
    let (c, c_stats) = battery_panel_with_stats()?;
    let (d, e, de_stats) = bom_area_panels_with_stats()?;
    stats.absorb(&b_stats);
    stats.absorb(&c_stats);
    stats.absorb(&de_stats);
    Ok(format!(
        "{}\n{}\n{}\n{}\n{}\n{}\n",
        a.render("%"),
        b.render("%"),
        c.render("%"),
        d.render("x"),
        e.render("x"),
        stats.deterministic_footer()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(panel: &Panel, label_prefix: &str, col: usize) -> f64 {
        panel
            .values
            .iter()
            .zip(&panel.labels)
            .find(|(_, l)| l.starts_with(label_prefix))
            .map(|(v, _)| v[col])
            .unwrap()
    }

    #[test]
    fn fig8a_flexwatts_wins_low_tdp_and_holds_high_tdp() {
        let (a, _) = performance_panel("8a", WorkloadType::MultiThread).unwrap();
        let fw_4w = col(&a, "4W", 4);
        assert!(fw_4w > 1.07 && fw_4w < 1.40, "SPEC average FlexWatts gain at 4 W: {fw_4w:.3}");
        // At 50 W FlexWatts stays within ~1 % of IVR (its IVR-Mode).
        let fw_50w = col(&a, "50W", 4);
        assert!(fw_50w > 0.985, "FlexWatts at 50 W: {fw_50w:.3}");
        // ...and does not lose to MBVR there (§7.1: up to 7 % better; our
        // 36-50 W rows are frequency-limited, so the gap closes to ~0 —
        // see EXPERIMENTS.md — but it shows at 18-25 W).
        let mbvr_50w = col(&a, "50W", 1);
        assert!(fw_50w >= mbvr_50w - 1e-9, "FlexWatts {fw_50w:.3} vs MBVR {mbvr_50w:.3} at 50 W");
        let fw_25w = col(&a, "25W", 4);
        let mbvr_25w = col(&a, "25W", 1);
        assert!(
            fw_25w >= mbvr_25w,
            "FlexWatts {fw_25w:.3} must match/beat MBVR {mbvr_25w:.3} at 25 W"
        );
    }

    #[test]
    fn fig8b_graphics_gains_at_low_tdp() {
        let (b, _) = performance_panel("8b", WorkloadType::Graphics).unwrap();
        let fw_4w = col(&b, "4W", 4);
        assert!(fw_4w > 1.10 && fw_4w < 1.45, "3DMark06 FlexWatts gain at 4 W: {fw_4w:.3}");
        let fw_50w = col(&b, "50W", 4);
        assert!(fw_50w > 0.98, "FlexWatts graphics at 50 W: {fw_50w:.3}");
    }

    #[test]
    fn fig8c_video_playback_power_drop_matches_headline() {
        // Headline: FlexWatts reduces video-playback average power by
        // ≈ 11 % vs IVR (8–17 % band accepted for the reproduction).
        let (c, _) = battery_panel_with_stats().unwrap();
        let fw = col(&c, "video-playback", 4);
        assert!((0.83..=0.92).contains(&fw), "FlexWatts video playback vs IVR: {fw:.3}");
        // FlexWatts within ~1 % of MBVR on battery life.
        let mbvr = col(&c, "video-playback", 1);
        assert!(fw < mbvr + 0.015, "FlexWatts {fw:.3} vs MBVR {mbvr:.3}");
    }

    #[test]
    fn fig8d_e_flexwatts_comparable_to_ivr() {
        let (d, e, _) = bom_area_panels_with_stats().unwrap();
        for tdp in ["4W", "18W", "50W"] {
            let fw_bom = col(&d, tdp, 4);
            let fw_area = col(&e, tdp, 4);
            assert!(fw_bom < 1.5, "FlexWatts BOM at {tdp}: {fw_bom:.2}");
            assert!(fw_area < 1.55, "FlexWatts area at {tdp}: {fw_area:.2}");
            let mbvr_bom = col(&d, tdp, 1);
            assert!(mbvr_bom > 1.5, "MBVR BOM at {tdp}: {mbvr_bom:.2}");
            assert!(mbvr_bom > fw_bom, "FlexWatts must undercut MBVR at {tdp}");
        }
    }

    #[test]
    fn renders_all_panels() {
        let s = render().unwrap();
        for marker in ["Fig. 8a", "Fig. 8b", "Fig. 8c", "Fig. 8d", "Fig. 8e"] {
            assert!(s.contains(marker), "missing {marker}");
        }
    }
}
