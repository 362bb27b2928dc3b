//! Every committed non-perf artefact under `results/` must be exactly
//! what the library renders today.
//!
//! Each artefact is rendered in-process through the same library
//! function its `pdn-bench` binary wraps, then compared byte for byte
//! with the committed file. A refactor that moves a single digit of any
//! table or figure fails here, in tier-1, with the first differing line.

use std::path::Path;

/// Renders one artefact; a render error fails the test with its message.
type Render = fn() -> String;

/// `(results file stem, renderer)` — one entry per committed artefact.
const ARTEFACTS: [(&str, Render); 13] = [
    ("table1", pdn_bench::tables::table1),
    ("table2", pdn_bench::tables::table2),
    ("table3", pdn_bench::tables::table3),
    ("fig2", || pdn_bench::fig2::render().expect("fig2")),
    ("fig3", || pdn_bench::fig3::render().expect("fig3")),
    ("fig4", || pdn_bench::fig4::render().expect("fig4")),
    ("fig5", || pdn_bench::fig5::render().expect("fig5")),
    ("fig7", || pdn_bench::fig7::render().expect("fig7")),
    ("fig8", || pdn_bench::fig8::render().expect("fig8")),
    ("overhead", pdn_bench::overheads::render),
    ("observations", || {
        let crossover = pdn_bench::observations::crossover_map().expect("crossover map");
        let loadline = pdn_bench::observations::loadline_sensitivity().expect("load lines");
        format!("{crossover}\n{loadline}")
    }),
    ("ablation_predictor", pdn_bench::ablation::render),
    ("faults", || pdn_bench::faults::campaign_report().expect("faults")),
];

/// Describes the first line where `got` departs from `want`, with two
/// lines of context on either side; `None` when they are identical.
fn first_difference(want: &str, got: &str) -> Option<String> {
    if want == got {
        return None;
    }
    let (w, g): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    let at = (0..w.len().max(g.len())).find(|&i| w.get(i) != g.get(i)).unwrap_or(w.len());
    let mut out = format!("first difference at line {}:\n", at + 1);
    for i in at.saturating_sub(2)..(at + 3).min(w.len().max(g.len())) {
        let marker = if i == at { ">" } else { " " };
        out += &format!("{marker} {:>4} committed: {:?}\n", i + 1, w.get(i).unwrap_or(&"<eof>"));
        out += &format!("{marker} {:>4} rendered:  {:?}\n", i + 1, g.get(i).unwrap_or(&"<eof>"));
    }
    if at == w.len().min(g.len()) && w.len() == g.len() {
        out += "(the files differ only in their trailing newline)\n";
    }
    Some(out)
}

#[test]
fn every_committed_artefact_matches_its_render() {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut failures = Vec::new();
    for (stem, render) in ARTEFACTS {
        let path = results.join(format!("{stem}.txt"));
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
        let got = render();
        if let Some(diff) = first_difference(&want, &got) {
            failures.push(format!("results/{stem}.txt: {diff}"));
        }
    }
    assert!(
        failures.is_empty(),
        "{} artefact(s) changed:\n{}",
        failures.len(),
        failures.join("\n")
    );
}
