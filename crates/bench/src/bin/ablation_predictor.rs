//! Regenerates the predictor table-resolution ablation as text.
fn main() {
    print!("{}", pdn_bench::ablation::render());
}
