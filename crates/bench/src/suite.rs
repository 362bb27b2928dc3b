//! The five-PDN comparison suite used by every figure.

use flexwatts::FlexWattsAuto;
use pdnspot::{IPlusMbvrPdn, IvrPdn, LdoPdn, MbvrPdn, ModelParams, Pdn};

/// The TDP sweep of Figs. 2 and 8.
pub const TDPS: [f64; 7] = pdn_proc::PAPER_TDPS;

/// The AR sweep of Fig. 4 (40–80 %).
pub const ARS: [f64; 5] = [0.40, 0.50, 0.60, 0.70, 0.80];

/// Builds the five PDNs in the paper's comparison order:
/// IVR (the baseline), MBVR, LDO, I+MBVR, FlexWatts.
pub fn five_pdns(params: &ModelParams) -> Vec<Box<dyn Pdn>> {
    vec![
        Box::new(IvrPdn::new(params.clone())),
        Box::new(MbvrPdn::new(params.clone())),
        Box::new(LdoPdn::new(params.clone())),
        Box::new(IPlusMbvrPdn::new(params.clone())),
        Box::new(FlexWattsAuto::new(params.clone())),
    ]
}

/// Builds the three baseline PDNs of Figs. 4 and 5 (IVR, MBVR, LDO).
pub(crate) fn three_baselines(params: &ModelParams) -> Vec<Box<dyn Pdn>> {
    vec![
        Box::new(IvrPdn::new(params.clone())),
        Box::new(MbvrPdn::new(params.clone())),
        Box::new(LdoPdn::new(params.clone())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdnspot::PdnKind;

    #[test]
    fn suite_order_matches_the_paper() {
        let pdns = five_pdns(&ModelParams::paper_defaults());
        let kinds: Vec<PdnKind> = pdns.iter().map(|p| p.kind()).collect();
        assert_eq!(
            kinds,
            vec![PdnKind::Ivr, PdnKind::Mbvr, PdnKind::Ldo, PdnKind::IPlusMbvr, PdnKind::FlexWatts]
        );
        assert_eq!(three_baselines(&ModelParams::paper_defaults()).len(), 3);
    }
}
