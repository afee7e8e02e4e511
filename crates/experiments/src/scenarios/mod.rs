//! One module per reproduced experiment. See DESIGN.md §7 for the
//! experiment index mapping figures to modules.

pub mod ablation;
pub mod churn;
pub mod fig10;
pub mod fig11;
pub mod fig12_13;
pub mod fig14_15;
pub mod fig16_17;
pub mod fig19;
pub mod fig2;
pub mod fig5_6;
pub mod fig7_8;
pub mod fig9;
pub mod handover;
pub mod sched;

use crate::output::Figure;
use crate::ExpConfig;

/// All experiment ids, in paper order (plus the §6 scheduler experiment,
/// the design-choice ablations, the fault-injection handover study, and
/// the sharded-engine connection-churn workload).
pub const ALL: [&str; 20] = [
    "fig2", "fig5a", "fig5b", "fig6a", "fig6b", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
    "fig13", "fig14", "fig15", "fig16", "fig19", "sched", "ablation", "handover", "churn",
];

/// The experiment an id names (every id in [`ALL`], plus `fig17`, which
/// Fig. 16 produces), or `None` for an unknown id.
pub fn lookup(id: &str) -> Option<fn(&ExpConfig) -> Vec<Figure>> {
    Some(match id {
        "fig2" => fig2::run,
        "fig5a" => fig5_6::run_fig5a,
        "fig5b" => fig5_6::run_fig5b,
        "fig6a" => fig5_6::run_fig6a,
        "fig6b" => fig5_6::run_fig6b,
        "fig7" | "fig8" => fig7_8::run,
        "fig9" => fig9::run,
        "fig10" => fig10::run,
        "fig11" => fig11::run,
        "fig12" => fig12_13::run_fig12,
        "fig13" => fig12_13::run_fig13,
        "fig14" => fig14_15::run_fig14,
        "fig15" => fig14_15::run_fig15,
        "fig16" | "fig17" => fig16_17::run,
        "fig19" => fig19::run,
        "sched" => sched::run,
        "ablation" => ablation::run,
        "handover" => handover::run,
        "churn" => churn::run,
        _ => return None,
    })
}
