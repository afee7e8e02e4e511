//! Protocol factory: maps the paper's protocol labels to controller
//! instances and scheduler choices.

use mpcc::{ConnectionLevel, Mpcc, MpccConfig, StateConfig};
use mpcc_cc::{balia, cubic, lia, olia, reno, Bbr, WVegas};
use mpcc_transport::{MultipathCc, SchedulerKind};

/// Every multipath protocol evaluated in the paper's figures.
pub const MULTIPATH_PROTOCOLS: [&str; 8] = [
    "mpcc-latency",
    "mpcc-loss",
    "lia",
    "olia",
    "balia",
    "wvegas",
    "reno",
    "bbr",
];

/// Instantiates a controller by its label. `seed` feeds protocol-internal
/// randomness (probe ordering). Besides the paper's protocols,
/// `mpcc-loss-own-rate` is MPCC-loss with probe amplitude ω scaled by the
/// subflow's own rate instead of the connection total (ablation A2, §5.2).
pub fn make(name: &str, seed: u64) -> Box<dyn MultipathCc> {
    match name {
        "mpcc-loss" => Box::new(Mpcc::new(MpccConfig::loss().with_seed(seed))),
        "mpcc-loss-own-rate" => {
            let mut cfg = MpccConfig::loss().with_seed(seed);
            cfg.state = StateConfig {
                probe_scales_with_own_rate: true,
                ..cfg.state
            };
            Box::new(Mpcc::new(cfg))
        }
        "mpcc-latency" => Box::new(Mpcc::new(MpccConfig::latency().with_seed(seed))),
        "mpcc-conn-level" => Box::new(ConnectionLevel::new(seed)),
        "vivace" => Box::new(Mpcc::vivace(seed)),
        "vivace-latency" => Box::new(Mpcc::vivace_latency(seed)),
        "lia" => Box::new(lia()),
        "olia" => Box::new(olia()),
        "balia" => Box::new(balia()),
        "wvegas" => Box::new(WVegas::new()),
        "reno" => Box::new(reno()),
        "cubic" => Box::new(cubic()),
        "bbr" => Box::new(Bbr::new()),
        other => panic!("unknown protocol {other:?}"),
    }
}

/// The scheduler the paper pairs with each protocol (§7.1: the rate-based
/// scheduler for rate-based schemes, the default scheduler for
/// window-based ones).
pub fn scheduler_for(name: &str) -> SchedulerKind {
    match name {
        "mpcc-loss" | "mpcc-loss-own-rate" | "mpcc-latency" | "mpcc-conn-level" | "vivace"
        | "vivace-latency" | "bbr" => SchedulerKind::paper_rate_based(),
        _ => SchedulerKind::Default,
    }
}

/// The single-path competitor the paper pairs with a multipath protocol
/// (§7.2.1: "PCC Vivace for MPCC and TCP Reno for MPTCP").
pub fn single_path_peer(multipath: &str) -> &'static str {
    match multipath {
        "mpcc-loss" => "vivace",
        "mpcc-latency" => "vivace-latency",
        "bbr" => "bbr",
        "cubic" => "cubic",
        _ => "reno",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_every_listed_protocol() {
        for name in MULTIPATH_PROTOCOLS {
            let cc = make(name, 1);
            assert_eq!(cc.name(), name);
        }
    }

    #[test]
    fn rate_based_protocols_get_the_rate_scheduler() {
        assert_eq!(
            scheduler_for("mpcc-loss"),
            SchedulerKind::paper_rate_based()
        );
        assert_eq!(scheduler_for("bbr"), SchedulerKind::paper_rate_based());
        assert_eq!(scheduler_for("lia"), SchedulerKind::Default);
        assert_eq!(scheduler_for("reno"), SchedulerKind::Default);
    }

    #[test]
    fn peers_match_paper_pairings() {
        assert_eq!(single_path_peer("mpcc-loss"), "vivace");
        assert_eq!(single_path_peer("lia"), "reno");
        assert_eq!(single_path_peer("bbr"), "bbr");
    }

    #[test]
    #[should_panic(expected = "unknown protocol")]
    fn unknown_protocol_panics() {
        make("quic-magic", 1);
    }
}
