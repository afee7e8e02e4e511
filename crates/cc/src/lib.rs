//! # mpcc-cc
//!
//! Every congestion controller the MPCC paper compares against, implemented
//! from its defining paper or RFC:
//!
//! * single-path / uncoupled-per-subflow: **Reno**, **Cubic**, **BBR** (v1);
//! * coupled MPTCP variants: **LIA** (RFC 6356), **OLIA** (Khalili et al.),
//!   **Balia** (Peng et al.), **wVegas** (Cao et al.).
//!
//! All controllers plug into the transport through
//! [`mpcc_transport::MultipathCc`]; MPCC itself lives in the `mpcc` crate.

#![warn(missing_docs)]

pub mod balia;
pub mod bbr;
pub mod coupled;
pub mod cubic;
pub mod lia;
pub mod olia;
pub mod reno;
pub mod uncoupled;
pub mod window;
pub mod wvegas;

pub use balia::{balia, balia_alpha, BALIA_MD_CAP};
pub use bbr::Bbr;
pub use cubic::cubic;
pub use lia::{lia, lia_alpha};
pub use olia::olia;
pub use reno::reno;
pub use uncoupled::{SinglePathCc, Uncoupled};
pub use window::WinState;
pub use wvegas::WVegas;
