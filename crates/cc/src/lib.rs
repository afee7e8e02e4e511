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
//! The six window-based ones share one implementation of it,
//! [`WindowCc`], each supplying only its [`WindowRule`]; BBR is rate-based
//! and has its own.

#![warn(missing_docs)]

pub mod balia;
pub mod bbr;
pub mod cubic;
pub mod lia;
pub mod olia;
pub mod reno;
pub mod window;
pub mod wvegas;

pub use balia::{balia, balia_alpha, BALIA_MD_CAP};
pub use bbr::Bbr;
pub use cubic::cubic;
pub use lia::{lia, lia_alpha};
pub use olia::{olia, OliaRule};
pub use reno::reno;
pub use window::{WinState, WindowCc, WindowRule};
pub use wvegas::WVegas;
