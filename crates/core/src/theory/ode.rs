//! Fluid-model trajectory oracle: a fixed-step RK4 reference integrator
//! for Peng, Walid, Hwang & Low's ODE model of coupled multipath
//! congestion control (arXiv 1308.3119), covering the window/loss
//! dynamics of the Reno/LIA/OLIA/Balia controller class implemented in
//! `mpcc-cc`.
//!
//! The model: each subflow `r` of connection `i` keeps a window `w_r`
//! (packets) over a path of round-trip time `τ_r`, sending at
//! `x_r = w_r / τ_r` packets per second. Each link `l` imposes the static
//! bottleneck loss `q_l = max(0, (y_l − c_l)/y_l)` on its aggregate load
//! `y_l` (the same loss function as [`super::fluid`]). ACKs arrive at rate
//! `x_r (1 − q_r)` and grow the window by the algorithm's per-ACK increase
//! `I_r(w)`; losses arrive at rate `x_r q_r` and shrink it by the per-loss
//! decrease `D_r(w)`:
//!
//! ```text
//! ẇ_r = x_r (1 − q_r) · I_r(w_i)  −  x_r q_r · D_r(w_i)
//! ```
//!
//! The per-ACK/per-loss rules mirror the `increase`/`decrease` hooks of
//! `mpcc-cc`'s `WindowRule` implementations exactly (the root test
//! `cc_fluid_consistency.rs` pins the two sides against each other), so
//! the integrator is a theory counterpart of the packet-level controllers,
//! not an independent approximation. A slow-start mode (window += 1 per ACK until the
//! subflow first sees loss pressure, then one multiplicative decrease)
//! reproduces the packet-level startup transient well enough for
//! trajectory-shape comparison.

use super::lmmf::ParallelNetSpec;
use mpcc_netsim::topology::NetSpec;
use mpcc_netsim::LinkParams;

/// Wire bytes per packet (mirrors `mpcc_transport::MSS_WIRE`; link
/// capacities are converted Mbps → packets/s with this).
pub const MSS_WIRE: f64 = 1500.0;
/// Payload bytes per packet (mirrors `mpcc_transport::MSS_PAYLOAD`;
/// goodput trajectories are reported in payload Mbps with this).
pub const MSS_PAYLOAD: f64 = 1448.0;
/// Minimum window, packets (mirrors `mpcc_cc::MIN_CWND`).
pub const MIN_CWND: f64 = 2.0;
/// Initial window, packets (mirrors `mpcc_cc::INIT_CWND`, RFC 6928).
pub const INIT_CWND: f64 = 10.0;
/// Balia's cap on the multiplicative-decrease factor `min(α, 1.5)`
/// (mirrors `mpcc_cc::BALIA_MD_CAP`, §III of the Balia paper).
pub const BALIA_MD_CAP: f64 = 1.5;
/// Loss floor used for OLIA's fluid inter-loss estimate `ℓ_r = 1/q_r`
/// (a lossless path is "best" by a wide, finite margin).
const OLIA_Q_FLOOR: f64 = 1e-6;
/// Relative tie band for OLIA's best-path / max-window set membership
/// (mirrors the 1e-9 band in `mpcc_cc::OliaRule::alphas`).
const TIE: f64 = 1.0 - 1e-9;

/// The coupled controller class covered by the fluid model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoupledKind {
    /// Uncoupled Reno on every subflow (the model's single-path baseline).
    Reno,
    /// Linked-Increases Algorithm (RFC 6356).
    Lia,
    /// Opportunistic LIA (Khalili et al. 2013).
    Olia,
    /// Balanced Linked Adaptation (Peng et al. 2014).
    Balia,
}

impl CoupledKind {
    /// Parses a protocol label (the `experiments` CLI names).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "reno" => Some(CoupledKind::Reno),
            "lia" => Some(CoupledKind::Lia),
            "olia" => Some(CoupledKind::Olia),
            "balia" => Some(CoupledKind::Balia),
            _ => None,
        }
    }

    /// The protocol label.
    pub fn name(self) -> &'static str {
        match self {
            CoupledKind::Reno => "reno",
            CoupledKind::Lia => "lia",
            CoupledKind::Olia => "olia",
            CoupledKind::Balia => "balia",
        }
    }
}

/// RFC 6356's α for a window/RTT vector (fluid-side mirror of
/// `mpcc_cc::lia_alpha`).
pub fn lia_alpha(w: &[f64], tau: &[f64]) -> f64 {
    let w_total: f64 = w.iter().sum();
    let best = w
        .iter()
        .zip(tau)
        .map(|(&wk, &tk)| wk / (tk * tk))
        .fold(0.0_f64, f64::max);
    let denom: f64 = w.iter().zip(tau).map(|(&wk, &tk)| wk / tk).sum();
    if denom <= 0.0 {
        return 0.0;
    }
    w_total * best / (denom * denom)
}

/// Balia's per-path α `max(1, max_k x_k / x_i)` (fluid-side mirror of
/// `mpcc_cc::balia_alpha`).
pub fn balia_alpha(w: &[f64], tau: &[f64], i: usize) -> f64 {
    let x_i = w[i] / tau[i];
    if x_i <= 0.0 {
        return 1.0;
    }
    let x_max = w
        .iter()
        .zip(tau)
        .map(|(&wk, &tk)| wk / tk)
        .fold(0.0_f64, f64::max);
    (x_max / x_i).max(1.0)
}

/// OLIA's α vector in the fluid model. The packet-level ℓ_r (bytes between
/// losses) becomes its fluid expectation `1/q_r` packets, so path quality
/// is `ℓ_r²/τ_r = 1/(q_r² τ_r)`; the set structure and the ±1/(d·|set|)
/// magnitudes mirror `mpcc_cc::OliaRule::alphas`.
pub fn olia_alphas(w: &[f64], tau: &[f64], q: &[f64], out: &mut Vec<f64>) {
    let d = w.len();
    out.clear();
    out.resize(d, 0.0);
    let quality: Vec<f64> = (0..d)
        .map(|r| {
            let ell = 1.0 / q[r].max(OLIA_Q_FLOOR);
            ell * ell / tau[r]
        })
        .collect();
    let best_q = quality.iter().cloned().fold(f64::MIN, f64::max);
    let max_w = w.iter().cloned().fold(f64::MIN, f64::max);
    let in_b: Vec<bool> = quality.iter().map(|&x| x >= best_q * TIE).collect();
    let in_m: Vec<bool> = w.iter().map(|&x| x >= max_w * TIE).collect();
    let b_minus_m: Vec<usize> = (0..d).filter(|&r| in_b[r] && !in_m[r]).collect();
    let m: Vec<usize> = (0..d).filter(|&r| in_m[r]).collect();
    if !b_minus_m.is_empty() {
        for &r in &b_minus_m {
            out[r] = 1.0 / (d as f64 * b_minus_m.len() as f64);
        }
        for &r in &m {
            out[r] = -1.0 / (d as f64 * m.len() as f64);
        }
    }
}

/// The per-ACK congestion-avoidance window increase `I_r(w)` of one
/// connection's subflow `i`, given the connection's window vector `w`
/// (packets), per-subflow RTTs `tau` (seconds), and per-subflow loss
/// rates `q`. Mirrors `mpcc_cc::WindowRule::increase` term for term.
pub fn ack_increase(kind: CoupledKind, w: &[f64], tau: &[f64], q: &[f64], i: usize) -> f64 {
    let w_i = w[i];
    if w_i <= 0.0 {
        return 0.0;
    }
    match kind {
        CoupledKind::Reno => 1.0 / w_i,
        CoupledKind::Lia => {
            let w_total: f64 = w.iter().sum();
            if w_total <= 0.0 {
                return 0.0;
            }
            (lia_alpha(w, tau) / w_total).min(1.0 / w_i)
        }
        CoupledKind::Olia => {
            let denom: f64 = w.iter().zip(tau).map(|(&wk, &tk)| wk / tk).sum();
            if denom <= 0.0 {
                return 0.0;
            }
            let mut alphas = Vec::new();
            olia_alphas(w, tau, q, &mut alphas);
            let coupled = (w_i / (tau[i] * tau[i])) / (denom * denom);
            coupled + alphas[i] / w_i
        }
        CoupledKind::Balia => {
            let x_i = w_i / tau[i];
            let x_total: f64 = w.iter().zip(tau).map(|(&wk, &tk)| wk / tk).sum();
            if x_i <= 0.0 || x_total <= 0.0 {
                return 0.0;
            }
            let a = balia_alpha(w, tau, i);
            (x_i / (tau[i] * x_total * x_total)) * ((1.0 + a) / 2.0) * ((4.0 + a) / 5.0)
        }
    }
}

/// The per-loss window decrease `D_r(w)` of one connection's subflow `i`
/// (packets removed per loss). Mirrors `mpcc_cc`'s decrease rules: halve
/// for Reno/LIA/OLIA, `w/2 · min(α, 1.5)` for Balia.
pub fn loss_decrease(kind: CoupledKind, w: &[f64], tau: &[f64], i: usize) -> f64 {
    match kind {
        CoupledKind::Balia => (w[i] / 2.0) * balia_alpha(w, tau, i).min(BALIA_MD_CAP),
        _ => w[i] / 2.0,
    }
}

/// A parallel-link network with per-link round-trip times — the fluid
/// model's topology. Shares [`ParallelNetSpec`] with the LMMF/fluid
/// modules; `rtt_secs[l]` is the operating RTT of a subflow on link `l`.
/// [`FluidTopo::of`] derives one from a simulated network.
#[derive(Clone, Debug)]
pub struct FluidTopo {
    /// Capacities and connection→link assignment.
    pub spec: ParallelNetSpec,
    /// Per-link round-trip time, seconds.
    pub rtt_secs: Vec<f64>,
}

impl FluidTopo {
    /// The fluid view of the parallel-link network `net`
    /// ([`ParallelNetSpec::of`], which panics on multi-link routes). A
    /// link's operating RTT is its round-trip propagation delay plus half
    /// its buffer's drain time: the loss-based sawtooth keeps the queue
    /// half-full on average.
    pub fn of(net: &NetSpec) -> Self {
        let rtt_secs = |l: &LinkParams| {
            let buf_secs = l.buffer as f64 * 8.0 / l.capacity.bps();
            2.0 * l.delay.as_secs_f64() + 0.5 * buf_secs
        };
        FluidTopo {
            spec: ParallelNetSpec::of(net),
            rtt_secs: net.links.iter().map(rtt_secs).collect(),
        }
    }

    /// A topology with one common RTT on every link.
    pub fn uniform_rtt(spec: ParallelNetSpec, rtt_secs: f64) -> Self {
        let n = spec.capacities.len();
        FluidTopo {
            spec,
            rtt_secs: vec![rtt_secs; n],
        }
    }
}

/// Integrator configuration.
#[derive(Clone, Copy, Debug)]
pub struct FluidConfig {
    /// RK4 step, seconds. `None` picks a stability-safe step from the
    /// fastest link (`1 / (3 · c_max)` with `c_max` in packets/s, clamped
    /// to `[1e-6, 1e-3]`), keeping `|λ h| ≲ 1` for the stiff loss term.
    pub step: Option<f64>,
    /// Total integrated time, seconds.
    pub duration: f64,
    /// Trajectory sampling cadence, seconds (time-binned like the
    /// metrics pipeline's rows).
    pub sample_every: f64,
    /// Start each subflow in slow start (window += 1 per ACK) until it
    /// first sees loss pressure, then apply one multiplicative decrease
    /// and continue in congestion avoidance — the packet-level startup.
    /// `false` starts directly in congestion avoidance (smooth dynamics,
    /// used by the RK4 order test).
    pub slow_start: bool,
    /// Initial window, packets.
    pub w0: f64,
}

impl Default for FluidConfig {
    fn default() -> Self {
        FluidConfig {
            step: None,
            duration: 40.0,
            sample_every: 0.5,
            slow_start: true,
            w0: INIT_CWND,
        }
    }
}

/// Sampled goodput trajectories of one integration, payload Mbps.
#[derive(Clone, Debug)]
pub struct FluidTrajectory {
    /// Sample times, seconds (bin ends, first sample at t = 0).
    pub secs: Vec<f64>,
    /// `conn_mbps[i][s]`: connection `i`'s total goodput at sample `s`.
    pub conn_mbps: Vec<Vec<f64>>,
    /// `subflow_mbps[i][k][s]`: per-subflow goodput, aligned with
    /// `spec.conns[i]`.
    pub subflow_mbps: Vec<Vec<Vec<f64>>>,
}

impl FluidTrajectory {
    /// Mean of the last `frac` of connection `i`'s trajectory — the
    /// equilibrium estimate.
    pub fn conn_tail_mean(&self, i: usize, frac: f64) -> f64 {
        tail_mean(&self.conn_mbps[i], frac)
    }
}

fn tail_mean(vals: &[f64], frac: f64) -> f64 {
    if vals.is_empty() {
        return 0.0;
    }
    let n = ((vals.len() as f64 * frac).ceil() as usize).clamp(1, vals.len());
    let tail = &vals[vals.len() - n..];
    tail.iter().sum::<f64>() / tail.len() as f64
}

/// The flattened subflow layout of a topology: `(conn, link)` in
/// connection-major order, plus each connection's subflow range.
struct Layout {
    link_of: Vec<usize>,
    tau_of: Vec<f64>,
    conn_range: Vec<(usize, usize)>,
    cap_pkts: Vec<f64>,
}

impl Layout {
    fn new(topo: &FluidTopo) -> Self {
        assert_eq!(
            topo.spec.capacities.len(),
            topo.rtt_secs.len(),
            "one RTT per link"
        );
        let mut link_of = Vec::new();
        let mut tau_of = Vec::new();
        let mut conn_range = Vec::new();
        for links in &topo.spec.conns {
            let lo = link_of.len();
            for &l in links {
                link_of.push(l);
                tau_of.push(topo.rtt_secs[l].max(1e-4));
            }
            conn_range.push((lo, link_of.len()));
        }
        let cap_pkts = topo
            .spec
            .capacities
            .iter()
            .map(|c| c * 1e6 / (8.0 * MSS_WIRE))
            .collect();
        Layout {
            link_of,
            tau_of,
            conn_range,
            cap_pkts,
        }
    }

    /// Per-link loss `q_l` for window vector `w`, into `q_link`.
    fn losses(&self, w: &[f64], q_link: &mut [f64]) {
        q_link.fill(0.0);
        let mut loads = vec![0.0; q_link.len()];
        for (r, &l) in self.link_of.iter().enumerate() {
            loads[l] += w[r] / self.tau_of[r];
        }
        for (l, &y) in loads.iter().enumerate() {
            if y > self.cap_pkts[l] && y > 0.0 {
                q_link[l] = (y - self.cap_pkts[l]) / y;
            }
        }
    }

    /// ẇ into `dw`, given windows `w` and per-subflow slow-start flags.
    fn deriv(&self, kinds: &[CoupledKind], w: &[f64], ss: &[bool], dw: &mut [f64]) {
        let mut q_link = vec![0.0; self.cap_pkts.len()];
        self.losses(w, &mut q_link);
        let mut q_sf = vec![0.0; w.len()];
        for (r, &l) in self.link_of.iter().enumerate() {
            q_sf[r] = q_link[l];
        }
        for (i, &(lo, hi)) in self.conn_range.iter().enumerate() {
            let (wi, taui, qi) = (&w[lo..hi], &self.tau_of[lo..hi], &q_sf[lo..hi]);
            for k in 0..hi - lo {
                let r = lo + k;
                let x = w[r] / self.tau_of[r];
                let q = q_sf[r];
                let inc = if ss[r] {
                    1.0
                } else {
                    ack_increase(kinds[i], wi, taui, qi, k)
                };
                let dec = loss_decrease(kinds[i], wi, taui, k);
                dw[r] = x * (1.0 - q) * inc - x * q * dec;
            }
        }
    }
}

/// Picks the default stability-safe RK4 step for a topology.
pub fn auto_step(topo: &FluidTopo) -> f64 {
    let c_max =
        topo.spec.capacities.iter().cloned().fold(1.0_f64, f64::max) * 1e6 / (8.0 * MSS_WIRE);
    (1.0 / (3.0 * c_max)).clamp(1e-6, 1e-3)
}

/// Integrates the fluid model of `kinds[i]` (one controller per
/// connection) on `topo` and returns the sampled goodput trajectories.
///
/// Deterministic: fixed-step RK4 with no randomness, so identical inputs
/// produce bit-identical trajectories on every run and `--jobs` count.
pub fn integrate(topo: &FluidTopo, kinds: &[CoupledKind], cfg: &FluidConfig) -> FluidTrajectory {
    assert_eq!(
        kinds.len(),
        topo.spec.conns.len(),
        "one kind per connection"
    );
    let layout = Layout::new(topo);
    let nsf = layout.link_of.len();
    let h = cfg.step.unwrap_or_else(|| auto_step(topo));
    let mut w = vec![cfg.w0.max(MIN_CWND); nsf];
    let mut ss = vec![cfg.slow_start; nsf];
    let mut q_link = vec![0.0; layout.cap_pkts.len()];

    let steps_per_sample = (cfg.sample_every / h).round().max(1.0) as u64;
    let total_steps = (cfg.duration / h).round() as u64;
    let mut secs = Vec::new();
    let mut sf_samples: Vec<Vec<f64>> = vec![Vec::new(); nsf];
    let (mut k1, mut k2, mut k3, mut k4) = (
        vec![0.0; nsf],
        vec![0.0; nsf],
        vec![0.0; nsf],
        vec![0.0; nsf],
    );
    let mut tmp = vec![0.0; nsf];

    let record = |t: f64,
                  w: &[f64],
                  layout: &Layout,
                  q_link: &mut [f64],
                  secs: &mut Vec<f64>,
                  sf: &mut Vec<Vec<f64>>| {
        layout.losses(w, q_link);
        secs.push(t);
        for r in 0..w.len() {
            let x = w[r] / layout.tau_of[r];
            let goodput = x * (1.0 - q_link[layout.link_of[r]]);
            sf[r].push(goodput * MSS_PAYLOAD * 8.0 / 1e6);
        }
    };
    record(0.0, &w, &layout, &mut q_link, &mut secs, &mut sf_samples);

    for step in 1..=total_steps {
        layout.deriv(kinds, &w, &ss, &mut k1);
        for r in 0..nsf {
            tmp[r] = w[r] + 0.5 * h * k1[r];
        }
        layout.deriv(kinds, &tmp, &ss, &mut k2);
        for r in 0..nsf {
            tmp[r] = w[r] + 0.5 * h * k2[r];
        }
        layout.deriv(kinds, &tmp, &ss, &mut k3);
        for r in 0..nsf {
            tmp[r] = w[r] + h * k3[r];
        }
        layout.deriv(kinds, &tmp, &ss, &mut k4);
        for r in 0..nsf {
            w[r] += h / 6.0 * (k1[r] + 2.0 * k2[r] + 2.0 * k3[r] + k4[r]);
            w[r] = w[r].clamp(MIN_CWND, 1e7);
        }
        // Slow-start exit: the first loss pressure ends slow start with
        // one multiplicative decrease (the packet-level overflow + halve).
        layout.losses(&w, &mut q_link);
        for r in 0..nsf {
            if ss[r] && q_link[layout.link_of[r]] > 0.0 {
                ss[r] = false;
                w[r] = (w[r] / 2.0).max(MIN_CWND);
            }
        }
        if step % steps_per_sample == 0 {
            record(
                step as f64 * h,
                &w,
                &layout,
                &mut q_link,
                &mut secs,
                &mut sf_samples,
            );
        }
    }

    let mut subflow_mbps: Vec<Vec<Vec<f64>>> = Vec::with_capacity(topo.spec.conns.len());
    let mut conn_mbps: Vec<Vec<f64>> = Vec::with_capacity(topo.spec.conns.len());
    for &(lo, hi) in &layout.conn_range {
        let sfs: Vec<Vec<f64>> = (lo..hi).map(|r| sf_samples[r].clone()).collect();
        let mut total = vec![0.0; secs.len()];
        for sf in &sfs {
            for (s, v) in sf.iter().enumerate() {
                total[s] += v;
            }
        }
        subflow_mbps.push(sfs);
        conn_mbps.push(total);
    }
    FluidTrajectory {
        secs,
        conn_mbps,
        subflow_mbps,
    }
}

/// Integrates to `cfg.duration` and returns the per-connection
/// equilibrium goodput estimate (tail mean over the last quarter),
/// payload Mbps.
pub fn equilibrium(topo: &FluidTopo, kinds: &[CoupledKind], cfg: &FluidConfig) -> Vec<f64> {
    let traj = integrate(topo, kinds, cfg);
    (0..topo.spec.conns.len())
        .map(|i| traj.conn_tail_mean(i, 0.25))
        .collect()
}

/// The closed-form symmetric fixed point: one connection over `n` equal
/// links of `cap_mbps` at RTT `rtt_secs`. By symmetry every window equals
/// `w*`, the unique root of the scalar balance `(1 − q)·I(w) = q·D(w)`
/// with `q(w) = max(0, 1 − c τ / w)` — solved directly by bisection, not
/// by integrating the ODE. Returns `(w*, per-subflow goodput Mbps)`.
pub fn symmetric_fixed_point(
    kind: CoupledKind,
    cap_mbps: f64,
    rtt_secs: f64,
    n_links: usize,
) -> (f64, f64) {
    let c_pkts = cap_mbps * 1e6 / (8.0 * MSS_WIRE);
    let q_of = |w: f64| {
        let y = w / rtt_secs;
        if y > c_pkts {
            (y - c_pkts) / y
        } else {
            0.0
        }
    };
    let residual = |w: f64| {
        let ws = vec![w; n_links];
        let taus = vec![rtt_secs; n_links];
        let qs = vec![q_of(w); n_links];
        let q = q_of(w);
        (1.0 - q) * ack_increase(kind, &ws, &taus, &qs, 0) - q * loss_decrease(kind, &ws, &taus, 0)
    };
    let (mut lo, mut hi) = (MIN_CWND, (c_pkts * rtt_secs).max(MIN_CWND) * 50.0);
    debug_assert!(
        residual(lo) > 0.0,
        "residual must be positive below capacity"
    );
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if residual(mid) > 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let w = 0.5 * (lo + hi);
    let q = q_of(w);
    let goodput = (w / rtt_secs) * (1.0 - q) * MSS_PAYLOAD * 8.0 / 1e6;
    (w, goodput)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_link_topo(cap: f64, rtt: f64) -> FluidTopo {
        FluidTopo::uniform_rtt(
            ParallelNetSpec {
                capacities: vec![cap],
                conns: vec![vec![0]],
            },
            rtt,
        )
    }

    #[test]
    fn of_keeps_the_check_harness_rtt_arithmetic() {
        // `experiments check`'s fluid-rtt case: 50 Mbps links at 10 and
        // 40 ms one way, each buffering half its bandwidth-delay product.
        let link = |delay_ms, buffer| {
            LinkParams::paper_default()
                .with_capacity(mpcc_simcore::Rate::from_mbps(50.0))
                .with_delay(mpcc_simcore::SimDuration::from_millis(delay_ms))
                .with_buffer(buffer)
        };
        let net = NetSpec {
            links: vec![link(10, 62_500), link(40, 250_000)],
            conns: vec![vec![vec![0], vec![1]]],
        };
        let topo = FluidTopo::of(&net);
        // The harness's own formula, from Mbps and whole milliseconds.
        let old = |delay_ms: u64, buffer: u64| {
            let buf_secs = buffer as f64 * 8.0 / (50.0 * 1e6);
            2.0 * delay_ms as f64 / 1e3 + 0.5 * buf_secs
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&topo.rtt_secs),
            bits(&[old(10, 62_500), old(40, 250_000)])
        );
        assert_eq!(topo.spec.capacities, [50.0, 50.0]);
        assert_eq!(topo.spec.conns, [[0, 1]]);
    }

    #[test]
    fn reno_single_link_fills_capacity() {
        let topo = one_link_topo(20.0, 0.04);
        let eq = equilibrium(&topo, &[CoupledKind::Reno], &FluidConfig::default());
        // Goodput approaches payload capacity (20 · 1448/1500 ≈ 19.3).
        let payload_cap = 20.0 * MSS_PAYLOAD / MSS_WIRE;
        assert!(
            (eq[0] - payload_cap).abs() < 0.05 * payload_cap,
            "eq {eq:?} vs {payload_cap}"
        );
    }

    #[test]
    fn symmetric_fixed_points_agree_across_controllers() {
        // On a symmetric two-link topology LIA's, OLIA's, and Balia's
        // α machinery all degenerate (LIA α = 1/2, OLIA α = 0, Balia
        // α = 1), so their fixed points coincide at min(α/Σw, …) = 1/(4w)
        // vs w/2 — a strong mutual consistency check.
        let (w_lia, _) = symmetric_fixed_point(CoupledKind::Lia, 30.0, 0.05, 2);
        let (w_olia, _) = symmetric_fixed_point(CoupledKind::Olia, 30.0, 0.05, 2);
        let (w_balia, _) = symmetric_fixed_point(CoupledKind::Balia, 30.0, 0.05, 2);
        assert!((w_lia - w_olia).abs() < 1e-6 * w_lia, "{w_lia} vs {w_olia}");
        assert!(
            (w_lia - w_balia).abs() < 1e-6 * w_lia,
            "{w_lia} vs {w_balia}"
        );
    }

    #[test]
    fn increase_decrease_match_reno_for_single_path() {
        // d = 1: every controller collapses to Reno's 1/w and w/2.
        let (w, tau, q) = (vec![10.0], vec![0.05], vec![0.0]);
        for kind in [
            CoupledKind::Reno,
            CoupledKind::Lia,
            CoupledKind::Olia,
            CoupledKind::Balia,
        ] {
            let inc = ack_increase(kind, &w, &tau, &q, 0);
            assert!((inc - 0.1).abs() < 1e-12, "{kind:?}: {inc}");
            let dec = loss_decrease(kind, &w, &tau, 0);
            assert!((dec - 5.0).abs() < 1e-12, "{kind:?}: {dec}");
        }
    }

    #[test]
    fn olia_alpha_favours_lossless_path() {
        // Path 0 lossless, path 1 lossy with the bigger window: OLIA's α
        // must push toward path 0 and away from path 1, summing to zero.
        let (w, tau) = (vec![5.0, 20.0], vec![0.05, 0.05]);
        let q = vec![0.0, 0.01];
        let mut a = Vec::new();
        olia_alphas(&w, &tau, &q, &mut a);
        assert!(a[0] > 0.0 && a[1] < 0.0, "{a:?}");
        assert!((a[0] + a[1]).abs() < 1e-12, "{a:?}");
        assert!((a[0] - 0.5).abs() < 1e-12, "1/(d·|B\\M|) = 1/2: {a:?}");
    }

    #[test]
    fn trajectory_sampling_is_deterministic() {
        let topo = one_link_topo(10.0, 0.04);
        let cfg = FluidConfig {
            duration: 5.0,
            ..FluidConfig::default()
        };
        let a = integrate(&topo, &[CoupledKind::Lia], &cfg);
        let b = integrate(&topo, &[CoupledKind::Lia], &cfg);
        assert_eq!(a.secs.len(), b.secs.len());
        for (x, y) in a.conn_mbps[0].iter().zip(&b.conn_mbps[0]) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
