//! Time-series helpers: turning cumulative byte counters sampled at fixed
//! intervals into throughput series (the paper's Fig. 7/8/11), and summary
//! measures over them (rate jitter, tracking error against an optimum).

use mpcc_simcore::SimTime;

/// One sample of a rate series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeriesPoint {
    /// Sample time (end of the interval).
    pub t: SimTime,
    /// Rate over the preceding interval, Mbps.
    pub mbps: f64,
}

/// A throughput time series built from cumulative byte counters.
#[derive(Clone, Debug, Default)]
pub struct RateSeries {
    points: Vec<SeriesPoint>,
    last: Option<(SimTime, u64)>,
}

impl RateSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds a cumulative byte counter observed at time `t`; records the
    /// rate over the interval since the previous observation.
    pub fn push_cumulative(&mut self, t: SimTime, bytes: u64) {
        if let Some((t0, b0)) = self.last {
            let dt = t.saturating_since(t0).as_secs_f64();
            if dt > 0.0 {
                let mbps = bytes.saturating_sub(b0) as f64 * 8.0 / dt / 1e6;
                self.points.push(SeriesPoint { t, mbps });
            }
        }
        self.last = Some((t, bytes));
    }

    /// The recorded points.
    pub fn points(&self) -> &[SeriesPoint] {
        &self.points
    }

    /// Mean rate over points with `t > from`.
    pub fn mean_after(&self, from: SimTime) -> f64 {
        let pts: Vec<f64> = self
            .points
            .iter()
            .filter(|p| p.t > from)
            .map(|p| p.mbps)
            .collect();
        if pts.is_empty() {
            0.0
        } else {
            pts.iter().sum::<f64>() / pts.len() as f64
        }
    }

    /// Mean rate over points with `from < t <= to` — for isolating one
    /// phase of a run (e.g. goodput before a scheduled link change).
    pub fn mean_between(&self, from: SimTime, to: SimTime) -> f64 {
        let pts: Vec<f64> = self
            .points
            .iter()
            .filter(|p| p.t > from && p.t <= to)
            .map(|p| p.mbps)
            .collect();
        if pts.is_empty() {
            0.0
        } else {
            pts.iter().sum::<f64>() / pts.len() as f64
        }
    }

    /// Rate jitter: mean absolute difference between consecutive samples
    /// (the §7.2.5 comparison), over points with `t > from`.
    pub fn jitter_after(&self, from: SimTime) -> f64 {
        let pts: Vec<f64> = self
            .points
            .iter()
            .filter(|p| p.t > from)
            .map(|p| p.mbps)
            .collect();
        if pts.len() < 2 {
            return 0.0;
        }
        pts.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>() / (pts.len() - 1) as f64
    }
}

/// Renders `vals` as a unicode sparkline (`▁▂▃▄▅▆▇█`), scaled between the
/// series' own min and max. Series longer than `width` are downsampled by
/// averaging equal chunks, so the output is at most `width` glyphs. Flat
/// and empty series render as all-minimum and empty respectively;
/// non-finite samples are skipped. Used by `experiments report` to show
/// rate trajectories inline in Markdown.
pub fn sparkline(vals: &[f64], width: usize) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let finite: Vec<f64> = vals.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() || width == 0 {
        return String::new();
    }
    // Downsample to at most `width` points by chunk-averaging.
    let chunk = finite.len().div_ceil(width);
    let points: Vec<f64> = finite
        .chunks(chunk)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    let min = points.iter().copied().fold(f64::INFINITY, f64::min);
    let max = points.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = max - min;
    points
        .iter()
        .map(|&v| {
            if span <= 0.0 {
                GLYPHS[0]
            } else {
                let lvl = ((v - min) / span * (GLYPHS.len() - 1) as f64).round() as usize;
                GLYPHS[lvl.min(GLYPHS.len() - 1)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn sparkline_scales_and_downsamples() {
        assert_eq!(sparkline(&[], 40), "");
        assert_eq!(sparkline(&[5.0], 40), "▁");
        assert_eq!(sparkline(&[3.0, 3.0, 3.0], 40), "▁▁▁");
        let ramp: Vec<f64> = (0..8).map(|i| i as f64).collect();
        assert_eq!(sparkline(&ramp, 40), "▁▂▃▄▅▆▇█");
        // 80 points squeezed into 40 glyphs.
        let long: Vec<f64> = (0..80).map(|i| i as f64).collect();
        let s = sparkline(&long, 40);
        assert_eq!(s.chars().count(), 40);
        assert!(s.starts_with('▁') && s.ends_with('█'));
        // Non-finite samples are skipped, not rendered.
        assert_eq!(
            sparkline(&[f64::NAN, 1.0, f64::INFINITY, 2.0], 40)
                .chars()
                .count(),
            2
        );
    }

    #[test]
    fn rates_from_cumulative_bytes() {
        let mut s = RateSeries::new();
        s.push_cumulative(t(0), 0);
        s.push_cumulative(t(1000), 12_500_000); // 100 Mbps
        s.push_cumulative(t(2000), 18_750_000); // +50 Mbps
        let pts = s.points();
        assert_eq!(pts.len(), 2);
        assert!((pts[0].mbps - 100.0).abs() < 1e-9);
        assert!((pts[1].mbps - 50.0).abs() < 1e-9);
    }

    #[test]
    fn mean_after_skips_warmup() {
        let mut s = RateSeries::new();
        s.push_cumulative(t(0), 0);
        for i in 1..=10u64 {
            // 10 Mbps every second.
            s.push_cumulative(t(i * 1000), i * 1_250_000);
        }
        assert!((s.mean_after(t(3000)) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn mean_between_isolates_a_window() {
        let mut s = RateSeries::new();
        s.push_cumulative(t(0), 0);
        let mut total = 0u64;
        for i in 1..=10u64 {
            // 10 Mbps for 5 samples, then 20 Mbps.
            total += if i <= 5 { 1_250_000 } else { 2_500_000 };
            s.push_cumulative(t(i * 1000), total);
        }
        assert!((s.mean_between(t(0), t(5000)) - 10.0).abs() < 1e-9);
        assert!((s.mean_between(t(5000), t(10_000)) - 20.0).abs() < 1e-9);
        // Empty window.
        assert_eq!(s.mean_between(t(20_000), t(30_000)), 0.0);
    }

    #[test]
    fn jitter_of_constant_series_is_zero() {
        let mut s = RateSeries::new();
        s.push_cumulative(t(0), 0);
        for i in 1..=5u64 {
            s.push_cumulative(t(i * 1000), i * 1_250_000);
        }
        assert_eq!(s.jitter_after(SimTime::ZERO), 0.0);
    }

    #[test]
    fn jitter_of_alternating_series() {
        let mut s = RateSeries::new();
        s.push_cumulative(t(0), 0);
        let mut total = 0u64;
        for i in 1..=6u64 {
            total += if i % 2 == 0 { 2_500_000 } else { 1_250_000 };
            s.push_cumulative(t(i * 1000), total);
        }
        // Rates alternate 10, 20, 10, 20... jitter = 10.
        assert!((s.jitter_after(SimTime::ZERO) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn counter_reset_does_not_underflow() {
        let mut s = RateSeries::new();
        s.push_cumulative(t(0), 1000);
        s.push_cumulative(t(1000), 500); // saturates to 0 rate
        assert_eq!(s.points()[0].mbps, 0.0);
    }
}
