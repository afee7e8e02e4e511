//! Connection-level send state: the data-sequence space, the retransmission
//! queue, flow control against the peer's receive window, and workload
//! completion tracking.

use crate::sack::Chunk;
use mpcc_simcore::{SimDuration, SimTime};
use std::collections::VecDeque;

/// What the application asks the connection to transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// An unbounded bulk transfer (the paper's iperf3 runs).
    Bulk,
    /// A fixed-size transfer (file downloads, data-center flows); completion
    /// time is recorded when the last byte is acknowledged in order.
    Finite(u64),
    /// An application-limited stream: `burst` bytes become available every
    /// `interval` (e.g. a video segment per second). Models the
    /// application-limited traffic the paper's §9 leaves open; the sender
    /// flags monitor intervals as app-limited when it drains the release.
    Paced {
        /// Bytes released per interval.
        burst: u64,
        /// Release period.
        interval: SimDuration,
    },
}

/// Send-side connection state shared by all subflows.
#[derive(Debug)]
pub struct ConnSend {
    workload: Workload,
    /// Next fresh data-sequence byte to hand out.
    next_dsn: u64,
    /// Connection-level ranges needing retransmission (FIFO).
    retx: VecDeque<Chunk>,
    /// Highest in-order byte the receiver has reported delivered.
    data_acked: u64,
    /// Receive-window credit from the most recent ACK.
    peer_window: u64,
    /// When the transfer started.
    started_at: SimTime,
    /// When the last byte was acknowledged (finite workloads only).
    completed_at: Option<SimTime>,
}

impl ConnSend {
    /// Creates connection state. `initial_window` is the peer's receive
    /// buffer size (learned precisely from the first ACK onwards).
    pub fn new(workload: Workload, initial_window: u64, started_at: SimTime) -> Self {
        ConnSend {
            workload,
            next_dsn: 0,
            retx: VecDeque::new(),
            data_acked: 0,
            peer_window: initial_window,
            started_at,
            completed_at: None,
        }
    }

    /// The configured workload.
    pub fn workload(&self) -> Workload {
        self.workload
    }

    /// Resets to a fresh transfer in place (retaining the retransmission
    /// queue's allocation), for connection recycling.
    pub fn reset_for_reuse(
        &mut self,
        workload: Workload,
        initial_window: u64,
        started_at: SimTime,
    ) {
        self.workload = workload;
        self.next_dsn = 0;
        self.retx.clear();
        self.data_acked = 0;
        self.peer_window = initial_window;
        self.started_at = started_at;
        self.completed_at = None;
    }

    /// Bytes the application has made available by time `now`.
    fn released(&self, now: SimTime) -> u64 {
        match self.workload {
            Workload::Bulk => u64::MAX,
            Workload::Finite(total) => total,
            Workload::Paced { burst, interval } => {
                if now < self.started_at || interval.is_zero() {
                    return burst;
                }
                let elapsed = now.saturating_since(self.started_at).as_nanos();
                let periods = 1 + elapsed / interval.as_nanos();
                burst.saturating_mul(periods)
            }
        }
    }

    /// The next application release instant after `now`, for paced
    /// workloads (so the sender can arm a wake-up timer).
    pub fn next_release(&self, now: SimTime) -> Option<SimTime> {
        match self.workload {
            Workload::Paced { interval, .. } if !interval.is_zero() => {
                let elapsed = now.saturating_since(self.started_at).as_nanos();
                let periods = elapsed / interval.as_nanos() + 1;
                self.started_at
                    .checked_add(SimDuration::from_nanos(periods * interval.as_nanos()))
            }
            _ => None,
        }
    }

    /// Pops the next chunk to transmit: retransmissions first, then fresh
    /// data up to `max_len` bytes, subject to flow control and (for paced
    /// workloads) the application release schedule. Returns `None` when
    /// there is nothing (currently) to send.
    pub fn pop_chunk(&mut self, max_len: u64, now: SimTime) -> Option<Chunk> {
        debug_assert!(max_len > 0);
        if let Some(mut chunk) = self.retx.pop_front() {
            if chunk.len > max_len {
                // Split oversized ranges (merged RTO losses).
                let rest = Chunk {
                    dsn: chunk.dsn + max_len,
                    len: chunk.len - max_len,
                    retx: true,
                };
                self.retx.push_front(rest);
                chunk.len = max_len;
            }
            return Some(chunk);
        }
        let remaining = self.released(now).saturating_sub(self.next_dsn);
        if remaining == 0 {
            return None;
        }
        // Connection-level flow control: never let more than a window of
        // data be outstanding beyond the receiver's in-order frontier.
        let window_end = self.data_acked.saturating_add(self.peer_window);
        if self.next_dsn >= window_end {
            return None;
        }
        let len = max_len.min(remaining).min(window_end - self.next_dsn);
        let chunk = Chunk {
            dsn: self.next_dsn,
            len,
            retx: false,
        };
        self.next_dsn += len;
        Some(chunk)
    }

    /// Returns a chunk to the front of the retransmission queue (a packet
    /// carrying it was declared lost).
    pub fn requeue(&mut self, chunk: Chunk) {
        self.retx.push_back(Chunk {
            retx: true,
            ..chunk
        });
    }

    /// `true` if a call to [`ConnSend::pop_chunk`] could currently yield
    /// data (ignoring flow control, which `pop_chunk` still enforces).
    pub fn has_data(&self, now: SimTime) -> bool {
        !self.retx.is_empty() || self.next_dsn < self.released(now)
    }

    /// Feeds receiver feedback (data-level ACK and window). Returns `true`
    /// if this ACK completed a finite workload.
    pub fn on_data_ack(&mut self, data_acked: u64, rcv_window: u64, now: SimTime) -> bool {
        if data_acked > self.data_acked {
            self.data_acked = data_acked;
        }
        self.peer_window = rcv_window;
        if self.completed_at.is_none() {
            if let Workload::Finite(total) = self.workload {
                if self.data_acked >= total {
                    self.completed_at = Some(now);
                    return true;
                }
            }
        }
        false
    }

    /// In-order bytes the receiver has confirmed.
    pub fn data_acked(&self) -> u64 {
        self.data_acked
    }

    /// `true` once a finite workload has fully completed.
    pub fn is_complete(&self) -> bool {
        self.completed_at.is_some()
    }

    /// Flow completion time, if the workload has finished.
    pub fn fct(&self) -> Option<mpcc_simcore::SimDuration> {
        self.completed_at
            .map(|done| done.saturating_since(self.started_at))
    }

    /// When the transfer started.
    pub fn started_at(&self) -> SimTime {
        self.started_at
    }

    /// Bytes of fresh data handed out so far.
    pub fn next_dsn(&self) -> u64 {
        self.next_dsn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bulk_always_has_data() {
        let mut c = ConnSend::new(Workload::Bulk, u64::MAX, SimTime::ZERO);
        assert!(c.has_data(SimTime::ZERO));
        let a = c.pop_chunk(1448, SimTime::ZERO).unwrap();
        assert_eq!(a.dsn, 0);
        assert_eq!(a.len, 1448);
        assert!(!a.retx);
        let b = c.pop_chunk(1448, SimTime::ZERO).unwrap();
        assert_eq!(b.dsn, 1448);
    }

    #[test]
    fn finite_workload_completes() {
        let mut c = ConnSend::new(Workload::Finite(3000), u64::MAX, SimTime::ZERO);
        let a = c.pop_chunk(1448, SimTime::ZERO).unwrap();
        let b = c.pop_chunk(1448, SimTime::ZERO).unwrap();
        let tail = c.pop_chunk(1448, SimTime::ZERO).unwrap();
        assert_eq!(tail.len, 3000 - 2 * 1448);
        assert!(c.pop_chunk(1448, SimTime::ZERO).is_none());
        assert!(!c.has_data(SimTime::ZERO));
        let _ = (a, b);
        assert!(!c.on_data_ack(2000, u64::MAX, SimTime::from_millis(10)));
        assert!(c.on_data_ack(3000, u64::MAX, SimTime::from_millis(20)));
        assert!(c.is_complete());
        assert_eq!(c.fct().unwrap(), mpcc_simcore::SimDuration::from_millis(20));
        // Completion reported once.
        assert!(!c.on_data_ack(3000, u64::MAX, SimTime::from_millis(30)));
    }

    #[test]
    fn retransmissions_take_priority_and_split() {
        let mut c = ConnSend::new(Workload::Bulk, u64::MAX, SimTime::ZERO);
        let _ = c.pop_chunk(1448, SimTime::ZERO);
        c.requeue(Chunk {
            dsn: 0,
            len: 3000,
            retx: false,
        });
        let first = c.pop_chunk(1448, SimTime::ZERO).unwrap();
        assert!(first.retx);
        assert_eq!(first.dsn, 0);
        assert_eq!(first.len, 1448);
        let second = c.pop_chunk(1448, SimTime::ZERO).unwrap();
        assert_eq!(second.dsn, 1448);
        assert_eq!(second.len, 1448);
        let third = c.pop_chunk(1448, SimTime::ZERO).unwrap();
        assert_eq!(third.len, 3000 - 2 * 1448);
        // Then fresh data resumes where it left off.
        let fresh = c.pop_chunk(1448, SimTime::ZERO).unwrap();
        assert!(!fresh.retx);
        assert_eq!(fresh.dsn, 1448);
    }

    #[test]
    fn paced_workload_releases_in_bursts() {
        let mut c = ConnSend::new(
            Workload::Paced {
                burst: 2000,
                interval: SimDuration::from_secs(1),
            },
            u64::MAX,
            SimTime::ZERO,
        );
        // First burst available immediately.
        assert!(c.has_data(SimTime::ZERO));
        assert_eq!(c.pop_chunk(1448, SimTime::ZERO).unwrap().len, 1448);
        assert_eq!(c.pop_chunk(1448, SimTime::ZERO).unwrap().len, 552);
        assert!(c.pop_chunk(1448, SimTime::ZERO).is_none());
        assert!(!c.has_data(SimTime::from_millis(500)));
        // Next burst at t = 1 s.
        assert_eq!(
            c.next_release(SimTime::from_millis(500)),
            Some(SimTime::from_secs(1))
        );
        assert!(c.has_data(SimTime::from_secs(1)));
        let chunk = c.pop_chunk(1448, SimTime::from_secs(1)).unwrap();
        assert_eq!(chunk.dsn, 2000);
        // Retransmissions are always sendable regardless of the schedule.
        c.requeue(chunk);
        assert!(c.has_data(SimTime::from_secs(1)));
    }

    #[test]
    fn paced_release_counts_periods_not_calls() {
        let c = ConnSend::new(
            Workload::Paced {
                burst: 100,
                interval: SimDuration::from_millis(100),
            },
            u64::MAX,
            SimTime::from_secs(1),
        );
        // 1.05 s: one period; 1.25 s: three periods of release.
        assert_eq!(
            c.next_release(SimTime::from_millis(1050)),
            Some(SimTime::from_millis(1100))
        );
        assert_eq!(
            c.next_release(SimTime::from_millis(1250)),
            Some(SimTime::from_millis(1300))
        );
    }

    #[test]
    fn flow_control_blocks_fresh_data() {
        let mut c = ConnSend::new(Workload::Bulk, 2000, SimTime::ZERO);
        let a = c.pop_chunk(1448, SimTime::ZERO).unwrap();
        assert_eq!(a.len, 1448);
        // Only 552 bytes of window left.
        let b = c.pop_chunk(1448, SimTime::ZERO).unwrap();
        assert_eq!(b.len, 552);
        assert!(c.pop_chunk(1448, SimTime::ZERO).is_none());
        // Window opens as the receiver delivers.
        c.on_data_ack(2000, 2000, SimTime::from_millis(5));
        let d = c.pop_chunk(1448, SimTime::ZERO).unwrap();
        assert_eq!(d.dsn, 2000);
        // Retransmissions bypass flow control.
        c.requeue(a);
        assert!(c.pop_chunk(1448, SimTime::ZERO).is_some());
    }
}
