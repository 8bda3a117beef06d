//! The epoch clock: one tested implementation of the online epoch-grid
//! arithmetic.
//!
//! The [`OnlineDiffer`](crate::diff::OnlineDiffer) needs three pieces
//! of boundary bookkeeping: lazily anchoring the grid at
//! the first admitted event, emitting one boundary per crossed epoch
//! (capped at one window's worth so a quiet stretch or corrupt
//! far-future timestamp cannot force a model build per crossed epoch),
//! and jumping the grid forward while still consuming the skipped epoch
//! indices. That arithmetic used to live inline in
//! `OnlineDiffer::observe`, duplicated between the emit path and the
//! quiet-stretch jump path; this module is the single shared copy.

use openflow::types::Timestamp;
use serde::{Deserialize, Serialize};

/// The epoch grid of one online diagnosis run.
///
/// Serializes (it is part of the streaming state a
/// [`checkpoint`](crate::checkpoint) captures) and compares by value, so
/// a restored clock resumes on exactly the boundary grid the original
/// was on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochClock {
    epoch_us: u64,
    window_us: u64,
    /// Next boundary to emit; `None` until the first event anchors the
    /// grid at `first_ts + epoch_us`.
    next_boundary: Option<Timestamp>,
    /// Zero-based index of the next epoch to be emitted.
    epoch: u64,
}

impl EpochClock {
    /// A fresh, unanchored clock. Both periods are clamped to at least
    /// one microsecond so a zeroed config cannot divide by zero.
    pub fn new(epoch_us: u64, window_us: u64) -> EpochClock {
        EpochClock {
            epoch_us: epoch_us.max(1),
            window_us: window_us.max(1),
            next_boundary: None,
            epoch: 0,
        }
    }

    /// The epoch period in microseconds.
    pub fn epoch_us(&self) -> u64 {
        self.epoch_us
    }

    /// The sliding-window width in microseconds.
    pub fn window_us(&self) -> u64 {
        self.window_us
    }

    /// The zero-based index of the next epoch to be emitted.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The start of the sliding window whose snapshot is due at
    /// `boundary` — the window models `[window_start(b), b)`. Every
    /// window the differ models starts here, the final flush's too. A
    /// window reaching back past time zero is clamped at zero.
    pub fn window_start(&self, boundary: Timestamp) -> Timestamp {
        Timestamp::from_micros(boundary.as_micros().saturating_sub(self.window_us))
    }

    /// Boundaries after which the sliding window has fully drained:
    /// past this many empty epochs every further snapshot would model
    /// the same empty window.
    fn drain_epochs(&self) -> u64 {
        self.window_us.div_ceil(self.epoch_us) + 1
    }

    /// Advances the grid to an (already admitted, never quarantined)
    /// event timestamp, returning the `(epoch index, boundary)` pairs
    /// the caller must snapshot — usually none, one when the stream
    /// just entered a new epoch, several after a quiet stretch, but
    /// never more than one window's worth. Boundaries past the drain
    /// cap are skipped with their epoch indices consumed, so the index
    /// always reflects log time.
    pub fn advance(&mut self, ts: Timestamp) -> Vec<(u64, Timestamp)> {
        if self.next_boundary.is_none() {
            self.next_boundary = Some(ts + self.epoch_us);
        }
        let drain = self.drain_epochs();
        let mut out = Vec::new();
        while let Some(boundary) = self.next_boundary {
            if ts < boundary {
                break;
            }
            if (out.len() as u64) < drain {
                out.push((self.epoch, boundary));
                self.epoch += 1;
                self.next_boundary = Some(boundary + self.epoch_us);
            } else {
                // Jump the grid to the first boundary beyond the event,
                // consuming the skipped indices.
                let behind = ts.as_micros() - boundary.as_micros();
                let skipped = behind / self.epoch_us + 1;
                self.epoch += skipped;
                self.next_boundary = Some(Timestamp::from_micros(
                    boundary
                        .as_micros()
                        .saturating_add(skipped.saturating_mul(self.epoch_us)),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> Timestamp {
        Timestamp::from_micros(v)
    }

    #[test]
    fn anchors_lazily_and_ticks_once_per_epoch() {
        let mut clock = EpochClock::new(5, 20);
        assert_eq!(clock.epoch(), 0);
        assert!(clock.advance(us(100)).is_empty(), "first event anchors");
        assert!(clock.advance(us(104)).is_empty(), "still inside epoch 0");
        assert_eq!(clock.advance(us(105)), vec![(0, us(105))]);
        assert_eq!(clock.advance(us(110)), vec![(1, us(110))]);
        assert_eq!(clock.epoch(), 2);
    }

    #[test]
    fn multiple_boundaries_from_one_event() {
        let mut clock = EpochClock::new(5, 20);
        clock.advance(us(100));
        assert_eq!(
            clock.advance(us(117)),
            vec![(0, us(105)), (1, us(110)), (2, us(115))]
        );
    }

    #[test]
    fn quiet_stretch_jump_caps_at_one_drained_window() {
        // The PR 4 quiet-stretch case: an event 10 000 epochs ahead may
        // only emit the draining window, then the grid jumps with the
        // skipped indices consumed.
        let mut clock = EpochClock::new(5, 20);
        clock.advance(us(100));
        let flood = clock.advance(us(100 + 10_000 * 5));
        let drain = 20u64.div_ceil(5) + 1;
        assert_eq!(flood.len() as u64, drain);
        assert_eq!(flood[0], (0, us(105)));
        // Skipped boundaries consumed their indices: the next tick's
        // index reflects log time, not emission count.
        let next = clock.advance(us(100 + 10_001 * 5));
        assert_eq!(next.len(), 1);
        assert!(next[0].0 >= 10_000, "epoch index reflects log time");
        // And the grid stays on the original anchor's phase.
        assert_eq!(next[0].1.as_micros() % 5, 0);
    }

    #[test]
    fn zero_periods_are_clamped() {
        let mut clock = EpochClock::new(0, 0);
        assert_eq!(clock.epoch_us(), 1);
        assert_eq!(clock.window_us(), 1);
        clock.advance(us(10));
        assert_eq!(clock.advance(us(11)), vec![(0, us(11))]);
    }

    #[test]
    fn serializes_and_restores_mid_grid() {
        let mut clock = EpochClock::new(5, 20);
        clock.advance(us(100));
        clock.advance(us(113));
        let bytes = serde::to_vec(&clock);
        let back = EpochClock::deserialize(&mut bytes.as_slice()).unwrap();
        assert_eq!(back, clock);
    }
}
