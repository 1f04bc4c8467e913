//! The asynchronous inter-cabinet transceiver (§3.2).
//!
//! "Physically, the clock-synchronous link protocol is limited to short
//! distances, e.g. within a cabinet. To bridge the greater distance
//! between cabinets (up to 30 m) asynchronous transceivers have been
//! implemented. On the input side of the transceivers, there are
//! asynchronous FIFO buffers with 2-Kbyte entries allowing soft flow
//! control over a longer distance."
//!
//! The transceiver pair is modelled as: sender-side synchroniser →
//! cable flight time → receiver-side 2-KB asynchronous FIFO → downstream
//! link. The deep FIFO is what lets the stop signal work over a cable
//! whose round-trip time exceeds many byte times.

use crate::fifo::TimedFifo;
use crate::stopwire::StopWireConfig;
use crate::wire::{Wire, WireConfig};
use pm_sim::time::{Duration, Time};

/// Transceiver configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransceiverConfig {
    /// Cable length in metres (≤30 per the paper).
    pub cable_metres: u32,
    /// Synchroniser cost per chunk at each end (clock-domain crossing).
    pub sync_latency: Duration,
    /// Receive-side asynchronous FIFO capacity (2 KB in hardware).
    pub fifo_bytes: u32,
    /// The link clocking on both sides.
    pub wire: WireConfig,
}

impl Default for TransceiverConfig {
    fn default() -> Self {
        Self::powermanna(30)
    }
}

impl TransceiverConfig {
    /// The PowerMANNA transceiver at the given cable length.
    ///
    /// # Panics
    ///
    /// Panics if the cable exceeds the 30 m the hardware supports.
    pub fn powermanna(cable_metres: u32) -> Self {
        assert!(cable_metres <= 30, "cable limited to 30 m");
        TransceiverConfig {
            cable_metres,
            sync_latency: Duration::from_ns(50),
            fifo_bytes: 2048,
            wire: WireConfig::synchronous(),
        }
    }

    /// Signal flight time over the cable (~5 ns/m).
    pub fn flight_time(&self) -> Duration {
        Duration::from_ns(5 * self.cable_metres as u64)
    }

    /// Stop-signal round trip: the window of data that can still arrive
    /// after the receiver asserts stop. The 2-KB FIFO must cover it.
    pub fn stop_round_trip(&self) -> Duration {
        self.flight_time() * 2 + self.sync_latency * 2
    }

    /// Bytes in flight during one stop round trip at link rate.
    pub fn skid_bytes(&self) -> u32 {
        (self.stop_round_trip().as_ps() / self.wire.byte_time.as_ps()) as u32 + 1
    }

    /// The stop-wire view of an asynchronous route segment: the deep
    /// receive-side FIFO with its *stop* observed one cable round trip
    /// late. Stop asserts at 7/8 full (clamped so the skid bytes always
    /// fit), resumes at half, and the lag is [`Self::skid_bytes`] link
    /// ticks — the asynchronous analogue of the backplane link's
    /// [`StopWireConfig::powermanna`].
    pub fn stop_wire(&self) -> StopWireConfig {
        let lag = self.skid_bytes();
        let config = StopWireConfig {
            fifo_bytes: self.fifo_bytes,
            stop_threshold: (self.fifo_bytes * 7 / 8).min(self.fifo_bytes - lag - 1),
            resume_threshold: self.fifo_bytes / 2,
            stop_lag: lag,
        };
        config.validate();
        config
    }
}

/// One direction of an inter-cabinet link through a transceiver pair.
///
/// # Examples
///
/// ```
/// use pm_net::transceiver::{Transceiver, TransceiverConfig};
/// use pm_sim::time::Time;
///
/// let mut t = Transceiver::new(TransceiverConfig::powermanna(30));
/// let arrive = t.send(Time::ZERO, 64).expect("fifo empty");
/// assert!(arrive.as_ns_f64() > 150.0, "cable flight + sync visible");
/// ```
#[derive(Clone, Debug)]
pub struct Transceiver {
    config: TransceiverConfig,
    wire: Wire,
    fifo: TimedFifo,
    bytes: u64,
}

impl Transceiver {
    /// Creates an idle transceiver pair.
    pub fn new(config: TransceiverConfig) -> Self {
        Transceiver {
            wire: Wire::new(config.wire),
            fifo: TimedFifo::new(config.fifo_bytes),
            config,
            bytes: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> TransceiverConfig {
        self.config
    }

    /// Sends a chunk at `t`; returns its arrival time in the receive-side
    /// FIFO, or `None` when the FIFO (minus the stop-signal skid) has no
    /// room until the consumer drains.
    pub fn send(&mut self, t: Time, bytes: u32) -> Option<Time> {
        // Soft flow control must leave skid room: the stop signal takes a
        // cable round trip to bite, so the sender treats the FIFO as full
        // that many bytes early.
        let usable =
            self.config.fifo_bytes - self.config.skid_bytes().min(self.config.fifo_bytes / 2);
        if self.fifo.level(t) + bytes > usable {
            self.fifo
                .space_available(t, bytes + self.config.fifo_bytes - usable)?;
        }
        let (_, wire_arrive) = self.wire.send(t + self.config.sync_latency, bytes);
        let landed = wire_arrive + self.config.flight_time() + self.config.sync_latency;
        let at = self
            .fifo
            .space_available(landed, bytes)
            .unwrap_or(landed)
            .max(landed);
        self.fifo.push(at, bytes);
        self.bytes += u64::from(bytes);
        Some(at)
    }

    /// The downstream consumer drains `bytes` at `t`; returns when they
    /// were available, or `None` if not yet arrived.
    pub fn drain(&mut self, t: Time, bytes: u32) -> Option<Time> {
        let at = self.fifo.data_available(t, bytes)?;
        self.fifo.pop(at, bytes);
        Some(at)
    }

    /// Total bytes forwarded.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flight_time_scales_with_cable() {
        let short = TransceiverConfig::powermanna(2);
        let long = TransceiverConfig::powermanna(30);
        assert_eq!(short.flight_time(), Duration::from_ns(10));
        assert_eq!(long.flight_time(), Duration::from_ns(150));
        assert!(long.stop_round_trip() > short.stop_round_trip());
    }

    #[test]
    fn skid_fits_comfortably_in_2kb() {
        // The FIFO exists precisely to cover the stop-signal round trip:
        // at 30 m the skid is a few dozen bytes, far below 2 KB.
        let cfg = TransceiverConfig::powermanna(30);
        assert!(
            cfg.skid_bytes() < cfg.fifo_bytes / 4,
            "skid {}",
            cfg.skid_bytes()
        );
    }

    #[test]
    fn stop_wire_covers_the_skid_and_composes_in_routes() {
        let cfg = TransceiverConfig::powermanna(30);
        let sw = cfg.stop_wire();
        assert_eq!(sw.fifo_bytes, 2048);
        assert_eq!(sw.stop_lag, cfg.skid_bytes());
        // Lossless by construction, and deep enough to compose with
        // synchronous hops in a multi-segment route (no underrun).
        assert!(sw.headroom_needed() <= sw.fifo_bytes);
        assert!(sw.resume_threshold > sw.stop_lag);
        // Even the worst-case legal cable keeps its skid covered.
        for metres in [0, 1, 15, 30] {
            TransceiverConfig::powermanna(metres).stop_wire();
        }
    }

    #[test]
    fn chunk_arrives_after_sync_wire_and_flight() {
        let cfg = TransceiverConfig::powermanna(30);
        let mut t = Transceiver::new(cfg);
        let arrive = t.send(Time::ZERO, 8).unwrap();
        let expected = Time::ZERO
            + cfg.sync_latency
            + cfg.wire.byte_time * 8
            + cfg.wire.latency
            + cfg.flight_time()
            + cfg.sync_latency;
        assert_eq!(arrive, expected);
    }

    #[test]
    fn rate_is_still_link_rate() {
        // The transceiver adds latency, not a rate limit: streaming with
        // an eager drain sustains ~60 MB/s.
        let mut t = Transceiver::new(TransceiverConfig::powermanna(30));
        let mut send_t = Time::ZERO;
        let mut drain_t = Time::ZERO;
        let total = 32 * 1024u32;
        let mut sent = 0;
        let mut drained = 0;
        let mut last = Time::ZERO;
        while drained < total {
            if sent < total {
                if let Some(arrive) = t.send(send_t, 64) {
                    send_t = send_t.max(arrive - t.config().flight_time() * 2);
                    sent += 64;
                    let _ = arrive;
                    continue;
                }
            }
            let at = t.drain(drain_t, 64).expect("sender ahead");
            drain_t = at;
            drained += 64;
            last = at;
        }
        let mbs = total as f64 / last.as_secs_f64() / 1e6;
        assert!((40.0..62.0).contains(&mbs), "streaming {mbs:.1} MB/s");
    }

    #[test]
    fn full_fifo_blocks_until_drain() {
        let cfg = TransceiverConfig::powermanna(30);
        let mut t = Transceiver::new(cfg);
        let mut cursor = Time::ZERO;
        let mut pushed = 0u32;
        while let Some(a) = t.send(cursor, 64) {
            cursor = cursor.max(a);
            pushed += 64;
            assert!(pushed <= 4096, "flow control never engaged");
        }
        // A drain frees space.
        let at = t.drain(cursor, 64).expect("data queued");
        assert!(t.send(at, 64).is_some());
    }

    #[test]
    #[should_panic(expected = "30 m")]
    fn cable_too_long_rejected() {
        TransceiverConfig::powermanna(31);
    }
}
