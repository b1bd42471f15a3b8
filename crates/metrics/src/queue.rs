//! Queue-depth and backpressure gauges for crossbeam channels.
//!
//! The channel shim (like crossbeam itself) offers no depth introspection,
//! so depth is tracked *around* the channel: [`GaugedSender`] increments an
//! atomic gauge after each successful send and [`GaugedReceiver`]
//! decrements it on each receive. Backpressure is detected the same way —
//! a send issued while `depth >= capacity` is counted as a stall and the
//! time spent blocked inside `send` is recorded in a latency histogram. A
//! sender that works while the channel is full
//! ([`GaugedSender::send_helping`]) counts one stall per refused value and
//! times only the send it finally blocks in.
//!
//! The wrappers are transparent when no gauges are attached
//! ([`GaugedSender::plain`]): the cost is one `Option` branch per
//! operation, matching the disabled-observer contract.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvError, RecvTimeoutError, SendError, Sender, TrySendError};

use crate::{Counter, Gauge, Histogram, MetricsRegistry};

/// The metric handles for one instrumented channel.
///
/// Registered as five families, each carrying the caller's label set
/// (conventionally `queue="increments"`, plus `shard`/`worker` where it
/// applies):
///
/// * `pier_queue_depth` (gauge) — messages currently in flight;
/// * `pier_queue_capacity` (gauge) — bound, or 0 for unbounded;
/// * `pier_queue_sends_total` (counter) — send attempts;
/// * `pier_queue_send_stalls_total` (counter) — sends issued against a
///   full channel (backpressure events);
/// * `pier_queue_send_stall_seconds` (histogram) — time blocked in those
///   stalled sends.
#[derive(Debug)]
pub struct QueueGauges {
    depth: Arc<Gauge>,
    sends: Arc<Counter>,
    stalls: Arc<Counter>,
    stall_seconds: Arc<Histogram>,
    capacity: i64,
}

impl QueueGauges {
    /// Registers the five families for one channel under `labels`.
    ///
    /// `capacity` is the channel's bound (`None` for unbounded). The same
    /// labels resolve to the same underlying atoms, so a scraper or bench
    /// harness can re-register to read.
    pub fn register(
        registry: &MetricsRegistry,
        labels: &[(&str, &str)],
        capacity: Option<usize>,
    ) -> Arc<Self> {
        let cap = capacity.map_or(0, |c| c as i64);
        registry
            .gauge(
                "pier_queue_capacity",
                "Channel bound (0 = unbounded).",
                labels,
            )
            .set(cap);
        Arc::new(QueueGauges {
            depth: registry.gauge(
                "pier_queue_depth",
                "Messages currently in flight in the channel.",
                labels,
            ),
            sends: registry.counter("pier_queue_sends_total", "Send attempts.", labels),
            stalls: registry.counter(
                "pier_queue_send_stalls_total",
                "Sends issued against a full channel (backpressure).",
                labels,
            ),
            stall_seconds: registry.histogram(
                "pier_queue_send_stall_seconds",
                "Time blocked in stalled sends.",
                labels,
            ),
            capacity: cap,
        })
    }

    /// Current in-flight depth.
    pub fn depth(&self) -> i64 {
        self.depth.get()
    }

    /// Send attempts so far.
    pub fn sends(&self) -> u64 {
        self.sends.get()
    }

    /// Backpressure events so far.
    pub fn stalls(&self) -> u64 {
        self.stalls.get()
    }
}

/// A channel sender that keeps a [`QueueGauges`] up to date.
pub struct GaugedSender<T> {
    tx: Sender<T>,
    gauges: Option<Arc<QueueGauges>>,
}

impl<T> Clone for GaugedSender<T> {
    fn clone(&self) -> Self {
        GaugedSender {
            tx: self.tx.clone(),
            gauges: self.gauges.clone(),
        }
    }
}

impl<T> GaugedSender<T> {
    /// Wraps `tx`, publishing into `gauges`.
    pub fn new(tx: Sender<T>, gauges: Arc<QueueGauges>) -> Self {
        GaugedSender {
            tx,
            gauges: Some(gauges),
        }
    }

    /// Wraps `tx` with no telemetry — a single-branch passthrough.
    pub fn plain(tx: Sender<T>) -> Self {
        GaugedSender { tx, gauges: None }
    }

    /// Wraps `tx` with optional telemetry.
    pub fn maybe(tx: Sender<T>, gauges: Option<Arc<QueueGauges>>) -> Self {
        GaugedSender { tx, gauges }
    }

    /// Sends `value`, blocking while a bounded channel is full; a send
    /// issued while the channel is at capacity counts as a stall and its
    /// blocked time is recorded.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let Some(g) = &self.gauges else {
            return self.tx.send(value);
        };
        g.sends.inc();
        let stalled = g.capacity > 0 && g.depth.get() >= g.capacity;
        let result = if stalled {
            g.stalls.inc();
            let start = Instant::now();
            let result = self.tx.send(value);
            g.stall_seconds.record_secs(start.elapsed().as_secs_f64());
            result
        } else {
            self.tx.send(value)
        };
        if result.is_ok() {
            g.depth.inc();
        }
        result
    }

    /// Sends `value` for a sender that has other work to do while the
    /// channel is full: each time a send is refused, `help` may work on the
    /// value it holds and returns whether it did; once it has nothing left
    /// to do, the send blocks. One value that found the channel full counts
    /// as one stall however often it was refused, and only the blocked
    /// send is timed: time spent helping is work, not queue wait.
    pub fn send_helping(
        &self,
        mut value: T,
        mut help: impl FnMut(&mut T) -> bool,
    ) -> Result<(), SendError<T>> {
        let mut refused = false;
        let mut blocked = None;
        let result = loop {
            value = match self.tx.try_send(value) {
                Ok(()) => break Ok(()),
                Err(TrySendError::Disconnected(v)) => break Err(SendError(v)),
                Err(TrySendError::Full(v)) => v,
            };
            refused = true;
            if !help(&mut value) {
                let since = self.gauges.is_some().then(Instant::now);
                let result = self.tx.send(value);
                blocked = since.map(|since| since.elapsed());
                break result;
            }
        };
        if let Some(g) = &self.gauges {
            g.sends.inc();
            if refused {
                g.stalls.inc();
            }
            if let Some(blocked) = blocked {
                g.stall_seconds.record_secs(blocked.as_secs_f64());
            }
            if result.is_ok() {
                g.depth.inc();
            }
        }
        result
    }

    /// Sends `value` without blocking. A [`TrySendError::Full`] result is
    /// counted as a stall (the caller is seeing backpressure) but not timed,
    /// since no time was spent blocked.
    pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
        let Some(g) = &self.gauges else {
            return self.tx.try_send(value);
        };
        g.sends.inc();
        let result = self.tx.try_send(value);
        match &result {
            Ok(()) => g.depth.inc(),
            Err(TrySendError::Full(_)) => g.stalls.inc(),
            Err(TrySendError::Disconnected(_)) => {}
        }
        result
    }
}

/// A channel receiver that keeps the paired [`QueueGauges`] depth honest.
pub struct GaugedReceiver<T> {
    rx: Receiver<T>,
    gauges: Option<Arc<QueueGauges>>,
}

impl<T> GaugedReceiver<T> {
    /// Wraps `rx`, publishing into `gauges` (pass the same handle as the
    /// sender's, or the depth gauge will drift).
    pub fn new(rx: Receiver<T>, gauges: Arc<QueueGauges>) -> Self {
        GaugedReceiver {
            rx,
            gauges: Some(gauges),
        }
    }

    /// Wraps `rx` with no telemetry.
    pub fn plain(rx: Receiver<T>) -> Self {
        GaugedReceiver { rx, gauges: None }
    }

    /// Wraps `rx` with optional telemetry.
    pub fn maybe(rx: Receiver<T>, gauges: Option<Arc<QueueGauges>>) -> Self {
        GaugedReceiver { rx, gauges }
    }

    #[inline]
    fn on_recv(&self) {
        if let Some(g) = &self.gauges {
            g.depth.dec();
        }
    }

    /// Blocks until a message arrives or the channel closes.
    pub fn recv(&self) -> Result<T, RecvError> {
        let value = self.rx.recv()?;
        self.on_recv();
        Ok(value)
    }

    /// Blocks until a message arrives, the channel closes, or `timeout`
    /// passes.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let value = self.rx.recv_timeout(timeout)?;
        self.on_recv();
        Ok(value)
    }

    /// Returns a pending message without blocking, if any.
    pub fn try_recv(&self) -> Option<T> {
        let value = self.rx.try_recv()?;
        self.on_recv();
        Some(value)
    }

    /// Iterates over messages, ending when every sender is dropped.
    pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
        std::iter::from_fn(move || self.recv().ok())
    }
}

impl<T> IntoIterator for GaugedReceiver<T> {
    type Item = T;
    type IntoIter = GaugedIntoIter<T>;

    fn into_iter(self) -> Self::IntoIter {
        GaugedIntoIter { rx: self }
    }
}

/// Owning iterator over a [`GaugedReceiver`]'s messages.
pub struct GaugedIntoIter<T> {
    rx: GaugedReceiver<T>,
}

impl<T> Iterator for GaugedIntoIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.rx.recv().ok()
    }
}

/// Wraps both halves of a channel in one call.
pub fn gauged<T>(
    (tx, rx): (Sender<T>, Receiver<T>),
    gauges: Option<Arc<QueueGauges>>,
) -> (GaugedSender<T>, GaugedReceiver<T>) {
    (
        GaugedSender::maybe(tx, gauges.clone()),
        GaugedReceiver::maybe(rx, gauges),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel;

    #[test]
    fn depth_tracks_in_flight_messages() {
        let registry = MetricsRegistry::new();
        let g = QueueGauges::register(&registry, &[("queue", "t")], Some(8));
        let (tx, rx) = gauged(channel::bounded::<u32>(8), Some(Arc::clone(&g)));
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(g.depth(), 2);
        assert_eq!(g.sends(), 2);
        assert_eq!(rx.recv().unwrap(), 1);
        assert_eq!(g.depth(), 1);
        assert_eq!(rx.try_recv(), Some(2));
        assert_eq!(g.depth(), 0);
        assert_eq!(rx.try_recv(), None);
        assert_eq!(g.stalls(), 0);
        // A timed-out wait takes nothing, so the depth stays put.
        let brief = Duration::from_millis(5);
        assert_eq!(rx.recv_timeout(brief), Err(RecvTimeoutError::Timeout));
        assert_eq!(g.depth(), 0);
        tx.send(3).unwrap();
        assert_eq!(rx.recv_timeout(brief), Ok(3));
        assert_eq!(g.depth(), 0);
    }

    #[test]
    fn stalled_sends_are_counted_and_timed() {
        let registry = MetricsRegistry::new();
        let g = QueueGauges::register(&registry, &[("queue", "t")], Some(1));
        let (tx, rx) = gauged(channel::bounded::<u32>(1), Some(Arc::clone(&g)));
        tx.send(1).unwrap();
        // Channel is at capacity now; the next send stalls until the
        // drainer makes room.
        let drainer = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            rx.iter().count()
        });
        tx.send(2).unwrap();
        drop(tx);
        assert_eq!(drainer.join().unwrap(), 2);
        assert_eq!(g.stalls(), 1);
        let stall_metrics =
            registry.histogram("pier_queue_send_stall_seconds", "", &[("queue", "t")]);
        assert_eq!(stall_metrics.count(), 1);
        assert!(stall_metrics.sum_secs() > 0.0);
        assert_eq!(g.depth(), 0);
    }

    #[test]
    fn a_helping_send_counts_one_stall_and_times_only_its_block() {
        let registry = MetricsRegistry::new();
        let g = QueueGauges::register(&registry, &[("queue", "t")], Some(1));
        let stall_seconds =
            registry.histogram("pier_queue_send_stall_seconds", "", &[("queue", "t")]);
        let (tx, rx) = gauged(channel::bounded::<u32>(1), Some(Arc::clone(&g)));

        // Room in the channel: delivered at once, and `help` never runs.
        tx.send_helping(1, |_| unreachable!("nothing refused"))
            .unwrap();
        assert_eq!((g.sends(), g.stalls(), g.depth()), (1, 0, 1));

        // Refused three times, helping each time; the third help makes room,
        // so the value goes without a blocking send: one stall, no time.
        let mut helped = 0;
        tx.send_helping(10, |value| {
            *value += 1;
            helped += 1;
            if helped == 3 {
                assert_eq!(rx.recv(), Ok(1));
            }
            true
        })
        .unwrap();
        assert_eq!(helped, 3);
        assert_eq!((g.sends(), g.stalls(), g.depth()), (2, 1, 1));
        assert_eq!(stall_seconds.count(), 0);

        // Refused with nothing left to do: the send blocks until the drainer
        // makes room, which it does only once told that `help` gave up, and
        // only that wait is timed.
        let (gave_up, give_up) = channel::bounded::<()>(1);
        let drainer = std::thread::spawn(move || {
            give_up.recv().unwrap();
            std::thread::sleep(Duration::from_millis(20));
            rx.iter().collect::<Vec<u32>>()
        });
        tx.send_helping(20, |value| {
            let more = *value < 22;
            *value += u32::from(more);
            if !more {
                gave_up.send(()).unwrap();
            }
            more
        })
        .unwrap();
        drop(tx);
        // Each value arrives with the work done on it while it waited.
        assert_eq!(drainer.join().unwrap(), [13, 22]);
        assert_eq!((g.sends(), g.stalls(), g.depth()), (3, 2, 0));
        assert_eq!(stall_seconds.count(), 1);
        assert!(stall_seconds.sum_secs() > 0.0);
    }

    #[test]
    fn a_helping_send_to_a_hung_up_channel_returns_the_value() {
        let (tx, rx) = gauged(channel::bounded::<u32>(1), None);
        drop(rx);
        let refused = tx.send_helping(5, |_| unreachable!("not full, gone"));
        assert_eq!(refused.unwrap_err().0, 5);
    }

    #[test]
    fn plain_wrappers_skip_telemetry() {
        let (tx, rx) = channel::unbounded::<u32>();
        let tx = GaugedSender::plain(tx);
        let rx = GaugedReceiver::plain(rx);
        tx.send(7).unwrap();
        drop(tx);
        let got: Vec<u32> = rx.into_iter().collect();
        assert_eq!(got, vec![7]);
    }

    #[test]
    fn iter_decrements_depth() {
        let registry = MetricsRegistry::new();
        let g = QueueGauges::register(&registry, &[("queue", "t")], None);
        let (tx, rx) = gauged(channel::unbounded::<u32>(), Some(Arc::clone(&g)));
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        drop(tx);
        assert_eq!(g.depth(), 5);
        assert_eq!(rx.iter().count(), 5);
        assert_eq!(g.depth(), 0);
    }

    #[test]
    fn send_error_does_not_inflate_depth() {
        let registry = MetricsRegistry::new();
        let g = QueueGauges::register(&registry, &[("queue", "t")], None);
        let (tx, rx) = gauged(channel::unbounded::<u32>(), Some(Arc::clone(&g)));
        drop(rx);
        assert!(tx.send(1).is_err());
        assert_eq!(g.depth(), 0);
        assert_eq!(g.sends(), 1);
    }
}
