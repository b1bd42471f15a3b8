//! Offline stand-in for `crossbeam`.
//!
//! Provides the `crossbeam::channel` subset PIER's runtime uses — `bounded`
//! and `unbounded` channels with cloneable senders and an iterating
//! receiver that can also wait with a timeout — backed by
//! `std::sync::mpsc`. Semantics match crossbeam for this subset: dropping
//! all senders closes the stream (the receiver's iterator ends), and
//! dropping the receiver makes `send` fail.

pub mod channel {
    //! Multi-producer, single-consumer channels.

    use std::sync::mpsc;
    use std::time::Duration;

    /// Error returned by [`Sender::send`] when the receiver is gone. Carries
    /// the unsent message.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Sender::try_send`]. Carries the unsent message.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The channel is bounded and at capacity.
        Full(T),
        /// The receiver was dropped.
        Disconnected(T),
    }

    impl<T> TrySendError<T> {
        /// Recovers the message that could not be sent.
        pub fn into_inner(self) -> T {
            match self {
                TrySendError::Full(v) | TrySendError::Disconnected(v) => v,
            }
        }

        /// Whether the failure means the receiver is gone (retrying is
        /// pointless).
        pub fn is_disconnected(&self) -> bool {
            matches!(self, TrySendError::Disconnected(_))
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is closed and
    /// drained.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout; the channel is still open.
        Timeout,
        /// The channel is closed and drained.
        Disconnected,
    }

    enum Tx<T> {
        Bounded(mpsc::SyncSender<T>),
        Unbounded(mpsc::Sender<T>),
    }

    impl<T> Clone for Tx<T> {
        fn clone(&self) -> Self {
            match self {
                Tx::Bounded(s) => Tx::Bounded(s.clone()),
                Tx::Unbounded(s) => Tx::Unbounded(s.clone()),
            }
        }
    }

    /// The sending half of a channel.
    pub struct Sender<T> {
        tx: Tx<T>,
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender {
                tx: self.tx.clone(),
            }
        }
    }

    impl<T> Sender<T> {
        /// Sends `value`, blocking while a bounded channel is full. Fails
        /// only when the receiver was dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            match &self.tx {
                Tx::Bounded(s) => s.send(value).map_err(|e| SendError(e.0)),
                Tx::Unbounded(s) => s.send(value).map_err(|e| SendError(e.0)),
            }
        }

        /// Sends `value` without blocking. On a bounded channel at capacity
        /// this returns [`TrySendError::Full`]; an unbounded channel never
        /// reports `Full`.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            match &self.tx {
                Tx::Bounded(s) => s.try_send(value).map_err(|e| match e {
                    mpsc::TrySendError::Full(v) => TrySendError::Full(v),
                    mpsc::TrySendError::Disconnected(v) => TrySendError::Disconnected(v),
                }),
                Tx::Unbounded(s) => s.send(value).map_err(|e| TrySendError::Disconnected(e.0)),
            }
        }
    }

    /// The receiving half of a channel.
    pub struct Receiver<T> {
        rx: mpsc::Receiver<T>,
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or the channel closes.
        pub fn recv(&self) -> Result<T, RecvError> {
            self.rx.recv().map_err(|_| RecvError)
        }

        /// Blocks until a message arrives, the channel closes, or
        /// `timeout` passes.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.rx.recv_timeout(timeout).map_err(|e| match e {
                mpsc::RecvTimeoutError::Timeout => RecvTimeoutError::Timeout,
                mpsc::RecvTimeoutError::Disconnected => RecvTimeoutError::Disconnected,
            })
        }

        /// Returns a pending message without blocking, if any.
        pub fn try_recv(&self) -> Option<T> {
            self.rx.try_recv().ok()
        }

        /// Iterates over messages, ending when every sender is dropped.
        pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
            self.rx.iter()
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = mpsc::IntoIter<T>;

        fn into_iter(self) -> Self::IntoIter {
            self.rx.into_iter()
        }
    }

    /// Creates a channel holding at most `cap` in-flight messages.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (
            Sender {
                tx: Tx::Bounded(tx),
            },
            Receiver { rx },
        )
    }

    /// Creates a channel with unlimited capacity.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (
            Sender {
                tx: Tx::Unbounded(tx),
            },
            Receiver { rx },
        )
    }

    #[cfg(test)]
    mod tests {
        use super::{bounded, unbounded};

        #[test]
        fn unbounded_round_trip_and_close() {
            let (tx, rx) = unbounded::<u32>();
            tx.send(1).unwrap();
            let tx2 = tx.clone();
            tx2.send(2).unwrap();
            drop(tx);
            drop(tx2);
            let got: Vec<u32> = rx.iter().collect();
            assert_eq!(got, vec![1, 2]);
        }

        #[test]
        fn bounded_blocks_across_threads() {
            let (tx, rx) = bounded::<u32>(1);
            let producer = std::thread::spawn(move || {
                for i in 0..100 {
                    tx.send(i).unwrap();
                }
            });
            let got: Vec<u32> = rx.iter().collect();
            producer.join().unwrap();
            assert_eq!(got.len(), 100);
        }

        #[test]
        fn send_fails_after_receiver_drop() {
            let (tx, rx) = unbounded::<u32>();
            drop(rx);
            assert!(tx.send(1).is_err());
        }

        #[test]
        fn try_send_full_and_disconnected() {
            use super::TrySendError;
            let (tx, rx) = bounded::<u32>(1);
            assert!(tx.try_send(1).is_ok());
            match tx.try_send(2) {
                Err(TrySendError::Full(2)) => {}
                other => panic!("expected Full(2), got {other:?}"),
            }
            drop(rx);
            match tx.try_send(3) {
                Err(e @ TrySendError::Disconnected(_)) => {
                    assert!(e.is_disconnected());
                    assert_eq!(e.into_inner(), 3);
                }
                other => panic!("expected Disconnected, got {other:?}"),
            }
            let (utx, urx) = unbounded::<u32>();
            assert!(utx.try_send(1).is_ok());
            drop(urx);
            assert!(utx.try_send(2).unwrap_err().is_disconnected());
        }

        #[test]
        fn recv_timeout_tells_quiet_from_closed() {
            use super::RecvTimeoutError;
            use std::time::Duration;
            let (tx, rx) = bounded::<u32>(1);
            let brief = Duration::from_millis(5);
            assert_eq!(rx.recv_timeout(brief), Err(RecvTimeoutError::Timeout));
            tx.send(1).unwrap();
            assert_eq!(rx.recv_timeout(brief), Ok(1));
            // A message sent before the hang-up is still delivered.
            tx.send(2).unwrap();
            drop(tx);
            assert_eq!(rx.recv_timeout(brief), Ok(2));
            assert_eq!(rx.recv_timeout(brief), Err(RecvTimeoutError::Disconnected));
        }
    }
}
