//! The atomic-delivery channel.
//!
//! One queue type backs both transports: a plain [`channel`], whose
//! receiving half is polled or blocked on by the thread that owns it, and
//! a caller-stepped mailbox ([`Mailboxes::mailbox`]), whose envelopes are
//! handed to a step function by the thread that posted them.

use crate::mailbox::{Mailboxes, Step};
use crate::stats::MsgStats;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::{Arc, Weak};

/// A message plus the simulation metadata Hare needs.
#[derive(Debug, Clone)]
pub struct Envelope<T> {
    /// The message body.
    pub payload: T,
    /// Virtual time (cycles) at which the message is available at the
    /// receiver: sender's clock at send plus wire latency. The receiving
    /// entity advances its core clock to at least this value.
    pub deliver_at: u64,
    /// Core the sender was running on (for distance-dependent reply
    /// latency).
    pub src_core: usize,
}

/// Error returned by [`Sender::send`] when the channel is closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError;

/// Error returned by receive operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// Queue empty (only from `try_recv`).
    Empty,
    /// Channel closed and drained.
    Closed,
}

struct Shared<T> {
    queue: Mutex<State<T>>,
    avail: Condvar,
    stats: Arc<MsgStats>,
    /// Present on a mailbox: who steps it, and with what.
    stepped: Option<Stepped<T>>,
}

struct State<T> {
    queue: VecDeque<Envelope<T>>,
    closed: bool,
    /// Receivers parked in [`Receiver::recv`]. `Condvar::notify_*` is a
    /// futex syscall even with nobody waiting, so senders skip it at 0.
    parked: usize,
}

/// A mailbox's step function.
type Handler<T> = Box<dyn FnMut(Envelope<T>) + Send>;

/// The mailbox half of a [`Shared`] queue.
struct Stepped<T> {
    group: Arc<Mailboxes>,
    /// This queue, type-erased for the group's pending list.
    me: Weak<dyn Step>,
    /// Locked for the length of one step, so a handler never runs
    /// concurrently with itself. `None` before [`Inbox::serve`] and after
    /// [`Sender::close`].
    handler: Mutex<Option<Handler<T>>>,
}

/// Sending half; cheap to clone (multiple producers).
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Sender")
    }
}

/// Receiving half (single consumer by convention; `recv` is `&self` so the
/// owning entity can be shared behind an `Arc`).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Receiver")
    }
}

impl<T> Shared<T> {
    fn new(stats: Arc<MsgStats>, closed: bool, stepped: Option<Stepped<T>>) -> Self {
        Shared {
            queue: Mutex::new(State {
                queue: VecDeque::new(),
                closed,
                parked: 0,
            }),
            avail: Condvar::new(),
            stats,
            stepped,
        }
    }
}

/// Creates a channel. `stats` accumulates machine-wide message counters.
pub fn channel<T>(stats: Arc<MsgStats>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared::new(stats, false, None));
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// The serving half of a mailbox: consumed by installing the step
/// function. Until then the mailbox refuses mail, like a closed one.
pub struct Inbox<T> {
    shared: Arc<Shared<T>>,
}

impl<T> std::fmt::Debug for Inbox<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Inbox")
    }
}

impl Mailboxes {
    /// Creates a mailbox in this group: a queue with no receiver, whose
    /// envelopes are stepped through the handler given to
    /// [`Inbox::serve`] by the threads that post them (see
    /// [`crate::mailbox`] for who steps what, and when).
    pub fn mailbox<T: Send + 'static>(
        self: &Arc<Self>,
        stats: Arc<MsgStats>,
    ) -> (Sender<T>, Inbox<T>) {
        let shared = Arc::new_cyclic(|me: &Weak<Shared<T>>| {
            let stepped = Stepped {
                group: Arc::clone(self),
                me: me.clone(),
                handler: Mutex::new(None),
            };
            // Closed until `Inbox::serve` gives it a step function.
            Shared::new(stats, true, Some(stepped))
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Inbox { shared },
        )
    }
}

impl<T> Inbox<T> {
    /// Installs the step function and opens the mailbox for mail.
    pub fn serve(self, handler: impl FnMut(Envelope<T>) + Send + 'static) {
        let stepped = self.shared.stepped.as_ref().expect("an inbox is a mailbox");
        *stepped.handler.lock() = Some(Box::new(handler));
        self.shared.queue.lock().closed = false;
    }
}

impl<T: Send> Step for Shared<T> {
    fn step(&self) {
        let stepped = self.stepped.as_ref().expect("only mailboxes are posted");
        let mut handler = stepped.handler.lock();
        let env = self.queue.lock().queue.pop_front();
        // No handler: closed since the post; the envelope is dropped.
        if let (Some(handler), Some(env)) = (handler.as_mut(), env) {
            handler(env);
        }
    }

    fn discard(&self) {
        let env = self.queue.lock().queue.pop_front();
        drop(env);
    }
}

impl<T> Sender<T> {
    /// Sends a message with atomic delivery: when this returns `Ok`, the
    /// envelope is already in the receiver's queue. On a mailbox it has
    /// also been stepped, unless the caller is itself a step function of
    /// the same group — then it is stepped right after the caller returns.
    pub fn send(&self, payload: T, deliver_at: u64, src_core: usize) -> Result<(), SendError> {
        let env = Envelope {
            payload,
            deliver_at,
            src_core,
        };
        match &self.shared.stepped {
            None => self.enqueue(env),
            Some(s) => s.group.post(&s.me, || self.enqueue(env)),
        }
    }

    fn enqueue(&self, env: Envelope<T>) -> Result<(), SendError> {
        let mut st = self.shared.queue.lock();
        if st.closed {
            return Err(SendError);
        }
        st.queue.push_back(env);
        self.shared.stats.record_send();
        let wake = st.parked > 0;
        drop(st);
        if wake {
            self.shared.avail.notify_one();
        }
        Ok(())
    }

    /// Closes the channel; pending messages remain receivable, after which
    /// receivers observe [`RecvError::Closed`]. On a mailbox this also
    /// drops the step function (and whatever it owns) once a step in
    /// progress has returned — so a step function must not close its own
    /// mailbox.
    pub fn close(&self) {
        let mut st = self.shared.queue.lock();
        st.closed = true;
        let wake = st.parked > 0;
        drop(st);
        if wake {
            self.shared.avail.notify_all();
        }
        if let Some(s) = &self.shared.stepped {
            let handler = s.handler.lock().take();
            drop(handler);
        }
    }
}

impl<T> Receiver<T> {
    /// Non-blocking receive: polls the queue, as Hare's client library polls
    /// its invalidation queue before each directory-cache lookup (§3.6.1).
    pub fn try_recv(&self) -> Result<Envelope<T>, RecvError> {
        let mut st = self.shared.queue.lock();
        match st.queue.pop_front() {
            Some(env) => Ok(env),
            None if st.closed => Err(RecvError::Closed),
            None => Err(RecvError::Empty),
        }
    }

    /// Drains every currently queued message without blocking.
    pub fn drain(&self) -> Vec<Envelope<T>> {
        let mut st = self.shared.queue.lock();
        st.queue.drain(..).collect()
    }

    /// Blocking receive.
    pub fn recv(&self) -> Result<Envelope<T>, RecvError> {
        let mut st = self.shared.queue.lock();
        loop {
            if let Some(env) = st.queue.pop_front() {
                return Ok(env);
            }
            if st.closed {
                return Err(RecvError::Closed);
            }
            st.parked += 1;
            self.shared.avail.wait(&mut st);
            st.parked -= 1;
        }
    }

    /// Number of queued messages (diagnostics).
    pub fn len(&self) -> usize {
        self.shared.queue.lock().queue.len()
    }

    /// True if no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Creates another sender for this queue (servers hand these out so any
    /// client can message them).
    pub fn sender(&self) -> Sender<T> {
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_recv_empty_then_closed() {
        let (tx, rx) = channel::<u8>(MsgStats::shared());
        assert_eq!(rx.try_recv().unwrap_err(), RecvError::Empty);
        tx.send(1, 0, 0).unwrap();
        tx.close();
        // Pending message still delivered after close.
        assert_eq!(rx.try_recv().unwrap().payload, 1);
        assert_eq!(rx.try_recv().unwrap_err(), RecvError::Closed);
        assert!(tx.send(2, 0, 0).is_err());
    }

    #[test]
    fn drain_empties_queue() {
        let (tx, rx) = channel::<u8>(MsgStats::shared());
        for i in 0..5 {
            tx.send(i, i as u64, 0).unwrap();
        }
        let all = rx.drain();
        assert_eq!(all.len(), 5);
        assert!(rx.is_empty());
        assert_eq!(all[4].deliver_at, 4);
    }

    #[test]
    fn stats_count_sends() {
        let stats = MsgStats::shared();
        let (tx, _rx) = channel::<u8>(Arc::clone(&stats));
        for _ in 0..3 {
            tx.send(0, 0, 0).unwrap();
        }
        assert_eq!(stats.sends(), 3);
    }

    #[test]
    fn receiver_can_mint_senders() {
        let (_tx, rx) = channel::<u8>(MsgStats::shared());
        let tx2 = rx.sender();
        tx2.send(9, 0, 0).unwrap();
        assert_eq!(rx.recv().unwrap().payload, 9);
    }
}
