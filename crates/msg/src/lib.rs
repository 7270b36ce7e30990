//! Message passing with atomic delivery.
//!
//! Hare's messaging layer (derived from the Pika network stack) guarantees
//! **atomic message delivery**: "when the `send()` function completes, the
//! message is guaranteed to be present in the receiver's queue" (paper
//! §3.6.1). Hare's directory-cache invalidation protocol depends on this: a
//! server may proceed as soon as `send()` of an invalidation returns, and a
//! client that drains its invalidation queue before a lookup is guaranteed
//! to observe every invalidation sent before the lookup began — no
//! acknowledgment round trip needed.
//!
//! [`channel()`] provides exactly that property (the message is enqueued under
//! the receiver's lock before `send` returns), plus virtual-time stamps on
//! every envelope so the receiving entity can charge arrival latency.
//!
//! In the paper the transport is cache-coherent shared memory used *only*
//! for these queues; here it is a mutex-protected queue, which is the same
//! abstraction boundary.
//!
//! Two kinds of queue share that guarantee. A [`channel()`] has a receiving
//! half that its owner polls or blocks on: reply slots, invalidation
//! queues, exit statuses. A *mailbox* ([`Mailboxes::mailbox`]) has a step
//! function instead of a receiver, run by the thread that posts to it:
//! Hare's servers are mailboxes, so nothing in this crate — or above it —
//! dedicates a thread to a server (see [`mailbox`]).

pub mod channel;
pub mod mailbox;
pub mod stats;

pub use channel::{channel, Envelope, Inbox, Receiver, RecvError, SendError, Sender};
pub use mailbox::Mailboxes;
pub use stats::MsgStats;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn atomic_delivery_property() {
        // After send() returns, the message must already be in the queue:
        // try_recv (no blocking, no waiting) must see it.
        let (tx, rx) = channel::<u32>(MsgStats::shared());
        tx.send(7, 123, 0).unwrap();
        let env = rx
            .try_recv()
            .expect("message must be present once send returned");
        assert_eq!(env.payload, 7);
        assert_eq!(env.deliver_at, 123);
        assert_eq!(env.src_core, 0);
    }

    #[test]
    fn fifo_per_sender() {
        let (tx, rx) = channel::<u32>(MsgStats::shared());
        for i in 0..100 {
            tx.send(i, 0, 0).unwrap();
        }
        for i in 0..100 {
            assert_eq!(rx.recv().unwrap().payload, i);
        }
    }

    #[test]
    fn cross_thread_delivery() {
        let (tx, rx) = channel::<u64>(MsgStats::shared());
        let producer = thread::spawn(move || {
            for i in 0..1000u64 {
                tx.send(i, i, 1).unwrap();
            }
        });
        let mut sum = 0;
        for _ in 0..1000 {
            sum += rx.recv().unwrap().payload;
        }
        producer.join().unwrap();
        assert_eq!(sum, 999 * 1000 / 2);
    }

    #[test]
    fn close_wakes_receiver() {
        let (tx, rx) = channel::<u8>(MsgStats::shared());
        let rx = Arc::new(rx);
        let rx2 = Arc::clone(&rx);
        let waiter = thread::spawn(move || rx2.recv());
        thread::sleep(std::time::Duration::from_millis(10));
        tx.close();
        assert!(matches!(waiter.join().unwrap(), Err(RecvError::Closed)));
    }
}
