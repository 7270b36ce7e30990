//! Caller-stepped mailboxes: servers that are stepped, not scheduled.
//!
//! A mailbox is an inbox plus a step function (created by
//! [`Mailboxes::mailbox`]). Nobody blocks on its queue: [`Sender::send`]
//! enqueues the envelope — atomic delivery as on any channel — and then
//! the *posting* thread runs the step function on it, so an exchange with
//! a server costs no thread hand-off. The mailboxes of one simulated
//! machine form a group, and three rules order the stepping:
//!
//! 1. **Handlers never nest.** A post made *by a step function* is
//!    enqueued at once but stepped only after that function has returned,
//!    by the same thread, in post order. A chain A→B→A, a self-post or a
//!    replay therefore cannot deadlock, no thread ever holds two step
//!    locks, and each mailbox handles its envelopes in FIFO order.
//! 2. **One exchange per turn.** Top-level posts pass a per-group
//!    turnstile in ticket order. A turn covers the poster's envelope and
//!    everything its handlers posted; when `send` returns, all of it has
//!    been stepped and every inbox of the group is empty again.
//! 3. **Concurrent posters rotate.** When more than one live thread has
//!    posted to the group, a poster yields the CPU after its turn. A
//!    thread that never blocks would otherwise never let the others reach
//!    the turnstile where the host runs threads to completion (one CPU,
//!    `SCHED_FIFO`), and the simulated processes would run back to back
//!    instead of interleaved.
//!
//! [`Sender::send`]: crate::Sender::send

use crate::channel::SendError;
use parking_lot::{Condvar, Mutex};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

/// A mailbox as the group sees it: a queue to take one envelope from.
pub(crate) trait Step: Send + Sync {
    /// Pops the oldest envelope and runs the step function on it.
    fn step(&self);
    /// Pops the oldest envelope and drops it.
    fn discard(&self);
}

/// The mailboxes of one simulated machine (see the module docs).
pub struct Mailboxes {
    turnstile: Mutex<Turnstile>,
    next_turn: Condvar,
    /// Live threads that have taken a turn here.
    drivers: AtomicUsize,
}

#[derive(Default)]
struct Turnstile {
    next_ticket: u64,
    serving: u64,
    /// One entry per envelope posted during the current turn and not yet
    /// stepped, in post order. Only the turn's holder touches it; empty
    /// between turns.
    pending: VecDeque<Weak<dyn Step>>,
}

thread_local! {
    /// The group whose turn this thread holds, or null.
    static DRIVING: Cell<*const Mailboxes> = const { Cell::new(std::ptr::null()) };
    /// The groups this thread counts as a driver of.
    static DRIVEN: RefCell<Driven> = const { RefCell::new(Driven(Vec::new())) };
}

/// Un-counts an exiting thread from the groups it drove. The `Weak`s keep
/// each group's address from being reused while it is listed here.
struct Driven(Vec<Weak<Mailboxes>>);

impl Drop for Driven {
    fn drop(&mut self) {
        for group in self.0.drain(..).filter_map(|g| g.upgrade()) {
            group.drivers.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for Mailboxes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Mailboxes")
    }
}

impl Mailboxes {
    /// A fresh, empty group.
    pub fn new() -> Arc<Mailboxes> {
        Arc::new(Mailboxes {
            turnstile: Mutex::new(Turnstile::default()),
            next_turn: Condvar::new(),
            drivers: AtomicUsize::new(0),
        })
    }

    /// Delivers one envelope to `mailbox` (`enqueue` puts it in the inbox
    /// or refuses) and sees that it gets stepped: now, through a turn of
    /// the calling thread, or — when the caller is a step function of this
    /// group — by the thread running that turn, once the caller returned.
    pub(crate) fn post(
        self: &Arc<Self>,
        mailbox: &Weak<dyn Step>,
        enqueue: impl FnOnce() -> Result<(), SendError>,
    ) -> Result<(), SendError> {
        if DRIVING.get() == Arc::as_ptr(self) {
            enqueue()?;
            self.turnstile.lock().pending.push_back(mailbox.clone());
            return Ok(());
        }
        self.count_driver();
        let turn = self.enter();
        enqueue()?;
        // The poster's own envelope, then whatever the handlers posted.
        let mut next = mailbox.upgrade();
        while let Some(m) = next {
            m.step();
            next = self.next_pending();
        }
        drop(turn);
        if self.drivers.load(Ordering::Relaxed) > 1 {
            std::thread::yield_now();
        }
        Ok(())
    }

    /// The mailbox of the oldest deferred post of the current turn.
    fn next_pending(&self) -> Option<Arc<dyn Step>> {
        let mut t = self.turnstile.lock();
        while let Some(m) = t.pending.pop_front() {
            if let Some(m) = m.upgrade() {
                return Some(m);
            }
        }
        None
    }

    /// Counts the calling thread among this group's drivers, once.
    fn count_driver(self: &Arc<Self>) {
        // Fails only while the thread is being torn down; it goes
        // uncounted then, which at worst skips a yield.
        let _ = DRIVEN.try_with(|d| {
            let groups = &mut d.borrow_mut().0;
            if !groups.iter().any(|g| g.as_ptr() == Arc::as_ptr(self)) {
                groups.retain(|g| g.strong_count() > 0);
                groups.push(Arc::downgrade(self));
                self.drivers.fetch_add(1, Ordering::Relaxed);
            }
        });
    }

    /// Takes a ticket and waits for its turn.
    fn enter(&self) -> Turn<'_> {
        let mut t = self.turnstile.lock();
        let ticket = t.next_ticket;
        t.next_ticket += 1;
        while t.serving != ticket {
            self.next_turn.wait(&mut t);
        }
        drop(t);
        Turn {
            group: self,
            outer: DRIVING.replace(self),
        }
    }
}

/// A held turn; dropping it admits the next ticket.
struct Turn<'a> {
    group: &'a Mailboxes,
    /// The turn this one is nested in: a step function of another group
    /// posting here.
    outer: *const Mailboxes,
}

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        DRIVING.set(self.outer);
        let mut t = self.group.turnstile.lock();
        // Left over only when a step function panicked: its deferred
        // posts will never be stepped, so take their envelopes back out
        // rather than leave them in front of a later poster's.
        while let Some(m) = t.pending.pop_front() {
            if let Some(m) = m.upgrade() {
                m.discard();
            }
        }
        t.serving += 1;
        let waiters = t.next_ticket > t.serving;
        drop(t);
        if waiters {
            self.group.next_turn.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MsgStats;

    #[test]
    fn a_thread_is_a_driver_from_its_first_turn_until_it_exits() {
        let group = Mailboxes::new();
        let (tx, inbox) = group.mailbox::<()>(MsgStats::shared());
        inbox.serve(|_| {});
        let drivers = |g: &Mailboxes| g.drivers.load(Ordering::Relaxed);
        assert_eq!(drivers(&group), 0);
        tx.send((), 0, 0).unwrap();
        tx.send((), 0, 0).unwrap();
        assert_eq!(drivers(&group), 1, "counted once, however many turns");

        let (g, t) = (Arc::clone(&group), tx.clone());
        std::thread::spawn(move || {
            t.send((), 0, 0).unwrap();
            assert_eq!(drivers(&g), 2);
        })
        .join()
        .unwrap();
        assert_eq!(drivers(&group), 1, "an exited thread drives nothing");
    }
}
