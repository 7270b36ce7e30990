//! The caller-stepped mailbox primitive under concurrent posters: the
//! properties `hare-core`'s servers rely on (see `msg::mailbox`).

use msg::{Envelope, Mailboxes, MsgStats, Sender};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::Duration;

const POSTERS: usize = 8;
const PER_POSTER: u64 = 10_000;
/// Envelopes one original causes, itself included: a forward to the other
/// mailbox and a self-post, and the forward's way back (A→B→A).
const FAN: u64 = 4;

#[derive(Clone, Copy)]
enum Kind {
    Original,
    Forward,
    SelfPost,
    Back,
}

#[derive(Clone, Copy)]
struct Mail {
    poster: usize,
    seq: u64,
    kind: Kind,
}

/// What the two step functions record.
#[derive(Default)]
struct Ledger {
    /// Per mailbox, per poster: the next original `seq` due (per-poster
    /// FIFO, and with it exactly-once for originals).
    next_seq: [[AtomicU64; POSTERS]; 2],
    /// Per poster: envelopes handled on its behalf.
    handled: [AtomicU64; POSTERS],
    /// Per mailbox: set while its step function runs.
    busy: [AtomicBool; 2],
}

thread_local! {
    /// Set while this thread is inside any step function.
    static STEPPING: Cell<bool> = const { Cell::new(false) };
}

fn step(me: usize, peers: &OnceLock<[Sender<Mail>; 2]>, ledger: &Ledger, env: Envelope<Mail>) {
    assert!(
        !ledger.busy[me].swap(true, SeqCst),
        "a step function ran concurrently with itself"
    );
    assert!(!STEPPING.replace(true), "step functions nested");
    let Mail { poster, seq, kind } = env.payload;
    let peers = peers.get().expect("senders installed before any post");
    let send = |to: usize, kind| {
        peers[to]
            .send(Mail { poster, seq, kind }, env.deliver_at, env.src_core)
            .expect("mailbox open")
    };
    match kind {
        Kind::Original => {
            assert_eq!(
                ledger.next_seq[me][poster].fetch_add(1, SeqCst),
                seq / 2,
                "poster {poster}'s originals reached mailbox {me} out of order"
            );
            send(1 - me, Kind::Forward);
            send(me, Kind::SelfPost);
        }
        Kind::Forward => send(1 - me, Kind::Back),
        Kind::SelfPost | Kind::Back => {}
    }
    ledger.handled[poster].fetch_add(1, SeqCst);
    STEPPING.set(false);
    ledger.busy[me].store(false, SeqCst);
}

#[test]
fn concurrent_posters_into_forwarding_mailboxes() {
    let group = Mailboxes::new();
    let stats = MsgStats::shared();
    let ledger = Arc::new(Ledger::default());
    let peers = Arc::new(OnceLock::new());
    let mut senders = Vec::new();
    for me in 0..2 {
        let (tx, inbox) = group.mailbox::<Mail>(Arc::clone(&stats));
        let (peers, ledger) = (Arc::clone(&peers), Arc::clone(&ledger));
        inbox.serve(move |env| step(me, &peers, &ledger, env));
        senders.push(tx);
    }
    let senders: [Sender<Mail>; 2] = senders.try_into().expect("two mailboxes");
    assert!(peers.set(senders.clone()).is_ok());

    let (done_tx, done_rx) = mpsc::channel();
    let posters: Vec<_> = (0..POSTERS)
        .map(|poster| {
            let (senders, ledger, done) = (senders.clone(), Arc::clone(&ledger), done_tx.clone());
            std::thread::spawn(move || {
                for seq in 0..PER_POSTER {
                    // Alternate between the two mailboxes.
                    let mail = Mail {
                        poster,
                        seq,
                        kind: Kind::Original,
                    };
                    senders[(seq % 2) as usize].send(mail, seq, poster).unwrap();
                    // Back from `send`: the envelope and everything it
                    // caused have been stepped.
                    assert_eq!(ledger.handled[poster].load(SeqCst), FAN * (seq + 1));
                }
                done.send(()).unwrap();
            })
        })
        .collect();
    // A poster that panics drops its sender: the wait below then ends at
    // once instead of running into the timeout.
    drop(done_tx);
    for _ in 0..POSTERS {
        done_rx
            .recv_timeout(Duration::from_secs(120))
            .expect("posters deadlocked, or one panicked");
    }
    for p in posters {
        p.join().unwrap();
    }
    // Nothing stranded: every envelope was handled with no one left to
    // step, and each send was counted once.
    let total: u64 = ledger.handled.iter().map(|h| h.load(SeqCst)).sum();
    assert_eq!(total, POSTERS as u64 * PER_POSTER * FAN);
    assert_eq!(stats.sends(), total);
}

#[test]
fn a_mailbox_takes_mail_only_while_it_has_a_step_function() {
    let group = Mailboxes::new();
    let (tx, inbox) = group.mailbox::<u32>(MsgStats::shared());
    assert!(tx.send(1, 0, 0).is_err(), "not served yet");

    let seen = Arc::new(Mutex::new(Vec::new()));
    let owned = Arc::clone(&seen);
    inbox.serve(move |env| owned.lock().unwrap().push(env.payload));
    tx.send(2, 0, 0).unwrap();
    assert_eq!(*seen.lock().unwrap(), [2]);
    assert_eq!(Arc::strong_count(&seen), 2);

    tx.close();
    assert!(tx.send(3, 0, 0).is_err(), "send after close");
    assert_eq!(*seen.lock().unwrap(), [2]);
    // Closing dropped the step function and what it owned.
    assert_eq!(Arc::strong_count(&seen), 1);
}

#[test]
fn a_panicking_step_function_surfaces_on_the_poster_and_frees_the_turnstile() {
    let group = Mailboxes::new();
    let stats = MsgStats::shared();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let (quiet_tx, quiet_inbox) = group.mailbox::<u32>(Arc::clone(&stats));
    let owned = Arc::clone(&seen);
    quiet_inbox.serve(move |env| owned.lock().unwrap().push(env.payload));

    // Posts to the quiet mailbox, then panics before that post is stepped.
    let (bomb_tx, bomb_inbox) = group.mailbox::<u32>(stats);
    let forward = quiet_tx.clone();
    bomb_inbox.serve(move |env| {
        forward.send(env.payload, 0, 0).unwrap();
        panic!("step function blew up");
    });

    let blown = catch_unwind(AssertUnwindSafe(|| bomb_tx.send(7, 0, 0)));
    assert!(blown.is_err(), "the panic belongs to the posting thread");

    // The turn was released (another thread gets one), and the deferred
    // post died with it: the next envelope handled is the next one sent.
    let tx = quiet_tx.clone();
    std::thread::spawn(move || tx.send(8, 0, 0).unwrap())
        .join()
        .unwrap();
    quiet_tx.send(9, 0, 0).unwrap();
    assert_eq!(*seen.lock().unwrap(), [8, 9]);
}
