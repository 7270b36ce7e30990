//! The per-core scheduling server.
//!
//! "Each core runs a scheduling server, which listens for RPCs to perform
//! execs ... The scheduling server in turn starts a new process on the
//! destination core (by forking itself), configures the new process based
//! on the RPC's arguments, and calls exec to load the target process image
//! on the local core" (paper §3.5).

use crate::policy::PlacementState;
use crate::proc::HareProc;
use crate::signal::SignalReceiver;
use crate::system::HareSystem;
use crate::SPAWN_COST;
use fsapi::ProcMain;
use hare_core::client::fd::ExportedFd;
use std::sync::{Arc, Weak};

/// An exec RPC: everything that defines the process at the exec point —
/// its descriptors, its placement state, and its image (the closure).
pub struct ExecRequest {
    /// Descriptors inherited by the child (already made shared).
    pub exports: Vec<ExportedFd>,
    /// Placement state propagated parent → child (paper §3.5).
    pub placement: PlacementState,
    /// The process image.
    pub main: ProcMain<HareProc>,
    /// The proxy's exit-status channel: the scheduling server arranges for
    /// the status to be sent here when the process exits (paper §3.5).
    pub exit_tx: msg::Sender<i32>,
    /// The child's signal queue (parent holds the sender; the proxy relay).
    pub signals: SignalReceiver,
}

/// Messages understood by a scheduling server.
pub enum SchedMsg {
    /// Start a process on this server's core.
    Exec(ExecRequest),
}

/// Handle to one core's scheduling server.
#[derive(Clone)]
pub struct SchedHandle {
    /// The core the server manages.
    pub core: usize,
    /// Request queue.
    pub tx: msg::Sender<SchedMsg>,
}

/// One scheduling server's step function: handles a single message on the
/// thread that posted it (the server is a mailbox of the machine, see
/// [`msg::mailbox`]); the process it starts gets a thread of its own.
///
/// The server holds only a weak reference to the system so that dropping
/// the system tears everything down cleanly.
pub fn sched_server_step(
    system: &Weak<HareSystem>,
    core: usize,
    env: msg::Envelope<SchedMsg>,
    proc_threads: &std::sync::mpsc::Sender<std::thread::JoinHandle<()>>,
) {
    let SchedMsg::Exec(req) = env.payload;
    let Some(system) = system.upgrade() else {
        return;
    };
    let machine = Arc::clone(system.instance().machine());
    // The scheduling server forks itself and execs the image: the spawn
    // cost is CPU work on this core, and the child's timeline begins when
    // it completes.
    machine.busy.advance(core, SPAWN_COST);
    let start = env.deliver_at + SPAWN_COST;
    machine.note(start);
    let exit_tx = req.exit_tx;
    let handle = std::thread::Builder::new()
        .name(format!("hare-proc-c{core}"))
        .spawn(move || {
            let status = match HareProc::start_on(
                Arc::clone(&system),
                core,
                start,
                req.exports,
                req.placement,
                Some(req.signals),
            ) {
                Ok(proc) => {
                    let status = (req.main)(&proc);
                    // Exit notification back to the proxy (paper §3.5: the
                    // scheduling server "will send an RPC back to the
                    // proxy, enabling the proxy to exit").
                    let t_exit = proc.lib().vnow() + machine.cost.msg_send;
                    machine.busy.advance(core, machine.cost.msg_send);
                    machine.note(t_exit);
                    drop(proc); // closes descriptors, unregisters
                    let _ = exit_tx.send(status, t_exit, core);
                    return;
                }
                Err(e) => {
                    debug_assert!(false, "process start failed: {e}");
                    127
                }
            };
            let _ = exit_tx.send(status, start, core);
        })
        .expect("spawn process thread");
    let _ = proc_threads.send(handle);
}
