//! The complete Hare system: file servers + scheduling servers + process
//! management, implementing [`fsapi::System`].

use crate::policy::PlacementState;
use crate::proc::HareProc;
use crate::server::{sched_server_step, SchedHandle, SchedMsg};
use fsapi::System;
use hare_core::{HareConfig, HareInstance};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::{mpsc, Arc};

/// A booted Hare machine with its per-core scheduling servers.
pub struct HareSystem {
    inst: Arc<HareInstance>,
    scheds: HashMap<usize, SchedHandle>,
    proc_threads: Mutex<mpsc::Receiver<std::thread::JoinHandle<()>>>,
    /// Weak self-reference so processes can hold the system alive
    /// (installed by `Arc::new_cyclic` at start).
    self_ref: std::sync::Weak<HareSystem>,
}

impl HareSystem {
    /// Boots file servers and one scheduling server per application core.
    pub fn start(cfg: HareConfig) -> Arc<HareSystem> {
        let inst = HareInstance::start(cfg);
        let (pt_tx, pt_rx) = mpsc::channel();
        Arc::new_cyclic(|weak| {
            let mut scheds = HashMap::new();
            let machine = inst.machine();
            for &core in &inst.config().app_cores {
                let (tx, inbox) = machine
                    .mailboxes
                    .mailbox::<SchedMsg>(Arc::clone(&machine.msg_stats));
                let w = weak.clone();
                let pt = pt_tx.clone();
                inbox.serve(move |env| sched_server_step(&w, core, env, &pt));
                scheds.insert(core, SchedHandle { core, tx });
            }
            HareSystem {
                inst,
                scheds,
                proc_threads: Mutex::new(pt_rx),
                self_ref: weak.clone(),
            }
        })
    }

    /// The underlying file system instance.
    pub fn instance(&self) -> &Arc<HareInstance> {
        &self.inst
    }

    /// Cores available to applications.
    pub fn app_cores(&self) -> &[usize] {
        &self.inst.config().app_cores
    }

    /// Scheduling server handle for `core`.
    pub(crate) fn sched_handle(&self, core: usize) -> Option<SchedHandle> {
        self.scheds.get(&core).cloned()
    }

    /// Stops scheduling servers and file servers. Processes must have
    /// exited first (join their [`fsapi::ProcJoin`]s).
    pub fn shutdown(&self) {
        // Reap finished process threads.
        {
            let rx = self.proc_threads.lock();
            while let Ok(h) = rx.try_recv() {
                let _ = h.join();
            }
        }
        for h in self.scheds.values() {
            h.tx.close();
        }
        self.inst.shutdown();
    }
}

impl Drop for HareSystem {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl System for HareSystem {
    type Proc = HareProc;

    fn start_proc(&self) -> HareProc {
        // The initial process runs on the first application core with fresh
        // placement state, like init.
        let core = self.app_cores()[0];
        let system = self.self_ref.upgrade().expect("system alive");
        let placement = PlacementState::new(self.inst.config().placement, 0);
        HareProc::start_on(system, core, 0, Vec::new(), placement, None).expect("initial process")
    }

    fn elapsed_cycles(&self) -> u64 {
        self.inst.machine().elapsed_cycles()
    }

    fn sync_cores(&self) {
        self.inst.machine().sync();
    }

    fn ncores(&self) -> usize {
        self.inst.config().ncores
    }
}
