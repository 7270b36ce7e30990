//! A running Hare machine: file servers installed, clients mintable.

use crate::client::{ClientLib, ClientParams};
use crate::config::HareConfig;
use crate::machine::Machine;
use crate::proto::ServerMsg;
use crate::rpc::ServerHandle;
use crate::server::{Server, ServerParams};
use crate::types::ServerId;
use fsapi::FsResult;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A booted Hare instance: one file server per configured server core,
/// sharing one simulated [`Machine`]. The servers are mailboxes of
/// [`Machine::mailboxes`], not threads: whoever sends a server a request
/// runs [`Server::handle`] on it before the send returns.
pub struct HareInstance {
    machine: Arc<Machine>,
    cfg: HareConfig,
    servers: Arc<Vec<ServerHandle>>,
    next_client: AtomicU64,
}

impl HareInstance {
    /// Boots the instance: builds the machine, partitions the buffer cache
    /// among servers, and installs one server per server core.
    pub fn start(cfg: HareConfig) -> Arc<HareInstance> {
        let machine = Machine::new(&cfg);
        let nservers = cfg.nservers();
        assert!(nservers > 0, "need at least one file server");
        let per_server = cfg.dram_blocks / nservers;
        assert!(per_server > 0, "buffer cache too small for server count");

        // Every server holds handles to all of its peers (for forwarding
        // chained LookupPath remainders), so the mailboxes are created
        // up-front and the servers installed in a second pass.
        let mut handles = Vec::with_capacity(nservers);
        let mut inboxes = Vec::with_capacity(nservers);
        for (i, &core) in cfg.server_cores.iter().enumerate() {
            let (tx, inbox) = machine
                .mailboxes
                .mailbox::<ServerMsg>(Arc::clone(&machine.msg_stats));
            machine.register_entity(core);
            handles.push(ServerHandle {
                id: i as ServerId,
                core,
                tx,
            });
            inboxes.push(inbox);
        }
        let handles = Arc::new(handles);
        for (i, inbox) in inboxes.into_iter().enumerate() {
            let mut server = Server::new(
                Arc::clone(&machine),
                ServerParams {
                    id: i as ServerId,
                    core: cfg.server_cores[i],
                    partition_start: i * per_server,
                    partition_len: per_server,
                    root_distributed: cfg.root_distributed && cfg.techniques.distribution,
                    pipe_capacity: cfg.pipe_capacity,
                    // Normalized: negative caching is meaningless (and
                    // would leak invalidations) without the dircache.
                    neg_dircache: cfg.techniques.neg_dircache && cfg.techniques.dircache,
                    track_capacity: cfg.server_track_capacity,
                    peers: Arc::clone(&handles),
                    distribution: cfg.techniques.distribution,
                    stripe_unit: cfg.stripe_unit,
                    // Normalized like neg_dircache: the toggle off (or an
                    // un-widened config) is width 1, the paper's layout.
                    stripe_width: if cfg.techniques.striping {
                        cfg.stripe_width
                    } else {
                        1
                    },
                    dir_shard_width: cfg.effective_dir_shard_width(),
                    list_page_max: cfg.list_page_max,
                },
            );
            inbox.serve(move |env| server.handle(env));
        }
        Arc::new(HareInstance {
            machine,
            cfg,
            servers: handles,
            next_client: AtomicU64::new(1),
        })
    }

    /// The shared machine (clocks, DRAM, caches).
    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    /// The instance configuration.
    pub fn config(&self) -> &HareConfig {
        &self.cfg
    }

    /// Server handles (for diagnostics).
    pub fn servers(&self) -> &Arc<Vec<ServerHandle>> {
        &self.servers
    }

    /// Creates a client library for a new process on `core`.
    pub fn new_client(&self, core: usize) -> FsResult<ClientLib> {
        self.new_client_at(core, 0)
    }

    /// Creates a client library whose logical timeline begins at `start`
    /// (the spawn completion time computed by the scheduling server).
    pub fn new_client_at(&self, core: usize, start: u64) -> FsResult<ClientLib> {
        assert!(
            self.cfg.app_cores.contains(&core),
            "core {core} is not an application core"
        );
        let id = self.next_client.fetch_add(1, Ordering::SeqCst);
        ClientLib::new(
            Arc::clone(&self.machine),
            Arc::clone(&self.servers),
            ClientParams {
                id,
                core,
                start_time: start,
                techniques: self.cfg.techniques,
                default_distributed: self.cfg.default_distributed,
                root_distributed: self.cfg.root_distributed && self.cfg.techniques.distribution,
                dircache_capacity: self.cfg.dircache_capacity,
                readahead_window: if self.cfg.techniques.readahead {
                    self.cfg.readahead_window.max(1)
                } else {
                    1
                },
                dir_shard_width: self.cfg.effective_dir_shard_width(),
                list_page_max: self.cfg.list_page_max,
            },
        )
    }

    /// Closes every server's mailbox and drops the servers: later requests
    /// fail with `EIO`. Idempotent; also run on drop. Each server holds
    /// handles to all of them, so without this they would keep each other
    /// — and the machine — alive forever.
    pub fn shutdown(&self) {
        for s in self.servers.iter() {
            s.tx.close();
        }
    }
}

impl Drop for HareInstance {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boots_and_shuts_down() {
        let inst = HareInstance::start(HareConfig::timeshare(4));
        assert_eq!(inst.servers().len(), 4);
        inst.shutdown();
        // Idempotent.
        inst.shutdown();
    }

    #[test]
    fn requests_after_shutdown_fail_with_eio() {
        use fsapi::ProcFs;
        let inst = HareInstance::start(HareConfig::timeshare(2));
        let c = inst.new_client(0).unwrap();
        c.stat("/").unwrap();
        inst.shutdown();
        assert_eq!(c.stat("/").unwrap_err(), fsapi::Errno::EIO);
    }

    #[test]
    fn client_creation_registers() {
        let inst = HareInstance::start(HareConfig::timeshare(2));
        let c = inst.new_client(0).unwrap();
        assert_eq!(c.core(), 0);
        assert_eq!(c.nservers(), 2);
        drop(c);
        inst.shutdown();
    }

    #[test]
    #[should_panic]
    fn client_on_server_only_core_rejected() {
        let inst = HareInstance::start(HareConfig::split(4, 2));
        let _ = inst.new_client(0); // core 0 is a dedicated server core
    }
}
