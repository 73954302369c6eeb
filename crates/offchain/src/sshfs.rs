//! The simulated SSHFS storage node.
//!
//! The paper runs its off-chain store as an SSH filesystem on a separate
//! machine; every access therefore pays an SSH round trip plus a
//! bandwidth-limited transfer. In the simulation the transfer cost comes
//! from the network link to the [`StorageActor`]; this module adds the
//! per-operation SSH overhead and the server-side I/O cost.

use std::sync::Arc;

use hyperprov_sim::{
    Actor, ActorId, Carries, Context, Event, ServiceHarness, SimDuration, SpanClose,
};

use crate::store::{ObjectStore, StoreError};

/// Messages between clients and the storage node.
#[derive(Debug, Clone)]
pub enum StoreMsg {
    /// Store an object.
    Put {
        /// Object name.
        name: String,
        /// Payload.
        data: Vec<u8>,
        /// Correlation token echoed in the ack.
        token: u64,
    },
    /// Acknowledge a put.
    PutAck {
        /// Object name.
        name: String,
        /// Correlation token.
        token: u64,
        /// Result of the store operation.
        result: Result<(), StoreError>,
    },
    /// Fetch an object.
    Get {
        /// Object name.
        name: String,
        /// Correlation token echoed in the reply.
        token: u64,
    },
    /// Reply to a get.
    GetResult {
        /// Object name.
        name: String,
        /// Correlation token.
        token: u64,
        /// The object bytes or the failure.
        result: Result<Vec<u8>, StoreError>,
    },
}

impl StoreMsg {
    /// Approximate wire size for the network model (requests carry their
    /// payload; replies carry the fetched bytes).
    pub fn wire_size(&self) -> u64 {
        match self {
            StoreMsg::Put { name, data, .. } => name.len() as u64 + data.len() as u64 + 64,
            StoreMsg::GetResult { name, result, .. } => {
                name.len() as u64 + result.as_ref().map(|d| d.len() as u64).unwrap_or(16) + 64
            }
            StoreMsg::Get { name, .. } | StoreMsg::PutAck { name, .. } => name.len() as u64 + 64,
        }
    }
}

/// Timing parameters of the SSHFS-like service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StorageCosts {
    /// Fixed per-operation overhead (SSH channel + FUSE round trip).
    pub op_overhead: SimDuration,
    /// Server-side cost per payload byte (encryption + disk).
    pub per_byte: SimDuration,
}

impl Default for StorageCosts {
    fn default() -> Self {
        StorageCosts {
            op_overhead: SimDuration::from_micros(800),
            per_byte: SimDuration::from_nanos(8),
        }
    }
}

impl StorageCosts {
    /// Service time for an operation moving `bytes` bytes.
    pub fn service_time(&self, bytes: u64) -> SimDuration {
        self.op_overhead + self.per_byte * bytes
    }
}

/// The storage node actor: serves puts and gets over a shared
/// [`ObjectStore`], charging SSH-like service time per request.
pub struct StorageActor<M> {
    store: Arc<dyn ObjectStore>,
    costs: StorageCosts,
    harness: ServiceHarness<M>,
}

impl<M: Carries<StoreMsg>> StorageActor<M> {
    /// Creates a storage node over `store`.
    pub fn new(store: Arc<dyn ObjectStore>, costs: StorageCosts) -> Self {
        StorageActor {
            store,
            costs,
            harness: ServiceHarness::new("storage"),
        }
    }

    /// Sends `reply`, about object `name`, after the service time.
    fn finish_later(
        &mut self,
        ctx: &mut Context<'_, M>,
        dst: ActorId,
        bytes_moved: u64,
        name: String,
        reply: StoreMsg,
    ) {
        let job = self.harness.next_job();
        // Server-side service span (SSH overhead + per-byte I/O); the job
        // number disambiguates concurrent operations on one object.
        ctx.span_start(&name, "offchain.server", &job.to_string());
        let close = SpanClose::new(name, "offchain.server", job.to_string());
        let bytes = reply.wire_size();
        self.harness.defer(
            ctx,
            self.costs.service_time(bytes_moved),
            vec![(dst, bytes, M::wrap(reply))],
            vec![close],
        );
    }

    fn serve(&mut self, ctx: &mut Context<'_, M>, src: ActorId, msg: StoreMsg) {
        match msg {
            StoreMsg::Put { name, data, token } => {
                let bytes = data.len() as u64;
                let result = self.store.put(&name, &data);
                ctx.metrics().incr("storage.puts", 1);
                ctx.metrics().incr("storage.bytes_in", bytes);
                let reply = StoreMsg::PutAck {
                    name: name.clone(),
                    token,
                    result,
                };
                self.finish_later(ctx, src, bytes, name, reply);
            }
            StoreMsg::Get { name, token } => {
                let result = self.store.get(&name);
                let bytes = result.as_ref().map(|d| d.len() as u64).unwrap_or(0);
                ctx.metrics().incr("storage.gets", 1);
                ctx.metrics().incr("storage.bytes_out", bytes);
                let reply = StoreMsg::GetResult {
                    name: name.clone(),
                    token,
                    result,
                };
                self.finish_later(ctx, src, bytes, name, reply);
            }
            // Replies are never addressed to the server.
            StoreMsg::PutAck { .. } | StoreMsg::GetResult { .. } => {}
        }
    }
}

impl<M: Carries<StoreMsg>> Actor<M> for StorageActor<M> {
    fn on_event(&mut self, ctx: &mut Context<'_, M>, event: Event<M>) {
        match event {
            Event::Message { src, msg } => {
                if let Ok(msg) = msg.peel() {
                    self.serve(ctx, src, msg);
                }
            }
            Event::Timer { token } => {
                let _ = self.harness.on_timer(ctx, token);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemoryStore;
    use hyperprov_sim::{SimTime, Simulation};
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Debug, Default)]
    struct Seen {
        acks: Vec<(String, u64, bool)>,
        gets: Vec<(u64, Result<Vec<u8>, StoreError>)>,
        done_at: Option<SimTime>,
    }

    struct TestClient {
        server: ActorId,
        script: Vec<StoreMsg>,
        seen: Rc<RefCell<Seen>>,
    }

    impl Actor<StoreMsg> for TestClient {
        fn on_event(&mut self, ctx: &mut Context<'_, StoreMsg>, event: Event<StoreMsg>) {
            match event {
                Event::Timer { .. } => {
                    for msg in self.script.drain(..) {
                        let bytes = msg.wire_size();
                        ctx.send(self.server, bytes, msg);
                    }
                }
                Event::Message { msg, .. } => {
                    let mut seen = self.seen.borrow_mut();
                    match msg {
                        StoreMsg::PutAck {
                            name,
                            token,
                            result,
                        } => {
                            seen.acks.push((name, token, result.is_ok()));
                        }
                        StoreMsg::GetResult { token, result, .. } => {
                            seen.gets.push((token, result));
                        }
                        _ => {}
                    }
                    seen.done_at = Some(ctx.now());
                }
            }
        }
    }

    fn run_script(script: Vec<StoreMsg>) -> (Seen, Simulation<StoreMsg>, Arc<MemoryStore>) {
        let store = Arc::new(MemoryStore::new());
        let mut sim = Simulation::new(1);
        let server = sim.add_actor(Box::new(StorageActor::<StoreMsg>::new(
            store.clone(),
            StorageCosts::default(),
        )));
        let seen = Rc::new(RefCell::new(Seen::default()));
        let client = sim.add_actor(Box::new(TestClient {
            server,
            script,
            seen: seen.clone(),
        }));
        sim.start_timer(client, SimDuration::ZERO, 0);
        sim.run();
        let out = std::mem::take(&mut *seen.borrow_mut());
        (out, sim, store)
    }

    #[test]
    fn put_then_get_round_trip() {
        let (seen, sim, store) = run_script(vec![
            StoreMsg::Put {
                name: "obj".into(),
                data: b"payload".to_vec(),
                token: 1,
            },
            StoreMsg::Get {
                name: "obj".into(),
                token: 2,
            },
        ]);
        assert_eq!(seen.acks, vec![("obj".to_owned(), 1, true)]);
        assert_eq!(seen.gets.len(), 1);
        assert_eq!(seen.gets[0].1.as_ref().unwrap(), b"payload");
        assert_eq!(sim.metrics().counter("storage.puts"), 1);
        assert_eq!(sim.metrics().counter("storage.gets"), 1);
        assert!(store.contains("obj"));
    }

    #[test]
    fn get_missing_reports_not_found() {
        let (seen, _, _) = run_script(vec![StoreMsg::Get {
            name: "ghost".into(),
            token: 9,
        }]);
        assert!(matches!(seen.gets[0].1, Err(StoreError::NotFound(_))));
    }

    #[test]
    fn large_payload_takes_longer() {
        let small = run_script(vec![StoreMsg::Put {
            name: "s".into(),
            data: vec![0u8; 1_000],
            token: 1,
        }])
        .0
        .done_at
        .unwrap();
        let large = run_script(vec![StoreMsg::Put {
            name: "l".into(),
            data: vec![0u8; 4_000_000],
            token: 1,
        }])
        .0
        .done_at
        .unwrap();
        assert!(large > small, "large={large} small={small}");
        // 4 MB over a 1 Gb/s LAN alone is 32 ms of transfer.
        assert!(large >= SimTime::from_nanos(32_000_000));
    }

    #[test]
    fn invalid_put_acked_with_error() {
        let (seen, _, _) = run_script(vec![StoreMsg::Put {
            name: "bad/name".into(),
            data: b"x".to_vec(),
            token: 5,
        }]);
        assert_eq!(seen.acks, vec![("bad/name".to_owned(), 5, false)]);
    }
}
