//! The deployment every workload runs against, built the way a service
//! starts: the paper-scale structure index, eight tenants registered over
//! it, and a server listening on a loopback socket. Also the library-path
//! engines (one per schema, no skeleton cache) that produce reference
//! answers, and the schema-change swaps.

use crate::inputs::{Schema, SCHEMAS};
use speakql_core::{SpeakQl, SpeakQlConfig};
use speakql_db::Database;
use speakql_grammar::Structure;
use speakql_index::{DeltaStats, IndexDelta, StructureIndex};
use speakql_server::{Registration, Server, ServerConfig, TenantRegistry};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Tenants per schema; all eight share one index and one skeleton cache.
pub const TENANTS_PER_SCHEMA: usize = 4;
/// Entries in the server's shared skeleton cache.
pub const CACHE_CAPACITY: usize = 1024;
/// Server worker threads (the benchmark machine's core count is 2).
pub const WORKERS: usize = 2;
/// Server admission-queue bound.
pub const QUEUE_CAPACITY: usize = 64;
/// Token length of the structures a swap tombstones and restores.
pub const SWAP_LENGTH: usize = 20;
/// How many structures of that length a swap tombstones and restores.
pub const SWAP_SET: usize = 16;

pub fn tenant(schema: Schema, i: usize) -> String {
    format!("{}-{i}", schema.name())
}

pub struct Deployment {
    pub index: Arc<StructureIndex>,
    pub server: Server,
    pub addr: SocketAddr,
    /// Index build: structure generation plus trie construction.
    pub build: Duration,
    /// Registration of all eight tenants.
    pub register: Duration,
    /// Build, registration and listen.
    pub total: Duration,
}

/// Build the index, register the tenants and listen, all in the paper
/// configuration (1.6M structures, top-5, BDB on, one thread per
/// request). `observe` switches the server's shared recorder on (traced
/// runs only).
pub fn deploy(dbs: &[Database; 2], observe: bool) -> std::io::Result<Deployment> {
    let t0 = Instant::now();
    let cfg = SpeakQlConfig::paper();
    let index = Arc::new(StructureIndex::from_grammar(&cfg.generator, cfg.weights));
    let build = t0.elapsed();
    let t1 = Instant::now();
    let registry = TenantRegistry::new(CACHE_CAPACITY, observe);
    for schema in SCHEMAS {
        for i in 0..TENANTS_PER_SCHEMA {
            registry.register(
                &tenant(schema, i),
                &dbs[schema.index()],
                Arc::clone(&index),
                SpeakQlConfig::paper(),
            );
        }
    }
    let register = t1.elapsed();
    let mut server = Server::serve(
        registry,
        ServerConfig {
            workers: WORKERS,
            queue_capacity: QUEUE_CAPACITY,
            request_budget: Duration::from_secs(60),
            max_retries: 2,
            io_timeout: Duration::from_secs(60),
        },
    )?;
    let addr = server.listen("127.0.0.1:0")?;
    Ok(Deployment {
        index,
        server,
        addr,
        build,
        register,
        total: t0.elapsed(),
    })
}

/// A library-path engine over `index` (paper configuration, no cache).
pub fn library(db: &Database, index: &Arc<StructureIndex>) -> SpeakQl {
    SpeakQl::with_index(db, Arc::clone(index), SpeakQlConfig::paper())
}

/// The schema change the swaps apply: tombstone a fixed set of structures
/// of one length, then restore them (re-appended at the arena tail), then
/// tombstone the restored copies, and so on. Every step rebuilds only the
/// segments of that one length and changes the index generation.
pub struct Churn {
    set: Vec<Structure>,
    /// Arena ids of the set in `current` (tombstoned or live).
    ids: Vec<u32>,
    tombstoned: bool,
    pub current: Arc<StructureIndex>,
}

/// Timings and counters of one swap.
#[derive(Debug, Clone, Copy)]
pub struct Swap {
    pub started: Instant,
    /// Delta build, apply and re-registration of the swapped tenants.
    pub total: Duration,
    pub apply: Duration,
    pub register: Duration,
    pub stats: DeltaStats,
}

impl Churn {
    /// `SWAP_SET` structures of length `SWAP_LENGTH`, evenly spread over
    /// that length's arena range.
    pub fn new(index: &Arc<StructureIndex>) -> Churn {
        let of_len: Vec<u32> = (0..index.arena_len() as u32)
            .filter(|&id| !index.is_removed(id) && index.structure_tokens(id).len() == SWAP_LENGTH)
            .collect();
        let step = (of_len.len() / SWAP_SET).max(1);
        let ids: Vec<u32> = of_len
            .iter()
            .copied()
            .step_by(step)
            .take(SWAP_SET)
            .collect();
        Churn {
            set: ids.iter().map(|&id| index.structure(id)).collect(),
            ids,
            tombstoned: false,
            current: Arc::clone(index),
        }
    }

    /// The next delta against `current`.
    fn delta(&self) -> IndexDelta {
        if self.tombstoned {
            IndexDelta::new().add_structures(self.set.iter().cloned())
        } else {
            IndexDelta::new().remove_structures(self.ids.iter().copied())
        }
    }

    /// Build and apply the next delta; `current` becomes the new index.
    pub fn step(&mut self) -> (Duration, DeltaStats) {
        let delta = self.delta();
        let arena = self.current.arena_len() as u32;
        let t0 = Instant::now();
        let (next, stats) = self
            .current
            .apply_delta(&delta)
            .expect("the churn set is live when tombstoned and absent when restored");
        let apply = t0.elapsed();
        if self.tombstoned {
            self.ids = (arena..arena + self.set.len() as u32).collect();
        }
        self.tombstoned = !self.tombstoned;
        self.current = Arc::new(next);
        (apply, stats)
    }

    /// The two index versions the swaps alternate between, built from the
    /// untouched `current`: the set tombstoned, and the set restored at the
    /// arena tail. Every later version searches exactly like one of these
    /// (or like `current`), so their answers are the reference answers.
    pub fn versions(&self) -> [Arc<StructureIndex>; 2] {
        let remove = IndexDelta::new().remove_structures(self.ids.iter().copied());
        let restore = remove.clone().add_structures(self.set.iter().cloned());
        [remove, restore].map(|d| {
            let (index, _) = self
                .current
                .apply_delta(&d)
                .expect("the churn set is live in the untouched index");
            Arc::new(index)
        })
    }

    /// One swap: the next delta, then every `schema` tenant re-registered
    /// over the new index.
    pub fn swap(&mut self, registry: &TenantRegistry, db: &Database, schema: Schema) -> Swap {
        let t0 = Instant::now();
        let (apply, stats) = self.step();
        let t1 = Instant::now();
        for i in 0..TENANTS_PER_SCHEMA {
            let r = registry.register(
                &tenant(schema, i),
                db,
                Arc::clone(&self.current),
                SpeakQlConfig::paper(),
            );
            assert_eq!(
                r,
                Registration::Swapped,
                "a delta always changes the generation"
            );
        }
        let register = t1.elapsed();
        Swap {
            started: t0,
            total: t0.elapsed(),
            apply,
            register,
            stats,
        }
    }
}
