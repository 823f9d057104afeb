//! Machine description for the clustered VLIW architectures of the paper.
//!
//! Three architecture families are described (§3 and §5.1, Table 2):
//!
//! * **Word-interleaved** ([`ArchKind::WordInterleaved`]): the L1 data cache
//!   is distributed across clusters at word granularity — the word holding
//!   byte `a` lives in the cache module of cluster `(a / I) mod N`. No data
//!   replication (tags are replicated). Optional per-cluster *Attraction
//!   Buffers* hold remote subblocks.
//! * **MultiVLIW** ([`ArchKind::MultiVliw`]): per-cluster caches kept
//!   coherent with a snoopy protocol; data replication allowed.
//! * **Unified** ([`ArchKind::Unified`]): a central multi-ported cache
//!   shared by all clusters, at an optimistic (1-cycle) or realistic
//!   (5-cycle) access latency.
//!
//! The default parameters reproduce Table 2 of the paper: 4 clusters with
//! one integer, one floating-point and one memory unit each; an 8 KB L1
//! (four 2 KB modules), 32-byte blocks, 2-way set-associative; 4 register
//! buses and 4 memory buses running at half the core frequency; a 4-port,
//! 10-cycle always-hit next memory level; and a 4-byte interleaving factor.
//!
//! # Example
//!
//! ```
//! use vliw_machine::{AccessClass, MachineConfig};
//!
//! let m = MachineConfig::word_interleaved_4().with_attraction_buffers(16, 2);
//! assert_eq!(m.clusters.n_clusters, 4);
//! assert_eq!(m.mem_latencies.of(AccessClass::RemoteMiss), 15);
//! // word 3 of a block maps to cluster 3; word 7 to cluster 3 as well
//! assert_eq!(m.home_cluster(3 * 4), 3);
//! assert_eq!(m.home_cluster(7 * 4), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod config;
mod latency;

pub use config::{
    ArchKind, AttractionBufferConfig, BusConfig, CacheConfig, ClusterConfig, MachineConfig,
    MshrConfig, NextLevelConfig,
};
pub use latency::{AccessClass, MemLatencies, OpLatencies};
