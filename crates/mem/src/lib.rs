//! # recon-mem
//!
//! The memory-hierarchy substrate of the ReCon reproduction: private
//! L1/L2 caches per core, a shared LLC with an in-cache directory, and a
//! MESI protocol whose transactions **piggyback the ReCon reveal/conceal
//! bit-vectors** ([`recon::RevealMask`]) per §5.3 of the paper.
//!
//! The model is *timing-directed*: the arrays store tags, MESI states,
//! and masks — architectural data lives in the functional memory owned by
//! the simulator (`recon-sim`). Each access atomically applies the
//! protocol transitions and returns its latency, which the out-of-order
//! core (`recon-cpu`) uses to schedule completion.
//!
//! ```
//! use recon_mem::{MemorySystem, MemConfig, ServedBy};
//! use recon::ReconConfig;
//!
//! let mut mem = MemorySystem::new(2, MemConfig::scaled(), ReconConfig::default());
//!
//! // Core 0 loads a line and reveals one word (a committed load pair).
//! assert_eq!(mem.read(0, 0x1000).served_by, ServedBy::Memory);
//! mem.reveal(0, 0x1000);
//!
//! // Core 1's read is forwarded from core 0's cache, *with* the mask:
//! let r = mem.read(1, 0x1000);
//! assert_eq!(r.served_by, ServedBy::RemoteCache);
//! assert!(r.revealed); // core 1 can lift defenses without re-learning
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod array;
pub mod config;
pub mod geometry;
pub mod mesi;
pub mod observe;
pub mod stats;
pub mod system;

pub use array::{CacheArray, Evicted, Miss};
pub use config::{LatencyConfig, MemConfig};
pub use geometry::CacheGeometry;
pub use mesi::{DirState, Mesi, SharerSet};
pub use observe::{LineState, MemEvent, MemEventKind, MemSnapshot};
pub use stats::MemStats;
pub use system::{MemorySystem, ReadOutcome, ServedBy, WriteOutcome};
