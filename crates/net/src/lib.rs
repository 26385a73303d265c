//! Distributed credo wire layer.
//!
//! Promotes `credo-stream`'s double-buffered boundary frontier into a
//! process-crossing protocol: [`frame`] carries length-prefixed binary
//! frames, [`msg`] defines the router ↔ shard-worker message set (shard
//! load, per-sweep halo/export exchange, posterior collection), and
//! [`ring`] places shards on workers with a consistent-hash ring so a
//! worker joining or leaving only moves its own shards.
//!
//! Decoding is bounds-checked end to end (via [`credo_io::ByteReader`])
//! and must never panic on arbitrary bytes: the truncated/mutated-frame
//! corpus in `tests/integration_dist.rs` holds the codec to that.

pub mod frame;
pub mod msg;
pub mod ring;

pub use frame::{read_msg, write_frame, write_msg, ByteWriter, MAX_WIRE_FRAME};
pub use msg::WireMsg;
pub use ring::HashRing;
