//! Sync-primitive indirection for the observability crates (`dlsm-trace`,
//! `dlsm-telemetry`): std atomics by default, dlsm-check's instrumented
//! shim under the `shim` feature, so the model tests in crates/check can
//! explore interleavings of the real [`SeqSlot`](crate::SeqSlot) and
//! histogram code. The shim passes through to std outside a model
//! execution.

#[cfg(feature = "shim")]
pub use dlsm_check::shim::{fence, AtomicU64, Ordering};

#[cfg(not(feature = "shim"))]
pub use std::sync::atomic::{fence, AtomicU64, Ordering};
