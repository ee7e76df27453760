//! Sync-primitive indirection: std atomics by default, dlsm-check's
//! instrumented shim under the `shim` feature (used by the model tests in
//! crates/check). The shim types are `#[repr(transparent)]` over the std
//! atomics and pass through to them outside a model execution, so both
//! configurations have identical layout and (non-model) behavior.

#[cfg(feature = "shim")]
pub(crate) use dlsm_check::shim::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

#[cfg(not(feature = "shim"))]
pub(crate) use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
