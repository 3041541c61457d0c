//! Shared vocabulary types for the MDCC reproduction.
//!
//! This crate is dependency-free and holds the types every other crate
//! speaks: identifiers ([`NodeId`], [`TxnId`], [`Key`]), simulated time
//! ([`time::SimTime`]), record values ([`value::Value`]), update operations
//! ([`update::UpdateOp`]) and protocol-wide configuration
//! ([`config::ProtocolConfig`]).
//!
//! Design note: all types here are plain data — no behaviour that depends on
//! a runtime — so the protocol crates stay sans-IO and testable in isolation.

pub mod config;
pub mod error;
pub mod ids;
pub mod placement;
pub mod time;
pub mod update;
pub mod value;
pub mod wire;

pub use config::{MastershipConfig, ProtocolConfig, StorageKind};
pub use error::{MdccError, Result};
pub use ids::{DcId, Key, NodeId, TableId, TxnId};
pub use placement::{MasterPolicy, Placement, StaticPlacement};
pub use time::{SimDuration, SimTime};
pub use update::{CommutativeUpdate, PhysicalUpdate, RecordUpdate, UpdateOp, Version, WriteSet};
pub use value::{Row, Value};

/// Declares a struct of counters with a field-wise `AddAssign`, so no
/// counter can be left out of the cluster-wide totals.
#[macro_export]
macro_rules! counters {
    ($(#[$meta:meta])* $vis:vis struct $name:ident {
        $($(#[$field_meta:meta])* $field_vis:vis $field:ident: $ty:ty,)*
    }) => {
        $(#[$meta])* $vis struct $name { $($(#[$field_meta])* $field_vis $field: $ty,)* }
        impl ::std::ops::AddAssign for $name {
            fn add_assign(&mut self, o: Self) { $(self.$field += o.$field;)* }
        }
    };
}

/// Gives an enum `variant_name`, the name of the variant a value holds,
/// from the list of its variants: every `wire!` enum gets one.
#[macro_export]
macro_rules! variant_names {
    ($ty:ident { $($variant:ident),* }) => {
        #[allow(dead_code)]
        impl $ty {
            /// The name of the variant `self` holds.
            pub fn variant_name(&self) -> &'static str {
                match self { $(Self::$variant { .. } => stringify!($variant),)* }
            }
        }
    };
}
