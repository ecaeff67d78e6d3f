//! # npu — the simulated Ascend-style hardware substrate
//!
//! The paper's evaluation runs on a production Huawei Ascend NPU cluster;
//! this crate is the substitution (DESIGN.md, substitution table): a
//! parametric model of the same hardware with calibrated analytic costs.
//!
//! * [`specs`] — chips (Gen2/SuperPod), eight-card servers with shared
//!   PCIe switches and 1.5 TB DRAM, cluster topology with HCCS domains.
//! * [`hccl`] — alpha-beta cost models for the Huawei Collective
//!   Communication Library: `send`/`recv`, ring `all_reduce`, pipelined
//!   `broadcast` (the primitive behind NPU-fork's flat fan-out).
//! * [`fabric`] — flow-level dynamic traffic: point-to-point transfers over
//!   HCCS/RoCE ports with processor-sharing contention.
//! * [`pagecache`] — host DRAM page cache for safetensors weight loading
//!   (DRAM-hit vs DRAM-miss vs preloading, Figure 9).
//! * [`storage`] — the four-tier checkpoint hierarchy (HBM ← DRAM ← local
//!   SSD ← remote store) behind serverless fleet cold starts.

#![forbid(unsafe_code)]

pub mod fabric;
pub mod hccl;
pub mod pagecache;
pub mod specs;
pub mod storage;

pub use fabric::{Fabric, LinkKind, TransferId};
pub use pagecache::{ByteRange, FileId, PageCache, ReadBreakdown};
pub use specs::{ChipSpec, ClusterSpec, Generation, LinkSpec, NpuId, ServerSpec};
pub use storage::{fault_time, FaultBreakdown, RemoteStoreSpec, ServerStore, Tier};
