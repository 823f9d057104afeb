//! Loop/operation IR and data-dependence graphs for clustered VLIW scheduling.
//!
//! This crate is the compiler-side substrate of the reproduction of
//! *"Effective Instruction Scheduling Techniques for an Interleaved Cache
//! Clustered VLIW Processor"* (Gibert, Sánchez & González, MICRO-35, 2002).
//! It plays the role the IMPACT IR plays in the paper: it represents the
//! innermost-loop bodies (hyperblock-like single-basic-block kernels) that the
//! modulo scheduler consumes, together with the memory-access metadata the
//! scheduling techniques rely on (strides, granularities, profiled hit rates
//! and preferred-cluster histograms, and conservative memory-dependence
//! edges).
//!
//! The main types are:
//!
//! * [`LoopKernel`] — a loop body: operations, dependence edges, the arrays it
//!   touches and its profiled trip count.
//! * [`Operation`] / [`Opcode`] / [`VirtReg`] — individual operations in a
//!   (per-iteration) SSA-like form: every virtual register has exactly one
//!   definition per iteration, and a source operand can name the value
//!   produced in the current iteration or a previous one
//!   ([`SrcOperand::distance`]).
//! * [`DepEdge`] / [`DepKind`] — dependence edges with iteration distances.
//!   Register flow edges are derived automatically from def-use information by
//!   [`KernelBuilder`]; register anti/output and memory edges are added
//!   explicitly (modelling the IMPACT memory disambiguator's conservative
//!   output).
//! * [`Ddg`] — an adjacency view used by the scheduler.
//! * [`KernelBuilder`] — a fluent constructor for kernels.
//! * [`unroll()`] — loop unrolling with register renaming and stride/offset
//!   bookkeeping (step 1 of the paper's algorithm).
//!
//! # Example
//!
//! Build the two-instruction copy loop from §4.3 of the paper
//! (`b[i] = f(a[i])`) and unroll it four times:
//!
//! ```
//! use vliw_ir::{ArrayKind, KernelBuilder, unroll};
//!
//! let mut b = KernelBuilder::new("copy_loop");
//! let a = b.array("a", 4096, ArrayKind::Heap);
//! let out = b.array("b", 4096, ArrayKind::Heap);
//! let (_, v) = b.load("ld_a", a, 0, 4, 4);      // ld r3, a[i]
//! let (_, w) = b.int_op("compute", vliw_ir::Opcode::Add, &[v.into(), v.into()]);
//! b.store("st_b", out, 0, 4, 4, w);             // st r4, b[i]
//! let kernel = b.finish(256.0);
//!
//! let unrolled = unroll(&kernel, 4);
//! assert_eq!(unrolled.ops.len(), 3 * 4);
//! // after unrolling, each copy's stride is 16 bytes (4 elements advance)
//! assert!(unrolled.ops.iter().filter_map(|o| o.mem.as_ref()).all(|m| m.stride == Some(16)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod builder;
mod ddg;
mod fingerprint;
mod kernel;
mod mem_access;
mod op;
mod reg;
mod unroll;

pub use builder::KernelBuilder;
pub use ddg::{Ddg, DepEdge, DepKind};
pub use fingerprint::{kernel_fingerprint, StableHasher};
pub use kernel::LoopKernel;
pub use mem_access::{ArrayId, ArrayInfo, ArrayKind, MemAccessInfo, MemProfile};
pub use op::{FuKind, OpId, Opcode, Operation, SrcOperand};
pub use reg::VirtReg;
pub use unroll::unroll;
