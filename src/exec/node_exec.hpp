#pragma once
// Reference-numerics execution of single graph nodes: ExecutionEngine's
// step loop runs every node through these, and perfbench's per-step
// replay calls them one node at a time (the numerics of a node do not
// depend on how its tiles are scheduled — the replay must produce the
// engine's bytes).

#include <vector>

#include "compiler/graph.hpp"
#include "exec/plan.hpp"
#include "exec/worker_pool.hpp"
#include "nn/tensor.hpp"

namespace decimate {

/// Row/column transpose of a 2D tensor (matmul transpose_b operand).
Tensor8 transpose2d(const Tensor8& x);

/// The host kernel binding of a gemm step, built from its node's geometry
/// and the step's packed N:M payload: the sparse gather kernels when the
/// step carries one, blocked dense otherwise. The compiler binds every
/// gemm step with it, and the `.plan` loader rebuilds the same binding
/// from the payload verify_plan has admitted — it is never read from
/// artifact bytes.
HostKernelDispatch host_dispatch_for(const Node& node, const PlanStep& step);

/// Execute a gemm node (conv / fc / matmul): operand selection (matmul
/// transpose, zero bias) plus the numerics, routed through the step's
/// HostKernelDispatch when `use_host` is set (sparse steps run the N:M
/// gather kernels, dense steps the blocked loops) and through the scalar
/// reference ops otherwise. Both paths are bit-identical — the flag exists
/// so engines, benches and tests can compare them. `b_operand` is the
/// matmul B producer value (nullptr for conv/fc).
void exec_gemm_node_host(const PlanStep& step, const Node& node,
                         const Tensor8& in, const Tensor8* b_operand,
                         bool use_host, Tensor8& out);

/// Intra-image parallel variant: partitions the step's output — conv
/// rows (output channels when a row part would hold fewer pixels than the
/// selected instance's lane count), FC tokens (output channels when the
/// token count is small) — into `parts` disjoint ranges executed
/// concurrently on `pool` through the ranged host ops. Disjoint ranges
/// stitch bit-exactly (each output element is produced by exactly one
/// range, with the same accumulation as the full-range call), so the
/// result is bit-identical to exec_gemm_node_host. `parts` is clamped to
/// the split axis; a pool task calling this nests inline (see
/// WorkerPool::run).
void exec_gemm_node_host_parallel(const PlanStep& step, const Node& node,
                                  const Tensor8& in, const Tensor8* b_operand,
                                  WorkerPool& pool, int parts, Tensor8& out);

/// Execute a non-gemm node on its input values (reference ops, bit-exact
/// mirrors of the ISS kernels). `in` holds one pointer per node input, in
/// node.inputs order.
void exec_vec_node_ref(const Node& node,
                       const std::vector<const Tensor8*>& in, Tensor8& out);

}  // namespace decimate
