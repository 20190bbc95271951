package nn

import "sync/atomic"

// Process-wide kernel call counters: internal/core publishes them to the
// obs registry as host-class metrics alongside the parallel-substrate
// counters. Counts are diagnostics only (ClassHost): they depend on layer
// shapes and call volume, never feed back into the kernels, and cost one
// atomic add per layer call.
var kernelDispatch struct {
	gemm        atomic.Int64
	batchImages atomic.Int64
}

// KernelCounters is a snapshot of the quantized kernel call counters.
type KernelCounters struct {
	// GEMMDispatches counts QConv2D calls (every one runs the im2col GEMM).
	GEMMDispatches int64
	// BatchImages counts images processed through batched network forwards.
	BatchImages int64
}

// KernelCounterSnapshot returns the current process-wide totals.
func KernelCounterSnapshot() KernelCounters {
	return KernelCounters{
		GEMMDispatches: kernelDispatch.gemm.Load(),
		BatchImages:    kernelDispatch.batchImages.Load(),
	}
}
