package main

import (
	"runtime"
	"time"
)

// Host speed. The CPU share a shared host gives this process drifts
// over minutes, and every host time moves with it. A run therefore
// samples a fixed kernel before each set-up and each replay and reports
// host times at a reference speed: a measured time d is reported as
// d × refKernelNS / (the run's first-quartile kernel time). The kernel
// is a dependent xorshift chain that touches no memory. It shares no
// code with the simulator, so a change to the simulator cannot move it,
// and its speed does not depend on where a process's pages land.
// README.md gives the measurements behind the choice of kernel.
const (
	kernelIters = 10_000_000
	// refKernelNS is the reference speed, in nanoseconds per kernel
	// iteration: about what the 2-vCPU Xeon host the bounds were
	// measured on reaches when quiet.
	refKernelNS = 2.0
)

// kernelSink keeps the kernel's result live.
var kernelSink uint64

// kernelSample runs the kernel once, after a collection so that none
// overlaps it, and returns nanoseconds per iteration.
func kernelSample() float64 {
	runtime.GC()
	t0 := time.Now()
	x := uint64(1)
	for i := 0; i < kernelIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	kernelSink += x
	return float64(time.Since(t0).Nanoseconds()) / kernelIters
}
