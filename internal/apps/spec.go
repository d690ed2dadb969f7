// Package apps models the four applications of the paper's evaluation
// (§6): the NEST and CoreNeuron neuro-simulators (hybrid MPI+OpenMP,
// made malleable by polling DROM at safe points, but with a *static
// data partition* fixed at initialization), the Pils synthetic
// compute-bound benchmark (MPI+OmpSs, fully malleable) and the STREAM
// memory-bandwidth benchmark (MPI+OpenMP, bandwidth-bound).
//
// Each application is an analytic performance model executed on the
// discrete-event engine. Every malleability action still flows through
// the real DROM implementation: the model polls DROM at its iteration
// boundaries exactly as the instrumented applications of the paper
// call DLB_PollDROM at their safe points.
package apps

import "fmt"

// Class selects the scaling behaviour of an application model.
type Class int

const (
	// Simulator: iterative, compute-dominated, with a data partition
	// fixed at initialization (NEST, CoreNeuron). Shrinking below the
	// partition size creates imbalance; growing beyond it is useless.
	Simulator Class = iota
	// Malleable: work re-divisible at any time (Pils).
	Malleable
	// Bandwidth: progress limited by memory bandwidth (STREAM).
	Bandwidth
)

func (c Class) String() string {
	switch c {
	case Simulator:
		return "simulator"
	case Malleable:
		return "malleable"
	case Bandwidth:
		return "bandwidth"
	}
	return "?"
}

// Config is one Table-1 application configuration: the number of MPI
// ranks and OpenMP/OmpSs threads per rank.
type Config struct {
	Ranks   int
	Threads int
}

func (c Config) String() string { return fmt.Sprintf("%dx%d", c.Ranks, c.Threads) }

// Spec holds the calibrated parameters of one application model.
type Spec struct {
	Name  string
	Class Class

	// DefaultIters is the iteration count of the reference runs; the
	// scenario can override it to size a job.
	DefaultIters int
	// ChunkSeconds is the duration of one partition chunk at base IPC
	// with no contention (Simulator/Malleable classes).
	ChunkSeconds float64
	// DatasetGB is the data volume moved per iteration (Bandwidth
	// class; STREAM's configured 8 GB dataset).
	DatasetGB float64

	// IPCBase and IPCAlpha parameterize the locality model: fewer
	// threads per rank yield higher IPC (hwmodel.IPC with RefThreads).
	IPCBase    float64
	IPCAlpha   float64
	RefThreads int

	// MemFrac is the fraction of compute time that is memory-bound and
	// therefore subject to bandwidth contention.
	MemFrac float64
	// BWPerThreadGBs is the average memory bandwidth demand per active
	// thread.
	BWPerThreadGBs float64

	// Spread is how many threads share the work of one removed
	// thread's chunk (the NEST behaviour of Figure 5, where thread
	// 16's data is recomputed by the first 4 threads).
	Spread int

	// InitSeconds is the serial initialization phase (CoreNeuron's
	// memory-intensive startup, green in Figure 13).
	InitSeconds float64
	// InitMemBound marks the init phase as bandwidth-hungry.
	InitMemBound bool

	// CommSeconds is the per-iteration MPI synchronization cost.
	CommSeconds float64

	// SocketSpanPenalty is the fractional slowdown a rank pays when
	// its mask crosses a socket boundary (the locality cost the
	// socket-aware placement of §5 avoids). 0 disables the penalty.
	SocketSpanPenalty float64

	// FullyMalleable, when set on a Simulator-class spec, removes the
	// static-partition imbalance: the "fully malleable NEST version"
	// the paper hypothesises would improve the results.
	FullyMalleable bool
}

// NEST returns the calibrated NEST 2.12 model: ~2400 s at Conf. 1
// (2 ranks × 16 threads) on the MN3 model, mild memory intensity,
// static partition with excess work spread over 4 threads.
func NEST() Spec {
	return Spec{
		Name:              "nest",
		Class:             Simulator,
		DefaultIters:      2000,
		ChunkSeconds:      1.18,
		IPCBase:           0.95,
		IPCAlpha:          0.12,
		RefThreads:        16,
		MemFrac:           0.30,
		BWPerThreadGBs:    1.0,
		Spread:            4,
		InitSeconds:       40,
		CommSeconds:       0.02,
		SocketSpanPenalty: 0.03,
	}
}

// CoreNeuron returns the calibrated CoreNeuron model: slightly longer
// than NEST, with a memory-intensive initialization phase.
func CoreNeuron() Spec {
	return Spec{
		Name:              "coreneuron",
		Class:             Simulator,
		DefaultIters:      2000,
		ChunkSeconds:      1.22,
		IPCBase:           1.00,
		IPCAlpha:          0.12,
		RefThreads:        16,
		MemFrac:           0.35,
		BWPerThreadGBs:    1.2,
		Spread:            4,
		InitSeconds:       120,
		InitMemBound:      true,
		CommSeconds:       0.02,
		SocketSpanPenalty: 0.03,
	}
}

// Pils returns the compute-bound synthetic analytics model
// (MPI+OmpSs): fully malleable, negligible memory traffic, sized to
// run ~300 s at its requested resources.
func Pils() Spec {
	return Spec{
		Name:              "pils",
		Class:             Malleable,
		DefaultIters:      300,
		ChunkSeconds:      1.0,
		IPCBase:           1.4,
		IPCAlpha:          0.0,
		RefThreads:        16,
		MemFrac:           0.02,
		BWPerThreadGBs:    0.2,
		Spread:            1,
		CommSeconds:       0.005,
		SocketSpanPenalty: 0.01,
	}
}

// STREAM returns the memory-bandwidth benchmark model with the paper's
// 8 GB dataset: two threads per node saturate the node bandwidth, so
// "over two CPUs per node performance keeps constant".
func STREAM() Spec {
	return Spec{
		Name:           "stream",
		Class:          Bandwidth,
		DefaultIters:   900,
		DatasetGB:      8,
		IPCBase:        0.5,
		IPCAlpha:       0.0,
		RefThreads:     16,
		MemFrac:        1.0,
		BWPerThreadGBs: 18,
		Spread:         1,
		CommSeconds:    0.005,
	}
}

// Table1 returns the use-case configurations of Table 1, keyed by
// configuration number per application.
func Table1(app string) []Config {
	switch app {
	case "nest", "coreneuron":
		return []Config{{2, 16}, {4, 8}}
	case "pils":
		return []Config{{2, 16}, {2, 1}, {2, 4}}
	case "stream":
		return []Config{{2, 2}}
	}
	return nil
}
