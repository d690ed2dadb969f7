package apps

import (
	"math"

	"repro/internal/hwmodel"
)

// RankEnv is the execution environment of one rank for one iteration:
// how many threads it currently has, its fixed partition size, and the
// node-level bandwidth pressure.
type RankEnv struct {
	// Threads is the current active thread count (process mask size).
	Threads int
	// Chunks is the data partition cardinality fixed at init (the
	// thread count the application *asked* for).
	Chunks int
	// BWSlowdown is the node bandwidth oversubscription factor (>= 1)
	// during this iteration.
	BWSlowdown float64
	// CPUShare is the fraction of a CPU each thread receives (1 unless
	// the node is oversubscribed by a non-DROM co-allocation).
	CPUShare float64
	// SpansSockets is true when the rank's mask crosses a socket
	// boundary, paying the cross-socket locality penalty.
	SpansSockets bool
}

func (e RankEnv) sane() RankEnv {
	if e.Threads < 1 {
		e.Threads = 1
	}
	if e.Chunks < 1 {
		e.Chunks = 1
	}
	if e.BWSlowdown < 1 {
		e.BWSlowdown = 1
	}
	if e.CPUShare <= 0 || e.CPUShare > 1 {
		e.CPUShare = 1
	}
	return e
}

// ipcRel returns the relative IPC factor at the given thread count
// (1.0 at RefThreads).
func (s *Spec) ipcRel(threads int) float64 {
	return hwmodel.IPC(1.0, s.IPCAlpha, threads, s.RefThreads)
}

// imbalance returns the per-iteration elongation factor of the static
// data partition: with C chunks on t threads, the critical thread
// carries 1 + k/min(Spread*k, t) chunks' worth of work, where k = C-t
// is the excess. t >= C yields 1 (extra threads are useless). The
// FullyMalleable variant always achieves the work-conserving C/t.
func (s *Spec) imbalance(threads, chunks int) float64 {
	t, c := threads, chunks
	if t < 1 {
		t = 1
	}
	if s.FullyMalleable {
		if t >= c {
			return 1
		}
		return float64(c) / float64(t)
	}
	if t >= c {
		return 1
	}
	k := c - t
	spread := s.Spread
	if spread < 1 {
		spread = 1
	}
	m := spread * k
	if m > t {
		m = t
	}
	return 1 + float64(k)/float64(m)
}

// IterTime returns the wall-clock duration of one iteration of one
// rank under env. MPI synchronization cost is added by the caller at
// the job level (the job iterates in lockstep).
func (s *Spec) IterTime(env RankEnv) float64 {
	env = env.sane()
	switch s.Class {
	case Bandwidth:
		demand := float64(env.Threads) * s.BWPerThreadGBs * env.CPUShare
		if demand <= 0 {
			return math.Inf(1)
		}
		achieved := demand / env.BWSlowdown
		return s.DatasetGB / achieved
	case Malleable:
		base := s.ChunkSeconds * float64(env.Chunks) / float64(env.Threads)
		return s.scaleCompute(base, env)
	default: // Simulator
		// Threads beyond the partition stay idle: they neither help
		// nor add locality pressure.
		t := env.Threads
		if t > env.Chunks {
			t = env.Chunks
		}
		base := s.ChunkSeconds * s.imbalance(t, env.Chunks)
		eff := env
		eff.Threads = t
		return s.scaleCompute(base, eff)
	}
}

// scaleCompute applies the IPC locality factor, the bandwidth
// contention penalty and the CPU time-sharing penalty to a base
// compute time.
func (s *Spec) scaleCompute(base float64, env RankEnv) float64 {
	t := base / s.ipcRel(env.Threads)
	if env.SpansSockets && s.SocketSpanPenalty > 0 {
		t /= 1 - s.SocketSpanPenalty
	}
	t *= (1 - s.MemFrac) + float64(s.MemFrac*env.BWSlowdown)
	return t / env.CPUShare
}

// EffIPC returns the observable instructions-per-cycle of a running
// thread under env: the locality-scaled IPC degraded by memory stalls.
// This is the Figure 14 metric.
func (s *Spec) EffIPC(env RankEnv) float64 {
	env = env.sane()
	t := env.Threads
	if s.Class == Simulator && t > env.Chunks {
		t = env.Chunks
	}
	ipc := s.IPCBase * s.ipcRel(t)
	return ipc * ((1 - s.MemFrac) + s.MemFrac/env.BWSlowdown)
}

// BWDemand returns the average node memory bandwidth demand (GB/s) of
// one rank with the given thread count, used to compute contention.
func (s *Spec) BWDemand(threads int) float64 {
	if threads < 0 {
		threads = 0
	}
	return float64(threads) * s.BWPerThreadGBs
}

// InitTime returns the initialization phase duration under a node
// bandwidth slowdown (memory-bound init stretches under contention).
func (s *Spec) InitTime(bwSlowdown float64) float64 {
	if bwSlowdown < 1 {
		bwSlowdown = 1
	}
	if s.InitMemBound {
		return s.InitSeconds * bwSlowdown
	}
	return s.InitSeconds
}

// ThreadBusyFraction returns, for trace rendering, the fraction of the
// iteration each active thread index spends computing. With a static
// partition and t < C, the first min(Spread*k, t) threads absorb the
// excess and stay busy the whole critical path; the rest idle for the
// imbalance bubble (Figure 5's "white idle spaces").
func (s *Spec) ThreadBusyFraction(threadIdx int, env RankEnv) float64 {
	env = env.sane()
	if s.Class != Simulator || s.FullyMalleable || env.Threads >= env.Chunks {
		return 1
	}
	k := env.Chunks - env.Threads
	spread := s.Spread
	if spread < 1 {
		spread = 1
	}
	m := spread * k
	if m > env.Threads {
		m = env.Threads
	}
	crit := 1 + float64(k)/float64(m)
	if threadIdx < m {
		return 1
	}
	return 1 / crit
}
