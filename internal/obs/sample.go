package obs

import (
	"bufio"
	"io"
	"strconv"
)

// Sampler emits a per-partition time series on a fixed virtual-time
// grid: at every interval boundary it writes one row per partition
// with the utilization, queue depth, running-job count and cumulative
// spill tallies the scheduler last reported before that instant (a
// policy pass, or the builtin planner's end-of-cycle snapshot). Rows
// are CSV by default (header first) or JSONL, and depend only on the
// replay's decisions — the output of a deterministic replay is itself
// byte-for-byte reproducible and plots directly.
type Sampler struct {
	interval float64
	next     float64
	w        *bufio.Writer
	jsonFmt  bool
	err      error

	order  []string // partitions in first-seen order
	parts  map[string]*partSample
	lineB  []byte
	header bool
}

type partSample struct {
	queue, running int
	free, cores    int
	spilledIn      int64 // jobs this partition hosted for others
	spilledOut     int64 // jobs this partition's queue spilled away
}

// NewSampler samples every interval virtual seconds (minimum 1s) and
// writes rows to w; jsonFmt selects JSONL over CSV. Call Flush when
// the run completes.
func NewSampler(interval float64, w io.Writer, jsonFmt bool) *Sampler {
	if interval < 1 {
		interval = 1
	}
	return &Sampler{
		interval: interval,
		next:     interval,
		w:        bufio.NewWriter(w),
		jsonFmt:  jsonFmt,
		parts:    make(map[string]*partSample),
	}
}

// part returns (creating) the state of one partition.
func (s *Sampler) part(name string) *partSample {
	if p, ok := s.parts[name]; ok {
		return p
	}
	p := &partSample{}
	s.parts[name] = p
	s.order = append(s.order, name)
	return p
}

// Emit implements Probe.
func (s *Sampler) Emit(ev Event) {
	switch ev.Kind {
	case KindCycleStart, KindEngine:
		s.advance(ev.Time)
	case KindPass, KindSnapshot:
		s.advance(ev.Time)
		p := s.part(ev.Partition)
		p.queue = ev.Queue
		p.running = ev.Running
		p.free = ev.Free
		p.cores = ev.Cores
	case KindAction:
		if ev.Act == ActSpill && ev.Reason == ReasonSpilled {
			s.part(ev.Partition).spilledIn++
			s.part(ev.Origin).spilledOut++
		}
	}
}

// advance writes rows for every grid boundary that now has passed.
// Between boundaries the partition state is a step function of the
// last scheduler pass, so each crossed boundary samples that state.
func (s *Sampler) advance(now float64) {
	for s.next <= now {
		s.writeRows(s.next)
		s.next += s.interval
	}
}

func (s *Sampler) writeRows(t float64) {
	if !s.jsonFmt && !s.header {
		s.header = true
		s.write([]byte("t,partition,util,queue_depth,running,spilled_in,spilled_out\n"))
	}
	for _, name := range s.order {
		p := s.parts[name]
		util := 0.0
		if p.cores > 0 {
			util = float64(p.cores-p.free) / float64(p.cores)
		}
		b := s.lineB[:0]
		if s.jsonFmt {
			b = append(b, `{"t":`...)
			b = strconv.AppendFloat(b, t, 'g', -1, 64)
			b = append(b, `,"partition":`...)
			b = strconv.AppendQuote(b, name)
			b = append(b, `,"util":`...)
			b = strconv.AppendFloat(b, util, 'g', 6, 64)
			b = append(b, `,"queue_depth":`...)
			b = strconv.AppendInt(b, int64(p.queue), 10)
			b = append(b, `,"running":`...)
			b = strconv.AppendInt(b, int64(p.running), 10)
			b = append(b, `,"spilled_in":`...)
			b = strconv.AppendInt(b, p.spilledIn, 10)
			b = append(b, `,"spilled_out":`...)
			b = strconv.AppendInt(b, p.spilledOut, 10)
			b = append(b, '}', '\n')
		} else {
			b = strconv.AppendFloat(b, t, 'g', -1, 64)
			b = append(b, ',')
			b = append(b, name...)
			b = append(b, ',')
			b = strconv.AppendFloat(b, util, 'g', 6, 64)
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(p.queue), 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(p.running), 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, p.spilledIn, 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, p.spilledOut, 10)
			b = append(b, '\n')
		}
		s.lineB = b
		s.write(b)
	}
}

func (s *Sampler) write(b []byte) {
	if s.err != nil {
		return
	}
	_, s.err = s.w.Write(b)
}

// Flush emits one final sample row at the next grid boundary (so a
// run shorter than one interval still produces output) and flushes
// the writer, returning the first write error.
func (s *Sampler) Flush() error {
	if len(s.order) > 0 {
		s.writeRows(s.next)
	}
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}
