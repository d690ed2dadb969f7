package shmem

// FuzzProcTable holds the procinfo table — a slot array kept in PID
// order whose spare slots keep their theft arrays — to refTable, the
// plain map a table of a few processes could also be. Every input is a
// sequence of four-byte operations on up to three lineages (a fork adds
// one); after each, every lineage must read as its reference does, its
// file encoding must be a fixed point, and no theft array may be
// reachable from two slots, in one lineage or across a fork.
//
// The committed seed corpus is in testdata/fuzz/FuzzProcTable; plain
// `go test` replays it, and
//
//	go test -run '^$' -fuzz FuzzProcTable -fuzztime 20s ./internal/shmem
//
// explores.

import (
	"bytes"
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cpuset"
	"repro/internal/derr"
)

// refTable is the reference procinfo table: a map, sorted on the way
// out, with the semantics MemSegment's procinfo methods document.
type refTable struct {
	procs      map[PID]*ProcEntry
	generation uint64
}

func newRefTable() *refTable { return &refTable{procs: make(map[PID]*ProcEntry)} }

func (r *refTable) fork() *refTable {
	f := &refTable{procs: make(map[PID]*ProcEntry, len(r.procs)), generation: r.generation}
	for pid, e := range r.procs {
		c := *e
		c.Stolen = append([]Theft(nil), e.Stolen...)
		f.procs[pid] = &c
	}
	return f
}

func (r *refTable) register(pid PID, mask cpuset.CPUSet) derr.Code {
	if e, ok := r.procs[pid]; ok {
		if !e.PreInit {
			return derr.ErrAlreadyInit
		}
		e.PreInit = false
		r.generation++
		return derr.Success
	}
	if len(r.procs) >= procTableMax {
		return derr.ErrNoMem
	}
	if mask.IsEmpty() || !mask.IsSubsetOf(procTableNode) {
		return derr.ErrInvalid
	}
	r.procs[pid] = &ProcEntry{PID: pid, OwnedMask: mask, CurrentMask: mask}
	r.generation++
	return derr.Success
}

func (r *refTable) registerPreInit(pid PID, mask cpuset.CPUSet, stolen []Theft) derr.Code {
	if _, ok := r.procs[pid]; ok {
		return derr.ErrAlreadyInit
	}
	if len(r.procs) >= procTableMax {
		return derr.ErrNoMem
	}
	if mask.IsEmpty() || !mask.IsSubsetOf(procTableNode) {
		return derr.ErrInvalid
	}
	r.procs[pid] = &ProcEntry{PID: pid, OwnedMask: mask, CurrentMask: mask, PreInit: true,
		Stolen: append([]Theft(nil), stolen...)}
	r.generation++
	return derr.Success
}

func (r *refTable) unregister(pid PID) derr.Code {
	if _, ok := r.procs[pid]; !ok {
		return derr.ErrNoProc
	}
	delete(r.procs, pid)
	r.generation++
	return derr.Success
}

func (r *refTable) setFuture(pid PID, mask cpuset.CPUSet) derr.Code {
	e, ok := r.procs[pid]
	if !ok {
		return derr.ErrNoProc
	}
	if mask.IsEmpty() || !mask.IsSubsetOf(procTableNode) {
		return derr.ErrInvalid
	}
	e.FutureMask, e.Dirty = mask, true
	r.generation++
	return derr.Success
}

func (r *refTable) applyFuture(pid PID) (cpuset.CPUSet, derr.Code) {
	e, ok := r.procs[pid]
	if !ok {
		return cpuset.CPUSet{}, derr.ErrNoProc
	}
	e.Stats.Polls++
	if !e.Dirty {
		return cpuset.CPUSet{}, derr.NoUpdate
	}
	before, after := e.CurrentMask.Count(), e.FutureMask.Count()
	e.CurrentMask, e.Dirty = e.FutureMask, false
	e.Stats.MaskChanges++
	if after > before {
		e.Stats.CPUsGained += int64(after - before)
	} else {
		e.Stats.CPUsLost += int64(before - after)
	}
	r.generation++
	return e.CurrentMask, derr.Success
}

func (r *refTable) setStolen(pid PID, stolen []Theft) derr.Code {
	e, ok := r.procs[pid]
	if !ok {
		return derr.ErrNoProc
	}
	e.Stolen = append([]Theft(nil), stolen...)
	r.generation++
	return derr.Success
}

func (r *refTable) pidList() []PID {
	return slices.Sorted(maps.Keys(r.procs))
}

func (r *refTable) snapshot() []ProcEntry {
	out := []ProcEntry{}
	for _, pid := range r.pidList() {
		e := *r.procs[pid]
		e.Stolen = append([]Theft(nil), e.Stolen...)
		out = append(out, e)
	}
	return out
}

func (r *refTable) resolveThefts(pid PID, mask cpuset.CPUSet, steal bool) ([]Theft, derr.Code) {
	var thefts []Theft
	for _, victim := range r.pidList() {
		e := r.procs[victim]
		if victim == pid {
			continue
		}
		cur := e.CurrentMask
		if e.Dirty {
			cur = e.FutureMask
		}
		conflict := cur.And(mask)
		if conflict.IsEmpty() {
			continue
		}
		if !steal || cur.AndNot(conflict).IsEmpty() {
			return nil, derr.ErrPerm
		}
		thefts = append(thefts, Theft{Victim: victim, Mask: conflict})
	}
	return thefts, derr.Success
}

// The fuzzed node: 16 CPUs and room for four processes, so a few
// operations reach a full table.
var procTableNode = cpuset.Range(0, 15)

const procTableMax = 4

// procTableMask decodes one byte into a mask: mostly a run of CPUs
// inside the node, sometimes the empty mask or a CPU outside it.
func procTableMask(b byte) cpuset.CPUSet {
	switch b % 8 {
	case 6:
		return cpuset.CPUSet{}
	case 7:
		return cpuset.New(20)
	}
	lo := int(b>>3) & 15
	return cpuset.Range(lo, min(lo+int(b%6), 15))
}

// procTableThefts decodes one byte into up to three thefts.
func procTableThefts(b byte) []Theft {
	var ts []Theft
	for k := range int(b % 4) {
		ts = append(ts, Theft{Victim: PID(1 + (int(b>>2)+k)%6), Mask: procTableMask(b + byte(37*k))})
	}
	return ts
}

// theftArray identifies the backing array of a theft list, nil when it
// has none (a list with no capacity can never be written through).
func theftArray(ts []Theft) *Theft {
	if cap(ts) == 0 {
		return nil
	}
	return &ts[:1][0]
}

// procTableLineage is one segment under test beside its reference.
type procTableLineage struct {
	seg *MemSegment
	ref *refTable
}

func FuzzProcTable(f *testing.F) {
	f.Add([]byte{
		0x00, 3, 0x10, 0, // Register 3
		0x01, 1, 0x49, 0x09, // PreInit 1 with a theft, inserted first
		0x00, 1, 0, 0, // Register completes 1's PreInit
		0x03, 3, 0x21, 0, // SetFuture 3
		0x04, 3, 0, 0, // ApplyFuture 3
		0x02, 1, 0, 0, // Unregister 1: its slot goes spare
		0x06, 0, 0, 0, // Fork
		0x11, 2, 0x58, 0x0e, // PreInit 2 in the fork, on the spare
		0x01, 2, 0x30, 0x03, // PreInit 2 in the parent
		0x15, 2, 0, 0x07, // SetStolen 2 in the fork
	})
	f.Add([]byte{
		0x00, 1, 0x00, 0, 0x00, 2, 0x08, 0, 0x00, 3, 0x10, 0, 0x00, 4, 0x18, 0,
		0x00, 5, 0x20, 0, // full
		0x00, 6, 0x06, 0, 0x00, 6, 0x07, 0, // empty and off-node masks
		0x02, 6, 0, 0, 0x03, 6, 0x01, 0, 0x04, 6, 0, 0, 0x05, 6, 0, 1, // absent pid
		0x07, 0, 0, 0, // reset
		0x01, 5, 0x40, 0x0b, 0x01, 2, 0x48, 0x0d,
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		lineages := []procTableLineage{{newSegment("n", procTableNode, procTableMax), newRefTable()}}
		var dst []Theft
		for len(ops) >= 4 {
			op, pidB, maskB, extra := ops[0], ops[1], ops[2], ops[3]
			ops = ops[4:]
			l := &lineages[int(op>>4)%len(lineages)]
			pid, mask := PID(1+pidB%6), procTableMask(maskB)
			var got, want derr.Code
			switch op % 8 {
			case 0:
				got, want = l.seg.Register(pid, mask), l.ref.register(pid, mask)
			case 1:
				ts := procTableThefts(extra)
				got, want = l.seg.RegisterPreInit(pid, mask, ts), l.ref.registerPreInit(pid, mask, ts)
			case 2:
				got, want = l.seg.Unregister(pid), l.ref.unregister(pid)
			case 3:
				got, want = l.seg.SetFuture(pid, mask), l.ref.setFuture(pid, mask)
			case 4:
				m, c := l.seg.ApplyFuture(pid)
				rm, rc := l.ref.applyFuture(pid)
				if !m.Equal(rm) {
					t.Fatalf("ApplyFuture(%d) = %s, reference %s", pid, m, rm)
				}
				got, want = c, rc
			case 5:
				ts := procTableThefts(extra)
				got, want = l.seg.SetStolen(pid, ts), l.ref.setStolen(pid, ts)
			case 6:
				fork := procTableLineage{l.seg.forkMem(), l.ref.fork()}
				if len(lineages) == 3 {
					lineages = lineages[1:]
				}
				lineages = append(lineages, fork)
			case 7:
				l.seg.reset(l.seg.name, l.seg.nodeCPUs, l.seg.maxProcs)
				l.ref = newRefTable()
			}
			if got != want {
				t.Fatalf("operation %#x on pid %d returned %v, reference %v", op, pid, got, want)
			}
			for _, l := range lineages {
				var code derr.Code
				dst, code = l.seg.ResolveThefts(dst, pid, mask, extra&1 == 0)
				rts, rcode := l.ref.resolveThefts(pid, mask, extra&1 == 0)
				if code != rcode || !slices.Equal(dst, rts) {
					t.Fatalf("ResolveThefts(%d, %s) = %v %v, reference %v %v", pid, mask, dst, code, rts, rcode)
				}
				checkProcTable(t, l)
			}
			checkNoSharedTheftArrays(t, lineages)
		}
	})
}

// checkProcTable holds one lineage's reads to its reference's and its
// file encoding to a fixed point.
func checkProcTable(t *testing.T, l procTableLineage) {
	t.Helper()
	if got, want := l.seg.Snapshot(), l.ref.snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Snapshot\n %+v\nreference\n %+v", got, want)
	}
	if got, want := l.seg.PIDList(), l.ref.pidList(); !slices.Equal(got, want) {
		t.Fatalf("PIDList %v, reference %v", got, want)
	}
	if got, want := l.seg.Generation(), l.ref.generation; got != want {
		t.Fatalf("generation %d, reference %d", got, want)
	}
	enc := encodeSegment(l.seg)
	m, err := decodeSegment(enc)
	if err != nil {
		t.Fatalf("decode of an encoded table: %v", err)
	}
	if !bytes.Equal(encodeSegment(m), enc) {
		t.Fatal("encode → decode → encode is not byte-identical")
	}
}

// checkNoSharedTheftArrays fails when one theft array is reachable from
// two slots, live or spare, of any lineages.
func checkNoSharedTheftArrays(t *testing.T, lineages []procTableLineage) {
	t.Helper()
	seen := make(map[*Theft]PID)
	for _, l := range lineages {
		for _, e := range l.seg.procs[:cap(l.seg.procs)] {
			a := theftArray(e.Stolen)
			if a == nil {
				continue
			}
			if other, ok := seen[a]; ok {
				t.Fatalf("pid %d's slot shares its theft array with pid %d's (0 = a spare slot)", e.PID, other)
			}
			seen[a] = e.PID
		}
	}
}
