package shmem

// Versioned binary layout of a file-backed segment. One file holds one
// node's entire shared memory — header, procinfo table, cpuinfo table —
// and is rewritten atomically under the file lock on every mutation
// (segments are a few KB; DLB's real segments are mmapped, but a
// read-modify-write under flock gives the same protocol semantics
// without shared-memory portability hazards).
//
// Layout (little-endian throughout):
//
//	header:
//	  magic      [8]byte  "DROMSEG\x00"
//	  version    uint32   (currently 1)
//	  nameLen    uint16   + name bytes (segment name, <= 255)
//	  nodeCPUs   [4]uint64  (cpuset words)
//	  maxProcs   uint32
//	  generation uint64
//	  nprocs     uint32
//	  ncpus      uint32   (cpuinfo slots, == cpuset.MaxCPUs)
//	procinfo (nprocs entries, ascending PID — the encoder sorts, so
//	equal states produce identical bytes):
//	  pid        int64
//	  owned, current, future  [4]uint64 each
//	  flags      uint8    (bit0 dirty, bit1 preinit)
//	  resizeReq  int32
//	  stats      9 × int64 (polls, maskChanges, cpusGained, cpusLost,
//	                        lends, borrows, reclaims, cpusLent,
//	                        cpusBorrowed)
//	  nstolen    uint32   + nstolen × (victim int64, mask [4]uint64)
//	cpuinfo (ncpus entries):
//	  owner int64, guest int64, flags uint8 (bit0 lent, bit1 reclaim)
//
// The file keeps all cpuset.MaxCPUs cpuinfo slots although a segment in
// memory holds only the node's (MemSegment.cpus): the encoder writes
// zero slots past the node, and the decoder refuses a non-zero slot for
// a CPU outside the node, so the layout — and every file an earlier
// build wrote — is unchanged.
//
// decodeSegment validates every count and bound before allocating, so
// a truncated, corrupt or adversarial file fails with an error instead
// of a panic or an absurd allocation (FuzzDecodeSegment holds it to
// that).

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/cpuset"
)

// segMagic identifies a DROM segment file.
var segMagic = [8]byte{'D', 'R', 'O', 'M', 'S', 'E', 'G', 0}

// segVersion is the current layout version.
const segVersion = 1

const (
	segFlagDirty   = 1 << 0
	segFlagPreInit = 1 << 1
	segFlagLent    = 1 << 0
	segFlagReclaim = 1 << 1
	// maxSegName bounds the encoded name length.
	maxSegName = 255
	// maxSegStolen bounds the theft list of one entry — far above
	// anything the protocol produces (a victim contributes one theft).
	maxSegStolen = 4096
)

// cpuSetWords is the fixed word count of a cpuset.CPUSet.
const cpuSetWords = cpuset.MaxCPUs / 64

// segWriter appends fixed-width little-endian fields.
type segWriter struct{ buf []byte }

func (w *segWriter) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *segWriter) u16(v uint16) { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *segWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *segWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *segWriter) i64(v int64)  { w.u64(uint64(v)) }
func (w *segWriter) mask(m cpuset.CPUSet) {
	for _, word := range m.Words() {
		w.u64(word)
	}
}

// segReader consumes fixed-width little-endian fields with bounds
// checks; the first short read poisons it.
type segReader struct {
	buf []byte
	off int
	err error
}

func (r *segReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.buf) {
		r.err = fmt.Errorf("shmem: segment file truncated at offset %d (want %d more bytes)", r.off, n)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

func (r *segReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *segReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *segReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *segReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *segReader) i64() int64 { return int64(r.u64()) }

func (r *segReader) mask() cpuset.CPUSet {
	var words [cpuSetWords]uint64
	for i := range words {
		words[i] = r.u64()
	}
	return cpuset.FromWords(words)
}

// encodeSegment serializes a segment state. Entries are emitted in
// ascending PID order, so semantically equal states produce identical
// bytes (the cross-process generation check and the round-trip fuzz
// property rely on that). The caller owns m exclusively; no locking.
func encodeSegment(m *MemSegment) []byte {
	w := &segWriter{buf: make([]byte, 0, 512+len(m.procs)*192)}
	w.buf = append(w.buf, segMagic[:]...)
	w.u32(segVersion)
	w.u16(uint16(len(m.name)))
	w.buf = append(w.buf, m.name...)
	w.mask(m.nodeCPUs)
	w.u32(uint32(m.maxProcs))
	w.u64(m.generation)
	w.u32(uint32(len(m.procs)))
	w.u32(cpuset.MaxCPUs)
	pids := make([]int, 0, len(m.procs))
	for pid := range m.procs {
		pids = append(pids, int(pid))
	}
	sort.Ints(pids)
	for _, p := range pids {
		e := m.procs[PID(p)]
		w.i64(int64(e.PID))
		w.mask(e.OwnedMask)
		w.mask(e.CurrentMask)
		w.mask(e.FutureMask)
		var flags uint8
		if e.Dirty {
			flags |= segFlagDirty
		}
		if e.PreInit {
			flags |= segFlagPreInit
		}
		w.u8(flags)
		w.u32(uint32(int32(e.ResizeRequest)))
		st := &e.Stats
		for _, v := range []int64{st.Polls, st.MaskChanges, st.CPUsGained, st.CPUsLost,
			st.Lends, st.Borrows, st.Reclaims, st.CPUsLent, st.CPUsBorrowed} {
			w.i64(v)
		}
		w.u32(uint32(len(e.Stolen)))
		for _, th := range e.Stolen {
			w.i64(int64(th.Victim))
			w.mask(th.Mask)
		}
	}
	for i := range m.cpus {
		c := &m.cpus[i]
		w.i64(int64(c.owner))
		w.i64(int64(c.guest))
		var flags uint8
		if c.lent {
			flags |= segFlagLent
		}
		if c.reclaimPending {
			flags |= segFlagReclaim
		}
		w.u8(flags)
	}
	// The slots past the node: owner, guest and flags all zero.
	for c := len(m.cpus); c < cpuset.MaxCPUs; c++ {
		w.i64(0)
		w.i64(0)
		w.u8(0)
	}
	return w.buf
}

// decodeSegment parses a segment file into a private MemSegment. Every
// structural bound is validated against the declared table sizes; a
// malformed input yields an error, never a panic.
func decodeSegment(data []byte) (*MemSegment, error) {
	r := &segReader{buf: data}
	var magic [8]byte
	copy(magic[:], r.take(8))
	if r.err == nil && magic != segMagic {
		return nil, fmt.Errorf("shmem: not a DROM segment file (bad magic %q)", magic[:])
	}
	if v := r.u32(); r.err == nil && v != segVersion {
		return nil, fmt.Errorf("shmem: unsupported segment layout version %d (want %d)", v, segVersion)
	}
	nameLen := int(r.u16())
	if r.err == nil && nameLen > maxSegName {
		return nil, fmt.Errorf("shmem: segment name length %d exceeds %d", nameLen, maxSegName)
	}
	name := string(r.take(nameLen))
	nodeCPUs := r.mask()
	maxProcs := int(r.u32())
	generation := r.u64()
	nprocs := int(r.u32())
	ncpus := int(r.u32())
	if r.err != nil {
		return nil, r.err
	}
	if maxProcs < 1 || maxProcs > 1<<20 {
		return nil, fmt.Errorf("shmem: segment maxProcs %d out of range", maxProcs)
	}
	if nprocs < 0 || nprocs > maxProcs {
		return nil, fmt.Errorf("shmem: segment declares %d processes, capacity %d", nprocs, maxProcs)
	}
	if ncpus != cpuset.MaxCPUs {
		return nil, fmt.Errorf("shmem: segment declares %d cpuinfo slots, want %d", ncpus, cpuset.MaxCPUs)
	}
	m := newSegment(name, nodeCPUs, maxProcs)
	m.generation = generation
	lastPID := PID(0)
	for i := 0; i < nprocs; i++ {
		pid := PID(r.i64())
		e := &ProcEntry{PID: pid}
		e.OwnedMask = r.mask()
		e.CurrentMask = r.mask()
		e.FutureMask = r.mask()
		flags := r.u8()
		if r.err == nil && flags&^uint8(segFlagDirty|segFlagPreInit) != 0 {
			return nil, fmt.Errorf("shmem: segment entry %d has unknown flag bits %#x", i, flags)
		}
		e.Dirty = flags&segFlagDirty != 0
		e.PreInit = flags&segFlagPreInit != 0
		e.ResizeRequest = int(int32(r.u32()))
		for _, p := range []*int64{&e.Stats.Polls, &e.Stats.MaskChanges, &e.Stats.CPUsGained,
			&e.Stats.CPUsLost, &e.Stats.Lends, &e.Stats.Borrows, &e.Stats.Reclaims,
			&e.Stats.CPUsLent, &e.Stats.CPUsBorrowed} {
			*p = r.i64()
		}
		nstolen := int(r.u32())
		if r.err != nil {
			return nil, r.err
		}
		if pid <= 0 {
			return nil, fmt.Errorf("shmem: segment entry %d has invalid pid %d", i, pid)
		}
		// Entries must be in strictly ascending PID order: the decoder
		// only accepts the canonical (sorted) encoding, so any accepted
		// file re-encodes byte-identically.
		if pid <= lastPID {
			return nil, fmt.Errorf("shmem: segment entry %d pid %d out of order (after %d)", i, pid, lastPID)
		}
		lastPID = pid
		if nstolen < 0 || nstolen > maxSegStolen {
			return nil, fmt.Errorf("shmem: segment pid %d declares %d thefts", pid, nstolen)
		}
		for k := 0; k < nstolen; k++ {
			th := Theft{Victim: PID(r.i64()), Mask: r.mask()}
			if r.err != nil {
				return nil, r.err
			}
			e.Stolen = append(e.Stolen, th)
		}
		m.procs[pid] = e
	}
	for c := 0; c < ncpus; c++ {
		owner := PID(r.i64())
		guest := PID(r.i64())
		flags := r.u8()
		if r.err != nil {
			return nil, r.err
		}
		if flags&^uint8(segFlagLent|segFlagReclaim) != 0 {
			return nil, fmt.Errorf("shmem: cpu %d has unknown flag bits %#x", c, flags)
		}
		st := cpuState{
			owner:          owner,
			guest:          guest,
			lent:           flags&segFlagLent != 0,
			reclaimPending: flags&segFlagReclaim != 0,
		}
		if st == (cpuState{}) {
			continue
		}
		// No call gives a CPU outside the node any state (cpuinfo.go):
		// such a slot is corrupt, and past the node's highest CPU it
		// has nowhere to go.
		if !nodeCPUs.IsSet(c) {
			return nil, fmt.Errorf("shmem: cpu %d is outside the node's CPUs %v but its cpuinfo slot is not zero", c, nodeCPUs)
		}
		m.cpus[c] = st
		m.live.Set(c)
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("shmem: %d trailing bytes after segment tables", len(data)-r.off)
	}
	return m, nil
}
