package mpisim

import "sync"

// CallSplit is the communicator-split interception point.
//
//simvet:testonly reference MPI call no example makes; its tests pin it
const CallSplit Call = "MPI_Comm_split"

// Comm is a sub-communicator created by Split: a subset of the world's
// ranks with its own rank numbering and collectives. It reuses the
// world's mailboxes through rank translation, so point-to-point and
// collective operations work identically.
//
//simvet:testonly reference MPI call no example makes; its tests pin it
type Comm struct {
	world *World
	// members maps communicator rank -> world rank.
	members []int
	// myRank is this handle's rank within the communicator.
	myRank int

	barrier *commBarrier
}

// commBarrier is shared by all handles of one communicator.
type commBarrier struct {
	mu   sync.Mutex
	cond *sync.Cond
	cnt  int
	gen  int
}

// splitState collects the (color, key) of every rank during a split.
type splitState struct {
	mu      sync.Mutex
	cond    *sync.Cond
	entries map[int][2]int // world rank -> (color, key)
	arrived int
	gen     int
	// result per generation: world rank -> *Comm template (members)
	members map[int][]int
	bars    map[int]*commBarrier
}

// Split partitions the world by color (MPI_Comm_split): ranks passing
// the same color form a communicator, ordered by key (ties by world
// rank). Every rank of the world must call Split. Returns this rank's
// handle in its new communicator.
//
//simvet:testonly reference MPI call no example makes; its tests pin it
func (r *Rank) Split(color, key int) *Comm {
	var out *Comm
	r.intercept(CallSplit, func() {
		w := r.world
		w.splitMu.Lock()
		if w.split == nil {
			w.split = &splitState{
				entries: make(map[int][2]int),
				members: make(map[int][]int),
				bars:    make(map[int]*commBarrier),
			}
			w.split.cond = sync.NewCond(&w.split.mu)
		}
		st := w.split
		w.splitMu.Unlock()

		st.mu.Lock()
		st.entries[r.rank] = [2]int{color, key}
		st.arrived++
		if st.arrived == w.size {
			// Last arrival computes the partition.
			byColor := map[int][]int{}
			for wr, ck := range st.entries {
				byColor[ck[0]] = append(byColor[ck[0]], wr)
			}
			for c, ranks := range byColor {
				sortByKey(ranks, st.entries)
				st.members[c] = ranks
				st.bars[c] = newCommBarrier()
			}
			st.arrived = 0
			st.entries = make(map[int][2]int)
			st.gen++
			st.cond.Broadcast()
		} else {
			gen := st.gen
			for gen == st.gen {
				st.cond.Wait()
			}
		}
		members := st.members[color]
		bar := st.bars[color]
		st.mu.Unlock()

		myRank := -1
		for i, wr := range members {
			if wr == r.rank {
				myRank = i
			}
		}
		out = &Comm{world: w, members: members, myRank: myRank, barrier: bar}
	})
	return out
}

func newCommBarrier() *commBarrier {
	b := &commBarrier{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func sortByKey(ranks []int, entries map[int][2]int) {
	for i := 1; i < len(ranks); i++ {
		for j := i; j > 0; j-- {
			a, b := ranks[j-1], ranks[j]
			ka, kb := entries[a][1], entries[b][1]
			if ka > kb || (ka == kb && a > b) {
				ranks[j-1], ranks[j] = ranks[j], ranks[j-1]
			} else {
				break
			}
		}
	}
}

// RankID returns this handle's rank within the communicator.
func (c *Comm) RankID() int { return c.myRank }

// Size returns the communicator size.
func (c *Comm) Size() int { return len(c.members) }

// worldRank translates a communicator rank to the world rank.
func (c *Comm) worldRank(commRank int) int { return c.members[commRank] }

// tag space for sub-communicator traffic, keyed away from world tags.
const commTagBase = -2000

// Send delivers data to communicator rank `to`.
func (c *Comm) Send(to, tag int, data interface{}) {
	r := c.world.ranks[c.worldRank(c.myRank)]
	r.Send(c.worldRank(to), commTagBase-tag, data)
}

// Recv receives from communicator rank `from` (no wildcards).
func (c *Comm) Recv(from, tag int) interface{} {
	r := c.world.ranks[c.worldRank(c.myRank)]
	return r.Recv(c.worldRank(from), commTagBase-tag)
}

// Barrier blocks until every member of the communicator arrives.
func (c *Comm) Barrier() {
	r := c.world.ranks[c.worldRank(c.myRank)]
	r.intercept(CallBarrier, func() {
		b := c.barrier
		b.mu.Lock()
		gen := b.gen
		b.cnt++
		if b.cnt == len(c.members) {
			b.cnt = 0
			b.gen++
			b.cond.Broadcast()
		} else {
			for gen == b.gen {
				b.cond.Wait()
			}
		}
		b.mu.Unlock()
	})
}

// Allreduce combines v across the communicator members.
func (c *Comm) Allreduce(op Op, v float64) float64 {
	r := c.world.ranks[c.worldRank(c.myRank)]
	var out float64
	r.intercept(CallAllreduce, func() {
		root := c.worldRank(0)
		w := c.world
		if c.myRank == 0 {
			acc := v
			for i := 0; i < len(c.members)-1; i++ {
				m := w.mailboxes[root].get(AnySource, commTagBase-tagReduce)
				acc = op(acc, m.data.(float64))
			}
			for i := 1; i < len(c.members); i++ {
				w.mailboxes[c.worldRank(i)].put(message{src: root, tag: commTagBase - tagReduce, data: acc})
			}
			out = acc
		} else {
			w.mailboxes[root].put(message{src: r.rank, tag: commTagBase - tagReduce, data: v})
			out = w.mailboxes[r.rank].get(root, commTagBase-tagReduce).data.(float64)
		}
	})
	return out
}
