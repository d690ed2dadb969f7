// Package fl is scratchcontract-analyzer testdata for the free-list
// rule: an owner with a list of recycled records, a fork that starts
// its child with an empty list and allocates fresh (clean), and forks
// that copy the list, take from it through the pop helper, or push
// onto it.
package fl

type record struct{ seq int }

// Owner hands out records and takes them back when their job is done.
type Owner struct {
	live []*record
	// free holds the scrubbed records of finished jobs.
	//
	//simvet:freelist
	free  []*record
	spare []*record //simvet:freelist
}

// get pops a recycled record, or allocates.
func (o *Owner) get() *record {
	if n := len(o.free); n > 0 {
		r := o.free[n-1]
		o.free = o.free[:n-1]
		return r
	}
	return new(record)
}

// put scrubs r and parks it.
func (o *Owner) put(r *record) {
	*r = record{}
	o.spare = append(o.spare, r)
}

// alloc never looks at the lists.
func (o *Owner) alloc(seq int) *record { return &record{seq: seq} }

// Fork is the clean form: the child's lists are simply not mentioned,
// and every clone is a fresh allocation.
func (o *Owner) Fork() *Owner {
	f := &Owner{}
	forkJob := func(r *record) *record { return f.alloc(r.seq) }
	for _, r := range o.live {
		f.live = append(f.live, forkJob(r))
	}
	return f
}

// ForkShared copies the list: both lineages would hand out the same
// records.
func (o *Owner) ForkShared() *Owner {
	return &Owner{free: o.free} // want `mentions free list free` `mentions free list free`
}

// forkJob clones through the pop helper: the parent's recycled record
// ends up in the value the fork returns.
func (o *Owner) forkJob(r *record) *record {
	c := o.get() // want `calls get, which uses free list free`
	c.seq = r.seq
	return c
}

// ClonePolicy parks the original on the way out.
func (o *Owner) ClonePolicy(r *record) *record {
	c := o.alloc(r.seq)
	o.put(r) // want `calls put, which uses free list spare`
	return c
}

// Drain is no fork: it may use the lists freely.
func (o *Owner) Drain() int {
	n := len(o.free) + len(o.spare)
	o.free, o.spare = nil, nil
	return n
}
