package mpisim

import "sync"

// Additional intercepted calls for the nonblocking and rooted
// operations.
const (
	CallIsend Call = "MPI_Isend"
	CallIrecv Call = "MPI_Irecv"
)

// Intercepted calls of the rooted reference operations.
//
//simvet:testonly reference MPI call no example makes; its tests pin it
const (
	CallWait    Call = "MPI_Wait"
	CallReduce  Call = "MPI_Reduce"
	CallScatter Call = "MPI_Scatter"
)

// Request is a handle to an in-flight nonblocking operation
// (MPI_Request). Wait blocks until completion and returns the received
// payload for receive requests (nil for sends).
//
//simvet:testonly reference MPI call no example makes; its tests pin it
type Request struct {
	once sync.Once
	done chan struct{}
	data interface{}
	rank *Rank
}

// Wait blocks until the operation completes (MPI_Wait). It is an
// interception (and therefore DLB polling / LeWI lending) point.
func (r *Request) Wait() interface{} {
	r.rank.intercept(CallWait, func() {
		<-r.done
	})
	return r.data
}

// Test reports whether the operation has completed without blocking.
func (r *Request) Test() bool {
	select {
	case <-r.done:
		return true
	default:
		return false
	}
}

// Isend starts a nonblocking send (MPI_Isend). The message is buffered
// immediately; the request completes as soon as it is enqueued, like a
// buffered-mode send.
//
//simvet:testonly reference MPI call no example makes; its tests pin it
func (r *Rank) Isend(to, tag int, data interface{}) *Request {
	req := &Request{done: make(chan struct{}), rank: r}
	r.intercept(CallIsend, func() {
		r.world.mailboxes[to].put(message{src: r.rank, tag: tag, data: data})
		close(req.done)
	})
	return req
}

// Irecv starts a nonblocking receive (MPI_Irecv): a background matcher
// waits for the message; Wait returns the payload.
//
//simvet:testonly reference MPI call no example makes; its tests pin it
func (r *Rank) Irecv(from, tag int) *Request {
	req := &Request{done: make(chan struct{}), rank: r}
	r.intercept(CallIrecv, func() {
		go func() {
			m := r.world.mailboxes[r.rank].get(from, tag)
			req.data = m.data
			close(req.done)
		}()
	})
	return req
}

// Sendrecv performs a combined send and receive (MPI_Sendrecv): the
// send is buffered first, so symmetric exchanges cannot deadlock.
//
//simvet:testonly reference MPI call no example makes; its tests pin it
func (r *Rank) Sendrecv(to, sendTag int, data interface{}, from, recvTag int) interface{} {
	r.Send(to, sendTag, data)
	return r.Recv(from, recvTag)
}

// Waitall waits on every request (MPI_Waitall) and returns the
// received payloads in order.
//
//simvet:testonly reference MPI call no example makes; its tests pin it
func Waitall(reqs ...*Request) []interface{} {
	out := make([]interface{}, len(reqs))
	for i, req := range reqs {
		out[i] = req.Wait()
	}
	return out
}

// Reduce combines v across all ranks with op; only root receives the
// result, other ranks get 0 (MPI_Reduce).
//
//simvet:testonly reference MPI call no example makes; its tests pin it
func (r *Rank) Reduce(root int, op Op, v float64) float64 {
	var out float64
	r.intercept(CallReduce, func() {
		w := r.world
		if r.rank == root {
			acc := v
			for i := 0; i < w.size-1; i++ {
				m := w.mailboxes[root].get(AnySource, tagReduce)
				acc = op(acc, m.data.(float64))
			}
			out = acc
		} else {
			w.mailboxes[root].put(message{src: r.rank, tag: tagReduce, data: v})
		}
	})
	return out
}

// Scatter distributes data[i] from root to rank i and returns each
// rank's element (MPI_Scatter). Non-root ranks pass nil.
//
//simvet:testonly reference MPI call no example makes; its tests pin it
func (r *Rank) Scatter(root int, data []interface{}) interface{} {
	var out interface{}
	r.intercept(CallScatter, func() {
		w := r.world
		if r.rank == root {
			if len(data) != w.size {
				panic("mpisim: Scatter data length must equal world size")
			}
			for i := 0; i < w.size; i++ {
				if i == root {
					out = data[i]
					continue
				}
				w.mailboxes[i].put(message{src: root, tag: tagScatter, data: data[i]})
			}
		} else {
			out = w.mailboxes[r.rank].get(root, tagScatter).data
		}
	})
	return out
}
