package main

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// request is one HTTP call of a load schedule. Kind groups samples
// (whatif, advance, submit, state, cancel).
type request struct {
	kind   string
	method string
	path   string
	body   string
}

// sample is the client-side outcome of one request. ms runs from the
// instant the request was due — in an open loop that includes the
// time it waited because the generator or an earlier request held its
// connection — lateMs is how long after its due instant it was
// actually sent, and svcMs the rest: send to reply. body is kept only
// when the caller asked for replies.
type sample struct {
	kind   string
	ms     float64
	lateMs float64
	svcMs  float64
	ok     bool
	body   []byte
}

// loadgen drives an HTTP handler from inside the benchmark process.
// All load comes from here, over at most w connections.
type loadgen struct {
	client *http.Client
	base   string
}

func newLoadgen(base string, w int) *loadgen {
	return &loadgen{
		base: base,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     w,
			MaxIdleConnsPerHost: w,
		}},
	}
}

// do sends one request and reads the whole reply.
func (g *loadgen) do(req request) (int, []byte, error) {
	var body io.Reader
	if req.body != "" {
		body = strings.NewReader(req.body)
	}
	hr, err := http.NewRequest(req.method, g.base+req.path, body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := g.client.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// run issues requests gen(0..n-1) from w clients and returns one
// sample per request, in request order, plus the wall time of the
// whole batch. In a traced run every request is a span under tc's
// current one.
//
// With rate == 0 the loop is closed: a client sends its next request
// as soon as its previous one completed, so a slower server receives
// less load. With rate > 0 the loop is open: request i is due at
// start + i/rate whatever happened to the requests before it, and its
// latency is timed from that due instant — a stall is paid for by
// every request that came due during it.
func (g *loadgen) run(tc *traceCtx, w, n int, rate float64, keepBodies bool, gen func(i int) request) ([]sample, time.Duration) {
	samples := make([]sample, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < w; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				req := gen(i)
				due := time.Now()
				if rate > 0 {
					due = start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
					time.Sleep(time.Until(due))
				}
				id := tc.begin(req.kind, "schedd")
				sent := time.Now()
				status, body, err := g.do(req)
				done := time.Now()
				tc.end(id)
				s := sample{
					kind:   req.kind,
					ms:     done.Sub(due).Seconds() * 1e3,
					lateMs: sent.Sub(due).Seconds() * 1e3,
					svcMs:  done.Sub(sent).Seconds() * 1e3,
					ok:     err == nil && status/100 == 2,
				}
				if keepBodies {
					s.body = body
				}
				samples[i] = s
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// latencies returns the latency of every successful sample whose kind
// passes the filter.
func latencies(samples []sample, keep func(kind string) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if s.ok && keep(s.kind) {
			out = append(out, s.ms)
		}
	}
	return out
}

func isWhatIf(kind string) bool   { return kind == "whatif" }
func isMutation(kind string) bool { return kind != "whatif" }

// failures counts samples that did not get a 2xx reply.
func failures(samples []sample) int64 {
	var n int64
	for _, s := range samples {
		if !s.ok {
			n++
		}
	}
	return n
}
