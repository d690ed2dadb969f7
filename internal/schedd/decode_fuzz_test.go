package schedd

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// postEndpoints are the endpoints that decode a request body, in the
// order FuzzDecodeRequests' endpoint byte picks them.
var postEndpoints = []string{"/submit", "/cancel", "/malleable", "/advance"}

// FuzzDecodeRequests sends one arbitrary body to one POST endpoint of a
// live cluster that holds a projection. No body may get a 5xx reply,
// and after a 4xx the live state must read as before and the
// projection must still be held. oversize puts maxBody spaces (JSON
// whitespace) in front of the body, so an oversized body is a small
// corpus entry.
func FuzzDecodeRequests(f *testing.F) {
	sess, err := workload.NewSchedSession(testScenario(f), &sched.EASY{})
	if err != nil {
		f.Fatal(err)
	}
	sess.RunUntil(500)
	snap, err := sess.Fork() // never advanced: every Fork of it restores it
	if err != nil {
		f.Fatal(err)
	}
	spaces := bytes.Repeat([]byte{' '}, maxBody)
	f.Fuzz(func(t *testing.T, endpoint uint8, oversize bool, body []byte) {
		live, err := snap.Fork()
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(live, 1)
		srv.mu.Lock()
		p, _, err := srv.projectionLocked("")
		before := srv.stateLocked()
		srv.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		path := postEndpoints[int(endpoint)%len(postEndpoints)]
		var r io.Reader = bytes.NewReader(body)
		if oversize {
			r = io.MultiReader(bytes.NewReader(spaces), r)
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, r))
		if rec.Code >= 500 {
			t.Fatalf("POST %s %q: status %d: %s", path, body, rec.Code, rec.Body)
		}
		if rec.Code < 400 {
			return
		}
		srv.mu.Lock()
		after, kept := srv.stateLocked(), srv.proj[""] == p
		srv.mu.Unlock()
		if after != before {
			t.Errorf("POST %s %q: %d, but the live state moved: %+v -> %+v", path, body, rec.Code, before, after)
		}
		if !kept {
			t.Errorf("POST %s %q: %d, but the projection was dropped", path, body, rec.Code)
		}
	})
}
