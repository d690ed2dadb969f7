package main

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/schedd"
	"repro/internal/workload"
)

// bootFlags boots schedd's live session from args.
func bootFlags(t *testing.T, args ...string) *workload.Session {
	t.Helper()
	fs := flag.NewFlagSet("schedd", flag.ContinueOnError)
	workload.RegisterFlags(fs, workload.ScheddFlags, bootDefaults)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	sess, err := boot(fs, "")
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// TestBootJobsZeroIsEmpty: -jobs 0 boots an empty cluster, as its flag
// help says, not the generator's default thousand jobs; advancing it
// completes nothing. The defaults boot the 200-job workload.
func TestBootJobsZeroIsEmpty(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-jobs", "0"}, `"completed":0,`},
		{nil, `"completed":200,`},
	} {
		sess := bootFlags(t, tc.args...)
		ts := httptest.NewServer(schedd.NewServer(sess, 1).Handler())
		resp, err := http.Post(ts.URL+"/advance", "application/json", strings.NewReader(`{"until":100000}`))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		ts.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), tc.want) {
			t.Errorf("%v: /advance answered %d %s (%v), want %s", tc.args, resp.StatusCode, body, err, tc.want)
		}
	}
}
