package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestCSVHeader(t *testing.T) {
	tr := New()
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "job,rank,thread,cpu,t0,t1,state,ipc,cycles_per_us") {
		t.Errorf("header = %q", buf.String())
	}
}
