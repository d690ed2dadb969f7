package dlb

import (
	"testing"

	"repro/internal/lewi"
)

func TestParseArgs(t *testing.T) {
	def := options{maxBorrow: -1, lewiPolicy: lewi.LendAllButOne}
	for _, tc := range []struct {
		args string
		want options
	}{
		{"", def},
		{"--drom --lewi --mode=async --max-borrow=4",
			options{drom: true, lewi: true, async: true, maxBorrow: 4, lewiPolicy: lewi.LendAllButOne}},
		{"--drom --no-drom --lewi-lend-all", options{maxBorrow: -1, lewiPolicy: lewi.LendAll}},
		{"--lewi --no-lewi --mode=async --mode=polling", def},
		{"--lewi-lend-all --lewi-keep-one-cpu", def},
	} {
		got, err := parseArgs(tc.args)
		if err != nil || got != tc.want {
			t.Errorf("parseArgs(%q) = %+v, %v; want %+v", tc.args, got, err, tc.want)
		}
	}
	for _, bad := range []string{"--bogus", "--max-borrow=x"} {
		if _, err := parseArgs(bad); err == nil {
			t.Errorf("parseArgs(%q) should fail", bad)
		}
	}
}
