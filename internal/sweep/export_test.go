package sweep

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// StartsListing renders the per-job start times of every experiment
// in the golden-file format of the decision tests (policy, job name,
// submit, start — jobs sorted by name). It requires KeepJobs.
func (s Summary) StartsListing() string {
	var sb strings.Builder
	for _, r := range s.Results {
		rs := append([]metrics.JobRecord(nil), r.Records...)
		sort.Slice(rs, func(i, j int) bool { return rs[i].Name < rs[j].Name })
		for _, j := range rs {
			fmt.Fprintf(&sb, "%s %s %s %s\n", r.Policy, j.Name,
				strconv.FormatFloat(j.Submit, 'g', -1, 64),
				strconv.FormatFloat(j.Start, 'g', -1, 64))
		}
	}
	return sb.String()
}
