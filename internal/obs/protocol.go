package obs

import "fmt"

// Protocol is the Figure-2 protocol log as a consumer of the bus: one
// text line per protocol step (KindProtocol) and per event of another
// kind the log has always listed — preemptions, committed spills, node
// state changes, requeues, abnormal job ends — rendered from what those
// events carry. Read Lines once the replay ends.
type Protocol struct {
	Lines []string
}

// Emit implements Probe.
func (p *Protocol) Emit(ev Event) {
	step, detail := ev.Step.String(), ""
	switch {
	case ev.Kind == KindProtocol:
		switch ev.Step {
		case StepLaunchRequest:
			detail = fmt.Sprintf("job %s: %d new task(s), %d victim shrink(s) planned", ev.Job, ev.Target, ev.Running)
		case StepPreLaunch:
			detail = fmt.Sprintf("DROM_PreInit(pid=%d, mask=%s, STEAL)", ev.PID, ev.Mask)
		case StepPostTerm:
			detail = fmt.Sprintf("DROM_PostFinalize(pid=%d, RETURN_STOLEN)", ev.PID)
		case StepReleaseResources:
			detail = fmt.Sprintf("DROM_SetProcessMask(pid=%d, mask=%s) [expand]", ev.PID, ev.Mask)
		case StepPreLaunchRetry:
			detail = fmt.Sprintf("DROM_PreInit(pid=%d) retry after registry fault", ev.PID)
		case StepSchedShrink, StepSchedExpand:
			detail = fmt.Sprintf("DROM_SetProcessMask(pid=%d, mask=%s) [%s]", ev.PID, ev.Mask, ev.Job)
		}
	case ev.Kind == KindAction && ev.Act == ActPreempt:
		step, detail = "preempt", fmt.Sprintf("job %s checkpointed", ev.Job)
	case ev.Kind == KindAction && ev.Reason == ReasonSpilled:
		step, detail = "spillover", fmt.Sprintf("job %s re-routed %s -> %s", ev.Job, ev.Origin, ev.Partition)
	case ev.Kind == KindNodeDown && ev.Outcome == "drain":
		step, detail = "node_drain", "node draining"
	case ev.Kind == KindNodeDown:
		step, detail = "node_down", "node failed"
	case ev.Kind == KindNodeUp && ev.Outcome == "drain-end":
		step, detail = "node_drain_end", "node back in service"
	case ev.Kind == KindNodeUp:
		step, detail = "node_up", "node repaired"
	case ev.Kind == KindRequeue:
		step, detail = "requeue", fmt.Sprintf("job %s requeued (attempt %d)", ev.Job, ev.Target)
	case ev.Kind == KindJobEnd && ev.Outcome != "completed":
		step, detail = "job_end", fmt.Sprintf("job %s %s", ev.Job, ev.Outcome)
	default:
		return
	}
	p.Lines = append(p.Lines, fmt.Sprintf("t=%8.1fs %-6s %-17s %s", ev.Time, ev.Placement, step, detail))
}
