package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro/dlb"
	"repro/drom"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/cpuset"
	"repro/internal/derr"
	"repro/internal/hwmodel"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/shmem"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// The ledger is the second half of every traced run: isolated drivers
// that call one layer's public functions in a loop at fixed sizes and
// report what one operation costs. It is the same whatever workload
// the run is for, so every workload's ledger shows a change to a
// layer, and the in-situ shares of the workload's own traced trial say
// how much of that workload the layer is.
//
// Each driver runs inside a span named after it, in its layer.

// sink keeps results alive so the compiler cannot drop a measured
// call.
var sink float64

// perOp times n calls of fn and returns nanoseconds per call.
func perOp(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// ledger runs every driver and returns its metrics by name.
func ledger(e *env, tr *tracer) (map[string]float64, error) {
	m := make(map[string]float64)
	root := tr.begin(0, "ledger", "harness")
	defer tr.end(root)
	tc := &traceCtx{tr: tr, parent: root}
	for _, driver := range []func(*env, *traceCtx, map[string]float64) error{
		ledgerIngest, ledgerUnitCosts, ledgerFileExchange, ledgerController,
		ledgerPaper, ledgerSweep, ledgerSchedd,
	} {
		if err := driver(e, tc, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// ledgerIngest times trace-in: generating, parsing and mapping the
// backlog regime's trace, per job (median of three).
func ledgerIngest(e *env, tc *traceCtx, m map[string]float64) error {
	n := e.sz.LedgerJobs * 4
	var genNs, parseNs, mapNs []float64
	for rep := 0; rep < 3; rep++ {
		var trace, parsed []workload.SWFJob
		var cluster hwmodel.ClusterSpec
		var err error
		t0 := time.Now()
		tc.span("generate", "workload", func() { trace, cluster = backlogTrace(e.seed, n) })
		t1 := time.Now()
		text := workload.FormatSWF(trace)
		t2 := time.Now()
		tc.span("parse", "workload", func() { parsed, err = workload.ParseSWF(strings.NewReader(text)) })
		if err != nil {
			return err
		}
		t3 := time.Now()
		tc.span("map", "workload", func() { _, _, err = workload.SWFScenario(parsed, workload.SWFOptions{Cluster: cluster}) })
		if err != nil {
			return err
		}
		t4 := time.Now()
		genNs = append(genNs, float64(t1.Sub(t0).Nanoseconds())/float64(n))
		parseNs = append(parseNs, float64(t3.Sub(t2).Nanoseconds())/float64(n))
		mapNs = append(mapNs, float64(t4.Sub(t3).Nanoseconds())/float64(n))
	}
	m["workload.generate_ns_per_job"] = median(genNs)
	m["workload.swf_parse_ns_per_job"] = median(parseNs)
	m["workload.map_ns_per_job"] = median(mapNs)
	return nil
}

// replaySpec is the application model the SWF replays run, taken from
// a mapped job so the ledger measures what the replays execute.
func replaySpec() (apps.Spec, error) {
	sc, err := workload.SyntheticSWFScenario(workload.SyntheticSWF{Seed: 1, Jobs: 1})
	if err != nil {
		return apps.Spec{}, err
	}
	return sc.Subs[0].Job.Spec, nil
}

// instanceIterNs runs one standalone application instance — one rank
// of eight threads on a private engine and registry — for iters
// iterations and returns wall nanoseconds per iteration. With
// maskEvery > 0 an administrator stages a new mask every maskEvery-th
// iteration, so the instance's polls apply a change instead of coming
// back clean.
func instanceIterNs(spec apps.Spec, iters, maskEvery int) (float64, error) {
	eng := sim.NewEngine()
	machine := hwmodel.MN3()
	reg := shmem.NewRegistry()
	sys := core.NewSystem(reg.MustOpen("node0", machine.NodeMask(), 0))
	admin, code := sys.Attach()
	if code.IsError() {
		return 0, fmt.Errorf("attach: %v", code)
	}
	spec.InitSeconds = 0
	pid := reg.AllocPID()
	wide, narrow := cpuset.Range(0, 7), cpuset.Range(0, 3)
	pl := []apps.Placement{{Node: "node0", Sys: sys, PID: pid, InitialMask: wide}}
	inst, err := apps.NewInstance(spec, apps.Config{Ranks: 1, Threads: 8}, iters, "ledger", eng, apps.NewDemandTable(machine), nil, pl)
	if err != nil {
		return 0, err
	}
	if err := inst.Start(); err != nil {
		return 0, err
	}
	staged := 0
	t0 := time.Now()
	for eng.Step() {
		if maskEvery > 0 && inst.ItersDone() >= staged+maskEvery {
			staged = inst.ItersDone()
			mask := wide
			if staged/maskEvery%2 == 1 {
				mask = narrow
			}
			if code := admin.SetProcessMask(pid, mask, core.FlagNone); code.IsError() {
				return 0, fmt.Errorf("SetProcessMask: %v", code)
			}
		}
	}
	wall := time.Since(t0)
	if !inst.Completed() {
		return 0, fmt.Errorf("standalone instance did not complete (%d of %d iterations)", inst.ItersDone(), iters)
	}
	return float64(wall.Nanoseconds()) / float64(iters), nil
}

// ledgerUnitCosts times the in-memory hot-path operations of sim,
// apps, core, cpuset and metrics.
func ledgerUnitCosts(e *env, tc *traceCtx, m map[string]float64) error {
	n := e.sz.MicroOps
	spec, err := replaySpec()
	if err != nil {
		return err
	}

	// sim: one push and one pop on a heap holding 8 other events, about
	// what a replay's engine holds (sim.pending is the session's depth
	// at its midpoint: one event per running job and the next arrival).
	tc.span("pushpop", "sim", func() {
		eng := sim.NewEngine()
		noop := func() {}
		for i := 0; i < 8; i++ {
			eng.At(1e18+float64(i), noop)
		}
		m["sim.pushpop_ns"] = perOp(n, func(int) {
			eng.After(1, noop)
			eng.Step()
		})
	})

	tc.span("itertime", "apps", func() {
		env := apps.RankEnv{Chunks: 8, BWSlowdown: 1, CPUShare: 1}
		m["apps.itertime_ns"] = perOp(n, func(i int) {
			env.Threads = 1 + i%8
			sink += spec.IterTime(env)
		})
	})
	tc.span("iterate", "apps", func() { m["apps.iter_ns"], err = instanceIterNs(spec, n, 0) })
	if err != nil {
		return err
	}
	tc.span("iterate-masked", "apps", func() { m["apps.iter_ns_masked"], err = instanceIterNs(spec, n, 8) })
	if err != nil {
		return err
	}

	// core: a clean poll, a full mask exchange, a full launch.
	reg := shmem.NewRegistry()
	node := hwmodel.MN3().NodeMask()
	sys := core.NewSystem(reg.MustOpen("node0", node, 0))
	admin, code := sys.Attach()
	if code.IsError() {
		return fmt.Errorf("attach: %v", code)
	}
	pid := reg.AllocPID()
	wide, narrow := cpuset.Range(0, 7), cpuset.Range(0, 3)
	if _, code := sys.Register(pid, wide); code.IsError() {
		return fmt.Errorf("register: %v", code)
	}
	var bad derr.Code
	tc.span("poll", "core", func() {
		m["core.poll_ns"] = perOp(n, func(int) {
			if _, code := sys.Poll(pid); code != derr.NoUpdate {
				bad = code
			}
		})
	})
	tc.span("exchange", "core", func() {
		m["core.exchange_ns"] = perOp(n, func(i int) {
			mask := narrow
			if i%2 == 1 {
				mask = wide
			}
			if code := admin.SetProcessMask(pid, mask, core.FlagNone); code.IsError() {
				bad = code
			}
			if _, code := sys.Poll(pid); code != derr.Success {
				bad = code
			}
		})
	})
	tc.span("launch", "core", func() {
		free := cpuset.Range(8, 15)
		m["core.launch_ns"] = perOp(n, func(int) {
			p := reg.AllocPID()
			if code := admin.PreInit(p, free, core.FlagNone); code.IsError() {
				bad = code
			}
			if _, code := sys.Register(p, free); code.IsError() {
				bad = code
			}
			if code := admin.PostFinalize(p, core.FlagNone); code.IsError() {
				bad = code
			}
		})
	})
	if bad != derr.Success {
		return fmt.Errorf("core driver: unexpected status %v", bad)
	}

	tc.span("ops", "cpuset", func() {
		a, b, c := cpuset.Range(0, 11), cpuset.Range(4, 15), cpuset.Range(2, 9)
		m["cpuset.op_ns"] = perOp(n, func(i int) {
			a.Set(i % 16)
			sink += float64(a.And(b).Or(c).Count())
			a.Clear(i % 16)
		}) / 3
	})

	tc.span("add", "metrics", func() {
		rec := metrics.JobRecord{Name: "j00001", Submit: 1, Start: 2, End: 30, Partition: "batch"}
		var full, agg metrics.Workload
		agg.SetAggregate()
		m["metrics.add_ns"] = perOp(n, func(int) { full.Add(rec) })
		m["metrics.add_agg_ns"] = perOp(n, func(int) { agg.Add(rec) })
	})
	return nil
}

// ledgerFileExchange times the same mask exchange as core.exchange_ns
// through the public dlb/drom API on the file-backed shmem backend.
// The file backend is the cross-process transport, never a replay
// path, so this moves no end-to-end metric; it is recorded so that a
// change to it is visible.
func ledgerFileExchange(e *env, tc *traceCtx, m map[string]float64) error {
	dir, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fb, err := shmem.NewFileBackend(dir)
	if err != nil {
		return err
	}
	reg := shmem.NewRegistryWith(fb)
	defer reg.Close()
	node, err := dlb.NewNodeReg("ledger0", 16, reg)
	if err != nil {
		return err
	}
	p, err := dlb.Init(node, 0, dlb.CPURange(0, 15), "--drom")
	if err != nil {
		return err
	}
	defer p.Finalize()
	admin, err := drom.Attach(node)
	if err != nil {
		return err
	}
	defer admin.Detach()
	narrow, wide := dlb.CPURange(0, 7), dlb.CPURange(0, 15)
	tc.span("file-exchange", "shmem", func() {
		m["shmem.file_exchange_us"] = perOp(max(50, e.sz.MicroOps/500), func(i int) {
			mask := narrow
			if i%2 == 1 {
				mask = wide
			}
			if xerr := admin.SetProcessMask(p.PID(), mask, drom.None); xerr != nil {
				err = xerr
			}
			if _, _, ok, xerr := p.PollDROM(); xerr != nil || !ok {
				err = fmt.Errorf("file-backed poll: applied=%v err=%v", ok, xerr)
			}
		}) / 1e3
	})
	return err
}

// ledgerController replays the head of the backlog regime's trace
// under the probe and reports what one scheduling cycle and one
// Schedule() call cost under a standing backlog.
func ledgerController(e *env, tc *traceCtx, m map[string]float64) error {
	sc, err := backlogScenario(nil, e.seed, e.sz.LedgerJobs)
	if err != nil {
		return err
	}
	ps, err := sched.ParsePolicySet("batch=easy,fat=malleable-expand")
	if err != nil {
		return err
	}
	probe := newCycleProbe(nil)
	sc.Probe = probe
	var res workload.Result
	tc.span("backlog-replay", "slurm", func() { res = workload.RunSchedSet(sc, ps) })
	if res.Err != nil {
		return res.Err
	}
	m["slurm.cycle_p50_us"] = median(probe.cycleNs) / 1e3
	m["slurm.cycle_p99_us"] = percentile(probe.cycleNs, 99) / 1e3
	m["sched.schedule_p50_us"] = median(probe.passNs) / 1e3
	m["sched.schedule_p99_us"] = percentile(probe.passNs, 99) / 1e3
	return nil
}

// ledgerPaper runs the paper pass once for its gap to the paper's
// figures, and UC2 traced against untraced for what trace.Tracer
// costs.
func ledgerPaper(e *env, tc *traceCtx, m map[string]float64) error {
	p := &paperUC{e: e}
	if err := p.setup(nil); err != nil {
		return err
	}
	var out trialOut
	var err error
	tc.span("paper-pass", "workload", func() { out, err = p.trial(nil) })
	if err != nil {
		return err
	}
	m["paper.gain_err_pp"] = out.obs.GainErrPP
	m["paper.claims_failed"] = float64(out.failed)

	var traced, plain []float64
	records := 0
	tc.span("uc2-traced-vs-plain", "trace", func() {
		for rep := 0; rep < 5; rep++ {
			t0 := time.Now()
			serial, drom := workload.Compare(workload.UC2(true))
			t1 := time.Now()
			workload.Compare(workload.UC2(false))
			t2 := time.Now()
			traced = append(traced, t1.Sub(t0).Seconds())
			plain = append(plain, t2.Sub(t1).Seconds())
			records = len(serial.Tracer.Segments()) + len(drom.Tracer.Segments())
		}
	})
	m["trace.records"] = float64(records)
	m["trace.overhead_frac"] = median(traced)/median(plain) - 1
	return nil
}

// ledgerSweep runs sweep_grid's grid at ledger size on W workers and
// on one, and times the serial scenario build that Run does before it
// fans out, on its own.
func ledgerSweep(e *env, tc *traceCtx, m map[string]float64) error {
	grid := sweep.Grid{Policies: sched.Names(), Seeds: []int64{e.seed, e.seed + 1}, Jobs: e.sz.LedgerJobs, Nodes: 4}
	var err error
	tc.span("scenario-build", "sweep", func() {
		t0 := time.Now()
		for _, seed := range grid.Seeds {
			if _, err = workload.SyntheticSWFScenario(workload.SyntheticSWF{Seed: seed, Jobs: grid.Jobs, Nodes: 4}); err != nil {
				return
			}
		}
		m["sweep.scenario_build_s"] = time.Since(t0).Seconds()
	})
	if err != nil {
		return err
	}
	var atW, at1 sweep.Summary
	tc.span("run-w", "sweep", func() { atW, err = sweep.Run(grid, e.w) })
	if err != nil {
		return err
	}
	tc.span("run-1", "sweep", func() { at1, err = sweep.Run(grid, 1) })
	if err != nil {
		return err
	}
	cells := make([]float64, len(atW.Results))
	for i, r := range atW.Results {
		cells[i] = r.WallSeconds
	}
	m["sweep.wall_w1_s"] = at1.WallSeconds
	m["sweep.speedup"] = at1.WallSeconds / atW.WallSeconds
	m["sweep.efficiency"] = at1.WallSeconds / atW.WallSeconds / float64(e.w)
	m["sweep.cell_p50_s"] = median(cells)
	m["sweep.cell_max_s"] = percentile(cells, 100)
	return nil
}

// ledgerSchedd takes the what-if service apart: session boot, the
// three forks under a what-if, the forward run to the candidate's
// start called directly, each endpoint from one client, and an open
// loop of the run's length for the tails that need its sample count.
func ledgerSchedd(e *env, tc *traceCtx, m map[string]float64) error {
	var s *scheddEnv
	var err error
	tc.span("session-boot", "workload", func() {
		t0 := time.Now()
		s, err = bootSchedd(e, nil)
		m["workload.session_boot_s"] = time.Since(t0).Seconds()
	})
	if err != nil {
		return err
	}
	defer s.close()
	eng, ctl := s.sess.Engine(), s.sess.Controller()
	m["sim.pending"] = float64(eng.Pending())
	reps := max(20, e.sz.MicroOps/2000)

	// The forks under a what-if, outermost first. The registry is not
	// reachable from outside, so shmem.fork_us forks one rebuilt to the
	// session's shape: the same nodes with as many registered processes.
	var forkUs, engUs, regUs []float64
	reg := shmem.NewRegistry()
	for _, name := range ctl.Cluster().Nodes {
		live := ctl.Cluster().System(name).Segment()
		seg := reg.MustOpen(name, live.NodeCPUs(), 0)
		for _, entry := range live.Snapshot() {
			seg.Register(reg.AllocPID(), entry.CurrentMask)
		}
	}
	tc.span("forks", "workload", func() {
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			if _, err = s.sess.Fork(); err != nil {
				return
			}
			t1 := time.Now()
			eng.Fork()
			t2 := time.Now()
			reg.Fork()
			t3 := time.Now()
			forkUs = append(forkUs, t1.Sub(t0).Seconds()*1e6)
			engUs = append(engUs, t2.Sub(t1).Seconds()*1e6)
			regUs = append(regUs, t3.Sub(t2).Seconds()*1e6)
		}
	})
	if err != nil {
		return err
	}
	m["workload.session_fork_us"] = median(forkUs)
	m["sim.fork_us"] = median(engUs)
	m["shmem.fork_us"] = median(regUs)

	// The forward run, called directly: fork, stop at the candidate's
	// start, count the events it took.
	var fwdMs, fwdEvents []float64
	tc.span("forward", "sim", func() {
		for i := 0; i < reps; i++ {
			var fork *workload.Session
			if fork, err = s.sess.Fork(); err != nil {
				return
			}
			name, feng := s.candidates[i%len(s.candidates)], fork.Engine()
			fork.Controller().Probe = obs.Func(func(ev obs.Event) {
				if ev.Kind == obs.KindJobStart && ev.Job == name {
					feng.Stop()
				}
			})
			t0 := time.Now()
			feng.Run()
			fwdMs = append(fwdMs, time.Since(t0).Seconds()*1e3)
			fwdEvents = append(fwdEvents, float64(feng.Processed()-eng.Processed()))
		}
	})
	if err != nil {
		return err
	}
	m["schedd.forward_ms"] = median(fwdMs)
	m["schedd.events_per_whatif"] = sum(fwdEvents) / float64(len(fwdEvents))

	// The open loop, long enough for the tails to have ten samples
	// beyond them. It goes first because its schedule starts at the
	// session's first cycle.
	var samples []sample
	tc.span("mixed", "schedd", func() { samples, err = s.mixed(tc, int(e.sz.Rate*e.sz.LedgerMixedSeconds), e.sz.Rate) })
	if err != nil {
		return err
	}
	if f := failures(samples); f > 0 {
		return fmt.Errorf("ledger: %d of %d open-loop requests failed", f, len(samples))
	}
	whatIfs, mutations := latencies(samples, isWhatIf), latencies(samples, isMutation)
	late := make([]float64, len(samples))
	for i, smp := range samples {
		late[i] = smp.lateMs
	}
	m["schedd.whatif_p90_ms"] = percentile(whatIfs, 90)
	m["schedd.whatif_p99_ms"] = percentile(whatIfs, 99)
	m["schedd.mutation_p95_ms"] = percentile(mutations, 95)
	m["schedd.late_p99_ms"] = percentile(late, 99)

	// Each endpoint from one client, nothing else in flight.
	one := func(name string, n int, gen func(i int) request) (float64, error) {
		var samples []sample
		tc.span(name, "schedd", func() { samples, _ = s.gen.run(tc, 1, n, 0, false, gen) })
		if f := failures(samples); f > 0 {
			return 0, fmt.Errorf("ledger: %d of %d %s requests failed", f, n, name)
		}
		return median(latencies(samples, func(string) bool { return true })), nil
	}
	whatIfMs, err := one("whatif-1client", reps, s.whatIf)
	if err != nil {
		return err
	}
	m["schedd.http_overhead_us"] = whatIfMs*1e3 - m["workload.session_fork_us"] - m["schedd.forward_ms"]*1e3
	next := (s.mixedSent + mixedCycle - 1) / mixedCycle // first cycle the open loop did not touch
	for _, ep := range []struct {
		metric string
		scale  float64
		slot   int // position of the endpoint in the mixed schedule's cycle
		ahead  int // cycles ahead of the submit walk
	}{
		{"schedd.submit_us", 1e3, 9, 0}, {"schedd.state_us", 1e3, 14, 0},
		{"schedd.cancel_us", 1e3, 19, 1}, {"schedd.advance_ms", 1, 4, 0},
	} {
		// Walk the mixed schedule's own requests of that kind from where
		// the open loop stopped, so advances keep moving forward and the
		// i-th cancel, which names the cycle before its own, removes
		// what the i-th submit added.
		ms, err := one(ep.metric, reps, func(i int) request { return s.mixedRequest((next+i+ep.ahead)*mixedCycle + ep.slot) })
		if err != nil {
			return err
		}
		m[ep.metric] = ms * ep.scale
	}

	return nil
}
