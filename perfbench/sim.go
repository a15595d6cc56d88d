package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"quanterference/internal/core"
	"quanterference/internal/fault"
	"quanterference/internal/hw"
	"quanterference/internal/obs"
	"quanterference/internal/sim"
	"quanterference/internal/workload/apps"
	"quanterference/internal/workload/dlio"
	"quanterference/internal/workload/io500"
)

// Nodes of the paper topology (lustre.PaperTopology): targets run on c0/c1,
// interference on the other five clients.
var (
	targetNodes = []string{"c0", "c1"}
	interfNodes = []string{"c2", "c3", "c4", "c5", "c6"}
)

// simCase is one scenario of the sim-interference list. build returns a
// fresh scenario each call, so no generator state is shared between runs.
type simCase struct {
	name  string
	build func() core.Scenario
}

// stallAll freezes every OST's dispatch for dur from start: whichever OSTs
// the target's files landed on, its RPCs time out and retry.
func stallAll(start, dur sim.Time) []fault.Spec {
	specs := make([]fault.Spec, 6)
	for i := range specs {
		specs[i] = fault.Spec{Kind: fault.OSTStall, Target: fmt.Sprintf("ost%d", i), Start: start, Duration: dur}
	}
	return specs
}

// simCases is the seeded scenario list. Its shape is fixed — which tasks,
// sizes, profiles (paper, nvme, burst buffer) and faults — so every seed
// costs about the same; the seed picks the details: OST placement skew,
// interference arrival offsets, fault targets, application seeds and the
// list order.
//
// Short cases (a few MiB or a few dozen files) are dominated by per-run
// set-up; long ones by the event loop. Footprints straddle the OST
// write-back limit (16 MiB per OST, 96 MiB over six) and the MDS inode
// cache (4096 entries).
func simCases(seed int64) []simCase {
	rng := rand.New(rand.NewSource(seed))
	paper, nvme, bbuf := hw.PaperProfile(), hw.NVMeProfile(), hw.BurstBufferProfile()
	skew := func() int { return rng.Intn(6) }
	start := func() sim.Time { return sim.Time(rng.Intn(50)) * sim.Millisecond }
	ost := func() string { return fmt.Sprintf("ost%d", rng.Intn(6)) }

	type target struct {
		task  io500.Task
		ranks int
		p     io500.Params
	}
	ior := func(t io500.Task, ranks int, p io500.Params) target { return target{t, ranks, p} }
	type spec struct {
		name   string
		prof   hw.Profile
		tgt    func(dir string) core.TargetSpec
		interf []target
		faults []fault.Spec
		rpcTO  sim.Time
	}
	io5 := func(t target) func(string) core.TargetSpec {
		return func(dir string) core.TargetSpec {
			p := t.p
			p.Dir, p.Ranks = dir, t.ranks
			return core.TargetSpec{Gen: io500.New(t.task, p), Nodes: targetNodes, Ranks: t.ranks}
		}
	}
	small := io500.Params{EasyFileBytes: 4 << 20, HardOps: 40, MdtFiles: 30}
	interf := io500.Params{EasyFileBytes: 16 << 20, HardOps: 100, MdtFiles: 100}
	dlioSeed, appSeed := rng.Int63(), rng.Int63()

	specs := []spec{
		// Short runs: set-up dominates.
		{name: "short-easy-write", prof: paper, tgt: io5(ior(io500.IorEasyWrite, 2, small)),
			interf: []target{ior(io500.IorEasyRead, 2, interf)}},
		{name: "short-mdt-easy-write", prof: paper, tgt: io5(ior(io500.MdtEasyWrite, 2, small)),
			interf: []target{ior(io500.IorEasyWrite, 2, interf)}},
		{name: "short-hard-write-nvme", prof: nvme, tgt: io5(ior(io500.IorHardWrite, 2, small)),
			interf: []target{ior(io500.MdtHardWrite, 2, interf)}},
		{name: "short-easy-read-alone-nvme", prof: nvme, tgt: io5(ior(io500.IorEasyRead, 2, small))},
		// Long runs: the event loop dominates. 4 x 256 MiB overruns the
		// write-back limit; reading 4 x 1100 files overruns the inode cache.
		{name: "long-easy-write", prof: paper,
			tgt:    io5(ior(io500.IorEasyWrite, 4, io500.Params{EasyFileBytes: 256 << 20})),
			interf: []target{ior(io500.IorEasyRead, 3, interf), ior(io500.IorEasyRead, 3, interf)}},
		{name: "long-easy-read", prof: paper,
			tgt:    io5(ior(io500.IorEasyRead, 4, io500.Params{EasyFileBytes: 192 << 20})),
			interf: []target{ior(io500.IorEasyWrite, 3, interf), ior(io500.IorEasyWrite, 3, interf)}},
		{name: "long-hard-read", prof: paper,
			tgt:    io5(ior(io500.IorHardRead, 4, io500.Params{HardOps: 1500})),
			interf: []target{ior(io500.IorEasyWrite, 4, interf)}},
		{name: "long-mdt-hard-write", prof: paper,
			tgt:    io5(ior(io500.MdtHardWrite, 4, io500.Params{MdtFiles: 800})),
			interf: []target{ior(io500.MdtEasyWrite, 4, interf)}},
		{name: "mdt-hard-read-nvme", prof: nvme,
			tgt:    io5(ior(io500.MdtHardRead, 4, io500.Params{MdtFiles: 1100})),
			interf: []target{ior(io500.IorHardWrite, 4, interf)}},
		{name: "dlio-unet3d", prof: paper,
			tgt: func(dir string) core.TargetSpec {
				g := dlio.New(dlio.Unet3D, dlio.Params{Dir: dir, Ranks: 4, Samples: 64,
					SampleBytes: 4 << 20, Epochs: 2, Seed: dlioSeed})
				return core.TargetSpec{Gen: g, Nodes: targetNodes, Ranks: 4}
			},
			interf: []target{ior(io500.IorEasyWrite, 3, interf)}},
		{name: "bb-easy-write", prof: bbuf,
			tgt:    io5(ior(io500.IorEasyWrite, 4, io500.Params{EasyFileBytes: 192 << 20})),
			interf: []target{ior(io500.IorEasyWrite, 3, interf)}},
		{name: "app-enzo-nvme", prof: nvme,
			tgt: func(dir string) core.TargetSpec {
				g := apps.New(apps.Enzo, apps.Params{Dir: dir, Ranks: 4, Cycles: 20, Seed: appSeed})
				return core.TargetSpec{Gen: g, Nodes: targetNodes, Ranks: 4}
			},
			interf: []target{ior(io500.IorEasyRead, 3, interf)}},
		// Faulted runs with RPC timeouts armed: the retry/backoff path.
		{name: "fault-disk-slow", prof: paper,
			tgt:    io5(ior(io500.IorEasyWrite, 4, io500.Params{EasyFileBytes: 96 << 20})),
			interf: []target{ior(io500.IorEasyRead, 3, interf)},
			faults: []fault.Spec{{Kind: fault.DiskSlow, Target: ost(), Start: sim.Second,
				Duration: 2 * sim.Second, Severity: 6}},
			rpcTO: 500 * sim.Millisecond},
		{name: "fault-ost-stall", prof: paper,
			tgt:    io5(ior(io500.IorEasyRead, 4, io500.Params{EasyFileBytes: 96 << 20})),
			faults: stallAll(300*sim.Millisecond+start(), 1500*sim.Millisecond),
			rpcTO:  300 * sim.Millisecond},
		{name: "fault-mds-storm-nvme", prof: nvme,
			tgt:    io5(ior(io500.MdtEasyWrite, 4, io500.Params{MdtFiles: 400})),
			interf: []target{ior(io500.MdtHardWrite, 2, interf)},
			faults: []fault.Spec{{Kind: fault.MDSStorm, Target: "mdt", Start: 200 * sim.Millisecond,
				Duration: sim.Second, Severity: 5}},
			rpcTO: 500 * sim.Millisecond},
	}

	cases := make([]simCase, len(specs))
	for i, sp := range specs {
		sp := sp
		skewN := skew()
		starts := make([]sim.Time, len(sp.interf))
		for j := range starts {
			starts[j] = start()
		}
		cases[i] = simCase{name: sp.name, build: func() core.Scenario {
			s := core.Scenario{
				Hardware: sp.prof,
				Target:   sp.tgt("/t-" + sp.name),
				OSTSkew:  skewN,
				Faults:   sp.faults,
			}
			s.FSConfig.RPCTimeout = sp.rpcTO
			for j, it := range sp.interf {
				p := it.p
				p.Dir, p.Ranks = fmt.Sprintf("/i%d-%s", j, sp.name), it.ranks
				s.Interference = append(s.Interference, core.InterferenceSpec{
					Gen: io500.New(it.task, p), Nodes: interfNodes, Ranks: it.ranks, StartAt: starts[j],
				})
			}
			return s
		}}
	}
	rng.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
	return cases
}

type simInstance struct {
	cases []simCase
}

// setupSim generates the scenario list and runs it once as a warm-up, so
// heap growth and first-touch costs land in set-up, not in the first pass.
func setupSim(seed int64) (instance, error) {
	s := &simInstance{cases: simCases(seed)}
	for _, c := range s.cases {
		if _, err := core.RunE(c.build()); err != nil {
			return nil, fmt.Errorf("%s: warm-up RunE: %w", c.name, err)
		}
	}
	return s, nil
}

func (s *simInstance) close() {}

// simTotals accumulates the simulator's obs counters over runs.
type simTotals struct {
	events, diskReq, diskSeq, mergeN, submitN, flows, recomputes     float64
	admitted, throttled, cacheHit, cacheMiss, raHit, raMiss, retries float64
	busyNS, diskSpanNS, maxQueue                                     float64
}

// add folds in one snapshot of simulator counters; spanNS is the simulated
// time it covers and nTargets the storage targets (disks) that were busy
// for part of it.
func (t *simTotals) add(st *obs.Snapshot, spanNS float64, nTargets int) {
	c := func(comp, name string) float64 { return float64(st.CounterTotal(comp, name)) }
	t.events += c("engine", "events_executed")
	t.diskReq += c("disk", "requests")
	t.diskSeq += c("disk", "seq_requests")
	t.busyNS += c("disk", "busy_ns")
	t.diskSpanNS += spanNS * float64(nTargets)
	t.mergeN += c("blockqueue", "merges")
	t.submitN += c("blockqueue", "submits")
	t.flows += c("netsim", "flows")
	t.recomputes += c("netsim", "fair_share_recomputes")
	t.admitted += c("ost", "writes_admitted")
	t.throttled += c("ost", "writes_throttled")
	t.cacheHit += c("mds", "cache_hits")
	t.cacheMiss += c("mds", "cache_misses")
	t.raHit += c("client", "ra_hits")
	t.raMiss += c("client", "ra_misses")
	t.retries += c("client", "retries")
	for _, g := range st.Gauges {
		if g.Key.Component == "engine" && g.Key.Name == "max_queue_depth" && g.Value > t.maxQueue {
			t.maxQueue = g.Value
		}
	}
}

// report writes the simulator figures; they are exact for a seed.
func (t *simTotals) report(m map[string]float64) {
	m["engine.events"] = t.events
	m["engine.max_queue_depth"] = t.maxQueue
	m["disk.requests"] = t.diskReq
	m["disk.seq_frac"] = ratio(t.diskSeq, t.diskReq)
	m["disk.busy_frac"] = ratio(t.busyNS, t.diskSpanNS)
	m["blockqueue.merge_frac"] = ratio(t.mergeN, t.submitN)
	m["netsim.flows"] = t.flows
	m["netsim.recomputes_per_flow"] = ratio(t.recomputes, t.flows)
	m["ost.throttled_frac"] = ratio(t.throttled, t.admitted+t.throttled)
	m["mds.cache_hit_frac"] = ratio(t.cacheHit, t.cacheHit+t.cacheMiss)
	m["client.ra_hit_frac"] = ratio(t.raHit, t.raHit+t.raMiss)
	m["client.retries"] = t.retries
}

// statsFingerprint renders a run's simulated outcome — duration,
// completion and every obs counter and gauge — for the simulated-statistics
// digest.
func statsFingerprint(name string, res *core.RunResult) string {
	return fmt.Sprintf("%s dur=%d fin=%v recs=%d windows=%d\n%s", name, res.Duration, res.Finished,
		len(res.Records), len(res.Windows), snapshotFingerprint(res.Stats))
}

func snapshotFingerprint(st *obs.Snapshot) string {
	var b strings.Builder
	for _, c := range st.Counters {
		fmt.Fprintf(&b, "%s=%d\n", c.Key, c.Value)
	}
	for _, g := range st.Gauges {
		fmt.Fprintf(&b, "%s=%g\n", g.Key, g.Value)
	}
	return b.String()
}

// measure runs the closed loop: one goroutine calls core.RunE over the
// scenario list, pass after pass, until d has elapsed (the pass in progress
// completes, so every pass weighs the short/long mix equally). One op is
// one pass; run_p50_ms is the median single run. Every run must succeed
// and finish; every pass must reproduce the first pass's simulated
// statistics exactly.
func (s *simInstance) measure(d time.Duration, tr *tracer, pr *probe) (*outcome, error) {
	out := &outcome{layer: map[string]float64{}, digests: map[string]string{}}
	var first []string
	var totals simTotals
	var hostNS, simNS, events, nAllocs, nBytes float64
	deadline := time.Now().Add(d)
	var runMS []float64
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		ps := tr.begin("pass", 0, -1, 0)
		p0 := time.Now()
		for i, c := range s.cases {
			scen := c.build()
			sp := tr.begin("core.RunE "+c.name, ps.id, -1, 0)
			a0, b0 := allocs()
			t0 := time.Now()
			res, err := core.RunE(scen)
			dt := time.Since(t0)
			a1, b1 := allocs()
			sp.end()
			out.attempted++
			if err != nil {
				out.failed++
				return nil, fmt.Errorf("%s: RunE: %w", c.name, err)
			}
			if !res.Finished {
				out.failed++
				return nil, fmt.Errorf("%s: target did not finish within MaxTime", c.name)
			}
			fp := statsFingerprint(c.name, res)
			if pass == 0 {
				first = append(first, fp)
				totals.add(res.Stats, float64(res.Duration), res.NTargets)
			} else if fp != first[i] {
				return nil, fmt.Errorf("%s: pass %d simulated statistics differ from pass 0", c.name, pass)
			}
			runMS = append(runMS, float64(dt)/1e6)
			hostNS += float64(dt)
			simNS += float64(res.Duration)
			events += float64(res.Stats.CounterTotal("engine", "events_executed"))
			nAllocs += float64(a1 - a0)
			nBytes += float64(b1 - b0)
		}
		out.ops = append(out.ops, float64(time.Since(p0))/1e6)
		ps.end()
		pr.between()
	}
	m := out.layer
	totals.report(m)
	n := float64(len(runMS))
	m["sim_speed"] = simNS / hostNS
	m["run_p50_ms"] = median(runMS)
	m["engine.host_ns_per_event"] = hostNS / events
	m["core.run.allocs"] = nAllocs / n
	m["core.run.alloc_bytes"] = nBytes / n
	out.digests["sim"] = hashHex(strings.Join(first, ""))
	return out, nil
}
