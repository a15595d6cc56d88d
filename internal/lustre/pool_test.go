package lustre_test

import (
	"fmt"
	"testing"

	"quanterference/internal/lustre"
	"quanterference/internal/netsim"
	"quanterference/internal/sim"
	"quanterference/internal/workload"
	"quanterference/internal/workload/io500"
)

// poolCase is one pool-safety run: a multi-phase target against a looping
// reader, plus a burst of direct client ops, optionally under RPC timeouts
// with every OST stalled long enough that attempts are abandoned and resent,
// and on odd seeds with one client rate-limited through its token bucket.
type poolCase struct {
	seed    int64
	timeout sim.Time
}

// checkPools fails if any continuation pool has a struct in use (a leak,
// or a completion that never fired) or more free than allocated (a double
// release).
func checkPools(t *testing.T, owner string, stats map[string]sim.PoolStats) {
	t.Helper()
	for name, st := range stats {
		if st.Free != st.Allocated {
			t.Errorf("%s pool %q: %d free of %d allocated after drain", owner, name, st.Free, st.Allocated)
		}
	}
}

// TestPropertyPoolSafety runs the pooled continuation paths (metadata,
// striped writes, readahead reads, ior-hard strided I/O, OST read fan-in,
// write-back throttling, RPC retry) over several seeds and checks that every
// op completes exactly once, that each pool ends with every struct free, and
// that a fault-free run admits exactly the bytes its target wrote.
func TestPropertyPoolSafety(t *testing.T) {
	var cases []poolCase
	for seed := int64(1); seed <= 4; seed++ {
		cases = append(cases, poolCase{seed: seed}, poolCase{seed: seed, timeout: 40 * sim.Millisecond})
	}
	for _, pc := range cases {
		t.Run(fmt.Sprintf("seed%d-timeout%dms", pc.seed, pc.timeout/sim.Millisecond), func(t *testing.T) {
			runPoolCase(t, pc)
		})
	}
}

func runPoolCase(t *testing.T, pc poolCase) {
	eng := sim.NewEngine()
	net := netsim.New(eng, netsim.Config{})
	cfg := lustre.Config{Seed: pc.seed, RPCTimeout: pc.timeout}
	// A small write-back cache so writes throttle and queue for space.
	cfg.WritebackLimit = 4 << 20
	fs := lustre.New(eng, net, lustre.PaperTopology(), cfg)
	rng := sim.NewRNG(pc.seed)

	ranks := 2 + rng.Intn(2)
	params := func(dir string) io500.Params {
		return io500.Params{Dir: dir, Ranks: ranks, EasyFileBytes: int64(4+rng.Intn(5)) << 20,
			HardOps: 30 + rng.Intn(30), MdtFiles: 10 + rng.Intn(20)}
	}
	target := workload.NewSequence("pool-target",
		io500.New(io500.IorEasyWrite, params("/t/easy")),
		io500.New(io500.IorEasyRead, params("/t/easyr")),
		io500.New(io500.IorHardWrite, params("/t/hard")),
		io500.New(io500.IorHardRead, params("/t/hardr")),
		io500.New(io500.MdtHardWrite, params("/t/mdt")),
	)
	type key struct{ rank, iter, seq int }
	seen := map[key]int{}
	var written int64
	var records int
	tr := &workload.Runner{FS: fs, Name: "target", Nodes: []string{"c0", "c1"}, Ranks: ranks, Gen: target,
		OnRecord: func(rec workload.Record) {
			seen[key{rec.Rank, rec.Iter, rec.Seq}]++
			records++
			if rec.Op.Kind == workload.Write {
				written += rec.Op.Size
			}
		}}
	// The interference only reads, so every admitted byte is the target's.
	noise := &workload.Runner{FS: fs, Name: "noise", Nodes: []string{"c2", "c3"}, Ranks: 2, Loop: true,
		Gen: io500.New(io500.IorEasyRead, io500.Params{Dir: "/noise", Ranks: 2, EasyFileBytes: 6 << 20})}
	tr.OnDone = noise.Stop
	noise.Start()
	tr.Start()

	// Direct client ops on files of their own, each counting its completions.
	const direct = 48
	fired := make([]int, direct)
	c := fs.Client("c4")
	for i := 0; i < direct; i++ {
		i := i
		path := fmt.Sprintf("/direct/f%d", i)
		fs.Populate(path, 2<<20, 1+rng.Intn(3))
		eng.Schedule(sim.Time(rng.Intn(200))*sim.Millisecond, func() {
			c.Open(path, func(h *lustre.Handle) {
				off := rng.Int63n(1 << 20)
				length := 1 + rng.Int63n(1<<20)
				done := func() { fired[i]++ }
				switch i % 3 {
				case 0:
					c.Read(h, off, length, done)
				case 1:
					c.Write(h, off, length, func() { written += length; done() })
				default:
					c.Stat(path, done)
				}
			})
		})
	}
	if pc.seed%2 == 1 {
		// Throttle one target node's bulk data through its token bucket,
		// then lift the limit mid-run, releasing whatever still waits.
		fs.Client("c1").SetRateLimit(20e6)
		eng.Schedule(250*sim.Millisecond, func() { fs.Client("c1").SetRateLimit(0) })
	}
	if pc.timeout > 0 {
		// Stall every OST past several timeouts: attempts are abandoned,
		// resent, and the abandoned ones still complete afterwards.
		for i := 0; i < fs.NumOSTs(); i++ {
			ost := fs.OST(i)
			eng.Schedule(100*sim.Millisecond, func() { ost.StallUntil(eng.Now() + 300*sim.Millisecond) })
		}
	}
	eng.Run()

	if tr.Running() || noise.Running() {
		t.Fatal("runners still active after the engine drained")
	}
	if records != tr.IOOps() {
		t.Fatalf("%d target records, want one per I/O op (%d)", records, tr.IOOps())
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("op %+v completed %d times", k, n)
		}
	}
	for i, n := range fired {
		if n != 1 {
			t.Fatalf("direct op %d completed %d times", i, n)
		}
	}
	if st := fs.PoolStats()["bucket-timer"]; pc.seed%2 == 1 && st.Allocated == 0 {
		t.Fatal("rate limit set but no token-bucket wakeup was armed")
	}
	checkPools(t, "fs", fs.PoolStats())
	checkPools(t, "net", net.PoolStats())

	var retries uint64
	for _, cn := range fs.Topology().Clients {
		retries += fs.Client(cn).Retries()
	}
	var admitted int64
	for i := 0; i < fs.NumOSTs(); i++ {
		admitted += fs.OST(i).AdmittedBytes()
	}
	if pc.timeout > 0 {
		if retries == 0 {
			t.Fatal("no RPC was resent: the retry path went unexercised")
		}
		return
	}
	if retries != 0 {
		t.Fatalf("%d retries without a timeout armed", retries)
	}
	if admitted != written {
		t.Fatalf("OSTs admitted %d bytes, the writers wrote %d", admitted, written)
	}
}
