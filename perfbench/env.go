package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// envRecord is what a result needs to be compared with one taken on another
// machine: core counts, the Go version, and the calibration kernel's median
// time over the run.
type envRecord struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CalibMS    float64 `json:"calib_ms"`
}

// calRefMS and calRefCPUMS are the calibration kernel's median wall time
// and CPU time (both cores together) on the two-core VM the benchmark was
// tuned on. Calibrated times are in that machine's units: a wall time x
// calRefMS / the kernel's median wall time in the same run, a CPU time x
// calRefCPUMS / the kernel's median CPU time.
const (
	calRefMS    = 12.0
	calRefCPUMS = 22.0
)

// probe is what a run samples between ops — never while one runs: the
// calibration kernel, so its medians track how fast the machine ran while
// the run was measured (on a shared machine that speed drifts by tens of
// percent within minutes, and the kernel drifts with it), and the heap
// sampler's per-op peaks. Wall time and CPU time are calibrated
// separately: a core taken away by the host slows the kernel's wall time
// but is not charged as CPU time, to the kernel or to the workload.
type probe struct {
	calMS, calCPUMS []float64
	heap            *heapSampler // nil outside a measured phase
}

// between marks an op boundary. A collection left running by the op would
// share the cores with the kernel and slow it down, so one is finished
// first.
func (p *probe) between() {
	if p.heap != nil {
		p.heap.cut()
	}
	runtime.GC()
	c0 := cpuTime()
	p.calMS = append(p.calMS, kernelMS())
	p.calCPUMS = append(p.calCPUMS, float64(cpuTime()-c0)/1e6)
}

// wallScale and cpuScale convert a wall or CPU time measured in this run
// to the reference machine's units.
func (p *probe) wallScale() float64 { return calRefMS / median(p.calMS) }
func (p *probe) cpuScale() float64  { return calRefCPUMS / median(p.calCPUMS) }

// calibSink keeps the calibration kernel's result live.
var calibSink float64

// kernelBufs are the kernel's working arrays, one per core, mapped outside
// the Go heap so calibrating never shows up in the heap figures.
var kernelBufs [][]byte

const kernelBufBytes = 8 << 20

// kernelMS times one run of a fixed kernel on every core at once — a
// dependent floating-point chain, a strided sweep and a pseudo-random walk
// over an 8 MiB array, the compute, streaming and cache-missing costs the
// simulator's event loop and the nn kernels are made of — in ms of wall
// time. Running it on every core makes it slow down when any core the
// workloads use is contended. It allocates nothing on the Go heap.
func kernelMS() float64 {
	if kernelBufs == nil {
		for i := 0; i < runtime.NumCPU(); i++ {
			b, err := syscall.Mmap(-1, 0, kernelBufBytes, syscall.PROT_READ|syscall.PROT_WRITE,
				syscall.MAP_ANON|syscall.MAP_PRIVATE)
			if err != nil {
				b = make([]byte, kernelBufBytes)
			}
			for j := 0; j < len(b); j += 4096 {
				b[j] = 1 // fault the pages in before the first timed run
			}
			kernelBufs = append(kernelBufs, b)
		}
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	sums := make([]float64, len(kernelBufs))
	for w := range kernelBufs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sums[w] = kernel(kernelBufs[w])
		}(w)
	}
	wg.Wait()
	for _, s := range sums {
		calibSink += s
	}
	return float64(time.Since(t0)) / 1e6
}

func kernel(buf []byte) float64 {
	x := 1.0
	for i := 0; i < 2_000_000; i++ {
		x = x*1.0000001 + 1e-9
		if x > 2 {
			x = math.Sqrt(x)
		}
	}
	for pass := 0; pass < 8; pass++ {
		for i := pass; i < len(buf); i += 64 {
			buf[i]++
		}
	}
	var sum byte
	idx := uint32(1)
	for i := 0; i < 300_000; i++ {
		idx = idx*1664525 + 1013904223
		j := int(idx) & (len(buf) - 1)
		buf[j]++
		sum += buf[j]
	}
	return x + float64(sum)
}

// cpuTime is the process's user+system CPU time in ns.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// heapSampler tracks the live heap — the bytes the last garbage collection
// found reachable, read from runtime/metrics (no stop-the-world) every
// millisecond — and keeps its peak per op. The peak of one op depends on
// where collections happen to fall; the median over ops does not.
type heapSampler struct {
	stopc chan struct{}
	done  sync.WaitGroup

	mu    sync.Mutex
	cur   uint64   // peak since the last cut
	peaks []uint64 // one per op
}

const heapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		s := []metrics.Sample{{Name: heapMetric}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			if v := s[0].Value.Uint64(); v > h.cur {
				h.cur = v
			}
			h.mu.Unlock()
			select {
			case <-h.stopc:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// cut closes the current op's interval.
func (h *heapSampler) cut() {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	h.mu.Lock()
	h.peaks = append(h.peaks, h.cur)
	h.cur = s[0].Value.Uint64()
	h.mu.Unlock()
}

// stop ends sampling and returns the median per-op peak in bytes (the
// phase's peak when no op boundary was marked).
func (h *heapSampler) stop() float64 {
	close(h.stopc)
	h.done.Wait()
	if len(h.peaks) == 0 {
		return float64(h.cur)
	}
	xs := make([]float64, len(h.peaks))
	for i, p := range h.peaks {
		xs[i] = float64(p)
	}
	return median(xs)
}

// allocs returns the cumulative heap allocation count and bytes.
func allocs() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// digestID turns a digest string into a number a JSON metric carries
// exactly: the first 48 bits of its sha256. Equal digests give equal IDs.
func digestID(d string) float64 {
	sum := sha256.Sum256([]byte(d))
	var v uint64
	for _, b := range sum[:6] {
		v = v<<8 | uint64(b)
	}
	return float64(v)
}

// hashHex is the sha256 hex digest of s, for the fingerprints the
// benchmark computes itself (simulated statistics, decision timelines).
func hashHex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}
