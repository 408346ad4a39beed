// Command c56-bench measures full-stripe encoding for Code 5-6 against the
// paper's RAID-6 baselines (RDP, EVENODD) and writes the results as JSON —
// the machine-readable companion to the paper's Fig. 13 computation-cost
// comparison.
//
// It also measures the XOR kernel hierarchy (every tier the host can run —
// asm/wide/word/byte, per xorblk.Tiers() — written to BENCH_xor.json with
// sizes reaching past the non-temporal store threshold) and sweeps the
// parallel stripe engine: full-array encodes at 1, 2, 4 and 8 workers,
// each sampled several times with the median reported, written to
// BENCH_parallel.json. Both reports carry the host topology (NumCPU,
// GOMAXPROCS, selected kernel, detected CPU features) so throughput
// numbers are interpretable after the fact.
//
// Usage:
//
//	c56-bench          # writes BENCH_encode.json + BENCH_xor.json + BENCH_parallel.json
//	c56-bench -out - -p 7 -block 8192 -xor-out '' -parallel-out ''
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	code56 "code56"
	"code56/internal/layout"
	"code56/internal/obs"
	"code56/internal/xorblk"
)

// Result is one code's encoding measurement.
type Result struct {
	Code  string `json:"code"`
	Disks int    `json:"disks"`
	// DataElements is the number of data blocks per stripe.
	DataElements int `json:"data_elements"`
	// XORsPerElement is the encoding cost: block XOR operations per data
	// block (the paper's Fig. 13 metric, here measured, not derived).
	XORsPerElement float64 `json:"xors_per_element"`
	// MBPerSec is the encoding throughput over the stripe's data bytes.
	MBPerSec float64 `json:"mb_per_s"`
	// Iterations is how many full-stripe encodes the sample averaged.
	Iterations int `json:"iterations"`
}

// Report is the file's top-level object.
type Report struct {
	BlockSize int      `json:"block_size"`
	P         int      `json:"p"`
	Results   []Result `json:"results"`
}

// Topology records the host parallelism and the XOR fast path this binary
// selected at init — the context every throughput number needs: speedups
// flatten when GOMAXPROCS is 1, and per-size kernel throughput is only
// comparable between hosts running the same tier.
type Topology struct {
	NumCPU     int      `json:"num_cpu"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Kernel     string   `json:"kernel"`
	Features   []string `json:"features,omitempty"`
}

// topo snapshots the host topology for a report header.
func topo() Topology {
	return Topology{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     xorblk.KernelName,
		Features:   xorblk.Features(),
	}
}

// ParallelResult is one worker count's full-array encode measurement.
// MBPerSec is the median of Samples independent measurement windows;
// AllocsPerStripe is heap allocations per stripe encode across all windows
// (the zero-allocation hot path keeps it near 0 in steady state). Speedup
// is relative to 1 worker.
type ParallelResult struct {
	Workers         int     `json:"workers"`
	MBPerSec        float64 `json:"mb_per_s"`
	Speedup         float64 `json:"speedup_vs_1"`
	Iterations      int     `json:"iterations"`
	Samples         int     `json:"samples"`
	AllocsPerStripe float64 `json:"allocs_per_stripe"`
}

// ParallelReport is BENCH_parallel.json's top-level object.
type ParallelReport struct {
	Topology
	Code      string           `json:"code"`
	BlockSize int              `json:"block_size"`
	P         int              `json:"p"`
	Stripes   int64            `json:"stripes"`
	Results   []ParallelResult `json:"results"`
}

func main() {
	var (
		out      = flag.String("out", "BENCH_encode.json", "output file ('-' for stdout)")
		block    = flag.Int("block", 4096, "block size in bytes")
		p        = flag.Int("p", 5, "prime parameter")
		minTime  = flag.Duration("mintime", 200*time.Millisecond, "minimum measurement time per code")
		xorOut   = flag.String("xor-out", "BENCH_xor.json", "XOR kernel sweep output file ('-' for stdout, '' to skip)")
		parOut   = flag.String("parallel-out", "BENCH_parallel.json", "parallel sweep output file ('-' for stdout, '' to skip)")
		parP     = flag.Int("parallel-p", 13, "prime parameter for the parallel sweep")
		parBlock = flag.Int("parallel-block", 16384, "block size for the parallel sweep")
		stripes  = flag.Int64("parallel-stripes", 64, "stripes per full-array encode in the parallel sweep")
		reps     = flag.Int("parallel-reps", 5, "measurement windows per worker count (median reported, min 3)")
		maxprocs = flag.Int("maxprocs", 0, "GOMAXPROCS for the sweeps (0 = all CPUs)")
		backend  = flag.String("backend", "", "block-store backend for the parallel sweep's array: 'mem:' (default) or 'file:<dir>' to measure over durable image files")

		serveOut     = flag.String("serve-out", "", "under-load serve benchmark output file ('-' for stdout, '' to skip): wire p50/p99 latency idle vs during a timetable-shaped online migration")
		serveDisks   = flag.Int("serve-disks", 4, "serve bench: RAID-5 disks (disks+1 must be prime)")
		serveStripes = flag.Int64("serve-stripes", 64, "serve bench: Code 5-6 stripes to migrate")
		serveBlock   = flag.Int("serve-block", 4096, "serve bench: block size in bytes")
		serveClients = flag.Int("serve-clients", 4, "serve bench / load gen: concurrent client goroutines")
		serveOps     = flag.Int("serve-ops", 2000, "serve bench: operations per measurement phase")
		serveBW      = flag.String("serve-bw", "1M", "serve bench: migration bandwidth timetable during the under-load phase (bwtimetable grammar)")

		loadURL      = flag.String("load-url", "", "load-generator mode: drive this running c56-serve base URL (e.g. http://127.0.0.1:8080) instead of benchmarking in-process")
		loadTenant   = flag.String("load-tenant", "demo", "load gen: tenant to drive")
		loadVol      = flag.String("load-vol", "vol0", "load gen: volume to drive")
		loadDuration = flag.Duration("load-duration", 5*time.Second, "load gen: how long to run")
	)
	cli := obs.Flags(flag.CommandLine, false)
	flag.Parse()
	if *loadURL != "" {
		if err := runLoadGen(*loadURL, *loadTenant, *loadVol, *serveClients, *loadDuration); err != nil {
			fmt.Fprintln(os.Stderr, "c56-bench:", err)
			os.Exit(1)
		}
		return
	}
	err := cli.Start()
	if err == nil {
		// Pin GOMAXPROCS explicitly so the recorded value reflects the
		// sweep's real parallelism even when the environment (cgroup
		// limits, an inherited GOMAXPROCS env var) would silently cap it.
		if *maxprocs > 0 {
			runtime.GOMAXPROCS(*maxprocs)
		} else {
			runtime.GOMAXPROCS(runtime.NumCPU())
		}
		err = run(*out, *block, *p, *minTime)
	}
	if err == nil && *xorOut != "" {
		err = runXor(*xorOut, *minTime)
	}
	if err == nil && *parOut != "" {
		err = runParallel(*parOut, *parBlock, *parP, *stripes, *minTime, *reps, *backend)
	}
	if err == nil && *serveOut != "" {
		err = runServe(*serveOut, *serveDisks, *serveStripes, *serveBlock, *serveClients, *serveOps, *serveBW)
	}
	if err := cli.Finish(err); err != nil {
		fmt.Fprintln(os.Stderr, "c56-bench:", err)
		os.Exit(1)
	}
}

// XorResult is one (tier, size) throughput sample of the XOR kernel sweep.
type XorResult struct {
	// Path names the tier exactly as dispatched: "avx512"/"avx2"/"neon"
	// (hosts with the matching features), "wide", "word", and the "byte"
	// reference — every tier xorblk.Tiers() reports for this binary.
	Path string `json:"path"`
	Size int    `json:"size"`
	// MBPerSec counts destination bytes processed (one read+xor+write pass).
	MBPerSec float64 `json:"mb_per_s"`
	// SpeedupVsWord is this tier's throughput over the word path's at the
	// same size (the acceptance metric for the fast tiers).
	SpeedupVsWord float64 `json:"speedup_vs_word"`
	Iterations    int     `json:"iterations"`
}

// XorReport is BENCH_xor.json's top-level object. The embedded Topology's
// Kernel field names the fast path selected for this binary on this host.
type XorReport struct {
	Topology
	Results []XorResult `json:"results"`
}

// xorSizes spans cache-resident blocks through streaming ones: 256 KiB
// exceeds most L2s' fair share, and the ≥1 MiB sizes engage the assembly
// tiers' non-temporal stores (xorblk.NonTemporalThreshold) — the cliff
// region the cached-store wide path shows in earlier BENCH_xor.json runs.
var xorSizes = []int{1024, 4096, 16384, 65536, 262144, 1 << 20, 4 << 20}

// runXor measures dst ^= src throughput for every kernel tier this host
// can run across block sizes and writes BENCH_xor.json.
func runXor(out string, minTime time.Duration) error {
	rep := XorReport{Topology: topo()}
	tiers := xorblk.Tiers()
	for _, size := range xorSizes {
		rng := rand.New(rand.NewSource(3))
		dst := make([]byte, size)
		src := make([]byte, size)
		rng.Read(dst)
		rng.Read(src)
		var wordMB float64
		base := len(rep.Results)
		for _, tier := range tiers {
			tier.Xor(dst, src) // warm-up
			iters := 0
			start := time.Now()
			for time.Since(start) < minTime {
				tier.Xor(dst, src)
				iters++
			}
			elapsed := time.Since(start)
			mb := float64(iters) * float64(size) / 1e6 / elapsed.Seconds()
			if tier.Name == "word" {
				wordMB = mb
			}
			rep.Results = append(rep.Results, XorResult{
				Path: tier.Name, Size: size, MBPerSec: mb, Iterations: iters,
			})
		}
		for i := base; i < len(rep.Results); i++ {
			rep.Results[i].SpeedupVsWord = rep.Results[i].MBPerSec / wordMB
		}
	}
	if err := writeJSON(out, rep); err != nil {
		return err
	}
	if out != "-" {
		fmt.Printf("wrote XOR kernel sweep (%s fast path, %d tiers, %d results) to %s\n",
			rep.Kernel, len(tiers), len(rep.Results), out)
	}
	return nil
}

// writeJSON writes v indented to path ('-' for stdout).
func writeJSON(path string, v any) error {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func run(out string, block, p int, minTime time.Duration) error {
	c56, err := code56.New(p)
	if err != nil {
		return err
	}
	rdp, err := code56.NewRDP(p)
	if err != nil {
		return err
	}
	eo, err := code56.NewEVENODD(p)
	if err != nil {
		return err
	}
	rep := Report{BlockSize: block, P: p}
	for _, c := range []struct {
		name string
		code code56.Code
	}{
		{fmt.Sprintf("code56-p%d", p), c56},
		{fmt.Sprintf("rdp-p%d", p), rdp},
		{fmt.Sprintf("evenodd-p%d", p), eo},
	} {
		rep.Results = append(rep.Results, measure(c.name, c.code, block, minTime))
	}
	w := os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if out != "-" {
		fmt.Printf("wrote %d results to %s\n", len(rep.Results), out)
	}
	return nil
}

// runParallel measures full-array Code 5-6 encodes through the parallel
// stripe engine at 1, 2, 4 and 8 workers and writes BENCH_parallel.json.
// Each worker count runs reps independent measurement windows (each at
// least minTime long) and reports the median throughput, plus heap
// allocations per stripe encode taken from runtime.MemStats.
func runParallel(out string, block, p int, stripes int64, minTime time.Duration, reps int, backend string) error {
	if reps < 3 {
		reps = 3
	}
	code, err := code56.New(p)
	if err != nil {
		return err
	}
	a, err := code56.NewRAID6Array(code,
		code56.WithBackend(backend), code56.WithBlockSize(block))
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(2))
	blocks := int64(a.DataPerStripe()) * stripes
	b := make([]byte, block)
	for L := int64(0); L < blocks; L++ {
		rng.Read(b)
		if err := a.WriteBlock(L, b); err != nil {
			return err
		}
	}
	rep := ParallelReport{
		Topology:  topo(),
		Code:      fmt.Sprintf("code56-p%d", p),
		BlockSize: block,
		P:         p,
		Stripes:   stripes,
	}
	ctx := context.Background()
	dataBytes := float64(blocks) * float64(block)
	for _, w := range []int{1, 2, 4, 8} {
		encode := func() error {
			return code56.EncodeArrayStripes(ctx, a, stripes, code56.WithWorkers(w))
		}
		// Warm-up pass primes the buffer pools so the measured windows see
		// steady state, then reps independent windows of minTime.
		if err := encode(); err != nil {
			return err
		}
		var (
			samples     []float64
			totalIters  int
			totalAllocs uint64
			ms          runtime.MemStats
		)
		for win := 0; win < reps; win++ {
			runtime.ReadMemStats(&ms)
			allocsBefore := ms.Mallocs
			iters := 0
			start := time.Now()
			for iters == 0 || time.Since(start) < minTime {
				if err := encode(); err != nil {
					return err
				}
				iters++
			}
			elapsed := time.Since(start)
			runtime.ReadMemStats(&ms)
			samples = append(samples, float64(iters)*dataBytes/1e6/elapsed.Seconds())
			totalIters += iters
			totalAllocs += ms.Mallocs - allocsBefore
		}
		r := ParallelResult{
			Workers:         w,
			MBPerSec:        median(samples),
			Speedup:         1,
			Iterations:      totalIters,
			Samples:         reps,
			AllocsPerStripe: float64(totalAllocs) / float64(int64(totalIters)*stripes),
		}
		if len(rep.Results) > 0 {
			r.Speedup = r.MBPerSec / rep.Results[0].MBPerSec
		}
		rep.Results = append(rep.Results, r)
	}
	if err := writeJSON(out, rep); err != nil {
		return err
	}
	if out != "-" {
		fmt.Printf("wrote parallel sweep (%d worker counts, %d windows each, GOMAXPROCS=%d, kernel=%s) to %s\n",
			len(rep.Results), reps, rep.GOMAXPROCS, rep.Kernel, out)
	}
	return nil
}

// median returns the middle value of s (mean of the middle two for even
// lengths). s is sorted in place.
func median(s []float64) float64 {
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// measure encodes full stripes until minTime has elapsed and averages.
func measure(name string, code code56.Code, block int, minTime time.Duration) Result {
	s := layout.NewStripe(code.Geometry(), block)
	s.FillRandom(code, rand.New(rand.NewSource(1)))
	data := len(layout.DataElements(code))
	xors := layout.Encode(code, s) // warm-up; XOR count is deterministic
	iters := 0
	start := time.Now()
	for time.Since(start) < minTime {
		layout.Encode(code, s)
		iters++
	}
	elapsed := time.Since(start)
	bytesDone := float64(iters) * float64(data*block)
	return Result{
		Code:           name,
		Disks:          code.Geometry().Cols,
		DataElements:   data,
		XORsPerElement: float64(xors) / float64(data),
		MBPerSec:       bytesDone / 1e6 / elapsed.Seconds(),
		Iterations:     iters,
	}
}
