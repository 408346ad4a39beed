package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"code56/internal/telemetry"
)

// quantile returns the nearest-rank q-quantile of s, sorting s in place; 0
// when s is empty. Nearest rank reports an observed tail value instead of
// interpolating it away.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(s []float64) float64 {
	c := append([]float64(nil), s...)
	return quantile(c, 0.5)
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// releaseMemory returns freed heap to the OS, so one set-up's garbage does
// not count towards the next one's resident size.
func releaseMemory() { debug.FreeOSMemory() }

// window is the change in the telemetry registry and the Go runtime over a
// measured phase.
type window struct {
	reg0, reg1 telemetry.Snapshot
	mem0, mem1 runtime.MemStats
	cpu0, cpu1 time.Duration
	t0, t1     time.Time
}

func openWindow() *window {
	w := &window{reg0: telemetry.Default().Snapshot(), cpu0: cpuTime()}
	runtime.ReadMemStats(&w.mem0)
	w.t0 = time.Now()
	return w
}

func (w *window) close() {
	w.t1 = time.Now()
	w.cpu1 = cpuTime()
	runtime.ReadMemStats(&w.mem1)
	w.reg1 = telemetry.Default().Snapshot()
}

func (w *window) wall() time.Duration { return w.t1.Sub(w.t0) }

func (w *window) counter(name string) int64 { return w.reg1.Counters[name] - w.reg0.Counters[name] }

func (w *window) mallocs() uint64 { return w.mem1.Mallocs - w.mem0.Mallocs }

func (w *window) gcPauseMS() float64 {
	return float64(w.mem1.PauseTotalNs-w.mem0.PauseTotalNs) / 1e6
}

// vdiskHist merges, over every disk and window, the change in the per-disk
// service time histogram named by suffix ("read_latency_us" or
// "write_latency_us").
func vdiskHist(ws []*window, suffix string) telemetry.HistogramSnapshot {
	var out telemetry.HistogramSnapshot
	for _, w := range ws {
		w.addVdiskHist(&out, suffix)
	}
	return out
}

func (w *window) addVdiskHist(out *telemetry.HistogramSnapshot, suffix string) {
	for name, h1 := range w.reg1.Histograms {
		if !strings.HasPrefix(name, "vdisk.disk.") || !strings.HasSuffix(name, "."+suffix) {
			continue
		}
		h0 := w.reg0.Histograms[name]
		if out.Counts == nil {
			out.Bounds = h1.Bounds
			out.Counts = make([]int64, len(h1.Counts))
		}
		for i := range h1.Counts {
			if i < len(h0.Counts) {
				out.Counts[i] += h1.Counts[i] - h0.Counts[i]
			} else {
				out.Counts[i] += h1.Counts[i]
			}
		}
		out.Count += h1.Count - h0.Count
		out.Sum += h1.Sum - h0.Sum
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
