// Command c56perf is the repository's benchmark: four workloads that
// together exercise every layer of the stack, from the XOR kernels to the
// HTTP block service, with correctness checks on every run.
//
//	c56perf --workload serve-zipf --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the run's
// metrics: the end-to-end metrics with --trace 0, and with --trace 1 the
// per-layer metrics of a traced run (whose spans are written to --spans).
// METRICS.md defines every metric and why each workload exists.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"code56/internal/raid6"
	"code56/internal/serve"
	"code56/internal/xorblk"
)

type metricDef struct{ name, unit string }

// endToEnd lists the metrics a --trace 0 run reports, in BENCHMARK.json's
// order; every workload reports each of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"data_mb_s", "MB/s"},
	{"read_p50_us", "us"},
	{"write_p50_us", "us"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the metrics a --trace 1 run reports. A workload that does
// not use a layer reports 0 for it.
var perLayer = []metricDef{
	{"serve.handler_us.p50", "us"},
	{"serve.handler_us.p99", "us"},
	{"serve.self_us.p50", "us"},
	{"serve.wire_us.p50", "us"},
	{"raid6.read_us.p50", "us"},
	{"raid6.read_us.p99", "us"},
	{"raid6.write_us.p50", "us"},
	{"raid6.write_us.p99", "us"},
	{"raid6.self_us.write_p50", "us"},
	{"raid6.xors_per_write", "count"},
	{"raid6.encode_mb_s", "MB/s"},
	{"raid6.rebuild1_mb_s", "MB/s"},
	{"raid6.rebuild2_mb_s", "MB/s"},
	{"raid6.scrub_mb_s", "MB/s"},
	{"raid6.encode_cpu_util", "ratio"},
	{"raid6.rebuild1_cpu_util", "ratio"},
	{"raid6.rebuild2_cpu_util", "ratio"},
	{"raid6.scrub_cpu_util", "ratio"},
	{"raid6.encode_vs_layout", "ratio"},
	{"migrate.read_us.p50", "us"},
	{"migrate.read_us.p99", "us"},
	{"migrate.write_us.p50", "us"},
	{"migrate.write_us.p99", "us"},
	{"migrate.stripes_s", "1/s"},
	{"migrate.redo_ratio", "ratio"},
	{"migrate.xors_per_stripe", "count"},
	{"migrate.interrupts_per_write", "ratio"},
	{"migrate.diag_updates_per_write", "ratio"},
	{"raid5.write_us.p50", "us"},
	{"raid5.xors_per_write", "count"},
	{"wal.syncs_per_gb", "1/GB"},
	{"vdisk.read_us.p50", "us"},
	{"vdisk.read_us.p99", "us"},
	{"vdisk.write_us.p50", "us"},
	{"vdisk.write_us.p99", "us"},
	{"vdisk.reads_per_op", "count"},
	{"vdisk.writes_per_op", "count"},
	{"vdisk.reads_per_rebuilt_block.rebuild1", "count"},
	{"vdisk.reads_per_rebuilt_block.rebuild2", "count"},
	{"layout.encode_mb_s", "MB/s"},
	{"layout.decode2_mb_s", "MB/s"},
	{"xorblk.fold_mb_s", "MB/s"},
	{"xorblk.bytes_per_data_byte", "ratio"},
	{"bufpool.miss_ratio", "ratio"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"client.read_p95_us", "us"},
	{"client.read_p99_us", "us"},
	{"client.write_p95_us", "us"},
	{"client.write_p99_us", "us"},
	{"online.read_p50_us", "us"},
	{"online.write_p50_us", "us"},
	{"gen.late_p50_us", "us"},
	{"gen.late_p99_us", "us"},
	{"check.stripes_inconsistent", "count"},
	{"check.ops_failed", "ratio"},
	{"check.read_samples", "count"},
	{"check.write_samples", "count"},
	{"trace.overhead", "ratio"},
}

// hooks let the benchmark's tests plant faults; a normal run sets none.
type hooks struct {
	wrapIO       func(serve.BlockIO) serve.BlockIO // around the served BlockIO
	beforeVerify func(*raid6.Array) error          // before the parity verify
	dispatch     func(i int64)                     // before the open loop issues request i
}

// runCtx is what every workload gets: the seed its inputs derive from,
// how long to measure, a directory for file-backed arrays, and the tracing
// of a traced run (nil otherwise).
type runCtx struct {
	seed    int64
	seconds time.Duration
	work    string
	tr      *tracing
	hooks   hooks
}

// outcome is one workload run's result.
type outcome struct {
	metrics map[string]float64 // end-to-end
	layers  map[string]float64 // per layer
	report  map[string]float64 // further workload figures for the summary
	record  map[string]any     // dataset and load description

	attempted, failed int64
	inconsistent      int64
	firstErr          error
}

// newOutcome fills the metrics every workload reports the same way from
// its foreground operation log.
func newOutcome(log *opLog, inconsistent int64, setupS float64) *outcome {
	o := &outcome{
		metrics:      map[string]float64{"setup_s": setupS},
		layers:       map[string]float64{},
		report:       map[string]float64{},
		record:       map[string]any{},
		attempted:    log.attempted,
		failed:       log.failed,
		inconsistent: inconsistent,
		firstErr:     log.firstErr,
	}
	o.metrics["read_p50_us"] = quantile(log.reads, 0.50)
	o.metrics["write_p50_us"] = quantile(log.writes, 0.50)
	o.layers["client.read_p95_us"] = quantile(log.reads, 0.95)
	o.layers["client.write_p95_us"] = quantile(log.writes, 0.95)
	o.layers["client.read_p99_us"] = quantile(log.reads, 0.99)
	o.layers["client.write_p99_us"] = quantile(log.writes, 0.99)
	o.layers["gen.late_p50_us"] = quantile(log.late, 0.50)
	o.layers["gen.late_p99_us"] = quantile(log.late, 0.99)
	o.layers["check.read_samples"] = float64(len(log.reads))
	o.layers["check.write_samples"] = float64(len(log.writes))
	return o
}

// check adds a correctness check's tally to the outcome.
func (o *outcome) check(attempted, failed int64, err error) {
	o.attempted += attempted
	o.failed += failed
	if o.firstErr == nil {
		o.firstErr = err
	}
}

// checkStripes counts each verified stripe as a check, and an inconsistent
// one as a failed check. serve-zipf does not call it: there, concurrent
// read-modify-writes to one stripe lose parity updates, a known defect the
// run reports in stripes_inconsistent instead of failing on it.
func (o *outcome) checkStripes(verified int64) {
	var err error
	if o.inconsistent > 0 {
		err = fmt.Errorf("%d of %d verified stripes are parity-inconsistent", o.inconsistent, verified)
	}
	o.check(verified, o.inconsistent, err)
}

// vdiskLayers reads the per-disk service-time histograms over windows.
func (o *outcome) vdiskLayers(ws ...*window) {
	rh, wh := vdiskHist(ws, "read_latency_us"), vdiskHist(ws, "write_latency_us")
	o.layers["vdisk.read_us.p50"] = rh.Quantile(0.50)
	o.layers["vdisk.read_us.p99"] = rh.Quantile(0.99)
	o.layers["vdisk.write_us.p50"] = wh.Quantile(0.50)
	o.layers["vdisk.write_us.p99"] = wh.Quantile(0.99)
}

// servedLayers reads the traced handler and BlockIO wrappers; layer names
// the module behind the BlockIO.
func (o *outcome) servedLayers(tr *tracing, layer string) {
	l := o.layers
	h := tr.layer("serve.handler")
	l["serve.handler_us.p50"] = h.quantile(0.50)
	l["serve.handler_us.p99"] = h.quantile(0.99)
	l["serve.self_us.p50"] = tr.layer("serve.self").quantile(0.50)
	l["serve.wire_us.p50"] = tr.layer("serve.wire").quantile(0.50)
	o.ioLayers(tr, layer)
}

// ioLayers reads the traced BlockIO wrapper of the named module.
func (o *outcome) ioLayers(tr *tracing, layer string) {
	l := o.layers
	r, w := tr.layer(layer+".read"), tr.layer(layer+".write")
	l[layer+".read_us.p50"] = r.quantile(0.50)
	l[layer+".read_us.p99"] = r.quantile(0.99)
	l[layer+".write_us.p50"] = w.quantile(0.50)
	l[layer+".write_us.p99"] = w.quantile(0.99)
}

type workload struct {
	name string
	run  func(*runCtx) (*outcome, error)
}

// workloads are run by name; BENCHMARK.json lists each of them.
var workloads = []workload{
	{"serve-zipf", func(rc *runCtx) (*outcome, error) { return runServeZipf(rc, serveZipfFull) }},
	{"migrate-online", func(rc *runCtx) (*outcome, error) { return runMigrateOnline(rc, migrateOnlineFull) }},
	{"recover-p13", func(rc *runCtx) (*outcome, error) { return runRecoverP13(rc, recoverP13Full) }},
	{"recover-p13-rebuild1", func(rc *runCtx) (*outcome, error) { return runRecoverP13(rc, recoverP13Rebuild1) }},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: serve-zipf, migrate-online, recover-p13 or recover-p13-rebuild1")
	seed := flag.Int64("seed", 1, "seed all inputs derive from")
	seconds := flag.Float64("seconds", 10, "how long to measure")
	traced := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	spans := flag.String("spans", "c56perf-spans.jsonl", "file the traced run's spans are written to")
	work := flag.String("work", os.TempDir(), "directory for file-backed arrays")
	source := flag.String("source-digest", "unknown", "digest of the program's sources, recorded in the run record")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1, *spans, *work, *source); err != nil {
		fmt.Fprintln(os.Stderr, "c56perf:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, spans, work, source string) error {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	rc := &runCtx{seed: seed, seconds: time.Duration(seconds * float64(time.Second)), work: work}
	o, err := wl.run(rc)
	if err != nil {
		return err
	}
	cal, err := calibrate(seed)
	if err != nil {
		return err
	}
	out, defs := o.metrics, endToEnd
	if traced {
		// The untraced run above is the reference the traced run's
		// overhead is measured against.
		rc.tr = newTracing()
		releaseMemory()
		t, err := wl.run(rc)
		if err != nil {
			return err
		}
		t.layers["trace.overhead"] = ratio(t.metrics["read_p50_us"], o.metrics["read_p50_us"]) - 1
		if err := rc.tr.writeSpans(spans); err != nil {
			return err
		}
		o.check(t.attempted, t.failed, t.firstErr)
		o.inconsistent += t.inconsistent
		o.record["spans_file"] = spans
		o.record["spans_dropped"] = rc.tr.ring.Dropped()
		o.layers = t.layers
		out, defs = t.layers, perLayer
		out["check.stripes_inconsistent"] = float64(o.inconsistent)
		out["check.ops_failed"] = ratio(float64(o.failed), float64(o.attempted))
	}
	o.metrics["peak_rss_mb"] = peakRSSMB()
	cal.into(o)

	o.record["workload"] = name
	o.record["seed"] = seed
	o.record["seconds"] = seconds
	o.record["source_digest"] = source
	o.record["go"] = runtime.Version()
	o.record["num_cpu"] = runtime.NumCPU()
	o.record["gomaxprocs"] = runtime.GOMAXPROCS(0)
	o.record["xor_kernel"] = xorblk.KernelName
	if c, ok := o.record["conns"].(int); ok && runtime.GOMAXPROCS(0) < c {
		o.record["warning"] = fmt.Sprintf("GOMAXPROCS %d is below the generator's %d connections", runtime.GOMAXPROCS(0), c)
	}
	o.record["stripes_inconsistent"] = o.inconsistent
	o.record["ops_attempted"] = o.attempted
	o.record["ops_failed"] = o.failed
	if o.firstErr != nil {
		o.record["first_error"] = o.firstErr.Error()
	}
	printSummary(o)

	res := result{
		Correct:   o.failed == 0 && o.firstErr == nil,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   map[string]metricValue{},
	}
	if res.Attempted < 1 {
		return errors.New("no operation was attempted")
	}
	for _, d := range defs {
		v, ok := out[d.name]
		if !ok {
			if !traced {
				return fmt.Errorf("workload %s did not measure %s", name, d.name)
			}
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// printSummary prints the run record and every figure the run measured,
// by name, before the result line.
func printSummary(o *outcome) {
	rec, _ := json.Marshal(o.record)
	fmt.Printf("record %s\n", rec)
	for _, m := range []map[string]float64{o.metrics, o.report, o.layers} {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-40s %14.4f\n", n, m[n])
		}
	}
}
