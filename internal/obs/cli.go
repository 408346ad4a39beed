package obs

import (
	"flag"
	"fmt"
	"os"

	"code56/internal/telemetry"
)

// CLI is a command's observability wiring: the -http plane and, for the
// commands that take them, the -trace span file and the -metrics dump.
// Register the flags with Flags before parsing, call Start after parsing
// and Finish with the command's result.
type CLI struct {
	http, trace, metrics *string

	// Plane is the running plane, nil without -http. A nil Server's
	// Register methods do nothing, so callers register unconditionally.
	Plane      *Server
	handle     *Handle
	closeTrace func() error
}

// Flags registers -http on fs and, when files is set, -trace and -metrics.
func Flags(fs *flag.FlagSet, files bool) *CLI {
	c := &CLI{http: fs.String("http", "", "serve the observability plane (/metrics, /healthz, /debug/pprof) on this address, e.g. :8080")}
	if files {
		c.metrics = fs.String("metrics", "", "dump final telemetry counters to this file ('-' for stdout, '.json' suffix for JSON)")
		c.trace = fs.String("trace", "", "write a JSON-lines span/event trace to this file ('-' for stderr)")
	}
	return c
}

// Start serves the plane when -http is set, announcing its address on
// stderr, and attaches the -trace file to the default tracer.
func (c *CLI) Start() error {
	plane, handle, err := Plane(*c.http)
	if err != nil {
		return err
	}
	c.Plane, c.handle = plane, handle
	if handle != nil {
		fmt.Fprintf(os.Stderr, "observability plane listening on http://%s\n", handle.Addr())
	}
	if c.trace == nil {
		return nil
	}
	c.closeTrace, err = telemetry.AttachTraceFile(telemetry.DefaultTracer(), *c.trace)
	return err
}

// Finish closes the trace file, writes the -metrics dump and drains the
// plane. It returns err, or when err is nil the first error of its own
// steps.
func (c *CLI) Finish(err error) error {
	if c.closeTrace != nil {
		if cerr := c.closeTrace(); err == nil {
			err = cerr
		}
	}
	if c.metrics != nil {
		if merr := telemetry.DumpMetrics(telemetry.Default(), *c.metrics); err == nil {
			err = merr
		}
	}
	_ = c.handle.Drain() // a scrape still running at exit is cut off, not an error of the command
	return err
}
