// c56-lint runs the repository's invariant analyzers (internal/lint) over
// Go packages. It is both a standalone multichecker and a `go vet`
// backend:
//
//	c56-lint ./...                                  # whole module
//	c56-lint -tags purego ./...                     # portable build config
//	c56-lint -audit-allows ./...                    # audit //lint:allow directives
//	go vet -vettool=$(command -v c56-lint) ./...    # as a vet tool
//	c56-lint help                                   # describe the analyzers
//
// The seven analyzers enforce conventions that correctness and
// performance work in this repository depend on: XOR through the xorblk
// kernels (xorloop), balanced buffer-pool rentals (bufpoolpair), unsafe
// confined to the gated wide kernel (unsafegate), context threading into
// the parallel engine (ctxflow), constant pkg.snake_case telemetry names
// (metricname), mutex-guarded field access per //c56:guardedby
// annotations (lockcheck), and statically allocation-free //c56:noalloc
// functions (noalloc). Exit status: 0 clean, 1 findings or stale allows,
// 2 usage or load error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"code56/internal/lint"
	"code56/internal/lint/driver"
	"code56/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("c56-lint", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: c56-lint [-tags list] packages...\n")
		fs.PrintDefaults()
	}
	tags := fs.String("tags", "", "comma-separated build tags for package loading")
	auditAllows := fs.Bool("audit-allows", false, "list every //lint:allow directive; exit 1 if any is stale (its analyzer no longer fires on that line)")
	version := fs.String("V", "", "print version and exit (-V=full, for the go vet handshake)")
	flagsMode := fs.Bool("flags", false, "print the tool's analyzer flags as JSON (go vet handshake)")
	cli := obs.Flags(fs, false)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := cli.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "c56-lint:", err)
		return 2
	}
	defer cli.Finish(nil)

	switch {
	case *version != "":
		if *version != "full" {
			fmt.Fprintf(os.Stderr, "c56-lint: unsupported flag value -V=%s\n", *version)
			return 2
		}
		if err := driver.PrintVersion(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "c56-lint:", err)
			return 2
		}
		return 0
	case *flagsMode:
		driver.PrintFlags(os.Stdout)
		return 0
	}

	rest := fs.Args()
	if len(rest) == 0 {
		fs.Usage()
		return 2
	}
	if rest[0] == "help" {
		for _, a := range lint.Suite() {
			fmt.Printf("%s: %s\n\n", a.Name, a.Doc)
		}
		return 0
	}

	if *auditAllows {
		stale, err := driver.AuditAllows(os.Stdout, lint.Suite(), *tags, rest)
		if err != nil {
			fmt.Fprintln(os.Stderr, "c56-lint:", err)
			return 2
		}
		if stale > 0 {
			fmt.Fprintf(os.Stderr, "c56-lint: %d stale //lint:allow directive(s)\n", stale)
			return 1
		}
		return 0
	}

	// go vet invokes the tool with a single *.cfg argument per package.
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		n, err := driver.RunUnitchecker(os.Stderr, lint.Suite(), rest[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, "c56-lint:", err)
			return 2
		}
		if n > 0 {
			return 1
		}
		return 0
	}

	n, err := driver.Run(os.Stdout, lint.Suite(), *tags, rest)
	if err != nil {
		fmt.Fprintln(os.Stderr, "c56-lint:", err)
		return 2
	}
	if n > 0 {
		fmt.Fprintf(os.Stderr, "c56-lint: %d finding(s)\n", n)
		return 1
	}
	return 0
}
