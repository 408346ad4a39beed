package obs

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// TestCLIFinish: Finish writes the -trace and -metrics files and returns
// the command's own error ahead of its own.
func TestCLIFinish(t *testing.T) {
	dir := t.TempDir()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cli := Flags(fs, true)
	trace, metrics := filepath.Join(dir, "trace.jsonl"), filepath.Join(dir, "metrics.json")
	if err := fs.Parse([]string{"-http", "127.0.0.1:0", "-trace", trace, "-metrics", metrics}); err != nil {
		t.Fatal(err)
	}
	if err := cli.Start(); err != nil {
		t.Fatal(err)
	}
	if cli.Plane == nil {
		t.Fatal("-http set but no plane running")
	}
	cmdErr := errors.New("command failed")
	if err := cli.Finish(cmdErr); err != cmdErr {
		t.Fatalf("Finish = %v, want the command's error", err)
	}
	for _, p := range []string{trace, metrics} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("%s not written: %v", p, err)
		}
	}

	// Without -http and file flags the wiring is inert.
	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	cli = Flags(fs, false)
	if fs.Lookup("trace") != nil || fs.Lookup("metrics") != nil {
		t.Fatal("file flags registered without files")
	}
	if err := cli.Start(); err != nil || cli.Plane != nil {
		t.Fatalf("Start() = %v with plane %v, want nil and no plane", err, cli.Plane)
	}
	if err := cli.Finish(nil); err != nil {
		t.Fatal(err)
	}
}
