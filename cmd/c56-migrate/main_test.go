package main

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"code56/internal/obs"
)

// online returns a small runOnline config; tests override what they probe.
func online(disks, stripes int, workload string, ops int) onlineConfig {
	return onlineConfig{
		disks:    disks,
		stripes:  stripes,
		block:    512,
		workload: workload,
		ops:      ops,
		seed:     1,
		workers:  1,
	}
}

func TestRunWorkloads(t *testing.T) {
	for _, w := range []string{"random", "sequential", "write-heavy", "zipf", "none"} {
		if err := runOnline(online(4, 4, w, 50)); err != nil {
			t.Fatalf("%s: %v", w, err)
		}
	}
	if err := runOnline(online(4, 4, "nonesuch", 10)); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := runOnline(online(5, 4, "none", 0)); err == nil {
		t.Error("non-prime-plus-one disk count accepted")
	}
}

func TestRunOnlineWithFaults(t *testing.T) {
	cfg := online(4, 8, "random", 100)
	cfg.faults = faultOpts{latent: 0.01, transient: 0.02, seed: 3, retry: 4}
	if err := runOnline(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRunOnlineWithPlane runs a migration registered on a live plane and
// scrapes it afterwards: the acceptance-criteria smoke that -http serves
// the migration's own series.
func TestRunOnlineWithPlane(t *testing.T) {
	srv, handle, err := obs.Plane("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer handle.Close()
	cfg := online(4, 4, "random", 50)
	cfg.plane = srv
	if err := runOnline(cfg); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/metrics", "/healthz", "/progress"} {
		resp, err := http.Get("http://" + handle.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d\n%s", path, resp.StatusCode, body)
		}
		switch path {
		case "/metrics":
			for _, series := range []string{"migrate_stripes_converted", "vdisk_reads", "migrate_stripe_rate_total"} {
				if !strings.Contains(string(body), series) {
					t.Fatalf("/metrics missing %s", series)
				}
			}
		case "/healthz":
			if !strings.Contains(string(body), `"status": "ok"`) {
				t.Fatalf("/healthz not ok:\n%s", body)
			}
		case "/progress":
			if !strings.Contains(string(body), `"State": "finished"`) {
				t.Fatalf("/progress not finished:\n%s", body)
			}
		}
	}
}

func TestRunOffline(t *testing.T) {
	if err := runOffline(4, 512, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := runOffline(4, 512, 1, 4); err != nil {
		t.Fatal(err)
	}
}
