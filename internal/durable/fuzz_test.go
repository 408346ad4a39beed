package durable

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// parentDirs are array directories' meta.json files as written by the
// format's first release: a fresh RAID-5, a fresh RAID-6 and a migrated
// RAID-6. They must keep loading — the format-compatibility check — and
// they seed FuzzLoadMeta with valid structure to mutate.
var parentDirs = []string{"raid5", "raid6", "migrated"}

// FuzzLoadMeta throws arbitrary meta.json bytes at Load. It must never
// panic, every rejection must be ErrBadMeta, and every accepted Meta must
// survive a Save→Load round trip unchanged. Run with
// `go test -fuzz=FuzzLoadMeta ./internal/durable/` to explore; the seeds
// run on every plain `go test`.
func FuzzLoadMeta(f *testing.F) {
	for _, name := range parentDirs {
		dir := filepath.Join("testdata", "parent", name)
		if _, err := Load(dir); err != nil {
			f.Fatalf("%s: a meta.json from the first format release no longer loads: %v", name, err)
		}
		blob, err := os.ReadFile(filepath.Join(dir, MetaFile))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte(`{"version":1,"kind":"raid6","block_size":512,"disks":5,` +
		`"manifest":{"version":1,"code":"code56","p":5,"block_size":512,"stripes":0,"rotated":true},"failed":[0,3]}`))
	f.Add([]byte(`{"version":1,"kind":"raid5","block_size":512,"disks":4,"layout":"left-asymmetric","failed":[]}`))
	f.Add([]byte(`{"version":1,"kind":"raid5","block_size":512,"disks":4,"layout":"left-asymmetric","failed":[2,2]}`))
	f.Add([]byte(`{not json`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, MetaFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := Load(dir)
		if err != nil {
			if !errors.Is(err, ErrBadMeta) {
				t.Fatalf("rejection is not ErrBadMeta: %v", err)
			}
			return
		}
		out := t.TempDir()
		if err := Save(out, m); err != nil {
			t.Fatalf("re-save of an accepted meta failed: %v", err)
		}
		again, err := Load(out)
		if err != nil {
			t.Fatalf("re-load of a re-saved meta failed: %v", err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("meta drifted across Save→Load: %+v vs %+v", again, m)
		}
	})
}
