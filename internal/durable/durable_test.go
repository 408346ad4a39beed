package durable

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"code56/internal/core"
	"code56/internal/raid5"
)

func raid5Meta() Meta {
	return Meta{
		Version:   MetaVersion,
		Kind:      KindRAID5,
		BlockSize: 4096,
		Disks:     4,
		Layout:    raid5.LeftAsymmetric.String(),
		Rows:      16,
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	want := raid5Meta()
	if err := Save(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("roundtrip: %+v != %+v", got, want)
	}
	// No temp files left behind.
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("leftover files: %v", entries)
	}
}

func TestSaveIsAtomicReplace(t *testing.T) {
	dir := t.TempDir()
	if err := Save(dir, raid5Meta()); err != nil {
		t.Fatal(err)
	}
	// The migration's meta flip: RAID-5 → RAID-6 in one rename.
	flip := RAID6Meta(core.MustNew(5), 4096, 4)
	if err := Save(dir, flip); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindRAID6 || got.Manifest == nil || got.Manifest.CodeName != "code56" {
		t.Fatalf("flip: %+v", got)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(t.TempDir()); !errors.Is(err, ErrNoMeta) {
		t.Fatalf("missing meta: %v", err)
	}
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, MetaFile), []byte("{not json"), 0o644)
	if _, err := Load(dir); !errors.Is(err, ErrBadMeta) {
		t.Fatalf("corrupt meta: %v", err)
	}
	os.WriteFile(filepath.Join(dir, MetaFile), []byte(`{"version":1,"kind":"zfs","block_size":512,"disks":3}`), 0o644)
	if _, err := Load(dir); !errors.Is(err, ErrBadMeta) {
		t.Fatalf("unknown kind: %v", err)
	}
}

func TestValidate(t *testing.T) {
	cases := []func(*Meta){
		func(m *Meta) { m.Version = 99 },
		func(m *Meta) { m.BlockSize = 0 },
		func(m *Meta) { m.Disks = 0 },
		func(m *Meta) { m.Layout = "diagonal" },
		func(m *Meta) { m.Rows = -1 },
		func(m *Meta) { m.Kind = KindRAID6 }, // raid6 without manifest
	}
	for i, mut := range cases {
		m := raid5Meta()
		mut(&m)
		if err := m.Validate(); !errors.Is(err, ErrBadMeta) {
			t.Errorf("case %d: %v", i, err)
		}
	}
	// Manifest/meta block-size mismatch.
	m := RAID6Meta(core.MustNew(5), 4096, 1)
	m.Manifest.BlockSize = 512
	if err := m.Validate(); !errors.Is(err, ErrBadMeta) {
		t.Errorf("block-size mismatch: %v", err)
	}
}

func TestParseLayoutRoundtrip(t *testing.T) {
	for _, l := range []raid5.Layout{
		raid5.LeftAsymmetric, raid5.LeftSymmetric,
		raid5.RightAsymmetric, raid5.RightSymmetric,
	} {
		got, err := ParseLayout(l.String())
		if err != nil || got != l {
			t.Errorf("%v: got %v err %v", l, got, err)
		}
	}
}

func TestBuildCodeAllNames(t *testing.T) {
	for _, name := range []string{"code56", "code56r", "rdp", "evenodd", "xcode", "pcode", "pcode-p", "hcode", "hdp"} {
		m := Manifest{Version: MetaVersion, CodeName: name, P: 5, BlockSize: 512, Stripes: 1}
		code, err := BuildCode(m)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if code.Name() != name {
			t.Errorf("built %q, want %q", code.Name(), name)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := BuildCode(Manifest{Version: 1, CodeName: "nonesuch", P: 5}); !errors.Is(err, ErrBadMeta) {
		t.Error("unknown code accepted")
	}
}

func TestManifestValidate(t *testing.T) {
	good := Manifest{Version: MetaVersion, CodeName: "code56", P: 5, BlockSize: 512, Stripes: 2}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []Manifest{
		{Version: 99, CodeName: "code56", P: 5, BlockSize: 512},
		{Version: 1, CodeName: "code56", P: 5, BlockSize: 0},
		{Version: 1, CodeName: "code56", P: 5, BlockSize: 512, Stripes: -1},
		{Version: 1, CodeName: "code56", P: 4, BlockSize: 512},
		{Version: 1, CodeName: "code56", P: 2053, BlockSize: 512},
	}
	for i, m := range bads {
		if err := m.Validate(); !errors.Is(err, ErrBadMeta) {
			t.Errorf("bad manifest %d: %v", i, err)
		}
	}
}

// TestBackendRecordsState drives the recorder capabilities the disks and
// the RAID-6 layer call: the failed set stays sorted and survives the
// migration's flip, and rotation is a RAID-6-only field.
func TestBackendRecordsState(t *testing.T) {
	dir := t.TempDir()
	b, err := NewBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := Save(dir, raid5Meta()); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{3, 1, 3} {
		if err := b.RecordFailed(id, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.RecordRotation(true); err == nil {
		t.Fatal("rotation recorded on a raid5 directory")
	}
	if err := Flip(dir, RAID6Meta(core.MustNew(5), 4096, 4)); err != nil {
		t.Fatal(err)
	}
	if err := b.RecordFailed(3, false); err != nil {
		t.Fatal(err)
	}
	if err := b.RecordRotation(true); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := RAID6Meta(core.MustNew(5), 4096, 4)
	want.Manifest.Rotated = true
	want.Failed = []int{1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recorded %+v (manifest %+v), want %+v", got, got.Manifest, want)
	}
	if err := b.RecordFailed(1, false); err != nil {
		t.Fatal(err)
	}
	if got, _ := Load(dir); got.Failed != nil {
		t.Fatalf("failed set after clearing every disk: %v", got.Failed)
	}
	if err := Save(dir, Meta{Version: MetaVersion, Kind: KindRAID5, BlockSize: 512, Disks: 4,
		Layout: raid5.LeftAsymmetric.String(), Failed: []int{2, 1}}); !errors.Is(err, ErrBadMeta) {
		t.Fatalf("unsorted failed set saved: %v", err)
	}
}

// TestFlipWithoutMeta: a migration journaled in a directory that holds
// only its intent log (the disks live in memory) still commits, writing
// the directory's first meta.json.
func TestFlipWithoutMeta(t *testing.T) {
	dir := t.TempDir()
	want := RAID6Meta(core.MustNew(5), 512, 8)
	if err := Flip(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flipped to %+v, want %+v", got, want)
	}
	os.WriteFile(filepath.Join(dir, MetaFile), []byte("{not json"), 0o644)
	if err := Flip(dir, want); !errors.Is(err, ErrBadMeta) {
		t.Fatalf("flip over a corrupt meta.json: %v", err)
	}
}

// TestRecordFailedConcurrently: disks failing at once must not lose each
// other's read-modify-write of meta.json.
func TestRecordFailedConcurrently(t *testing.T) {
	dir := t.TempDir()
	b, err := NewBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	m := raid5Meta()
	m.Disks = 8
	if err := Save(dir, m); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for id := 0; id < m.Disks; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := b.RecordFailed(id, true); err != nil {
				t.Error(err)
			}
		}(id)
	}
	wg.Wait()
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; !reflect.DeepEqual(got.Failed, want) {
		t.Fatalf("failed set %v, want %v", got.Failed, want)
	}
}
