package recovery

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"code56/internal/codes/evenodd"
	"code56/internal/codes/hcode"
	"code56/internal/codes/hdp"
	"code56/internal/codes/pcode"
	"code56/internal/codes/rdp"
	"code56/internal/codes/xcode"
	"code56/internal/core"
	"code56/internal/layout"
	"code56/internal/parallel"
)

func allCodes(p int) map[string]layout.Code {
	return map[string]layout.Code{
		"code56":  core.MustNew(p),
		"rdp":     rdp.MustNew(p),
		"evenodd": evenodd.MustNew(p),
		"xcode":   xcode.MustNew(p),
		"hcode":   hcode.MustNew(p),
		"hdp":     hdp.MustNew(p),
		"pcode":   pcode.MustNew(p, pcode.VariantPMinus1),
	}
}

// TestPlanAndExecuteEveryCodeEveryColumn: for every code and every failed
// column, the optimized plan must rebuild the column correctly, read no
// more blocks than the conventional strategy, and match its promised read
// count when executed.
func TestPlanAndExecuteEveryCodeEveryColumn(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, p := range []int{5, 7} {
		for name, code := range allCodes(p) {
			g := code.Geometry()
			orig := layout.NewStripe(g, 16)
			orig.FillRandom(code, r)
			layout.Encode(code, orig)
			for failed := 0; failed < g.Cols; failed++ {
				plan, err := PlanColumn(code, failed)
				if err != nil {
					t.Fatalf("%s p=%d col %d: %v", name, p, failed, err)
				}
				conv, err := ConventionalReads(code, failed)
				if err != nil {
					t.Fatal(err)
				}
				if plan.Reads > conv {
					t.Errorf("%s p=%d col %d: optimized %d reads > conventional %d", name, p, failed, plan.Reads, conv)
				}
				s := orig.Clone()
				s.ZeroColumn(failed)
				st, err := plan.Execute(code, s, nil, nil)
				if err != nil {
					t.Fatalf("%s p=%d col %d: %v", name, p, failed, err)
				}
				if !s.Equal(orig) {
					t.Fatalf("%s p=%d col %d: wrong rebuild", name, p, failed)
				}
				if st.Recovered != g.Rows {
					t.Errorf("%s col %d: recovered %d cells, want %d", name, failed, st.Recovered, g.Rows)
				}
			}
		}
	}
}

// TestMatchesCode56Specialized: the generic planner must find the same
// minimum as Code 5-6's dedicated hybrid planner on data columns.
func TestMatchesCode56Specialized(t *testing.T) {
	for _, p := range []int{5, 7, 11} {
		c := core.MustNew(p)
		for failed := 0; failed < p-1; failed++ {
			generic, err := PlanColumn(c, failed)
			if err != nil {
				t.Fatal(err)
			}
			special, err := c.PlanHybridRecovery(failed)
			if err != nil {
				t.Fatal(err)
			}
			if generic.Reads != special.Reads {
				t.Errorf("p=%d col %d: generic %d reads, specialized %d", p, failed, generic.Reads, special.Reads)
			}
		}
	}
}

// TestKnownSavings pins the paper-adjacent numbers: Code 5-6 at p=5 reads
// 9 vs 12 conventional; RDP's hybrid recovery saves reads as Xiang et al.
// describe (25% fewer reads at p=5: 12 vs 16).
func TestKnownSavings(t *testing.T) {
	c56 := core.MustNew(5)
	plan, err := PlanColumn(c56, 1)
	if err != nil {
		t.Fatal(err)
	}
	if conv, _ := ConventionalReads(c56, 1); conv != 12 || plan.Reads != 9 {
		t.Errorf("code56 p=5: %d/%d reads, want 9/12", plan.Reads, conv)
	}
	r := rdp.MustNew(5)
	plan, err = PlanColumn(r, 1)
	if err != nil {
		t.Fatal(err)
	}
	conv, _ := ConventionalReads(r, 1)
	if conv != 16 {
		t.Errorf("rdp p=5 conventional reads = %d, want 16", conv)
	}
	if plan.Reads >= conv {
		t.Errorf("rdp p=5: no hybrid saving (%d vs %d)", plan.Reads, conv)
	}
}

// TestEvenoddManyCandidates: EVENODD's S-diagonal cells belong to every
// diagonal chain, so the candidate space is large; the planner must still
// terminate and produce a correct plan (hill-climbing path).
func TestEvenoddManyCandidates(t *testing.T) {
	code := evenodd.MustNew(11)
	plan, err := PlanColumn(code, 0)
	if err != nil {
		t.Fatal(err)
	}
	orig := layout.NewStripe(code.Geometry(), 8)
	orig.FillRandom(code, rand.New(rand.NewSource(2)))
	layout.Encode(code, orig)
	s := orig.Clone()
	s.ZeroColumn(0)
	if _, err := plan.Execute(code, s, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !s.Equal(orig) {
		t.Fatal("wrong rebuild")
	}
}

func TestPlanColumnRejectsBadColumn(t *testing.T) {
	if _, err := PlanColumn(core.MustNew(5), 9); err == nil {
		t.Error("out-of-range column accepted")
	}
	if _, err := PlanColumn(core.MustNew(5), -1); err == nil {
		t.Error("negative column accepted")
	}
}

// TestExecuteStripesParallelMatchesSerial rebuilds a failed column across
// many stripes with the pool and checks contents and aggregated stats equal
// the per-stripe serial execution.
func TestExecuteStripesParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	code := core.MustNew(7)
	g := code.Geometry()
	const n, failed = 64, 2
	plan, err := PlanColumn(code, failed)
	if err != nil {
		t.Fatal(err)
	}

	origs := make([]*layout.Stripe, n)
	lost := make([]*layout.Stripe, n)
	var wantStats layout.DecodeStats
	for i := range origs {
		origs[i] = layout.NewStripe(g, 32)
		origs[i].FillRandom(code, r)
		layout.Encode(code, origs[i])
		lost[i] = origs[i].Clone()
		lost[i].ZeroColumn(failed)
		// Serial reference stats on a throwaway clone.
		ref := origs[i].Clone()
		ref.ZeroColumn(failed)
		st, err := plan.Execute(code, ref, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantStats.XORs += st.XORs
		wantStats.BlocksRead += st.BlocksRead
		wantStats.Recovered += st.Recovered
	}

	got, err := plan.ExecuteStripes(context.Background(), code, lost, nil, nil, parallel.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := range lost {
		if !lost[i].Equal(origs[i]) {
			t.Fatalf("stripe %d rebuilt wrong", i)
		}
	}
	if got != wantStats {
		t.Errorf("aggregated stats %+v, want %+v", got, wantStats)
	}

	// Cancellation propagates.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := plan.ExecuteStripes(ctx, code, lost, nil, nil, parallel.WithWorkers(2)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
