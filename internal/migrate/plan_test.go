package migrate

import (
	"context"
	"math"
	"strings"
	"testing"

	"code56/internal/core"
	"code56/internal/parallel"
	"code56/internal/raid5"
)

func mustPlan(t *testing.T, c Conversion) *Plan {
	t.Helper()
	p, err := NewPlan(c)
	if err != nil {
		t.Fatalf("%s: %v", c.Label(), err)
	}
	return p
}

func approxEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestCode56PaperExample reproduces the paper's worked example (§V-A):
// RAID-5→RAID-6(Code 5-6, 4, 5): invalid, migration and extra-space ratios
// are zero; new parity ratio 1/3; write I/Os B/3; total I/Os 4B/3;
// computation cost 2B/3; conversion time B·Te/3.
func TestCode56PaperExample(t *testing.T) {
	p := mustPlan(t, conv(4, core.MustNew(5), Direct))
	m := p.Metrics()
	if m.InvalidParityRatio != 0 || m.MigrationRatio != 0 || m.ExtraSpaceRatio != 0 {
		t.Errorf("invalid/migration/extra = %v/%v/%v, want 0/0/0",
			m.InvalidParityRatio, m.MigrationRatio, m.ExtraSpaceRatio)
	}
	if !approxEq(m.NewParityRatio, 1.0/3) {
		t.Errorf("new parity ratio %v, want 1/3", m.NewParityRatio)
	}
	if !approxEq(m.WriteRatio, 1.0/3) {
		t.Errorf("write ratio %v, want 1/3", m.WriteRatio)
	}
	if !approxEq(m.ReadRatio, 1.0) {
		t.Errorf("read ratio %v, want 1 (every data block read once)", m.ReadRatio)
	}
	if !approxEq(m.TotalIORatio, 4.0/3) {
		t.Errorf("total I/O ratio %v, want 4/3", m.TotalIORatio)
	}
	if !approxEq(m.XORRatio, 2.0/3) {
		t.Errorf("XOR ratio %v, want 2/3", m.XORRatio)
	}
	if !approxEq(m.TimeNLB, 1.0/3) {
		t.Errorf("NLB time %v, want 1/3", m.TimeNLB)
	}
	if p.Reused != 4 || p.Generated != 4 {
		t.Errorf("reused/generated = %d/%d, want 4/4 per stripe", p.Reused, p.Generated)
	}
}

// TestCode56GeneralFormulas checks Code 5-6's closed-form conversion costs
// for several primes: new parity ratio 1/(p-2), total I/O (p-1)/(p-2),
// XORs (p-3)/(p-2), NLB time 1/(p-2).
func TestCode56GeneralFormulas(t *testing.T) {
	for _, p := range []int{5, 7, 11, 13} {
		pl := mustPlan(t, conv(p-1, core.MustNew(p), Direct))
		m := pl.Metrics()
		d := float64(p - 2)
		if !approxEq(m.NewParityRatio, 1/d) {
			t.Errorf("p=%d: new parity ratio %v, want %v", p, m.NewParityRatio, 1/d)
		}
		if !approxEq(m.TotalIORatio, float64(p-1)/d) {
			t.Errorf("p=%d: total I/O %v, want %v", p, m.TotalIORatio, float64(p-1)/d)
		}
		if !approxEq(m.XORRatio, float64(p-3)/d) {
			t.Errorf("p=%d: XOR ratio %v, want %v", p, m.XORRatio, float64(p-3)/d)
		}
		if !approxEq(m.TimeNLB, 1/d) {
			t.Errorf("p=%d: NLB time %v, want %v", p, m.TimeNLB, 1/d)
		}
		if m.InvalidParityRatio != 0 || m.MigrationRatio != 0 || m.ExtraSpaceRatio != 0 {
			t.Errorf("p=%d: nonzero invalid/migrate/extra ratios", p)
		}
	}
}

// TestRAID0PaperExample reproduces Fig. 1(a)'s accounting:
// RAID-5→RAID-0→RAID-6(RDP,4,6): 12 data blocks, 4 invalidated parities,
// 8 new parities, 12 write I/Os (the paper: "8+4=12").
func TestRAID0PaperExample(t *testing.T) {
	cs := StandardConversions(6)
	var pl *Plan
	for _, c := range cs {
		if c.Code.Name() == "rdp" && c.Approach == ViaRAID0 {
			pl = mustPlan(t, c)
		}
	}
	if pl == nil {
		t.Fatal("RDP via RAID-0 not in standard set for n=6")
	}
	perStripe := pl.DataBlocks / pl.Period
	if perStripe != 12 {
		t.Fatalf("data blocks per stripe = %d, want 12", perStripe)
	}
	m := pl.Metrics()
	if !approxEq(m.InvalidParityRatio, 1.0/3) {
		t.Errorf("invalid ratio %v, want 1/3", m.InvalidParityRatio)
	}
	if !approxEq(m.NewParityRatio, 2.0/3) {
		t.Errorf("new parity ratio %v, want 2/3", m.NewParityRatio)
	}
	if !approxEq(m.WriteRatio, 1.0) {
		t.Errorf("write ratio %v, want 1 (12 writes per 12 data)", m.WriteRatio)
	}
	if m.MigrationRatio != 0 {
		t.Errorf("migration ratio %v, want 0", m.MigrationRatio)
	}
}

// TestRAID4RDP checks Fig. 1(b)'s structure: migration ratio 1/3 (4 old
// parities per 12 data), only diagonal parities generated (ratio 1/3), no
// invalidation.
func TestRAID4RDP(t *testing.T) {
	for _, c := range StandardConversions(6) {
		if c.Code.Name() != "rdp" || c.Approach != ViaRAID4 {
			continue
		}
		m := mustPlan(t, c).Metrics()
		if !approxEq(m.MigrationRatio, 1.0/3) {
			t.Errorf("migration ratio %v, want 1/3", m.MigrationRatio)
		}
		if !approxEq(m.NewParityRatio, 1.0/3) {
			t.Errorf("new parity ratio %v, want 1/3 (diagonals only)", m.NewParityRatio)
		}
		if m.InvalidParityRatio != 0 {
			t.Errorf("invalid ratio %v, want 0", m.InvalidParityRatio)
		}
		return
	}
	t.Fatal("RDP via RAID-4 not found")
}

// TestXCodeExtraSpace checks Fig. 1(c)/Fig. 12: direct conversion to X-Code
// reserves 2/p of each disk (40% at p=5), and invalidates all old parities.
func TestXCodeExtraSpace(t *testing.T) {
	for _, c := range StandardConversions(5) {
		if c.Code.Name() != "xcode" {
			continue
		}
		m := mustPlan(t, c).Metrics()
		if !approxEq(m.ExtraSpaceRatio, 0.4) {
			t.Errorf("extra space %v, want 0.40", m.ExtraSpaceRatio)
		}
		if !approxEq(m.InvalidParityRatio, 0.25) {
			t.Errorf("invalid ratio %v, want 1/4 (m=5 disks)", m.InvalidParityRatio)
		}
		return
	}
	t.Fatal("X-Code not in standard set for n=5")
}

// TestCode56WinsEverywhere asserts the paper's headline shape: at every
// compared n, Code 5-6's direct conversion has the lowest new-parity ratio,
// write I/Os, total I/Os and conversion time among every code's best
// approach, and is the only scheme with zero invalidation+migration.
func TestCode56WinsEverywhere(t *testing.T) {
	for _, n := range []int{5, 6, 7} {
		for _, lb := range []bool{false, true} {
			best, err := BestPlans(n, lb)
			if err != nil {
				t.Fatal(err)
			}
			c56, ok := best["code56"]
			if !ok {
				t.Fatalf("n=%d: Code 5-6 missing", n)
			}
			m56 := c56.Metrics()
			for name, pl := range best {
				if name == "code56" {
					continue
				}
				m := pl.Metrics()
				if m.NewParityRatio < m56.NewParityRatio {
					t.Errorf("n=%d: %s new-parity ratio %.3f beats Code 5-6's %.3f", n, name, m.NewParityRatio, m56.NewParityRatio)
				}
				if m.TotalIORatio < m56.TotalIORatio {
					t.Errorf("n=%d: %s total I/O %.3f beats Code 5-6's %.3f", n, name, m.TotalIORatio, m56.TotalIORatio)
				}
				if m.WriteRatio < m56.WriteRatio {
					t.Errorf("n=%d: %s writes %.3f beat Code 5-6's %.3f", n, name, m.WriteRatio, m56.WriteRatio)
				}
				time56, timeOther := m56.TimeNLB, m.TimeNLB
				if lb {
					time56, timeOther = m56.TimeLB, m.TimeLB
				}
				// Documented deviation (see EXPERIMENTS.md): at non-prime
				// n the virtual-disk geometry concentrates Code 5-6's
				// writes on the single added disk, and HDP edges it under
				// the NLB bottleneck model. Everywhere else Code 5-6 must
				// win outright.
				if name == "hdp" && !lb && n == 6 {
					continue
				}
				if timeOther < time56 {
					t.Errorf("n=%d lb=%v: %s time %.3f beats Code 5-6's %.3f", n, lb, name, timeOther, time56)
				}
				if m.InvalidParityRatio+m.MigrationRatio <= 0 {
					t.Errorf("n=%d: %s shows zero parity-handling cost; only Code 5-6 should", n, name)
				}
			}
		}
	}
}

// TestStandardConversionSetShape checks the §V-A pairing: horizontal codes
// get two approaches, vertical codes get direct only.
func TestStandardConversionSetShape(t *testing.T) {
	byName := map[string][]Approach{}
	for _, n := range []int{5, 6, 7} {
		for _, c := range StandardConversions(n) {
			byName[c.Code.Name()] = append(byName[c.Code.Name()], c.Approach)
			if c.N() != n {
				t.Errorf("conversion %s yields %d disks, want %d", c.Label(), c.N(), n)
			}
			if err := c.Validate(); err != nil {
				t.Errorf("%s: %v", c.Label(), err)
			}
		}
	}
	for _, name := range []string{"evenodd", "rdp", "hcode"} {
		for _, a := range byName[name] {
			if a == Direct {
				t.Errorf("%s paired with direct conversion; paper uses intermediate approaches", name)
			}
		}
	}
	for _, name := range []string{"xcode", "pcode", "pcode-p", "hdp", "code56"} {
		for _, a := range byName[name] {
			if a != Direct {
				t.Errorf("%s paired with %v; paper uses direct conversion", name, a)
			}
		}
	}
}

func TestValidateRejectsBadConversions(t *testing.T) {
	if err := (Conversion{M: 2, Code: core.MustNew(5), Approach: Direct}).Validate(); err == nil {
		t.Error("M=2 accepted")
	}
	if err := (Conversion{M: 4, Code: nil, Approach: Direct}).Validate(); err == nil {
		t.Error("nil code accepted")
	}
	if err := (Conversion{M: 6, Code: core.MustNew(5), Approach: Direct}).Validate(); err == nil {
		t.Error("M larger than target accepted")
	}
	// A RAID-0/4 approach needs added disks.
	if err := (Conversion{M: 5, SourceLayout: raid5.LeftAsymmetric, Code: core.MustNew(5), Approach: ViaRAID0}).Validate(); err == nil {
		t.Error("via-RAID0 without added disks accepted")
	}
}

// TestRotationPeriod: Code 5-6 realigns every stripe (period 1); EVENODD at
// p=5 absorbs 4 rows per stripe over 5 disks (period 5).
func TestRotationPeriod(t *testing.T) {
	if got := conv(4, core.MustNew(5), Direct).RotationPeriod(); got != 1 {
		t.Errorf("code56 period %d, want 1", got)
	}
	for _, c := range StandardConversions(7) {
		if c.Code.Name() == "evenodd" {
			if got := c.RotationPeriod(); got != 5 {
				t.Errorf("evenodd period %d, want 5", got)
			}
		}
	}
}

// TestPlanTotalsMatchPhaseIO: the aggregate helpers agree with the
// per-phase tables.
func TestPlanTotalsMatchPhaseIO(t *testing.T) {
	for _, c := range StandardConversions(6) {
		p := mustPlan(t, c)
		r, w := 0, 0
		for _, ph := range p.PhaseIO {
			for j := range ph.Reads {
				r += ph.Reads[j]
				w += ph.Writes[j]
			}
		}
		if p.TotalReads() != r || p.TotalWrites() != w {
			t.Errorf("%s: totals %d/%d vs phase sums %d/%d", c.Label(), p.TotalReads(), p.TotalWrites(), r, w)
		}
		// Op counts reconcile with the aggregates.
		var reuse, inval, mig, gen int
		for _, op := range p.Ops {
			switch op.Kind {
			case OpReuse:
				reuse++
			case OpInvalidate:
				inval++
			case OpMigrate:
				mig++
			case OpGenerate:
				gen++
			}
		}
		if reuse != p.Reused || mig != p.Migrated || gen != p.Generated {
			t.Errorf("%s: op counts r%d/m%d/g%d vs aggregates r%d/m%d/g%d",
				c.Label(), reuse, mig, gen, p.Reused, p.Migrated, p.Generated)
		}
		if inval > p.Invalidated {
			t.Errorf("%s: more NULL writes (%d) than invalidated parities (%d)", c.Label(), inval, p.Invalidated)
		}
	}
}

// TestOverlayClassification spot-checks the overlay builder on the
// conversions whose shapes the paper describes explicitly.
func TestOverlayClassification(t *testing.T) {
	// Code 5-6 m=4: anti-diagonal old parities, new last column, no
	// reserved cells.
	c := conv(4, core.MustNew(5), Direct)
	ov := buildOverlay(c, 0)
	if len(ov.DataRows) != 4 {
		t.Fatalf("code56 data rows %d, want 4", len(ov.DataRows))
	}
	for i, r := range ov.DataRows {
		if ov.OldParityCol[i] != 3-i {
			t.Errorf("row %d old parity col %d, want %d", r, ov.OldParityCol[i], 3-i)
		}
	}
	if n := ov.Count(Reserved); n != 0 {
		t.Errorf("code56 reserved cells %d, want 0", n)
	}
	if n := ov.Count(NewCell); n != 4 {
		t.Errorf("code56 new cells %d, want 4", n)
	}
	if n := ov.Count(OldData); n != 12 {
		t.Errorf("code56 old data %d, want 12", n)
	}

	// X-Code m=5: two reserved rows (Fig. 1(c)'s 40%).
	for _, cx := range StandardConversions(5) {
		if cx.Code.Name() != "xcode" {
			continue
		}
		ovx := buildOverlay(cx, 0)
		if n := ovx.Count(Reserved); n != 10 {
			t.Errorf("xcode reserved cells %d, want 10 (two rows of five)", n)
		}
		if len(ovx.OldDataCells()) != 12 {
			t.Errorf("xcode old data %d, want 12", len(ovx.OldDataCells()))
		}
	}
}

// TestReliabilityProfileDirectly exercises the profiler on hand-picked
// plans (the analysis-level Table VI test covers the matrix).
func TestReliabilityProfileDirectly(t *testing.T) {
	p := mustPlan(t, conv(4, core.MustNew(5), Direct))
	rel := p.ReliabilityProfile()
	if !rel.SingleFailureSafe || rel.Grade != ReliabilityHigh || rel.ParityMoves != 0 {
		t.Errorf("code56 direct reliability %+v, want safe/High/0 moves", rel)
	}
	for _, c := range StandardConversions(6) {
		if c.Code.Name() == "rdp" && c.Approach == ViaRAID0 {
			rel := mustPlan(t, c).ReliabilityProfile()
			if rel.SingleFailureSafe || rel.Grade != ReliabilityLow || rel.UnsafeSteps == 0 {
				t.Errorf("rdp via-raid0 reliability %+v, want unsafe/Low", rel)
			}
		}
	}
	for _, g := range []ReliabilityGrade{ReliabilityLow, ReliabilityMedium, ReliabilityHigh, ReliabilityGrade(9)} {
		if g.String() == "" {
			t.Error("empty grade string")
		}
	}
}

// TestRightLayoutPlansMatch: right-symmetric and right-asymmetric sources
// share parity positions, so their Code 5-6 (Right) conversion plans carry
// identical metrics — and match the left-oriented baseline (Fig. 7).
func TestRightLayoutPlansMatch(t *testing.T) {
	right, err := core.NewOriented(5, core.Right)
	if err != nil {
		t.Fatal(err)
	}
	ra := mustPlan(t, Conversion{M: 4, SourceLayout: raid5.RightAsymmetric, Code: right, Approach: Direct})
	rs := mustPlan(t, Conversion{M: 4, SourceLayout: raid5.RightSymmetric, Code: right, Approach: Direct})
	left := mustPlan(t, conv(4, core.MustNew(5), Direct))
	if ra.Metrics() != rs.Metrics() {
		t.Error("right-asymmetric and right-symmetric plans differ")
	}
	if ra.Metrics() != left.Metrics() {
		t.Error("right-oriented plan differs from the left-oriented baseline")
	}
	if ra.Reused != 4 || ra.Invalidated != 0 {
		t.Errorf("right-oriented plan reused %d, invalidated %d", ra.Reused, ra.Invalidated)
	}
	ex := NewExecutor(ra, 32, 5)
	if err := ex.RunContext(context.Background(), parallel.WithWorkers(1)); err != nil {
		t.Fatal(err)
	}
	if err := ex.VerifyResult(); err != nil {
		t.Fatal(err)
	}
}

// TestDescribe smoke-tests the operator-facing plan dump.
func TestDescribe(t *testing.T) {
	p := mustPlan(t, conv(4, core.MustNew(5), Direct))
	var b strings.Builder
	if err := p.Describe(&b, 5); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"plan:", "reused", "phase 0", "reuse", "more operations"} {
		if !strings.Contains(out, want) {
			t.Errorf("describe output missing %q:\n%s", want, out)
		}
	}
	b.Reset()
	if err := p.Describe(&b, 0); err != nil { // unbounded
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "more operations") {
		t.Error("unbounded describe should not truncate")
	}
}
