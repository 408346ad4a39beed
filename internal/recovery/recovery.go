// Package recovery generalizes the paper's §III-E-4 hybrid single-disk
// recovery (after Xiang et al., SIGMETRICS 2010) to every array code in
// the repository: when one disk fails, each lost element can usually be
// rebuilt through more than one parity chain, and choosing the combination
// that maximizes shared reads minimizes the total blocks fetched — which
// shortens rebuild time (MTTR) and thus raises reliability.
//
// The planner searches the per-element chain choices exhaustively when the
// space is small and by hill climbing otherwise; the resulting plan can be
// executed against a stripe and is verified by tests to equal Code 5-6's
// specialized planner where both apply.
package recovery

import (
	"context"
	"fmt"
	"math"
	"sync"

	"code56/internal/layout"
	"code56/internal/parallel"
	"code56/internal/telemetry"
)

// Plan is a read-minimizing rebuild schedule for one failed column.
type Plan struct {
	// Failed is the failed column.
	Failed int
	// Lost lists the column's cells in rebuild order.
	Lost []layout.Coord
	// ChainOf[i] is the index (into Code.Chains()) of the chain used to
	// rebuild Lost[i].
	ChainOf []int
	// Reads is the number of distinct surviving blocks the plan touches.
	Reads int
	// Candidates is the total number of usable (cell, chain) pairs the
	// planner chose from.
	Candidates int
}

// candidatesFor returns the chains that can rebuild cell c when only
// column `failed` is lost: chains containing c and no other cell of that
// column.
func candidatesFor(code layout.Code, c layout.Coord, failed int) []int {
	var out []int
	for i, ch := range code.Chains() {
		containsC := false
		usable := true
		for _, m := range ch.Members() {
			if m == c {
				containsC = true
				continue
			}
			if m.Col == failed {
				usable = false
				break
			}
		}
		if containsC && usable {
			out = append(out, i)
		}
	}
	return out
}

// readSet accumulates the distinct blocks read for a particular choice.
func readSet(code layout.Code, lost []layout.Coord, choice []int) int {
	read := make(map[layout.Coord]bool)
	for i, c := range lost {
		for _, m := range code.Chains()[choice[i]].Members() {
			if m != c {
				read[m] = true
			}
		}
	}
	return len(read)
}

// exhaustiveLimit bounds the exact search over chain-choice combinations.
const exhaustiveLimit = 1 << 16

// PlanColumn computes a read-minimizing plan for rebuilding column failed.
func PlanColumn(code layout.Code, failed int) (Plan, error) {
	g := code.Geometry()
	if failed < 0 || failed >= g.Cols {
		return Plan{}, fmt.Errorf("recovery: column %d outside 0..%d", failed, g.Cols-1)
	}
	var lost []layout.Coord
	for r := 0; r < g.Rows; r++ {
		lost = append(lost, layout.Coord{Row: r, Col: failed})
	}
	cands := make([][]int, len(lost))
	total := 0
	combos := 1.0
	for i, c := range lost {
		cands[i] = candidatesFor(code, c, failed)
		if len(cands[i]) == 0 {
			return Plan{}, fmt.Errorf("recovery: cell %v has no usable chain — not single-failure recoverable", c)
		}
		total += len(cands[i])
		combos *= float64(len(cands[i]))
	}

	choice := make([]int, len(lost))
	best := make([]int, len(lost))
	bestReads := math.MaxInt

	if combos <= exhaustiveLimit {
		var rec func(i int)
		rec = func(i int) {
			if i == len(lost) {
				if n := readSet(code, lost, choice); n < bestReads {
					bestReads = n
					copy(best, choice)
				}
				return
			}
			for _, ch := range cands[i] {
				choice[i] = ch
				rec(i + 1)
			}
		}
		rec(0)
	} else {
		// Hill climbing from the first-candidate baseline: repeatedly
		// adopt the single-cell change that shrinks the read set most.
		for i := range choice {
			choice[i] = cands[i][0]
		}
		cur := readSet(code, lost, choice)
		for improved := true; improved; {
			improved = false
			for i := range lost {
				orig := choice[i]
				for _, alt := range cands[i] {
					if alt == orig {
						continue
					}
					choice[i] = alt
					if n := readSet(code, lost, choice); n < cur {
						cur = n
						orig = alt
						improved = true
					} else {
						choice[i] = orig
					}
				}
				choice[i] = orig
			}
		}
		bestReads = cur
		copy(best, choice)
	}

	return Plan{Failed: failed, Lost: lost, ChainOf: best, Reads: bestReads, Candidates: total}, nil
}

// ConventionalReads returns the read cost of the baseline strategy: every
// lost element rebuilt through its horizontal-family chain where one
// exists, else the first usable chain (vertical codes).
func ConventionalReads(code layout.Code, failed int) (int, error) {
	g := code.Geometry()
	var lost []layout.Coord
	choice := make([]int, 0, g.Rows)
	for r := 0; r < g.Rows; r++ {
		c := layout.Coord{Row: r, Col: failed}
		cands := candidatesFor(code, c, failed)
		if len(cands) == 0 {
			return 0, fmt.Errorf("recovery: cell %v unrecoverable", c)
		}
		pick := cands[0]
		for _, i := range cands {
			if code.Chains()[i].Kind == layout.ParityH {
				pick = i
				break
			}
		}
		lost = append(lost, c)
		choice = append(choice, pick)
	}
	return readSet(code, lost, choice), nil
}

// Execute rebuilds the failed column of s in place per the plan. The failed
// column's blocks are assumed zeroed. Chains are solved in an order that
// respects dependencies (a chain whose parity is itself lost is solved
// after that parity's own rebuild — cannot happen here since each chain
// avoids the failed column except for its target cell). The rebuild runs
// in a "recovery.rebuild" span with one event per recovered element (chain
// used, XORs spent) and bumps the recovery.elements_rebuilt /
// recovery.xors / recovery.blocks_read counters. Pass nil for either reg
// or tr to use the process-wide defaults.
func (p Plan) Execute(code layout.Code, s *layout.Stripe, reg *telemetry.Registry, tr *telemetry.Tracer) (layout.DecodeStats, error) {
	sp := tr.StartSpan("recovery.rebuild",
		telemetry.A("code", code.Name()),
		telemetry.A("failed_column", p.Failed),
		telemetry.A("elements", len(p.Lost)))
	var st layout.DecodeStats
	chains := code.Chains()
	read := make(map[layout.Coord]bool, 4*len(p.Lost))
	for i, c := range p.Lost {
		ch := chains[p.ChainOf[i]]
		before := st.XORs
		layout.SolveChainTracked(s, ch, c, read, &st)
		sp.Event("recovery.element",
			telemetry.A("row", c.Row),
			telemetry.A("chain", p.ChainOf[i]),
			telemetry.A("xors", st.XORs-before),
			telemetry.A("reads_so_far", len(read)))
	}
	st.BlocksRead = len(read)
	reg.Counter("recovery.elements_rebuilt").Add(int64(len(p.Lost)))
	reg.Counter("recovery.xors").Add(int64(st.XORs))
	reg.Counter("recovery.blocks_read").Add(int64(st.BlocksRead))
	if st.BlocksRead != p.Reads {
		err := fmt.Errorf("recovery: executed %d reads, plan promised %d", st.BlocksRead, p.Reads)
		sp.End(telemetry.A("error", err.Error()))
		return st, err
	}
	sp.End(telemetry.A("reads", st.BlocksRead), telemetry.A("xors", st.XORs))
	return st, nil
}

// ExecuteStripes rebuilds the plan's failed column across many stripes of
// one array concurrently: the plan is computed once per code (chain choices
// do not depend on block contents), and each stripe's rebuild touches only
// that stripe's blocks, so stripes fan out over internal/parallel's pool
// per parallel.WithWorkers (in contiguous cache-budget batches, see
// parallel.ForEachBatch / WithBatchBytes). Every stripe's failed-column
// blocks are assumed zeroed, as for Execute. It returns the aggregated
// DecodeStats (sums over stripes) and stops at the first failing stripe or
// ctx cancellation. Telemetry counters are bumped per stripe exactly as
// Execute does; pass nil reg/tr for the process-wide defaults.
func (p Plan) ExecuteStripes(ctx context.Context, code layout.Code, stripes []*layout.Stripe, reg *telemetry.Registry, tr *telemetry.Tracer, opts ...parallel.Option) (layout.DecodeStats, error) {
	var (
		mu    sync.Mutex
		total layout.DecodeStats
	)
	var itemBytes int64
	if len(stripes) > 0 {
		g := stripes[0].Geom
		itemBytes = int64(g.Elements()) * int64(stripes[0].BlockSize)
	}
	err := parallel.ForEachBatch(ctx, int64(len(stripes)), itemBytes, func(i int64) error {
		st, err := p.Execute(code, stripes[i], reg, tr)
		if err != nil {
			return fmt.Errorf("recovery: stripe %d: %w", i, err)
		}
		mu.Lock()
		total.XORs += st.XORs
		total.BlocksRead += st.BlocksRead
		total.Recovered += st.Recovered
		mu.Unlock()
		return nil
	}, opts...)
	return total, err
}
