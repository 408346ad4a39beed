package main

import (
	"errors"
	"math/rand"
	"time"

	code56 "code56"
	"code56/internal/layout"
	"code56/internal/xorblk"
)

// Calibrations measure the layers below the array on their own, at
// recover-p13's geometry (Code 5-6 p=13, 16 KiB blocks), so every run
// prints the kernel -> code -> array ratios instead of leaving them to be
// inferred from separate benchmarks.
const (
	calibP         = 13
	calibBlockSize = 16384
	calibReps      = 5
	calibRepTime   = 40 * time.Millisecond
)

// rate runs f repeatedly for calibRepTime, calibReps times, and returns
// the median of bytesPerCall/second in MB/s.
func rate(bytesPerCall float64, f func() error) (float64, error) {
	var rates []float64
	for i := 0; i < calibReps; i++ {
		n := 0
		t0 := time.Now()
		for time.Since(t0) < calibRepTime {
			if err := f(); err != nil {
				return 0, err
			}
			n++
		}
		rates = append(rates, bytesPerCall*float64(n)/1e6/time.Since(t0).Seconds())
	}
	return median(rates), nil
}

var errDecode = errors.New("calibration: two-column decode did not restore the stripe")

type calibration struct {
	encodeMBs, decode2MBs, foldMBs float64
}

func calibrate(seed int64) (calibration, error) {
	var c calibration
	code, err := code56.New(calibP)
	if err != nil {
		return c, err
	}
	g := code.Geometry()
	r := rand.New(rand.NewSource(seed))
	s := layout.NewStripe(g, calibBlockSize)
	s.FillRandom(code, r)
	dataBytes := float64(len(layout.DataElements(code)) * calibBlockSize)

	enc := layout.NewEncoder(code)
	if c.encodeMBs, err = rate(dataBytes, func() error { enc.Encode(s); return nil }); err != nil {
		return c, err
	}
	// Two-column decode of the columns a double-disk rebuild loses first.
	work := s.Clone()
	cols := r.Perm(g.Cols)[:2]
	if c.decode2MBs, err = rate(dataBytes, func() error {
		es := layout.EraseColumns(work, cols...)
		_, err := layout.Reconstruct(code, work, es)
		return err
	}); err != nil {
		return c, err
	}
	if !work.Equal(s) {
		return c, errDecode
	}

	// One parity cell's fold: p-2 sources of one block each.
	dst := make([]byte, calibBlockSize)
	srcs := make([][]byte, calibP-2)
	for i := range srcs {
		srcs[i] = make([]byte, calibBlockSize)
		r.Read(srcs[i])
	}
	c.foldMBs, err = rate(float64(len(srcs)*calibBlockSize), func() error { xorblk.XorMulti(dst, srcs...); return nil })
	return c, err
}

// into records the calibrations beside the outcome's array figures.
func (c calibration) into(o *outcome) {
	o.layers["layout.encode_mb_s"] = c.encodeMBs
	o.layers["layout.decode2_mb_s"] = c.decode2MBs
	o.layers["xorblk.fold_mb_s"] = c.foldMBs
	if enc, ok := o.layers["raid6.encode_mb_s"]; ok {
		o.layers["raid6.encode_vs_layout"] = enc / c.encodeMBs
	}
}
