// Command c56-layout prints the stripe layouts of the array codes — the
// textual counterpart of the paper's Figures 2 (RDP), 3 (X-Code), 4
// (Code 5-6) and 7 (right-oriented Code 5-6) — and, optionally, individual
// parity chains.
//
// Usage:
//
//	c56-layout                      # all codes at p=5
//	c56-layout -code code56 -p 7
//	c56-layout -code code56 -chain 6    # one chain's members
package main

import (
	"flag"
	"fmt"
	"os"

	"code56/internal/codes/evenodd"
	"code56/internal/codes/hcode"
	"code56/internal/codes/hdp"
	"code56/internal/codes/pcode"
	"code56/internal/codes/rdp"
	"code56/internal/codes/xcode"
	"code56/internal/core"
	"code56/internal/layout"
	"code56/internal/obs"
)

func main() {
	var (
		codeName = flag.String("code", "", "one code to print (default: all)")
		p        = flag.Int("p", 5, "prime parameter")
		chain    = flag.Int("chain", -1, "also render this chain index")
	)
	cli := obs.Flags(flag.CommandLine, false)
	flag.Parse()
	err := cli.Start()
	if err == nil {
		err = run(*codeName, *p, *chain)
	}
	if err := cli.Finish(err); err != nil {
		fmt.Fprintln(os.Stderr, "c56-layout:", err)
		os.Exit(1)
	}
}

func codesAt(p int) ([]layout.Code, error) {
	c56, err := core.New(p)
	if err != nil {
		return nil, err
	}
	c56r, err := core.NewOriented(p, core.Right)
	if err != nil {
		return nil, err
	}
	out := []layout.Code{c56, c56r}
	if r, err := rdp.New(p); err == nil {
		out = append(out, r)
	}
	if e, err := evenodd.New(p); err == nil {
		out = append(out, e)
	}
	if x, err := xcode.New(p); err == nil {
		out = append(out, x)
	}
	if h, err := hcode.New(p); err == nil {
		out = append(out, h)
	}
	if h, err := hdp.New(p); err == nil {
		out = append(out, h)
	}
	if pc, err := pcode.New(p, pcode.VariantPMinus1); err == nil {
		out = append(out, pc)
	}
	if pc, err := pcode.New(p, pcode.VariantP); err == nil {
		out = append(out, pc)
	}
	return out, nil
}

func run(codeName string, p, chain int) error {
	codes, err := codesAt(p)
	if err != nil {
		return err
	}
	for _, c := range codes {
		if codeName != "" && c.Name() != codeName {
			continue
		}
		if err := layout.RenderLayout(os.Stdout, c); err != nil {
			return err
		}
		fmt.Println()
		if chain >= 0 {
			if err := layout.RenderChain(os.Stdout, c, chain); err != nil {
				return err
			}
			fmt.Println()
		}
	}
	return nil
}
