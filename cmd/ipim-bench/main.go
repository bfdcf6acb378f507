// Command ipim-bench regenerates the paper's evaluation tables and
// figures (see DESIGN.md §4 for the experiment index).
//
// Usage:
//
//	ipim-bench                 # run everything at full bench sizes
//	ipim-bench -exp fig6       # one experiment
//	ipim-bench -div 4          # shrink images 4x for a quick pass
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"ipim"
	"ipim/internal/cliutil"
	"ipim/internal/exp"
)

func main() {
	expName := flag.String("exp", "all", "experiment to run: all, "+strings.Join(exp.ExperimentNames(), ", "))
	div := flag.Int("div", 1, "divide bench image sizes by this factor (faster, same shapes)")
	faultSpec := flag.String("faults", "",
		"fault-injection spec applied to every simulated machine (empty = off; the faults sweep manages its own plans)")
	maxCycles := flag.Int64("max-cycles", 0,
		"hard per-run simulated-cycle budget for every experiment machine (0 = unlimited)")
	flag.Parse()

	if *expName != "all" {
		if err := cliutil.Check("exp", *expName, exp.ExperimentNames()); err != nil {
			fmt.Fprintln(os.Stderr, "ipim-bench:", err)
			os.Exit(1)
		}
	}
	plan, err := ipim.ParseFaultPlan(*faultSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ipim-bench:", err)
		os.Exit(1)
	}

	c := exp.NewContext()
	c.SizeDiv = *div
	c.Faults = plan
	c.MaxCycles = *maxCycles

	run := func(name string) error {
		t0 := time.Now()
		tb, err := c.ByName(name)
		if err != nil {
			return err
		}
		fmt.Print(tb.Format())
		fmt.Printf("(%s regenerated in %v)\n\n", name, time.Since(t0).Round(time.Millisecond))
		return nil
	}

	if *expName == "all" {
		for _, name := range exp.ExperimentNames() {
			if err := run(name); err != nil {
				fmt.Fprintln(os.Stderr, "ipim-bench:", err)
				os.Exit(1)
			}
		}
		return
	}
	if err := run(*expName); err != nil {
		fmt.Fprintln(os.Stderr, "ipim-bench:", err)
		os.Exit(1)
	}
}
