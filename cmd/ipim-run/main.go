// Command ipim-run executes one Table II workload end-to-end on the
// simulated machine, verifies it against the host golden model, and
// prints the run statistics.
//
// Usage:
//
//	ipim-run -workload GaussianBlur
//	ipim-run -workload Histogram -W 512 -H 256 -opts baseline1
//	ipim-run -workload Histogram -checkpoint run.ckpt   # ^C-safe
//	ipim-run -workload Histogram -resume run.ckpt       # continue it
//	ipim-run -list
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"ipim"
	"ipim/internal/ckpt"
	"ipim/internal/cliutil"
	"ipim/internal/isa"
	"ipim/internal/pixel"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ipim-run: ")
	name := flag.String("workload", "GaussianBlur", "Table II workload name")
	width := flag.Int("W", 0, "input width (0 = workload bench default)")
	height := flag.Int("H", 0, "input height (0 = workload bench default)")
	optName := flag.String("opts", "opt", "compiler config: opt, baseline1..baseline4")
	list := flag.Bool("list", false, "list workloads and exit")
	seed := flag.Uint64("seed", 1, "synthetic image seed")
	inFile := flag.String("in", "", "input PGM file (overrides -W/-H/-seed)")
	outFile := flag.String("out", "", "write the result as a PGM file")
	faultSpec := flag.String("faults", "",
		"fault-injection spec, e.g. seed=7,dram=1e-5,multibit=0.2,link=1e-6,exec=1e-4 (empty = off)")
	maxCycles := flag.Int64("max-cycles", 0,
		"abort the run after this many simulated cycles (0 = unlimited)")
	ckptFile := flag.String("checkpoint", "",
		"stream machine checkpoints to this file at phase barriers, so an interrupted run (^C) can continue with -resume")
	ckptEvery := flag.Int64("checkpoint-every", 0,
		"minimum simulated-cycle spacing between checkpoints (0 = every barrier; needs -checkpoint)")
	resumeFile := flag.String("resume", "",
		"resume an interrupted run from this checkpoint file (pass the same workload flags as the original run)")
	flag.Parse()

	if *list {
		for _, wl := range ipim.Workloads() {
			kind := "single-stage"
			if wl.MultiStage {
				kind = "multi-stage"
			}
			fmt.Printf("%-16s %-12s %s\n", wl.Name, kind, wl.Description)
		}
		return
	}

	opts, err := cliutil.Options(*optName)
	if err != nil {
		log.Fatal(err)
	}
	wl, err := cliutil.Workload(*name)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := ipim.ParseFaultPlan(*faultSpec)
	if err != nil {
		log.Fatal(err)
	}
	every, err := cliutil.CheckpointInterval(*ckptEvery, *ckptFile, "checkpoint")
	if err != nil {
		log.Fatal(err)
	}
	if err := cliutil.ResumeFile(*resumeFile); err != nil {
		log.Fatal(err)
	}
	w, h := wl.BenchW, wl.BenchH
	if *width > 0 {
		w = *width
	}
	if *height > 0 {
		h = *height
	}

	cfg := ipim.OneVaultConfig()
	var m *ipim.Machine
	if *resumeFile != "" {
		// The checkpoint carries the machine state, the interrupted
		// run's budget and the fault plan; -faults is ignored here.
		f, err := os.Open(*resumeFile)
		if err != nil {
			log.Fatal(err)
		}
		m, err = ipim.RestoreMachine(f, cfg)
		f.Close()
		if err != nil {
			log.Fatalf("-resume %s: %v", *resumeFile, err)
		}
		if !m.HasResume() {
			log.Fatalf("-resume %s: checkpoint carries no interrupted run", *resumeFile)
		}
		fmt.Printf("resuming interrupted run from %s\n", *resumeFile)
	} else {
		m, err = ipim.NewMachine(cfg)
		if err != nil {
			log.Fatal(err)
		}
		m.SetFaultPlan(plan)
	}
	var img *ipim.Image
	if *inFile != "" {
		f, err := os.Open(*inFile)
		if err != nil {
			log.Fatal(err)
		}
		img, err = ipim.ReadPGM(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		w, h = img.W, img.H
	} else {
		img = ipim.Synth(w, h, *seed)
	}
	pipe := wl.Build().Pipe
	art, err := ipim.Compile(&cfg, pipe, w, h, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s on %dx%d (%s): %d SIMB instructions, %d spills\n",
		wl.Name, w, h, opts.Name(), len(art.Prog.Ins), art.Spills)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runOpts := ipim.RunOptions{MaxCycles: *maxCycles}
	if *ckptFile != "" {
		runOpts.CheckpointEvery = every
		runOpts.CheckpointSink = func(data []byte) error { return ckpt.WriteFile(*ckptFile, data) }
	}
	// fail reports a fatal run error; an interrupt (^C) under
	// checkpointing points at the resume command instead of just dying.
	fail := func(err error) {
		if errors.Is(err, ipim.ErrCancelled) && *ckptFile != "" {
			log.Fatalf("interrupted: %v\nresume with: -resume %s (plus the same workload flags)", err, *ckptFile)
		}
		log.Fatal(err)
	}

	var stats ipim.Stats
	var result *ipim.Image
	verified := false
	// Transient injected execution faults are retryable by contract:
	// rerun on the same machine (its fault counters have advanced). A
	// resumed run continues the checkpointed attempt first.
	const maxAttempts = 4
	if pipe.Histogram {
		var bins []int32
		for attempt := 1; ; attempt++ {
			var err error
			if m.HasResume() {
				bins, stats, err = ipim.ResumeHistogram(ctx, m, art, runOpts)
			} else {
				bins, stats, err = ipim.RunHistogramContext(ctx, m, art, img, runOpts)
			}
			if err == nil {
				break
			}
			if !errors.Is(err, ipim.ErrTransientFault) || attempt == maxAttempts {
				fail(err)
			}
			fmt.Printf("transient fault (attempt %d/%d): %v; retrying\n", attempt, maxAttempts, err)
		}
		want, err := pipe.ReferenceHistogram(img)
		if err != nil {
			log.Fatal(err)
		}
		verified = true
		for i := range want {
			if bins[i] != want[i] {
				verified = false
			}
		}
	} else {
		for attempt := 1; ; attempt++ {
			var err error
			if m.HasResume() {
				result, stats, err = ipim.ResumeRun(ctx, m, art, runOpts)
			} else {
				result, stats, err = ipim.RunContext(ctx, m, art, img, runOpts)
			}
			if err == nil {
				break
			}
			if !errors.Is(err, ipim.ErrTransientFault) || attempt == maxAttempts {
				fail(err)
			}
			fmt.Printf("transient fault (attempt %d/%d): %v; retrying\n", attempt, maxAttempts, err)
		}
		want, err := pipe.Reference(img)
		if err != nil {
			log.Fatal(err)
		}
		verified = pixel.MaxAbsDiff(result, want) == 0
	}
	if *outFile != "" && result != nil {
		f, err := os.Create(*outFile)
		if err != nil {
			log.Fatal(err)
		}
		if err := ipim.WritePGM(f, result); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("wrote %s (%dx%d)\n", *outFile, result.W, result.H)
	}
	switch {
	case verified:
		fmt.Println("verified against host golden model")
	case plan.Enabled():
		fmt.Println("output differs from the host golden model (expected: fault injection active)")
	default:
		fmt.Println("VERIFICATION FAILED: output differs from the host golden model")
		os.Exit(1)
	}
	if plan.Enabled() {
		fmt.Printf("faults (%s): %d ECC corrected, %d uncorrected, %d link retransmits (+%d flits)\n",
			plan, stats.DRAM.ECCCorrected, stats.DRAM.ECCUncorrected,
			stats.NoC.LinkFaults, stats.NoC.RetransmitFlits)
	}
	fmt.Printf("cycles: %d  issued: %d  IPC: %.3f\n", stats.Cycles, stats.Issued, stats.IPC())
	fmt.Println("instruction mix:")
	for cat := isa.Category(0); cat < isa.NumCategories; cat++ {
		fmt.Printf("  %-14s %6.2f%%\n", cat, stats.CategoryFraction(cat)*100)
	}
	fmt.Printf("DRAM: %d reads, %d writes, %d activates, %.1f%% row hits\n",
		stats.DRAM.Reads, stats.DRAM.Writes, stats.DRAM.Activates,
		100*float64(stats.DRAM.RowHits)/float64(max(1, stats.DRAM.RowHits+stats.DRAM.RowMisses)))
	b := ipim.EnergyOf(&stats, cfg.TotalPEs(), cfg.TotalVaults())
	fmt.Printf("energy: %.4g mJ (PIM dies %.1f%%)\n", b.Total()*1e3, b.PIMDieFraction()*100)

	g, err := ipim.GPUBaseline(pipe, w, h)
	if err != nil {
		log.Fatal(err)
	}
	full := ipim.DefaultConfig()
	machineTime := float64(stats.Cycles) * 1e-9 / float64(full.TotalVaults())
	fmt.Printf("full-machine speedup over the V100 baseline: %.2fx; energy saving %.1f%%\n",
		g.TimeSec/machineTime, (1-b.Total()/g.EnergyJ)*100)
}
