// Command dgbench regenerates the paper's tables and figures as measured
// experiments. Run all of them or one by ID; `dgbench -experiment list`
// prints the index, and ARCHITECTURE.md's "CLIs and experiments" describes
// how experiments are built:
//
//	dgbench -experiment all
//	dgbench -experiment table1-thm12 -quick
//
// An experiment whose rows are scenario cells is also a sweep document that
// `dgsim -spec internal/expt/sweeps/<id>.json` runs at full size.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"dualgraph/internal/engine"
	"dualgraph/internal/expt"
	"dualgraph/internal/registry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dgbench:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dgbench", flag.ContinueOnError)
	var (
		id         = fs.String("experiment", "all", "experiment id, 'all', or 'list'")
		quick      = fs.Bool("quick", false, "smaller sweeps and trial counts")
		seed       = fs.Int64("seed", 1, "random seed")
		workers    = fs.Int("workers", 0, "trial engine worker count (0 = one per CPU); output is identical at any value")
		list       = fs.Bool("list", false, "print registered topologies/algorithms/adversaries/schedules with parameter docs, then exit (use -experiment list for the experiment index)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memprofile = fs.String("memprofile", "", "write a post-GC heap profile to this file after the run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		// Open eagerly so a bad path fails before minutes of work, write on
		// the way out so the profile reflects live heap at end of run.
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dgbench: memprofile:", err)
			}
			f.Close()
		}()
	}
	if *list {
		// -list is a pure query; reject any other explicitly-set flag
		// instead of silently ignoring it.
		conflict := ""
		fs.Visit(func(f *flag.Flag) {
			if f.Name != "list" {
				conflict = f.Name
			}
		})
		if conflict != "" {
			return fmt.Errorf("-list prints the registry and runs nothing; drop -%s", conflict)
		}
		registry.WriteList(w)
		return nil
	}
	cfg := expt.Config{
		Out:    w,
		Quick:  *quick,
		Seed:   *seed,
		Engine: engine.Config{Workers: *workers},
	}

	switch *id {
	case "list":
		for _, e := range expt.All() {
			fmt.Fprintf(w, "%-26s %s\n", e.ID, e.Title)
		}
		return nil
	case "all":
		for i, e := range expt.All() {
			if i > 0 {
				fmt.Fprintln(w)
			}
			if err := e.Run(cfg); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
		}
		return nil
	default:
		e, ok := expt.ByID(*id)
		if !ok {
			var ids []string
			for _, x := range expt.All() {
				ids = append(ids, x.ID)
			}
			return fmt.Errorf("unknown experiment %q; known: %s", *id, strings.Join(ids, ", "))
		}
		return e.Run(cfg)
	}
}
