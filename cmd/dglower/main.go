// Command dglower runs the paper's lower-bound constructions against a
// chosen deterministic algorithm and reports the forced round counts.
//
//	dglower -game thm2 -n 32 -alg round-robin
//	dglower -game thm12 -n 33 -alg strong-select
//	dglower -game thm4 -n 18 -k 6
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"dualgraph"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dglower:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("dglower", flag.ContinueOnError)
	var (
		game    = fs.String("game", "thm2", "lower-bound game: thm2|thm4|thm12")
		n       = fs.Int("n", 32, "network size (thm12 needs odd n with n-1 a power of two)")
		algName = fs.String("alg", "", "algorithm: round-robin|strong-select for thm2 and thm12 (default round-robin), harmonic|uniform for thm4 (default harmonic)")
		k       = fs.Int("k", 0, "round budget for thm4 (default n/3)")
		trials  = fs.Int("trials", 200, "Monte-Carlo trials for thm4")
		seed    = fs.Int64("seed", 1, "random seed (thm4)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch *game {
	case "thm2":
		alg, err := deterministicAlg(*algName, *n)
		if err != nil {
			return err
		}
		res, err := dualgraph.RunTheorem2Game(*n, alg, 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Theorem 2 game: n=%d alg=%s\n", *n, alg.Name())
		fmt.Fprintf(w, "  forced rounds: %d (bound: > n-3 = %d)\n", res.ForcedRounds, *n-3)
		fmt.Fprintf(w, "  worst bridge process: %d\n", res.WorstBridgePid)
		fmt.Fprintf(w, "  2-broadcastability witness: %d rounds\n", res.WitnessRounds)
		return nil

	case "thm12":
		alg, err := deterministicAlg(*algName, *n)
		if err != nil {
			return err
		}
		res, err := dualgraph.RunTheorem12Game(*n, alg, 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Theorem 12 game: n=%d alg=%s\n", *n, alg.Name())
		fmt.Fprintf(w, "  forced rounds: %d (theory bound: %d)\n", res.ForcedRounds, res.TheoryBound)
		fmt.Fprintf(w, "  stages: %d/%d, extensions: %v\n", res.StagesCompleted, res.StagesPlanned, res.StageExtensions)
		if res.HitHorizon {
			fmt.Fprintln(w, "  note: a stage hit the horizon; the algorithm failed to keep isolating")
		}
		return nil

	case "thm4":
		budget := *k
		if budget == 0 {
			budget = *n / 3
		}
		var alg dualgraph.Algorithm
		var err error
		switch *algName {
		case "", "harmonic":
			alg, err = dualgraph.NewHarmonicForN(*n, 0.1)
		case "uniform":
			alg, err = dualgraph.NewUniform(0.25)
		default:
			return fmt.Errorf("thm4 needs a randomized algorithm (harmonic|uniform), got %q", *algName)
		}
		if err != nil {
			return err
		}
		res, err := dualgraph.RunTheorem4(*n, budget, *trials, alg, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "Theorem 4 Monte-Carlo: n=%d k=%d trials=%d alg=%s\n", *n, budget, *trials, alg.Name())
		fmt.Fprintf(w, "  min success probability: %.3f (worst bridge pid %d)\n", res.MinSuccess, res.WorstBridgePid)
		fmt.Fprintf(w, "  Theorem 4 bound k/(n-2): %.3f\n", res.Bound)
		return nil
	}
	return fmt.Errorf("unknown game %q", *game)
}

func deterministicAlg(name string, n int) (dualgraph.Algorithm, error) {
	switch name {
	case "", "round-robin":
		return dualgraph.NewRoundRobin(), nil
	case "strong-select":
		return dualgraph.NewStrongSelect(n)
	}
	return nil, fmt.Errorf("unknown deterministic algorithm %q", name)
}
