// Command mmexperiments regenerates the paper's quantitative artifacts
// (Figure 4, the continuity equations' frontiers, Eq. 17's n_max, the
// Eq. 18 transition, the Eq. 19/20 editing copy bounds, read-ahead,
// silence elimination, fast-forward, and the HDTV motivating
// arithmetic) and prints each as a table with paper-vs-measured notes.
//
// Usage:
//
//	mmexperiments             # run everything
//	mmexperiments -exp f4     # run one experiment
//	mmexperiments -list       # list experiment IDs
//	mmexperiments -seed 1000  # offset the seeded chaos workloads
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"mmfs/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and output streams; it returns
// the exit status: 2 for a bad flag or an unknown experiment.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("mmexperiments", flag.ContinueOnError)
	fl.SetOutput(stderr)
	exp := fl.String("exp", "", "run a single experiment ("+strings.Join(experiments.IDs(), ", ")+")")
	list := fl.Bool("list", false, "list experiment IDs and exit")
	seed := fl.Int64("seed", 0, "offset for the seeded chaos workloads (EXP-FT, EXP-STRIPE, EXP-QOS, EXP-REBUILD); 0 keeps the default seeds")
	if err := fl.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	experiments.SetSeedBase(*seed)
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}
	if *exp != "" {
		run, ok := experiments.ByID(*exp)
		if !ok {
			fmt.Fprintf(stderr, "mmexperiments: unknown experiment %q (try -list)\n", *exp)
			return 2
		}
		experiments.Render(stdout, run())
		return 0
	}
	for _, r := range experiments.All() {
		experiments.Render(stdout, r)
	}
	return 0
}
