// Command hdbench regenerates the paper's tables and figures (every
// figure of §2, §6, and §7 plus the DESIGN.md ablations), printing
// each as a text table and writing CSV series to -out.
//
//	hdbench                    # all figures, reduced scale
//	hdbench -scale full        # paper-scale populations (slow)
//	hdbench -fig fig7,fig9     # selected figures
//	hdbench -list              # list figure IDs
//
// Performance is measured by perfbench/run.sh, not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/hyperdrive-ml/hyperdrive/internal/figures"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hdbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("hdbench", flag.ContinueOnError)
	var (
		fig   = fs.String("fig", "", "comma-separated figure IDs (default: all)")
		scale = fs.String("scale", "fast", "experiment scale: fast | full")
		seed  = fs.Int64("seed", 1, "configuration sampling seed")
		out   = fs.String("out", "results", "CSV output directory (empty to disable)")
		list  = fs.Bool("list", false, "list figure IDs and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, id := range figures.IDs() {
			fmt.Printf("%-18s %s\n", id, figures.Describe(id))
		}
		return nil
	}

	ids := figures.IDs()
	if *fig != "" {
		ids = strings.Split(*fig, ",")
	}
	opts := figures.Options{Scale: *scale, Seed: *seed, OutDir: *out}
	for _, id := range ids {
		start := time.Now()
		rep, err := figures.Run(strings.TrimSpace(id), opts)
		if err != nil {
			return err
		}
		rep.Print(os.Stdout)
		fmt.Printf("(%s regenerated in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if *out != "" {
		fmt.Printf("CSV series written to %s/\n", *out)
	}
	return nil
}
