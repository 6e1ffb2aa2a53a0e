// Command bvbench regenerates the paper's tables and figures. Each
// experiment prints a table of method x {space, time} rows comparable
// to the corresponding figure or table in the paper.
//
// Usage:
//
//	bvbench -exp fig3                 # one experiment
//	bvbench -exp all -domain 22       # full sweep over a 2^22 domain
//	bvbench -exp tab1 -codecs Roaring,PEF,SIMDBP128*
//	bvbench -list                     # show the experiment registry
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		expFlag    = flag.String("exp", "all", "experiment id (fig3..fig12, tab1..tab3) or 'all'")
		listFlag   = flag.Bool("list", false, "list experiments and exit")
		domainLog  = flag.Int("domain", 22, "synthetic domain size as a power of two")
		densities  = flag.String("densities", "", "comma-separated list densities (default: paper's 1M/10M/100M/1B analogues)")
		ratio      = flag.Int("ratio", 1000, "|L2|/|L1| for the pair sweeps")
		realScale  = flag.Float64("scale", 1.0/64, "scale factor for the real-dataset workloads")
		sfs        = flag.String("sf", "1", "comma-separated SSB/TPCH scale factors")
		trials     = flag.Int("trials", 3, "timing repetitions (best is reported)")
		codecsFlag = flag.String("codecs", "", "comma-separated codec names (default: all 24)")
		summary    = flag.Bool("summary", false, "print per-setting winners after each table")
		format     = flag.String("format", "table", "output format: table | csv")
	)
	flag.Parse()

	if *listFlag {
		for _, e := range bench.Registry() {
			fmt.Printf("%-6s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg, err := buildConfig(*domainLog, *densities, *ratio, *realScale, *sfs, *trials, *codecsFlag, *format)
	if err != nil {
		fatal("%v", err)
	}

	var exps []bench.Experiment
	if *expFlag == "all" {
		exps = bench.Registry()
	} else {
		for _, id := range strings.Split(*expFlag, ",") {
			e, err := bench.ByID(strings.TrimSpace(id))
			if err != nil {
				fatal("%v (use -list to see experiments)", err)
			}
			exps = append(exps, e)
		}
	}

	for _, e := range exps {
		ms, err := e.Run(cfg)
		if err != nil {
			fatal("%s: %v", e.ID, err)
		}
		if *format == "csv" {
			bench.PrintCSV(os.Stdout, ms)
		} else {
			bench.PrintTable(os.Stdout, fmt.Sprintf("[%s] %s", e.ID, e.Title), ms)
		}
		if *summary {
			fmt.Println(bench.Summary(ms))
		}
	}
}

// buildConfig assembles the experiment configuration from flag values,
// rejecting any value that would fail only once an experiment runs.
func buildConfig(domainLog int, densities string, ratio int, realScale float64,
	sfs string, trials int, codecsFlag, format string) (bench.Config, error) {
	cfg := bench.Default()
	switch {
	case domainLog < 10 || domainLog > 30:
		return cfg, fmt.Errorf("domain 2^%d out of range [2^10, 2^30]", domainLog)
	case ratio < 1:
		return cfg, fmt.Errorf("ratio %d must be >= 1", ratio)
	case trials < 1:
		return cfg, fmt.Errorf("trials %d must be >= 1", trials)
	case realScale <= 0:
		return cfg, fmt.Errorf("scale %v must be > 0", realScale)
	case format != "table" && format != "csv":
		return cfg, fmt.Errorf("unknown format %q (table | csv)", format)
	}
	cfg.Domain = 1 << uint(domainLog)
	cfg.Ratio = ratio
	cfg.RealScale = realScale
	cfg.Trials = trials
	if densities != "" {
		cfg.Densities = nil
		for _, s := range strings.Split(densities, ",") {
			d, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil {
				return cfg, fmt.Errorf("bad density %q: %v", s, err)
			}
			if d <= 0 || d > 1 {
				return cfg, fmt.Errorf("density %v out of range (0, 1]", d)
			}
			cfg.Densities = append(cfg.Densities, d)
		}
	}
	cfg.SFs = nil
	for _, s := range strings.Split(sfs, ",") {
		sf, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return cfg, fmt.Errorf("bad scale factor %q: %v", s, err)
		}
		cfg.SFs = append(cfg.SFs, sf)
	}
	if codecsFlag != "" {
		for _, c := range strings.Split(codecsFlag, ",") {
			cfg.Codecs = append(cfg.Codecs, strings.TrimSpace(c))
		}
	}
	return cfg, nil
}

func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "bvbench: "+format+"\n", args...)
	os.Exit(1)
}
