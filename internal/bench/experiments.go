package bench

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/gen"
	"repro/internal/intlist"
	"repro/internal/ops"
)

// distributions swept by the synthetic experiments (§5).
var distributions = []string{"uniform", "zipf", "markov"}

// synthetic generates one list of the requested distribution.
func synthetic(dist string, n int, domain uint32, seed int64) []uint32 {
	switch dist {
	case "uniform":
		return gen.Uniform(n, domain, seed)
	case "zipf":
		return gen.Zipf(n, domain, 1.0, seed)
	case "markov":
		return gen.MarkovN(n, domain, 8, seed)
	default:
		panic("bench: unknown distribution " + dist)
	}
}

// fig3 reproduces Figure 3: decompression time and space across
// distributions and list densities.
func fig3() Experiment {
	return Experiment{
		ID:    "fig3",
		Title: "Figure 3: decompression time and space vs list size",
		Run: func(cfg Config) ([]Measurement, error) {
			cs, err := selected(cfg)
			if err != nil {
				return nil, err
			}
			var ms []Measurement
			for _, dist := range distributions {
				for di, d := range cfg.Densities {
					n := int(d * float64(cfg.Domain))
					list := synthetic(dist, n, cfg.Domain, int64(100+di))
					setting := fmt.Sprintf("%s/%s", dist, DensityName(d))
					for _, c := range cs {
						p, err := c.Compress(list)
						if err != nil {
							return nil, err
						}
						var sink []uint32
						t := timeIt(cfg.Trials, func() { sink = p.Decompress() })
						runtime.KeepAlive(sink)
						ms = append(ms, Measurement{
							Experiment: "fig3", Setting: setting, Method: c.Name(),
							Op: "decompress", SpaceBytes: p.SizeBytes(), TimeMS: t,
						})
					}
				}
			}
			return ms, nil
		},
	}
}

// pairSweep runs a two-list op sweep (Tables 1 and 2).
func pairSweep(id, title, op string) Experiment {
	return Experiment{
		ID:    id,
		Title: title,
		Run: func(cfg Config) ([]Measurement, error) {
			cs, err := selected(cfg)
			if err != nil {
				return nil, err
			}
			plan := ops.And(ops.Leaf(0), ops.Leaf(1))
			if op == "or" {
				plan = ops.Or(ops.Leaf(0), ops.Leaf(1))
			}
			var ms []Measurement
			for _, dist := range distributions {
				for di, d := range cfg.Densities {
					n2 := int(d * float64(cfg.Domain))
					n1 := n2 / cfg.Ratio
					if n1 < 1 {
						n1 = 1
					}
					l1 := synthetic(dist, n1, cfg.Domain, int64(200+di))
					l2 := synthetic(dist, n2, cfg.Domain, int64(300+di))
					setting := fmt.Sprintf("%s/%s", dist, DensityName(d))
					for _, c := range cs {
						ps, err := compressSet(c, [][]uint32{l1, l2})
						if err != nil {
							return nil, err
						}
						ms, err = measureQuery(ms, cfg, id, setting, c, ps, plan, op)
						if err != nil {
							return nil, err
						}
					}
				}
			}
			return ms, nil
		},
	}
}

func tab1() Experiment {
	return pairSweep("tab1", "Table 1: intersection time, |L2|/|L1|=1000, varying |L2|", "and")
}

func tab2() Experiment {
	return pairSweep("tab2", "Table 2: union time, |L2|/|L1|=1000, varying |L2|", "or")
}

// workloadExperiment measures every query of a Workload under every
// codec; space is the total of the lists the query touches.
func workloadExperiment(id, title string, build func(cfg Config) []datasets.Workload) Experiment {
	return Experiment{
		ID:    id,
		Title: title,
		Run: func(cfg Config) ([]Measurement, error) {
			cs, err := selected(cfg)
			if err != nil {
				return nil, err
			}
			var ms []Measurement
			for _, w := range build(cfg) {
				for _, c := range cs {
					ps, err := compressSet(c, w.Lists)
					if err != nil {
						return nil, err
					}
					for _, q := range w.Queries {
						leaves := planLeaves(q.Plan)
						qps := make([]core.Posting, 0, len(leaves))
						for _, li := range leaves {
							qps = append(qps, ps[li])
						}
						setting := w.Name + "/" + q.Name
						var sink []uint32
						t := timeIt(cfg.Trials, func() { sink, err = ops.Eval(q.Plan, ps) })
						if err != nil {
							return nil, err
						}
						runtime.KeepAlive(sink)
						ms = append(ms, Measurement{
							Experiment: id, Setting: setting, Method: c.Name(),
							Op: "query", SpaceBytes: sizeOf(qps), TimeMS: t,
						})
					}
				}
			}
			return ms, nil
		},
	}
}

// planLeaves collects the posting indices referenced by a plan.
func planLeaves(e ops.Expr) []int {
	if e.Op == ops.OpLeaf {
		return []int{e.Leaf}
	}
	var out []int
	for _, a := range e.Args {
		out = append(out, planLeaves(a)...)
	}
	return out
}

func fig4() Experiment {
	return workloadExperiment("fig4", "Figure 4: SSB Q1.1/Q2.1/Q3.4/Q4.1",
		func(cfg Config) []datasets.Workload {
			var ws []datasets.Workload
			for _, sf := range cfg.SFs {
				ws = append(ws, datasets.SSB(sf, cfg.RealScale))
			}
			return ws
		})
}

func fig5() Experiment {
	return workloadExperiment("fig5", "Figure 5: TPCH Q6/Q12",
		func(cfg Config) []datasets.Workload {
			var ws []datasets.Workload
			for _, sf := range cfg.SFs {
				ws = append(ws, datasets.TPCH(sf, cfg.RealScale))
			}
			return ws
		})
}

// fig6 reproduces Figure 6: Web data, average intersection and union
// time over the query log.
func fig6() Experiment {
	return Experiment{
		ID:    "fig6",
		Title: "Figure 6: Web data, average AND/OR over the query log",
		Run: func(cfg Config) ([]Measurement, error) {
			cs, err := selected(cfg)
			if err != nil {
				return nil, err
			}
			w := datasets.Web(cfg.RealScale, cfg.WebTerms, cfg.WebQueries)
			var ms []Measurement
			for _, c := range cs {
				ps, err := compressSet(c, w.Lists)
				if err != nil {
					return nil, err
				}
				total := map[string]float64{}
				count := map[string]int{}
				for _, q := range w.Queries {
					var sink []uint32
					t := timeIt(1, func() { sink, err = ops.Eval(q.Plan, ps) })
					if err != nil {
						return nil, err
					}
					runtime.KeepAlive(sink)
					total[q.Name] += t
					count[q.Name]++
				}
				for _, op := range []string{"and", "or"} {
					ms = append(ms, Measurement{
						Experiment: "fig6", Setting: "Web/" + op, Method: c.Name(),
						Op: op, SpaceBytes: sizeOf(ps),
						TimeMS: total[op] / float64(count[op]),
					})
				}
			}
			return ms, nil
		},
	}
}

// fig7 reproduces Figure 7: the effect of skip pointers on intersection
// for five list codecs, uniform and zipf.
func fig7() Experiment {
	return Experiment{
		ID:    "fig7",
		Title: "Figure 7: skip pointers on vs off (intersection)",
		Run: func(cfg Config) ([]Measurement, error) {
			type variant struct {
				name string
				with core.Codec
				sans core.Codec
			}
			variants := []variant{
				{"VB", intlist.NewBlocked(intlist.VBBlock()), intlist.NewBlockedNoSkips(intlist.VBBlock())},
				{"PforDelta", intlist.NewBlocked(intlist.PforDeltaBlock()), intlist.NewBlockedNoSkips(intlist.PforDeltaBlock())},
				{"SIMDPforDelta", intlist.NewBlocked(intlist.SIMDPforDeltaBlock()), intlist.NewBlockedNoSkips(intlist.SIMDPforDeltaBlock())},
				{"SIMDPforDelta*", intlist.NewBlocked(intlist.SIMDPforDeltaStarBlock()), intlist.NewBlockedNoSkips(intlist.SIMDPforDeltaStarBlock())},
				{"GroupVB", intlist.NewBlocked(intlist.GroupVBBlock()), intlist.NewBlockedNoSkips(intlist.GroupVBBlock())},
			}
			// |L2| at the paper's 10M density analogue, ratio 1000.
			d := 0.00466
			if len(cfg.Densities) > 1 {
				d = cfg.Densities[1]
			}
			n2 := int(d * float64(cfg.Domain))
			n1 := n2 / cfg.Ratio
			if n1 < 1 {
				n1 = 1
			}
			plan := ops.And(ops.Leaf(0), ops.Leaf(1))
			var ms []Measurement
			for _, dist := range []string{"uniform", "zipf"} {
				l1 := synthetic(dist, n1, cfg.Domain, 400)
				l2 := synthetic(dist, n2, cfg.Domain, 401)
				for _, v := range variants {
					for _, mode := range []struct {
						label string
						c     core.Codec
					}{{"with-skips", v.with}, {"no-skips", v.sans}} {
						ps, err := compressSet(mode.c, [][]uint32{l1, l2})
						if err != nil {
							return nil, err
						}
						var sink []uint32
						var evalErr error
						t := timeIt(cfg.Trials, func() { sink, evalErr = ops.Eval(plan, ps) })
						if evalErr != nil {
							return nil, evalErr
						}
						runtime.KeepAlive(sink)
						ms = append(ms, Measurement{
							Experiment: "fig7",
							Setting:    dist + "/" + mode.label,
							Method:     v.name, Op: "and",
							SpaceBytes: sizeOf(ps), TimeMS: t,
						})
					}
				}
			}
			return ms, nil
		},
	}
}

// tab3 reproduces Table 3: intersection time at list size ratios 1 and
// 10 (merge regime), |L2| fixed at the 100M-density analogue.
func tab3() Experiment {
	return Experiment{
		ID:    "tab3",
		Title: "Table 3: intersection time at ratios 1 and 10",
		Run: func(cfg Config) ([]Measurement, error) {
			cs, err := selected(cfg)
			if err != nil {
				return nil, err
			}
			d := cfg.Densities[len(cfg.Densities)-1]
			if len(cfg.Densities) >= 2 {
				d = cfg.Densities[len(cfg.Densities)-2]
			}
			n2 := int(d * float64(cfg.Domain))
			plan := ops.And(ops.Leaf(0), ops.Leaf(1))
			var ms []Measurement
			for _, dist := range distributions {
				for _, theta := range []int{1, 10} {
					n1 := n2 / theta
					l1 := synthetic(dist, n1, cfg.Domain, 500)
					l2 := synthetic(dist, n2, cfg.Domain, 501)
					setting := fmt.Sprintf("%s/theta=%d", dist, theta)
					for _, c := range cs {
						ps, err := compressSet(c, [][]uint32{l1, l2})
						if err != nil {
							return nil, err
						}
						ms, err = measureQuery(ms, cfg, "tab3", setting, c, ps, plan, "and")
						if err != nil {
							return nil, err
						}
					}
				}
			}
			return ms, nil
		},
	}
}

func fig8() Experiment {
	return workloadExperiment("fig8", "Figure 8: Graph (Twitter adjacency) Q1/Q2",
		func(cfg Config) []datasets.Workload {
			return []datasets.Workload{datasets.Graph(cfg.RealScale)}
		})
}

func fig9() Experiment {
	return workloadExperiment("fig9", "Figure 9: KDDCup Q1/Q2",
		func(cfg Config) []datasets.Workload {
			return []datasets.Workload{datasets.KDDCup(cfg.RealScale)}
		})
}

func fig10() Experiment {
	return workloadExperiment("fig10", "Figure 10: Berkeleyearth Q1/Q2",
		func(cfg Config) []datasets.Workload {
			return []datasets.Workload{datasets.Berkeleyearth(cfg.RealScale)}
		})
}

func fig11() Experiment {
	return workloadExperiment("fig11", "Figure 11: Higgs Q1/Q2",
		func(cfg Config) []datasets.Workload {
			return []datasets.Workload{datasets.Higgs(cfg.RealScale)}
		})
}

func fig12() Experiment {
	return workloadExperiment("fig12", "Figure 12: Kegg Q1/Q2",
		func(cfg Config) []datasets.Workload {
			return []datasets.Workload{datasets.Kegg(cfg.RealScale)}
		})
}
