package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/index"
)

// These tests run in a few seconds and start no process, so tier-1
// time is unchanged. What they guard is the benchmark itself: that the
// workloads have not drifted, that BENCHMARK.json and spec.go agree,
// and that the checker accepts right answers and rejects wrong ones.

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from spec.go")

// pinned are the SHA-256 of what the generators produce for the
// reference seed 1 and the held-out seed 2. If a change moves one of
// these it has changed the workload, and every number measured before
// it stops being comparable: re-baseline on purpose or not at all.
var pinned = map[string]string{
	"seed1/C300+boolean": "1144968eb30fad44a91918496956ae1f667d0112b3b385c4be1004b333b16b4a",
	"seed1/C300+topk":    "29c64e14c68a3d9e80fb2248d4013a89f19db22efe2551bfa05ddbfc3debfe1e",
	"seed1/C300+mixed":   "15b31729dcf5e20729c693e0a40b8e90f4d274eccf3ad35f64d81ec31296f975",
	"seed1/C100+mixed":   "7cb32a3de1c5ced5040187b70eb613c82ab8810c938f1f86f22d5bf424869181",
	"seed1/lists":        "a8f8305abe16b8f323395063ed6185c97521942a75841b38decdc795c76d5438",
	"seed2/C300+boolean": "b5383fbb51e4221e91774faac7e13daa163886f100a2212e1953c409c15aa440",
	"seed2/C300+topk":    "f7e4790a121dfa44b78b32d53c6bdcd74a2150204ae83694efb724b76bd84fee",
	"seed2/C300+mixed":   "6abc052c4733892726c80b87fe3c1f17bc43cefae72a7a2e4ce104f4ea2bb08b",
	"seed2/C100+mixed":   "bb8fbf3ce6f4bf1a9df95f0e3fe9c56b5f909a37fcfb071307771efa00808d83",
	"seed2/lists":        "f9d2ddd3301b3cf6b8dac7047402346dde3c6b75484b74ff2aba08ebf5ec9145",
}

func TestPinnedWorkloads(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			got := map[string]string{}
			big := genCorpus(seed, c300)
			bigTruth := buildTruth(big)
			for name, m := range map[string]mix{"boolean": mixBoolean, "topk": mixTopK, "mixed": mixMixed} {
				got["C300+"+name] = workloadHash(big, genQueries(seed, bigTruth, querySetSize, m))
			}
			small := genCorpus(seed, c100)
			got["C100+mixed"] = workloadHash(small, genQueries(seed, buildTruth(small), querySetSize, mixMixed))
			pairs, _ := genListPairs(seed)
			var lists [][]uint32
			for _, p := range pairs {
				lists = append(lists, p.a, p.b)
			}
			got["lists"] = listHash(lists...)
			for name, h := range got {
				key := fmt.Sprintf("seed%d/%s", seed, name)
				if pinned[key] != h {
					t.Errorf("%s: generator output changed\n got %s\nwant %s", key, h, pinned[key])
				}
			}
		})
	}
}

// benchmarkJSON mirrors the keys the driver's contract allows.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []jsonWorkload `json:"workloads"`
	EndToEnd   []jsonEndToEnd `json:"end_to_end"`
	PerLayer   []jsonPerLayer `json:"per_layer"`
}

type jsonWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type jsonEndToEnd struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type jsonPerLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

func specJSON() benchmarkJSON {
	spec := benchmarkJSON{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: defaultSeconds}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, jsonWorkload{w.name, w.why})
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, jsonEndToEnd{m.name, m.unit, better(m.higher), m.bound})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, jsonPerLayer{m.name, m.unit, better(m.higher)})
	}
	return spec
}

// TestBenchmarkJSON holds BENCHMARK.json to spec.go (go test -update
// rewrites it) and spec.go to the limits of the driver's contract.
func TestBenchmarkJSON(t *testing.T) {
	path := filepath.Join("..", "BENCHMARK.json")
	want, err := json.MarshalIndent(specJSON(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("BENCHMARK.json differs from spec.go; run: go test ./benchmark -run TestBenchmarkJSON -update")
	}

	if len(workloads) != 5 {
		t.Errorf("%d workloads, want 5", len(workloads))
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract", len(perLayer), len(endToEnd))
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if seen[n] || n == "" || len(n) > 64 || strings.Trim(n, "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-") != "" {
			t.Errorf("%s name %q is repeated or outside the contract", kind, n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name("workload", w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: why is %d characters", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		name("metric", m.name)
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
		hasSetup = hasSetup || m.name == "setup_s" && m.unit == "s" && !m.higher
	}
	if !hasSetup {
		t.Error("end-to-end metrics lack setup_s in s, lower is better")
	}
	for _, m := range perLayer {
		name("metric", m.name)
		if len(m.unit) > 16 {
			t.Errorf("%s: unit %q too long", m.name, m.unit)
		}
	}
}

func TestCheckSearch(t *testing.T) {
	docs := []uint32{3, 17, 4000, 299999}
	q := query{mode: "and", wantN: len(docs), wantH: hashDocs(hashSeed, docs)}
	q.wantCRC = crcOfDocs(docs)
	cases := []struct {
		name, body string
		ok         bool
	}{
		{"exact", `{"query":["t0001"],"mode":"and","docs":[3,17,4000,299999],"matches":4}`, true},
		{"router", `{"query":["t0001"],"mode":"and","docs":[3,17,4000,299999],"matches":4,"partial":false,"shards":2}`, true},
		{"spaced", "{\"mode\":\"and\",\"docs\":[3, 17,\n 4000, 299999 ],\"matches\":4}", true},
		{"reordered", `{"query":["t0001"],"mode":"and","docs":[17,3,4000,299999],"matches":4}`, false},
		{"missing one", `{"query":["t0001"],"mode":"and","docs":[3,17,4000],"matches":3}`, false},
		{"count lies", `{"query":["t0001"],"mode":"and","docs":[3,17,4000,299999],"matches":5}`, false},
		{"partial", `{"query":["t0001"],"mode":"and","docs":[3,17,4000,299999],"matches":4,"partial":true,"degradedShards":[1],"shards":2}`, false},
		{"truncated", `{"query":["t0001"],"mode":"and","docs":[3,17,4000,2999`, false},
		{"error", `{"error":"boom"}`, false},
	}
	for _, c := range cases {
		if got := checkSearch([]byte(c.body), &q); got != c.ok {
			t.Errorf("%s: checkSearch = %v, want %v", c.name, got, c.ok)
		}
	}

	empty := query{mode: "and"}
	if !checkSearch([]byte(`{"query":["x"],"mode":"and","matches":0}`), &empty) {
		t.Error("empty answer rejected")
	}
	if checkSearch([]byte(`{"query":["x"],"mode":"and","docs":[1],"matches":0}`), &empty) {
		t.Error("docs accepted where none are expected")
	}

	ranked := query{mode: "topk", k: 2, wantN: 2, ranked: []rankedDoc{{9, 12}, {4, 7}}}
	for body, ok := range map[string]bool{
		`{"query":["a"],"mode":"topk","ranked":[{"Doc":9,"Score":12},{"Doc":4,"Score":7}],"matches":2,"topk":{"mode":"bmw"}}`: true,
		`{"query":["a"],"mode":"topk","ranked":[{"Doc":4,"Score":7},{"Doc":9,"Score":12}],"matches":2}`:                       false,
		`{"query":["a"],"mode":"topk","ranked":[{"Doc":9,"Score":12},{"Doc":4,"Score":8}],"matches":2}`:                       false,
		`{"query":["a"],"mode":"topk","ranked":[{"Doc":9,"Score":12}],"matches":2}`:                                           false,
		`{"query":["a"],"mode":"topk","ranked":[{"Doc":9,"Score":12},{"Doc":4,"Score":7},{"Doc":5,"Score":1}],"matches":2}`:   false,
	} {
		if got := checkSearch([]byte(body), &ranked); got != ok {
			t.Errorf("ranked %s: checkSearch = %v, want %v", body, got, ok)
		}
	}
}

// TestTruthAgainstIndex cross-checks the naive reference and the real
// index on a small collection. The reference stays independent — it is
// never computed from the index — but if the two disagreed here the
// benchmark would report every answer as wrong, so find out early. It
// also pins the ranking rule: Σ min(freq,255), ties by ascending docid.
func TestTruthAgainstIndex(t *testing.T) {
	c := genCorpus(7, corpusShape{"tiny", 3000, 200})
	tr := buildTruth(c)
	qs := genQueries(7, tr, 300, mixMixed)
	tr.fill(qs)
	b := index.NewAutoBuilder()
	var line []byte
	for d := range c.docs {
		line = c.appendDoc(line[:0], d)
		b.AddDocument(string(line))
	}
	idx, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i := range qs {
		q := &qs[i]
		switch q.mode {
		case "and", "or":
			docs, err := idx.Conjunctive(q.names...)
			if q.mode == "or" {
				docs, err = idx.Disjunctive(q.names...)
			}
			if err != nil || len(docs) != q.wantN || hashDocs(hashSeed, docs) != q.wantH || crcOfDocs(docs) != q.wantCRC {
				t.Fatalf("%s: index and naive truth disagree (%d docs, want %d, err %v)", q.url, len(docs), q.wantN, err)
			}
		case "topk":
			ranked, err := idx.TopK(q.k, q.names...)
			if err != nil || !sameRanked(ranked, q.ranked) {
				t.Fatalf("%s: ranking disagrees\n got %v\nwant %v", q.url, ranked, q.ranked)
			}
		}
	}
}

func TestListGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dist := range listDists {
		for _, n := range []int{sparseLen, denseLen} {
			l := genList(rng, dist, n)
			if len(l) < n*8/10 || len(l) > n*12/10 {
				t.Errorf("%s: %d values, want about %d", dist, len(l), n)
			}
			for i := 1; i < len(l); i++ {
				if l[i] <= l[i-1] {
					t.Fatalf("%s: not strictly increasing at %d", dist, i)
				}
			}
			if l[len(l)-1] >= listDomain {
				t.Errorf("%s: value %d outside the domain", dist, l[len(l)-1])
			}
		}
	}
}

func TestPercentileAndSplitName(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if percentile(v, 0.5) != 5 || percentile(v, 0.95) != 10 || percentile(v, 0.1) != 1 {
		t.Errorf("percentile: got %v %v %v", percentile(v, 0.5), percentile(v, 0.95), percentile(v, 0.1))
	}
	for name, want := range map[string][3]string{
		"setup_s":                   {"e2e", "", "setup_s"},
		"ops.intersect_us":          {"ops", "", "intersect_us"},
		"bitmap.Roaring-Run.and_us": {"bitmap", "Roaring-Run", "and_us"},
	} {
		if a, c, m := splitName(name); [3]string{a, c, m} != want {
			t.Errorf("splitName(%q) = %q %q %q", name, a, c, m)
		}
	}
}
