// Package shard is the scale-out serving layer: doc-partitioned index
// shards behind a scatter-gather router. A corpus of D documents is
// partitioned round-robin across N shards — global document g lives on
// shard g mod N with local id g div N — so every shard holds an
// ordinary, self-contained index over a contiguous local id space and
// the router can map results back with one multiply-add. Round-robin
// (rather than contiguous ranges) keeps shard sizes within one
// document of each other regardless of corpus ordering, which is what
// makes the per-shard work of a scattered query ~1/N of the
// single-index work.
//
// The pieces:
//
//   - Partition/ShardOf/GlobalID: the partitioning function and its
//     inverse (shard.go);
//   - Map: the checksummed shard-map manifest written next to the
//     shard files by `bvindex -partition N` (shardmap.go);
//   - Backend: one shard replica — in-process over an index.Index or
//     remote over a bvserve /search endpoint (backend.go);
//   - Router: parallel scatter-gather with load-based pick-of-two
//     replica selection, adaptive hedged requests, exact merge
//     (ops.UnionMany for postings, ops.MergeRanked for top-k), and
//     per-shard degradation — a dead shard yields a documented
//     partial answer, never a failed query (router.go). A Router is
//     an index.Searcher and a server.Backend: cmd/bvrouter serves it
//     through the same server.Server front bvserve uses.
//
// Merge exactness rests on the partition being a disjoint cover with
// an order-preserving local→global map per shard: boolean results
// union under an N-way sorted merge into exactly the single-index
// list, and per-shard top-k with local-docid tie-breaks restricts the
// global (score desc, doc asc) order shard by shard, so merging the
// per-shard top-k lists and keeping the best k reproduces the global
// top-k bit for bit. The oracle pairing CheckSharded proves this
// against the single-index reference for every shard count × query
// mode.
package shard

import "fmt"

// MaxShards bounds partition counts everywhere (flag validation, map
// loading): wide enough for any realistic deployment, small enough
// that a corrupt manifest cannot demand absurd fan-out.
const MaxShards = 4096

// ShardOf returns the shard a global document id lives on under the
// round-robin partition into n shards.
func ShardOf(global uint32, n int) int { return int(global % uint32(n)) }

// LocalID returns a global document id's local id on its shard.
func LocalID(global uint32, n int) uint32 { return global / uint32(n) }

// GlobalID maps a shard-local document id back to the global id space.
// It is strictly increasing in local for a fixed shard, which is what
// keeps per-shard sorted results sorted after mapping.
func GlobalID(local uint32, shard, n int) uint32 { return local*uint32(n) + uint32(shard) }

// Partition splits documents round-robin into n per-shard slices,
// preserving relative order inside each shard (shard s gets global
// docs s, s+n, s+2n, ... as its local docs 0, 1, 2, ...). It refuses
// partitions that would create an empty shard: every shard must hold
// at least one document, so n must not exceed len(docs).
func Partition(docs []string, n int) ([][]string, error) {
	if n < 1 || n > MaxShards {
		return nil, fmt.Errorf("shard: partition count %d out of range [1,%d]", n, MaxShards)
	}
	if n > len(docs) {
		return nil, fmt.Errorf("shard: %d shards over %d documents would create empty shards", n, len(docs))
	}
	out := make([][]string, n)
	for s := range out {
		out[s] = make([]string, 0, (len(docs)+n-1-s)/n)
	}
	for g, d := range docs {
		out[g%n] = append(out[g%n], d)
	}
	return out, nil
}

// FileName is the canonical shard file name for shard i
// ("shard-0007.bvix"), written next to the shard-map manifest.
func FileName(i int) string { return fmt.Sprintf("shard-%04d.bvix", i) }
